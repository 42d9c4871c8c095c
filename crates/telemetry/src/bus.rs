//! An in-process, topic-based message bus: the Kafka stand-in.
//!
//! green-ACCESS ships telemetry from endpoints to the central monitor over
//! Kafka. Here, endpoints and monitors live in one process, so the bus is a
//! map from topic name to a fan-out list of unbounded `std::sync::mpsc`
//! channels. Semantics mirror what the platform relies on from Kafka:
//! per-topic ordering, multiple independent consumers, and decoupled
//! producer/consumer lifetimes.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock};

/// A topic-based publish/subscribe bus carrying messages of type `M`.
///
/// Cloning the bus clones a handle to the same broker.
#[derive(Clone)]
pub struct Bus<M: Clone + Send + 'static> {
    topics: Arc<RwLock<HashMap<String, Vec<Sender<M>>>>>,
}

impl<M: Clone + Send + 'static> Default for Bus<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + Send + 'static> Bus<M> {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Bus {
            topics: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Subscribes to `topic`, receiving every message published after this
    /// call. Each subscription gets its own queue (Kafka consumer-group of
    /// one).
    pub fn subscribe(&self, topic: &str) -> Subscription<M> {
        let (tx, rx) = channel();
        self.topics
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(topic.to_string())
            .or_default()
            .push(tx);
        Subscription { rx }
    }

    /// Publishes `message` to every current subscriber of `topic`. Dropped
    /// subscribers are pruned lazily. Returns the number of live consumers
    /// that received the message.
    pub fn publish(&self, topic: &str, message: M) -> usize {
        let mut guard = self.topics.write().unwrap_or_else(PoisonError::into_inner);
        let Some(senders) = guard.get_mut(topic) else {
            return 0;
        };
        senders.retain(|tx| tx.send(message.clone()).is_ok());
        senders.len()
    }

    /// Number of live subscribers on a topic.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.topics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(topic)
            .map(|s| s.len())
            .unwrap_or(0)
    }
}

/// A handle to one subscription's queue.
pub struct Subscription<M> {
    rx: Receiver<M>,
}

impl<M> Subscription<M> {
    /// Blocks until the next message or all publishers hang up.
    pub fn recv(&self) -> Option<M> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll: `None` when nothing is queued.
    pub fn try_recv(&self) -> Option<M> {
        self.rx.try_recv().ok()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<M> {
        let mut out = Vec::new();
        while let Some(m) = self.try_recv() {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_to_all_subscribers() {
        let bus: Bus<u32> = Bus::new();
        let a = bus.subscribe("t");
        let b = bus.subscribe("t");
        assert_eq!(bus.publish("t", 7), 2);
        assert_eq!(a.recv(), Some(7));
        assert_eq!(b.recv(), Some(7));
    }

    #[test]
    fn topics_are_isolated() {
        let bus: Bus<&'static str> = Bus::new();
        let a = bus.subscribe("alpha");
        let b = bus.subscribe("beta");
        bus.publish("alpha", "for-a");
        assert_eq!(a.try_recv(), Some("for-a"));
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn publish_without_subscribers_is_dropped() {
        let bus: Bus<u32> = Bus::new();
        assert_eq!(bus.publish("nobody", 1), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus: Bus<u32> = Bus::new();
        let a = bus.subscribe("t");
        {
            let _b = bus.subscribe("t");
        }
        // _b dropped: next publish prunes it.
        assert_eq!(bus.publish("t", 1), 1);
        assert_eq!(bus.subscriber_count("t"), 1);
        assert_eq!(a.recv(), Some(1));
    }

    #[test]
    fn preserves_order_per_topic() {
        let bus: Bus<u32> = Bus::new();
        let sub = bus.subscribe("t");
        for i in 0..100 {
            bus.publish("t", i);
        }
        let got = sub.drain();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn works_across_threads() {
        let bus: Bus<u64> = Bus::new();
        let sub = bus.subscribe("t");
        let producer = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    bus.publish("t", i);
                }
            })
        };
        producer.join().unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }
}
