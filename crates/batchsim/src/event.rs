//! The simulator's event queue.
//!
//! A run's events are its trace's arrivals and the events the run
//! schedules itself: finishes and shifted re-arrivals. [`EventQueue`]
//! reads the arrivals straight from the trace, in arrival order, and
//! keeps only the scheduled events in a binary heap, which therefore
//! never holds more than the running jobs plus the delayed re-arrivals.
//! Pop order is pinned bit-for-bit to one `BinaryHeap` over
//! `(time, seq)` into which every arrival was pushed first, in trace
//! order: equal timestamps break ties by insertion order, so at equal
//! times an arrival pops before a scheduled event.
//! `tests/event_queue_props.rs` asserts this over random and adversarial
//! streams, and `tests/soa_equivalence.rs` pins it end-to-end against
//! pre-change run digests.

use green_units::TimePoint;
use green_workload::Job;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Discrete simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job arrives and is routed by the policy (payload: job index).
    Arrival(usize),
    /// A running job finishes (payload: machine index, job index).
    Finish(usize, usize),
}

/// A timestamped event. Ties break by sequence number, so insertion order
/// is deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub at: TimePoint,
    /// Monotone tie-breaker.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .as_secs()
            .total_cmp(&self.at.as_secs())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The storage an [`EventQueue`] borrows, kept between runs so that a
/// reused arena allocates none of it again.
#[derive(Debug, Default)]
pub struct EventBuffers {
    /// Pending finishes and re-arrivals.
    heap: BinaryHeap<Event>,
    /// The jobs' indices in arrival order, filled only for a trace whose
    /// jobs are not sorted by arrival.
    order: Vec<usize>,
}

/// Earliest-first events of one run: the trace's arrivals, read in
/// arrival order, merged with a heap of the events the run schedules.
///
/// An arrival takes its job index as its sequence number and a pushed
/// event the next number from `jobs.len()` on, the numbers each would
/// have taken had every arrival been pushed first. Arrivals leave the
/// trace in `(time, index)` order and the heap in `(time, seq)` order,
/// so popping the earlier head of the two, the arrival on a tie,
/// reproduces the single heap's `(time, seq)` order exactly.
#[derive(Debug)]
pub struct EventQueue<'a> {
    jobs: &'a [Job],
    /// `jobs`' indices in arrival order; empty when `jobs` is sorted.
    order: &'a [usize],
    /// Arrivals popped so far.
    next: usize,
    heap: &'a mut BinaryHeap<Event>,
    next_seq: u64,
}

impl<'a> EventQueue<'a> {
    /// A queue holding every arrival of `jobs` and nothing else, built in
    /// `buffers` (whose previous contents are discarded).
    pub fn new(jobs: &'a [Job], buffers: &'a mut EventBuffers) -> EventQueue<'a> {
        let EventBuffers { heap, order } = buffers;
        heap.clear();
        order.clear();
        let arrival = |job: usize| jobs[job].arrival.as_secs();
        if (1..jobs.len()).any(|j| arrival(j - 1).total_cmp(&arrival(j)).is_gt()) {
            // Stable, so equal arrivals keep trace order.
            order.extend(0..jobs.len());
            order.sort_by(|&a, &b| arrival(a).total_cmp(&arrival(b)));
        }
        EventQueue {
            jobs,
            order,
            next: 0,
            heap,
            next_seq: jobs.len() as u64,
        }
    }

    /// Schedules an event.
    pub fn push(&mut self, at: TimePoint, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let job = if self.order.is_empty() {
            Some(self.next).filter(|&job| job < self.jobs.len())
        } else {
            self.order.get(self.next).copied()
        };
        let Some(job) = job else {
            return self.heap.pop();
        };
        let at = self.jobs[job].arrival;
        // Every pushed seq is above every arrival's, so the heap goes
        // first only when strictly earlier.
        if let Some(top) = self.heap.peek() {
            if top.at.as_secs().total_cmp(&at.as_secs()).is_lt() {
                return self.heap.pop();
            }
        }
        self.next += 1;
        Some(Event {
            at,
            seq: job as u64,
            kind: EventKind::Arrival(job),
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.jobs.len() - self.next + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival_ids(q: &mut EventQueue) -> Vec<usize> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival(i) => i,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        q.push(TimePoint::from_secs(5.0), EventKind::Arrival(1));
        q.push(TimePoint::from_secs(1.0), EventKind::Arrival(2));
        q.push(TimePoint::from_secs(3.0), EventKind::Finish(0, 3));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_secs())
            .collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        let t = TimePoint::from_secs(2.0);
        q.push(t, EventKind::Arrival(10));
        q.push(t, EventKind::Arrival(20));
        q.push(t, EventKind::Arrival(30));
        assert_eq!(arrival_ids(&mut q), vec![10, 20, 30]);
    }

    #[test]
    fn len_and_empty() {
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        assert!(q.is_empty());
        q.push(TimePoint::EPOCH, EventKind::Arrival(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn reset_reuses_allocations_and_restarts_sequences() {
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        for i in 0..100 {
            q.push(
                TimePoint::from_secs(i as f64 * 500.0),
                EventKind::Arrival(i),
            );
        }
        for _ in 0..60 {
            q.pop();
        }
        let capacity = buffers.heap.capacity();
        // A new queue over the same buffers starts empty, keeps the
        // heap's allocation, and numbers its pushes from zero again.
        let mut q = EventQueue::new(&[], &mut buffers);
        assert!(q.is_empty());
        let t = TimePoint::from_secs(7.0);
        q.push(t, EventKind::Arrival(1));
        q.push(t, EventKind::Arrival(2));
        let first = q.pop().unwrap();
        assert_eq!((first.seq, first.kind), (0, EventKind::Arrival(1)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(2)));
        assert_eq!(buffers.heap.capacity(), capacity);
    }

    #[test]
    fn finite_pushes_after_draining_beat_parked_non_finite_events() {
        // Drain to the point where only +inf/NaN events remain, pop one,
        // then push a *finite* event — the finite one must pop before
        // the remaining non-finite event, exactly as the reference heap
        // orders them.
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        q.push(TimePoint::from_secs(f64::INFINITY), EventKind::Arrival(0));
        q.push(TimePoint::from_secs(f64::INFINITY), EventKind::Arrival(1));
        q.push(TimePoint::from_secs(5.0), EventKind::Arrival(2));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(2)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(0)));
        q.push(TimePoint::from_secs(7.0), EventKind::Arrival(3));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(3)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival(1)));
        assert!(q.pop().is_none());
        // NaN sorts after +inf under `total_cmp`, a negative NaN before
        // everything; equal classes keep insertion order.
        let nan = f64::NAN.copysign(1.0);
        q.push(TimePoint::from_secs(nan), EventKind::Arrival(10));
        q.push(TimePoint::from_secs(f64::INFINITY), EventKind::Arrival(11));
        q.push(TimePoint::from_secs(-nan), EventKind::Arrival(12));
        q.push(TimePoint::from_secs(f64::INFINITY), EventKind::Arrival(13));
        assert_eq!(arrival_ids(&mut q), vec![12, 11, 13, 10]);
    }

    #[test]
    fn negative_times_pop_first() {
        let mut buffers = EventBuffers::default();
        let mut q = EventQueue::new(&[], &mut buffers);
        q.push(TimePoint::from_secs(3.0), EventKind::Arrival(0));
        q.push(TimePoint::from_secs(-2.0), EventKind::Arrival(1));
        q.push(TimePoint::from_secs(0.0), EventKind::Arrival(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_secs())
            .collect();
        assert_eq!(order, vec![-2.0, 0.0, 3.0]);
    }
}
