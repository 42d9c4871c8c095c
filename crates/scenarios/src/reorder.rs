//! In-order commit over out-of-order parallel completions.
//!
//! The sweep engine's byte-identity contract says a grid's output never
//! depends on how many workers ran it. Workers finish cells in
//! scheduler order, but rows must leave the process in expansion order;
//! [`ReorderBuffer`] is the small state machine that parks early
//! arrivals and hands every item to the commit callback exactly once,
//! strictly in index order.
//!
//! Left alone, that buffer is unbounded: one slow cell at the commit
//! watermark lets the other workers race ahead through the whole grid,
//! parking everything they finish. [`ClaimWindow`] closes the loop — a
//! worker may not *claim* index `i` until every index below `i -
//! window + 1` has been offered downstream, so the parked set can never
//! outgrow the window. Liveness holds for any `window >= 1`: the
//! smallest claimed-but-unfinished index is always inside the window
//! (everything below it has, by claim order, already been offered), so
//! the worker holding it is running, and finishing it advances the
//! prefix that admits the others.
//!
//! Both pieces are pure scheduling: they reorder *when* work happens,
//! never *what* is committed, which is what keeps `--threads N` output
//! byte-identical to `--threads 1` (`tests/parallel_golden.rs`,
//! `tests/reorder_props.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, PoisonError};

/// Parks out-of-order items and commits them strictly in index order.
///
/// Indices form a dense sequence starting at 0; each must be offered
/// exactly once. The buffer never holds an item whose index is below
/// the commit watermark — it is handed to the callback (and dropped
/// from the buffer) the moment it becomes contiguous.
#[derive(Debug, Default)]
pub struct ReorderBuffer<T> {
    /// Early arrivals, keyed by index, all `>= next`.
    parked: BTreeMap<usize, T>,
    /// The commit watermark: every index below has been committed.
    next: usize,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer committing from index 0.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            parked: BTreeMap::new(),
            next: 0,
        }
    }

    /// Accepts `item` for `index`, then hands every now-contiguous item
    /// from the watermark up to `commit`, strictly in index order.
    /// Offering an index twice (committed or still parked) panics: each
    /// index is produced by exactly one worker.
    pub fn offer(&mut self, index: usize, item: T, mut commit: impl FnMut(usize, T)) {
        assert!(
            index >= self.next,
            "index {index} was already committed (watermark {})",
            self.next
        );
        let clash = self.parked.insert(index, item);
        assert!(clash.is_none(), "index {index} offered twice");
        while let Some(item) = self.parked.remove(&self.next) {
            let committed = self.next;
            self.next += 1;
            commit(committed, item);
        }
    }

    /// The commit watermark: the number of items committed so far, all
    /// of them the contiguous prefix `0..committed()`.
    pub fn committed(&self) -> usize {
        self.next
    }

    /// Items parked above the watermark, waiting for a gap to fill.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// True when nothing is parked (every offered item was committed).
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }
}

/// The claim throttle bounding a [`ReorderBuffer`]: workers block in
/// [`admit`](ClaimWindow::admit) until their claimed index is within
/// `window` of the contiguously-offered prefix.
#[derive(Debug)]
pub struct ClaimWindow {
    window: usize,
    state: Mutex<WindowState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct WindowState {
    /// Every index below this has been offered downstream.
    prefix: usize,
    /// Offered indices at or above `prefix`, awaiting the gap to fill.
    ahead: BTreeSet<usize>,
    /// Claimants blocked in [`ClaimWindow::admit`].
    waiting: usize,
}

impl ClaimWindow {
    /// A window admitting indices `< offered_prefix + window`.
    pub fn new(window: usize) -> ClaimWindow {
        assert!(window >= 1, "a zero window admits nothing");
        ClaimWindow {
            window,
            state: Mutex::new(WindowState::default()),
            ready: Condvar::new(),
        }
    }

    /// Blocks until `index` is inside the window. Locks are recovered
    /// from poisoning: a worker dying (injected crash) must cascade into
    /// the other workers' own failure paths, not wedge them here.
    pub fn admit(&self, index: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while index >= state.prefix + self.window {
            state.waiting += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Records that `index`'s result was offered downstream, advancing
    /// the prefix over any contiguous run it completes and waking
    /// blocked claimants. With none blocked it skips the wake-up, a
    /// system call per cell on a lone worker, which never blocks.
    pub fn complete(&self, index: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.ahead.insert(index);
        let before = state.prefix;
        loop {
            let prefix = state.prefix;
            if !state.ahead.remove(&prefix) {
                break;
            }
            state.prefix += 1;
        }
        if state.prefix != before && state.waiting > 0 {
            drop(state);
            self.ready.notify_all();
        }
    }

    /// A guard completing `index` on drop — panic-safe bookkeeping, so
    /// a worker killed mid-commit (chaos, or a real bug) still releases
    /// the indices behind it instead of deadlocking the pool.
    pub fn completing(&self, index: usize) -> CompletionGuard<'_> {
        CompletionGuard {
            window: self,
            index,
        }
    }
}

/// See [`ClaimWindow::completing`].
#[derive(Debug)]
pub struct CompletionGuard<'a> {
    window: &'a ClaimWindow,
    index: usize,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.window.complete(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_in_order_whatever_the_arrival_order() {
        let mut buffer = ReorderBuffer::new();
        let mut committed = Vec::new();
        for index in [3, 1, 0, 4, 2, 5] {
            buffer.offer(index, index * 10, |i, v| committed.push((i, v)));
        }
        assert_eq!(
            committed,
            vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]
        );
        assert_eq!(buffer.committed(), 6);
        assert!(buffer.is_empty());
    }

    #[test]
    fn parked_is_bounded_by_the_gap() {
        let mut buffer = ReorderBuffer::new();
        for index in 1..=4 {
            buffer.offer(index, (), |_, _| panic!("gap at 0 still open"));
        }
        assert_eq!(buffer.parked(), 4);
        let mut committed = 0;
        buffer.offer(0, (), |_, _| committed += 1);
        assert_eq!(committed, 5);
        assert_eq!(buffer.parked(), 0);
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn double_offer_panics() {
        let mut buffer = ReorderBuffer::new();
        buffer.offer(1, (), |_, _| {});
        buffer.offer(1, (), |_, _| {});
    }

    #[test]
    fn window_admits_only_near_the_offered_prefix() {
        let window = ClaimWindow::new(2);
        window.admit(0);
        window.admit(1);
        // Index 2 is outside until something is offered; complete out of
        // order first — the prefix only moves on contiguous runs.
        window.complete(1);
        {
            let state = window.state.lock().unwrap();
            assert_eq!(state.prefix, 0);
            assert_eq!(state.ahead.len(), 1);
        }
        window.complete(0);
        let state = window.state.lock().unwrap();
        assert_eq!(state.prefix, 2, "contiguous run 0..2 advanced at once");
        assert!(state.ahead.is_empty());
        drop(state);
        window.admit(3);
    }

    #[test]
    fn blocked_claims_wake_when_the_prefix_advances() {
        let window = ClaimWindow::new(1);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // Blocks until index 0 is offered.
                window.admit(1);
            });
            window.admit(0);
            {
                let guard = window.completing(0);
                let _ = &guard;
            }
            waiter.join().expect("waiter admitted");
        });
    }
}
