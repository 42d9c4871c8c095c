//! **green-pool**: the workspace's one worker pool.
//!
//! [`claim_each`] runs tasks `0..n` on scoped threads that claim the
//! next unclaimed index from a shared counter, each worker with its own
//! state built on its own thread. [`map`] builds an
//! order-preserving parallel map on it: each result lands in the slot
//! of its input's index, so the output order equals the input order
//! whatever the workers' interleaving, the property the simulator's
//! determinism tests assert. [`map_with`] is the same map with a
//! per-worker state.
//!
//! [`map`] runs `RAYON_NUM_THREADS` workers when that variable holds a
//! positive integer (the benchmark sets it to 2), else one per available
//! core. [`claim_each`] takes the worker count from its caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `f` over `(index, item)` pairs in parallel and returns the
/// results in input order.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    map_with(items, |(), i, item| f(i, item))
}

/// [`map`] with a per-worker state: each worker builds one `S` as
/// [`claim_each`] does and hands it to every item it maps, so a buffer
/// kept there is reused across that worker's items.
pub fn map_with<S: Default, T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R> {
    map_on(workers(), items, f)
}

/// [`map_with`] on up to `threads` workers.
fn map_on<S: Default, T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    claim_each(threads, items.len(), |state, i| {
        let result = f(state, i, &items[i]);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index claimed exactly once")
        })
        .collect()
}

/// The worker count of [`map`].
fn workers() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs tasks `0..n` on up to `threads` workers. Each worker claims the
/// next unclaimed index, so tasks start in index order, and one worker
/// runs them all in that order.
///
/// A worker that claims a task first builds its own state with
/// `S::default()`, on the thread that then runs every task it claims,
/// and hands the state to each of them: the sweep runner's cell workers
/// keep their simulation buffers there. A worker that claims nothing
/// builds none.
///
/// One worker runs on the calling thread. Several run on scoped threads
/// while the caller waits, as the sweep runner's cell workers do. With
/// the caller as one of the workers, peak RSS of the `market` benchmark
/// rose from 39.5 to 43.8 MB on a 2-vCPU VM, most likely because what
/// the world build freed stayed in the caller's allocator arena, which
/// no cell worker reuses.
///
/// A task that panics panics the caller once every worker has stopped.
pub fn claim_each<S: Default>(threads: usize, n: usize, task: impl Fn(&mut S, usize) + Sync) {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let mut state = S::default();
        while i < n {
            task(&mut state, i);
            i = next.fetch_add(1, Ordering::Relaxed);
        }
    };
    let workers = threads.min(n);
    if workers <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(work);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_input_order() {
        let input: Vec<u64> = (0..1_000).collect();
        for threads in [1, 2, 8] {
            let out = map_on(threads, &input, |(), i, x| (i as u64, x * 2));
            assert_eq!(out, (0..1_000).map(|x| (x, x * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn works_on_empty_and_single() {
        for threads in [1, 2] {
            let out = map_on(threads, &Vec::<u32>::new(), |(), _, x| *x);
            assert!(out.is_empty());
            assert_eq!(map_on(threads, &[41u32], |(), _, x| x + 1), vec![42]);
        }
    }

    /// A worker's state outlives each item: the items a worker maps see
    /// its count grow, and only a worker's first item sees a fresh one.
    #[test]
    fn map_with_keeps_each_workers_state() {
        let input: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = map_on(threads, &input, |seen: &mut usize, _, x| {
                *seen += 1;
                (*x, *seen)
            });
            assert!(out.iter().map(|r| r.0).eq(0..100), "{threads} workers");
            let fresh = out.iter().filter(|r| r.1 == 1).count();
            assert!((1..=threads).contains(&fresh), "{threads} workers");
            if threads == 1 {
                assert!(out.iter().map(|r| r.1).eq(1..=100));
            }
        }
    }

    /// Builds of [`BuiltOn`]; only `claim_each_runs_every_task_once`
    /// builds one.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);

    /// A worker state that records the thread it was built on.
    struct BuiltOn(std::thread::ThreadId);

    impl Default for BuiltOn {
        fn default() -> BuiltOn {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            BuiltOn(std::thread::current().id())
        }
    }

    /// Every task runs once, with a state its worker built on the thread
    /// that runs it, and no more states are built than workers claim.
    #[test]
    fn claim_each_runs_every_task_once() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 100] {
                BUILDS.store(0, Ordering::Relaxed);
                let runs: Vec<Mutex<Option<bool>>> = (0..n).map(|_| Mutex::new(None)).collect();
                claim_each(threads, n, |built: &mut BuiltOn, i| {
                    let here = built.0 == std::thread::current().id();
                    let previous = runs[i].lock().unwrap().replace(here);
                    assert!(previous.is_none(), "task {i} ran twice");
                });
                let label = format!("{threads} workers, {n} tasks");
                assert!(BUILDS.load(Ordering::Relaxed) <= threads.min(n), "{label}");
                for run in runs {
                    assert_eq!(run.into_inner().unwrap(), Some(true), "{label}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_panics_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_on(threads, &items, |(), i, x| {
                    assert_ne!(i, 37, "task 37 fails");
                    *x
                })
            }));
            assert!(caught.is_err(), "{threads} workers");
        }
    }
}
