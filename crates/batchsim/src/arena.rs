//! Reusable simulation state.
//!
//! A [`SimArena`] owns every growable buffer one simulation run needs —
//! cluster scheduling state (per-user sub-queues, ready index, running
//! tables), the event queue's heap, the per-job state tables, and the
//! outcome records. [`Simulator::run`](crate::Simulator::run)
//! borrows the arena instead of allocating, so a sweep worker that
//! simulates thousands of cells allocates once per sweep rather than
//! once per cell: after the first cell, steady-state allocation traffic
//! is essentially zero.
//!
//! The arena is plain state, not a lifetime-bearing allocator: buffers
//! are `clear()`ed (capacity kept) between runs, and the one vector
//! that must leave the arena — the outcomes — is handed back through
//! [`SimArena::recycle`] once the caller has reduced the metrics.

use crate::cluster::{Cluster, QueuedJob};
use crate::event::EventBuffers;
use crate::metrics::{JobOutcome, RunMetrics};
use crate::policy::MachineOption;
use crate::simulator::QuoteBasis;

/// Struct-of-arrays completion log: the event loop stages the four
/// scalars a finish produces into parallel columns, and the expensive
/// outcome materialization (window-integrated carbon, five method
/// charges) runs once over the columns after the loop — a single
/// cache-friendly batch pass instead of a per-event detour through cold
/// attribution state. Materialization order is log order, which is pop
/// order, so the resulting `outcomes` vector is bit-identical to the
/// old inline construction (`tests/soa_equivalence.rs`).
#[derive(Default)]
pub(crate) struct FinishLog {
    /// Job index column.
    pub(crate) job: Vec<u32>,
    /// Machine (fleet index) column.
    pub(crate) machine: Vec<u32>,
    /// Start time column (seconds).
    pub(crate) start_s: Vec<f64>,
    /// Completion time column (seconds).
    pub(crate) end_s: Vec<f64>,
}

impl FinishLog {
    pub(crate) fn clear(&mut self) {
        self.job.clear();
        self.machine.clear();
        self.start_s.clear();
        self.end_s.clear();
    }

    #[inline]
    pub(crate) fn push(&mut self, job: u32, machine: u32, start_s: f64, end_s: f64) {
        self.job.push(job);
        self.machine.push(machine);
        self.start_s.push(start_s);
        self.end_s.push(end_s);
    }

    pub(crate) fn len(&self) -> usize {
        self.job.len()
    }
}

/// Reusable per-run simulation state; see the module docs.
#[derive(Default)]
pub struct SimArena {
    /// One scheduling state per fleet machine, reconfigured per run.
    pub(crate) clusters: Vec<Cluster>,
    /// The event queue's pending-event heap and arrival order.
    pub(crate) events: EventBuffers,
    /// Per-job start time (seconds; NaN until started).
    pub(crate) started_at: Vec<f64>,
    /// Per-job "already postponed once" flag (GreedyShift/Adaptive).
    pub(crate) shifted: Vec<bool>,
    /// Completion columns staged by the event loop (struct-of-arrays).
    pub(crate) finishes: FinishLog,
    /// Spare outcome storage, recycled between runs.
    pub(crate) outcomes: Vec<JobOutcome>,
    /// Scratch: jobs started by one scheduling pass.
    pub(crate) started_buf: Vec<QueuedJob>,
    /// Scratch: the policy's per-machine options for one arrival.
    pub(crate) options_buf: Vec<MachineOption>,
    /// Scratch: one arrival's quote basis per machine.
    pub(crate) bases: Vec<QuoteBasis>,
    /// Scratch: the GreedyShift/Adaptive delay search's hour row and
    /// cheapest posted quote per submission delay.
    pub(crate) delay: DelayScratch,
}

/// The delay search's two per-delay buffers, reused by every search of a
/// run (see `Simulator::best_delay`).
#[derive(Default)]
pub(crate) struct DelayScratch {
    /// The hour row: `hours[d]` is the hour index of `now + d` hours.
    pub(crate) hours: Vec<usize>,
    /// `quotes[d]`: the cheapest posted quote for a delay of `d` hours.
    pub(crate) quotes: Vec<f64>,
}

impl SimArena {
    /// An empty arena; buffers grow to the first run's sizes and stay.
    pub fn new() -> SimArena {
        SimArena::default()
    }

    /// Returns a finished run's outcome storage to the arena so the next
    /// run reuses its capacity. Callers that keep the metrics alive
    /// simply skip this — the arena then grows a fresh vector next run.
    pub fn recycle(&mut self, metrics: RunMetrics) {
        let mut outcomes = metrics.outcomes;
        if outcomes.capacity() > self.outcomes.capacity() {
            outcomes.clear();
            self.outcomes = outcomes;
        }
    }
}
