//! **green-obs**: zero-cost-when-disabled structured observability.
//!
//! The sweep stack — simulator scheduler loop, sweep runner, shard
//! writer, market settlement — is instrumented against the [`Recorder`]
//! trait using **static dispatch**: every instrumented entry point is
//! generic over `R: Recorder`, and every timing read is guarded by the
//! associated constant [`Recorder::ENABLED`]. With the default
//! [`NoopRecorder`] (`ENABLED = false`) the guard is a compile-time
//! `false`, so the instrumentation monomorphizes to *nothing* — no
//! clock reads, no atomic traffic, no branches — preserving every BENCH
//! baseline and byte-identity contract of the uninstrumented code.
//! `tests/observability.rs` (repo root) holds the overhead guard: the
//! enabled path must produce bit-identical simulation results and stay
//! within a bounded wall-time factor of the no-op path.
//!
//! Three signal kinds, all aggregated (never per-event allocations):
//!
//! * [`Counter`] — deterministic work counts (events drained,
//!   ready-user merges, settlements, ledger transactions…). On a
//!   single-threaded run these are pure functions of the workload, so
//!   `green-perf` gates them like any other work counter.
//! * [`Phase`] — wall-nanosecond attribution to the pipeline phases
//!   `schedule` / `events` / `settle` / `attribute` / `csv` /
//!   `prepare`. Timings are machine-dependent; consumers report them
//!   warn-only, like wall time.
//! * [`SpanKind`] — coarse spans (one per sweep cell, one per shard
//!   checkpoint) aggregated as count / total / max nanoseconds.
//!
//! [`StatsRecorder`] is the shipped recording implementation: a fixed
//! set of relaxed atomics, safe to share across sweep worker threads.
//! [`ObsSnapshot`] is its read-out, consumed by `green-perf --phases`
//! (phase breakdown in the JSON schema and drift table) and by the
//! shard progress sidecar (`<out>.progress`). See
//! `docs/observability.md` for the taxonomy and how to add an
//! instrumentation point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Deterministic work counters. On a single-threaded run every one of
/// these is a pure function of the workload — `green-perf` commits them
/// to the bench baseline and fails the gate when they drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Simulator events popped off the calendar queue.
    EventsDrained = 0,
    /// Merge-frontier steps over ready users' sub-queues taken by
    /// scheduling passes (the scheduler's unit of queue work).
    ReadyUserMerges = 1,
    /// Scheduling passes run (`Cluster::schedule_into` invocations).
    SchedulePasses = 2,
    /// Job outcomes settled through the market ledger.
    JobsSettled = 3,
    /// Ledger operations market settlement applied, counted as the
    /// `Ledger` records them.
    LedgerTxns = 4,
    /// CAS retries of the retired sharded ledger. Nothing emits it any
    /// more; perfbench still reads it, as a constant 0.
    LedgerCasRetries = 5,
    /// Sweep cells executed.
    CellsRun = 6,
    /// Per-cell lookups served by the shared `SweepCaches` (realization
    /// reused instead of rebuilt).
    CacheHits = 7,
    /// Distinct artifacts the cache prepass had to build (the misses).
    CacheMisses = 8,
    /// Aggregate CSV rows flushed by the streaming sink.
    RowsFlushed = 9,
    /// Manifest/progress checkpoints written by the shard writer.
    Checkpoints = 10,
    /// Checkpointed rows hash-verified by a `--resume`.
    ResumedRowsVerified = 11,
}

impl Counter {
    /// Every counter, in discriminant order.
    pub const ALL: [Counter; 12] = [
        Counter::EventsDrained,
        Counter::ReadyUserMerges,
        Counter::SchedulePasses,
        Counter::JobsSettled,
        Counter::LedgerTxns,
        Counter::LedgerCasRetries,
        Counter::CellsRun,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::RowsFlushed,
        Counter::Checkpoints,
        Counter::ResumedRowsVerified,
    ];

    /// The counter's stable wire name (JSON keys, bench counters, docs).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsDrained => "events_drained",
            Counter::ReadyUserMerges => "ready_user_merges",
            Counter::SchedulePasses => "schedule_passes",
            Counter::JobsSettled => "jobs_settled",
            Counter::LedgerTxns => "ledger_txns",
            Counter::LedgerCasRetries => "ledger_cas_retries",
            Counter::CellsRun => "cells_run",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::RowsFlushed => "rows_flushed",
            Counter::Checkpoints => "checkpoints",
            Counter::ResumedRowsVerified => "resumed_rows_verified",
        }
    }
}

/// Pipeline phases wall time is attributed to. Timings are
/// machine-dependent: report them like wall time (warn-only), never
/// gate on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Scheduling decisions: policy evaluation, submission, scheduling
    /// passes (including backfill scans).
    Schedule = 0,
    /// Event-queue traffic and simulation loop overhead.
    Events = 1,
    /// Market settlement through the credit store.
    Settle = 2,
    /// Outcome construction: window-integrated carbon attribution and
    /// the five accounting charges.
    Attribute = 3,
    /// Aggregate CSV row rendering and writing.
    Csv = 4,
    /// Shared world and cache construction before any cell runs.
    Prepare = 5,
}

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; 6] = [
        Phase::Schedule,
        Phase::Events,
        Phase::Settle,
        Phase::Attribute,
        Phase::Csv,
        Phase::Prepare,
    ];

    /// The phase's stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Events => "events",
            Phase::Settle => "settle",
            Phase::Attribute => "attribute",
            Phase::Csv => "csv",
            Phase::Prepare => "prepare",
        }
    }
}

/// Coarse span kinds, aggregated as count / total / max nanoseconds —
/// never one record per span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One sweep cell: simulate + settle + metric extraction.
    Cell = 0,
    /// One shard checkpoint: manifest + progress sidecar rewrite.
    Checkpoint = 1,
}

impl SpanKind {
    /// Every span kind, in discriminant order.
    pub const ALL: [SpanKind; 2] = [SpanKind::Cell, SpanKind::Checkpoint];

    /// The span kind's stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Cell => "cell",
            SpanKind::Checkpoint => "checkpoint",
        }
    }
}

/// The statically dispatched observability sink.
///
/// Instrumented code is generic over `R: Recorder` and guards every
/// clock read with `R::ENABLED`, so a disabled recorder compiles the
/// instrumentation away entirely. Implementations must be cheap and
/// thread-safe: sweep workers share one recorder by reference.
pub trait Recorder: Sync {
    /// Whether this recorder observes anything. `false` lets the
    /// compiler eliminate instrumentation (and its `Instant` reads)
    /// wholesale; implementations other than [`NoopRecorder`] should
    /// leave it `true`.
    const ENABLED: bool = true;

    /// Adds `n` to a deterministic work counter.
    fn add(&self, counter: Counter, n: u64);

    /// Attributes `ns` wall nanoseconds to a phase.
    fn phase_ns(&self, phase: Phase, ns: u64);

    /// Records one completed span of `ns` wall nanoseconds.
    fn span_ns(&self, span: SpanKind, ns: u64);

    /// A read-out of everything recorded so far, if this recorder keeps
    /// state (the no-op recorder returns `None`). Used by the shard
    /// progress sidecar to embed phase timings mid-run.
    fn snapshot(&self) -> Option<ObsSnapshot> {
        None
    }
}

/// The disabled recorder: every method is an empty inline stub and
/// [`Recorder::ENABLED`] is `false`, so instrumented generics
/// monomorphize to exactly the uninstrumented code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&self, _counter: Counter, _n: u64) {}

    #[inline(always)]
    fn phase_ns(&self, _phase: Phase, _ns: u64) {}

    #[inline(always)]
    fn span_ns(&self, _span: SpanKind, _ns: u64) {}
}

/// Aggregated statistics of one span kind.
#[derive(Debug, Default)]
struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The shipped recording implementation: a fixed array of relaxed
/// atomics per signal kind. Contention-free enough to share across a
/// sweep's worker threads (every hot-path signal is recorded once per
/// cell or once per run, never per event).
#[derive(Debug, Default)]
pub struct StatsRecorder {
    counters: [AtomicU64; Counter::ALL.len()],
    phases: [AtomicU64; Phase::ALL.len()],
    spans: [SpanStats; SpanKind::ALL.len()],
}

impl StatsRecorder {
    /// A fresh, all-zero recorder.
    pub fn new() -> StatsRecorder {
        StatsRecorder::default()
    }

    /// The current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Nanoseconds attributed to one phase so far.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].load(Ordering::Relaxed)
    }
}

impl Recorder for StatsRecorder {
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn phase_ns(&self, phase: Phase, ns: u64) {
        self.phases[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    fn span_ns(&self, span: SpanKind, ns: u64) {
        let stats = &self.spans[span as usize];
        stats.count.fetch_add(1, Ordering::Relaxed);
        stats.total_ns.fetch_add(ns, Ordering::Relaxed);
        stats.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter(c)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let phases_ms = Phase::ALL
            .iter()
            .map(|&p| (p.name(), self.phase(p) as f64 / 1e6))
            .filter(|(_, ms)| *ms > 0.0)
            .collect();
        let spans = SpanKind::ALL
            .iter()
            .map(|&s| {
                let stats = &self.spans[s as usize];
                SpanSnapshot {
                    kind: s.name(),
                    count: stats.count.load(Ordering::Relaxed),
                    total_ms: stats.total_ns.load(Ordering::Relaxed) as f64 / 1e6,
                    max_ms: stats.max_ns.load(Ordering::Relaxed) as f64 / 1e6,
                }
            })
            .filter(|s| s.count > 0)
            .collect();
        Some(ObsSnapshot {
            counters,
            phases_ms,
            spans,
        })
    }
}

/// Aggregate of one span kind in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// [`SpanKind::name`] of the aggregated spans.
    pub kind: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Total wall milliseconds across all spans.
    pub total_ms: f64,
    /// The slowest single span, milliseconds.
    pub max_ms: f64,
}

/// A point-in-time read-out of a [`StatsRecorder`]: only signals that
/// actually fired (zero entries are elided, so consumers never report
/// phantom phases).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSnapshot {
    /// Counter name → value, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Phase name → wall milliseconds, in [`Phase::ALL`] order.
    pub phases_ms: Vec<(&'static str, f64)>,
    /// Span aggregates, in [`SpanKind::ALL`] order.
    pub spans: Vec<SpanSnapshot>,
}

/// A stopwatch that only reads the clock when the recorder is enabled.
/// With `R = NoopRecorder` both `start` and `elapsed_ns` are constants
/// the optimizer deletes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch<R: Recorder> {
    at: Option<Instant>,
    _recorder: core::marker::PhantomData<R>,
}

impl<R: Recorder> Stopwatch<R> {
    /// Starts the watch (a no-op for disabled recorders).
    #[inline]
    pub fn start() -> Stopwatch<R> {
        Stopwatch {
            at: R::ENABLED.then(Instant::now),
            _recorder: core::marker::PhantomData,
        }
    }

    /// Nanoseconds since [`start`](Stopwatch::start); `0` when disabled.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.at.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }

    /// Records the elapsed time as one span and restarts the watch.
    #[inline]
    pub fn lap_span(&mut self, recorder: &R, span: SpanKind) {
        if R::ENABLED {
            recorder.span_ns(span, self.elapsed_ns());
            self.at = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_stateless() {
        const { assert!(!NoopRecorder::ENABLED) };
        let rec = NoopRecorder;
        rec.add(Counter::EventsDrained, 10);
        rec.phase_ns(Phase::Schedule, 10);
        rec.span_ns(SpanKind::Cell, 10);
        assert!(rec.snapshot().is_none());
        let sw = Stopwatch::<NoopRecorder>::start();
        assert_eq!(sw.elapsed_ns(), 0, "disabled stopwatch never reads time");
    }

    #[test]
    fn stats_recorder_accumulates() {
        let rec = StatsRecorder::new();
        rec.add(Counter::EventsDrained, 5);
        rec.add(Counter::EventsDrained, 7);
        rec.phase_ns(Phase::Schedule, 1_500_000);
        rec.span_ns(SpanKind::Cell, 2_000_000);
        rec.span_ns(SpanKind::Cell, 4_000_000);
        assert_eq!(rec.counter(Counter::EventsDrained), 12);
        assert_eq!(rec.counter(Counter::CellsRun), 0);
        assert_eq!(rec.phase(Phase::Schedule), 1_500_000);

        let snap = rec.snapshot().expect("stats recorder keeps state");
        assert_eq!(snap.counters, vec![("events_drained", 12)]);
        assert_eq!(snap.phases_ms, vec![("schedule", 1.5)]);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].kind, "cell");
        assert_eq!(snap.spans[0].count, 2);
        assert!((snap.spans[0].total_ms - 6.0).abs() < 1e-9);
        assert!((snap.spans[0].max_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wire_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        names.extend(SpanKind::ALL.iter().map(|s| s.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate wire name");
    }

    #[test]
    fn enabled_stopwatch_measures() {
        let rec = StatsRecorder::new();
        let mut sw = Stopwatch::<StatsRecorder>::start();
        std::hint::black_box(vec![0u8; 1024]);
        sw.lap_span(&rec, SpanKind::Checkpoint);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans[0].count, 1);
    }
}
