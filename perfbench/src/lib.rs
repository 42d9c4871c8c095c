//! Seeded end-to-end and per-layer benchmark of the green-credits
//! workspace. See `perfbench/README.md` for the workloads, the metrics
//! and how to run it.
//!
//! The benchmark measures from outside: it only calls the crates'
//! public entry points, and every span it records is opened and closed
//! in this package around those calls.

pub mod host;
pub mod inputs;
pub mod metrics;
pub mod repro;
pub mod spans;
pub mod sweeps;

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::spans::Tracer;

/// Worker threads every workload runs with, on any host.
pub const THREADS: usize = 2;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time a traced run reports as `<layer>.self_s`.
pub const LAYERS: [&str; 11] = [
    "sweep", "prepare", "batchsim", "market", "runner", "csv", "shard", "merge", "analyze",
    "repro", "verify",
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("sweep.expand_s", "s"),
    ("sweep.cells", "count"),
    ("prepare.world_s", "s"),
    ("prepare.caches_s", "s"),
    ("prepare.realizations", "count"),
    ("prepare.price_tables", "count"),
    ("prepare.agent_populations", "count"),
    ("batchsim.cell_ms_p50", "ms"),
    ("batchsim.cell_ms_p99", "ms"),
    ("batchsim.cell_samples", "count"),
    ("batchsim.events", "count"),
    ("batchsim.events_per_s", "1/s"),
    ("batchsim.schedule_ms", "ms"),
    ("batchsim.events_ms", "ms"),
    ("batchsim.attribute_ms", "ms"),
    ("batchsim.release_work", "count"),
    ("market.settle_ms", "ms"),
    ("market.jobs_settled", "count"),
    ("market.ledger_txns", "count"),
    ("market.cas_retries", "count"),
    ("runner.sink_cells_per_s", "1/s"),
    ("runner.speedup_2t", "x"),
    ("csv.render_ms", "ms"),
    ("csv.rows", "count"),
    ("csv.bytes", "B"),
    ("shard.durable_s", "s"),
    ("shard.checkpoints", "count.computed"),
    ("shard.fsyncs", "count.computed"),
    ("shard.bytes_written", "B.computed"),
    ("merge.s", "s"),
    ("merge.bytes", "B"),
    ("analyze.rows_scanned", "count"),
    ("analyze.groups", "count"),
    ("analyze.rows_per_s", "1/s"),
    ("analyze.verify_read_s", "s"),
    ("analyze.cols_rows_per_s", "1/s"),
    ("analyze.cols_write_s", "s"),
    ("repro.simulation_s", "s"),
    ("repro.figures_s", "s"),
    ("repro.study_s", "s"),
    ("repro.tables_s", "s"),
    ("obs.overhead_x", "x"),
    ("sweep.self_s", "s"),
    ("prepare.self_s", "s"),
    ("batchsim.self_s", "s"),
    ("market.self_s", "s"),
    ("runner.self_s", "s"),
    ("csv.self_s", "s"),
    ("shard.self_s", "s"),
    ("merge.self_s", "s"),
    ("analyze.self_s", "s"),
    ("repro.self_s", "s"),
    ("verify.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_x", "x"),
    ("host.cores", "count"),
    ("host.steal_share", "share"),
];

/// The workloads, each a closed loop: one thread starts each stage
/// when the previous one returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Every table and figure of `repro --full` at paper scale.
    Repro,
    /// The paper-preset incentive loop through `run_shard` and merge.
    Market,
    /// A micro-preset survey grid: shards, merge, analyst session. Not
    /// in `BENCHMARK.json`: its checkpoint fsyncs and 20 µs cells made it
    /// follow the host's disk and steal more than the code.
    Survey,
}

impl WorkloadKind {
    /// Parses the `--workload` value.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        match name {
            "repro" => Some(WorkloadKind::Repro),
            "market" => Some(WorkloadKind::Market),
            "survey" => Some(WorkloadKind::Survey),
            _ => None,
        }
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Repro => "repro",
            WorkloadKind::Market => "market",
            WorkloadKind::Survey => "survey",
        }
    }
}

/// Operations attempted and failed: cells, shards, merges, queries and
/// output checks. A failed check counts here, never as a fast run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error or whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations, all failed unless `ok`.
    pub fn record(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Counts one output check; returns whether it passed.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        if !ok {
            eprintln!("check failed: {what}");
        }
        self.record(1, ok);
        ok
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Timings of one set-up stage, plus the layer details it exposes.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// The whole stage, seconds.
    pub total_s: f64,
    /// Per-layer details (`sweep.*`, `prepare.*`).
    pub layers: Metrics,
    /// The stage's operations.
    pub tally: Tally,
}

/// What one iteration of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// From the iteration's first call to its verified output, seconds.
    pub wall_s: f64,
    /// The execution stage the cell rate is taken over, seconds.
    pub exec_s: f64,
    /// Cells simulated in the execution stage (policy runs for `repro`).
    pub cells: u64,
    /// FNV-1a digest of every output of the iteration.
    pub digest: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Layer details only this iteration can report (counters, stage
    /// times, sizes).
    pub layers: Metrics,
}

/// One benchmark workload, driven through the repository's public entry
/// points.
pub trait Workload {
    /// Runs the set-up stage once, timed on its own.
    fn setup(&mut self) -> Setup;

    /// Runs one iteration. When `tracer` is enabled it records spans
    /// around each layer call, and the `_obs` entry points receive a
    /// `green_obs::StatsRecorder`.
    fn iterate(&mut self, tracer: &mut Tracer) -> Iteration;

    /// Probes the end-to-end run does not make, run after the span tree
    /// of a traced run; adds their per-layer metrics to `out`.
    /// `untraced` is the last untraced iteration, whose files the probes
    /// may read.
    fn probes(&mut self, untraced: &Iteration, out: &mut Metrics, tally: &mut Tally);
}

/// Builds the workload named by `kind` for `seed`, with `scratch` as its
/// working directory on the host's real filesystem.
pub fn workload(kind: WorkloadKind, seed: u64, scratch: PathBuf) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::Repro => Box::new(repro::Repro::new(seed)),
        WorkloadKind::Market => Box::new(sweeps::SweepWorkload::market(seed, scratch)),
        WorkloadKind::Survey => Box::new(sweeps::SweepWorkload::survey(seed, scratch)),
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
