//! **green-scenarios**: a declarative, parallel Monte-Carlo scenario
//! engine over the batch simulator and the five accounting methods.
//!
//! The paper's headline results are single scenario instances — one
//! fleet, one trace, one grid year per policy/method pair. The
//! interesting sustainability questions are *sensitivity* questions: how
//! do EBA/CBA incentives hold up across grid mixes, fleet compositions,
//! workload intensities and user populations? This crate turns those
//! one-off experiments into a platform:
//!
//! * [`ScenarioSpec`] — one fully-resolved cell: policy × accounting
//!   method × fleet subset × sim-year × user count × backfill depth ×
//!   workload scaling × intensity perturbation × replicate seed, with a
//!   builder API;
//! * [`Sweep`] — the grammar: every axis a list, cells their Cartesian
//!   product, each replicated over N Monte-Carlo seeds; loadable from
//!   TOML ([`Sweep::from_toml_str`]) via the vendored mini-parser in
//!   [`toml`]. The market axes (`elasticities`, `price_schedules`,
//!   `banking_caps`) sweep `green-market`'s incentive loop: posted
//!   dynamic prices, elastic agents re-timing their submissions, and
//!   per-cell settlement on `green-market`'s dense settlement book;
//! * [`SweepRunner`] — the parallel driver and the one execution path:
//!   traces, placement tables, intensity realizations, compiled price
//!   tables and agent populations are each built once per distinct
//!   configuration and `Arc`-shared across scoped worker threads
//!   ([`SweepCaches`]). One row sink commits each configuration's
//!   aggregate row in expansion order, so results are **bit-identical
//!   for every thread count** (asserted by `tests/determinism.rs`).
//!   [`SweepRunner::run_collect`] keeps the rows in memory;
//!   [`SweepRunner::run_streamed_range`] writes them as CSV the moment
//!   each configuration completes, never holding the grid in memory.
//!   Both equal a naive serial fold of the grid (asserted by
//!   `tests/streaming_golden.rs`). [`Grid`] resolves a filter and an
//!   assignment to cells for every entry point;
//! * [`shard`] — million-cell grids across processes: a deterministic
//!   configuration-aligned cell-range partitioner ([`Shard`]),
//!   checkpointed per-shard CSV output with a content-hashed
//!   [`ShardManifest`] and kill-safe resume ([`run_shard`]), and a
//!   [`merge_shards`] that reassembles shard outputs into bytes
//!   identical to the single-process streamed run (asserted by
//!   `tests/shard_golden.rs`). [`Sweep::cell_at`] decodes any expansion
//!   index directly, so a worker never materializes the grid;
//! * [`analyze`] — out-of-core analytics over sweep output: a streaming
//!   group-by / summarize / percentile engine ([`AnalyzeQuery`] →
//!   [`AnalyzeReport`]) that folds shard fragments via their manifests
//!   *without* merging, bit-identical for any shard count (asserted by
//!   `tests/analyze_golden.rs`), plus the optional `<csv>.cols`
//!   columnar sidecar so re-analysis never re-parses CSV;
//! * [`Aggregate`]/[`SweepResults`] — per-cell mean, standard deviation
//!   and 95 % confidence intervals over replicates for carbon, credits,
//!   energy, wait and utilization, exported through `green-bench`'s CSV
//!   path;
//! * the `scenarios` binary — `scenarios sweep.toml --out results.csv`
//!   runs a named sweep file end to end (`--stream` for the streaming
//!   sink).
//!
//! # Example
//!
//! ```
//! use green_scenarios::{MethodSpec, PolicySpec, Sweep, SweepRunner};
//!
//! let mut sweep = Sweep::new("doctest");
//! sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Energy];
//! sweep.methods = vec![MethodSpec::Eba, MethodSpec::Cba];
//! sweep.seeds = vec![1, 2];
//! assert_eq!(sweep.cell_count(), 8);
//!
//! let results = SweepRunner::new(2).run(&sweep)?;
//! assert_eq!(results.cells.len(), 4);      // 8 cells / 2 replicates
//! let csv = results.to_csv_string();
//! assert!(csv.starts_with("policy,method,"));
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod agg;
pub mod analyze;
pub mod durable_io;
pub mod orchestrate;
pub mod progress;
pub mod reorder;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod sweep;
#[cfg(test)]
mod test_scratch;
pub mod toml;
pub mod watch;

pub use agg::{Aggregate, CellSummary, SweepResults, CSV_HEADERS};
pub use analyze::{
    analyze_csv, analyze_dir, analyze_path, AnalyzeQuery, AnalyzeReport, GroupSummary, MetricStats,
    QuantileSketch, ANALYZE_SCHEMA, COLS_SCHEMA, EXACT_QUANTILE_ROWS,
};
pub use durable_io::{append_line, repair_torn_tail, write_atomic};
pub use orchestrate::{
    orchestrate, orchestrate_log_path, EventKind, Launcher, OrchestrateConfig, OrchestrateEvent,
    OrchestrateSummary, Plan, ProcessLauncher, Task, TaskState, ThreadLauncher, WorkerHandle,
    WorkerSpec, ORCHESTRATE_SCHEMA,
};
pub use progress::{
    newest_record, progress_path, ProgressRecord, PROGRESS_HISTORY, PROGRESS_SCHEMA,
};
pub use reorder::{ClaimWindow, ReorderBuffer};
pub use runner::{
    cell_label, CellMetrics, CellScratch, FleetSlice, Grid, RunStats, StreamSummary, SweepCaches,
    SweepRunner, SweepWorld,
};
pub use shard::{
    load_shard_set, manifest_path, merge_shards, merge_shards_chaos, read_verified, run_shard,
    run_shard_obs, shard_ranges, MergeSummary, Shard, ShardAssignment, ShardJob, ShardManifest,
    ShardOutcome, CHECKPOINT_EVERY,
};
pub use spec::{fleet_index, MethodSpec, PolicySpec, ScenarioSpec, SpecError};
pub use sweep::{Cell, Sweep, WorkloadConfig, WorkloadPreset};
pub use watch::{heartbeat_age_s, watch_once, OrchestratorView, ShardStatus, WatchReport};
