//! `scenarios orchestrate`: one command drives N workers to paper-scale
//! grids.
//!
//! PR 5 made a million-cell sweep shardable (config-aligned cell
//! ranges, checkpointed manifests, byte-stable merge) and PR 6 made the
//! shards observable (`.progress` heartbeats, stall detection) — but an
//! operator still launched `scenarios --shard I/N` by hand per worker,
//! with no retry, no reassignment, and no work-stealing. This module is
//! the layer above: a supervisor that owns the whole distributed run.
//!
//! * [`plan`] — the work ledger: [`shard_ranges`](crate::shard_ranges)
//!   partitions the grid into one [`Task`] per worker, and
//!   [`Plan::split`] is the work-stealing primitive — any
//!   config-aligned cut of a task's range yields two tasks whose union
//!   still tiles the grid exactly (`tests/orchestrate_properties.rs`
//!   proves the invariant holds under arbitrary split sequences).
//! * [`launcher`] — the spawn substrate behind a small [`Launcher`]
//!   trait, so the same supervisor drives OS processes today
//!   ([`ProcessLauncher`]) and in-process threads for deterministic
//!   benches ([`ThreadLauncher`]); ssh/container launchers slot in
//!   later without touching the supervisor.
//! * [`supervisor`] — the control loop: spawn workers, tail their
//!   existing `.progress`/`.manifest` sidecars for liveness (no new
//!   channel — the monitoring substrate PR 6 built *is* the liveness
//!   protocol), restart or reassign dead and stalled shards with capped
//!   backoff, split the largest remaining range of a straggler onto
//!   idle workers, and hash-verify + auto-merge every fragment into
//!   output byte-identical to the unsharded `--stream` run.
//! * [`events`] — the audit trail: every decision appends one JSONL
//!   record to `<out-dir>/orchestrate.jsonl`, which `scenarios watch`
//!   joins into its per-shard table (attempt counts, steals,
//!   reassignments).
//!
//! Failure semantics are deliberate: a worker that *errors or panics*
//! leaves a terminal `failed` progress record ([`crate::run_shard`]'s
//! exit contract), a worker that is *killed* leaves silence (stall
//! detection catches it), and in both cases the supervisor resumes from
//! the manifest checkpoint when it verifies intact and reassigns the
//! range from scratch otherwise. See `docs/orchestration.md` for the
//! full failure matrix.

pub mod events;
pub mod launcher;
pub mod plan;
pub mod supervisor;

pub use events::{orchestrate_log_path, EventKind, OrchestrateEvent, ORCHESTRATE_SCHEMA};
pub use launcher::{Launcher, ProcessLauncher, ThreadLauncher, WorkerHandle, WorkerSpec};
pub use plan::{Plan, Task, TaskState};
pub use supervisor::{orchestrate, OrchestrateConfig, OrchestrateSummary};
