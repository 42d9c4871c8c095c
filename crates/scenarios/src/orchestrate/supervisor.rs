//! The orchestrator's control loop: spawn, watch, recover, steal,
//! merge.
//!
//! One single-threaded poll loop owns the whole run. Liveness never
//! needs a new channel: workers already checkpoint a `.manifest` and
//! heartbeat a `.progress` sidecar ([`crate::progress`]), so the
//! supervisor *tails files* — the same protocol `scenarios watch`
//! reads, and one that keeps working across any launch substrate an
//! operator swaps in behind [`Launcher`].
//!
//! Recovery decisions form a small matrix (documented in
//! `docs/orchestration.md`):
//!
//! * clean exit + manifest complete over the task's range → **done**;
//! * any exit without a complete manifest → **retry** with capped
//!   exponential backoff, `--resume` when the checkpoint verifies
//!   intact, full **reassign** (fragment files removed) when it
//!   doesn't; a task that fails [`OrchestrateConfig::max_attempts`]
//!   times fails the run — silent partial output is never an outcome;
//! * heartbeat silence past the stall threshold → **kill**, then the
//!   exit path above takes over;
//! * idle worker slot with no pending work → **steal**: kill the
//!   straggler with the most remaining cells, split its uncheckpointed
//!   remainder at a config boundary ([`Plan::split`]), resume the
//!   straggler on the head and hand the tail to the idle slot.
//!
//! The run ends with [`crate::shard::merge_shards`] over every fragment —
//! hash-verified, contiguity-checked, byte-identical to the unsharded
//! `--stream` run — so fault tolerance is never allowed to buy a
//! different answer.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use green_chaos::{ChaosRegistry, Failpoint};

use crate::analyze::{analyze_csv, AnalyzeQuery};
use crate::durable_io::invalid;
use crate::orchestrate::events::{EventKind, OrchestrateEvent};
use crate::orchestrate::launcher::{Launcher, WorkerHandle, WorkerSpec};
use crate::orchestrate::plan::{Plan, TaskState};
use crate::progress::{newest_record, progress_path};
use crate::runner::cell_label;
use crate::shard::{manifest_path, merge_shards_chaos, ShardManifest, CHECKPOINT_EVERY};
use crate::sweep::{Sweep, WorkloadPreset};
use crate::watch::STALL_AFTER_S;

/// Everything `scenarios orchestrate` configures. Construct with
/// [`OrchestrateConfig::new`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct OrchestrateConfig {
    /// The sweep TOML file.
    pub sweep_file: PathBuf,
    /// Output directory: fragments, sidecars, the event log, and (by
    /// default) the merged CSV all land here.
    pub out_dir: PathBuf,
    /// Concurrent worker slots.
    pub workers: usize,
    /// Workload preset override token, passed through to every worker.
    pub preset: Option<String>,
    /// Configuration-label filter, passed through to every worker.
    pub filter: Option<String>,
    /// Merged output path (default `<out_dir>/merged.csv`).
    pub merged: Option<PathBuf>,
    /// Worker invocations a task may burn before the run fails.
    pub max_attempts: u32,
    /// Heartbeat silence (seconds) before a worker is declared stalled
    /// and killed (launchers without kill support skip this).
    pub stall_after_s: f64,
    /// Poll-loop sleep between scans.
    pub poll_interval_ms: u64,
    /// Enable work-stealing (requires a killing launcher).
    pub steal: bool,
    /// Smallest remainder worth splitting, in configurations: a
    /// straggler keeps at least this many and the thief receives at
    /// least this many, so stealing can never shave slivers forever.
    pub min_steal_configs: usize,
    /// Rows between worker manifest checkpoints (also heartbeat
    /// cadence).
    pub checkpoint_every: usize,
    /// Threads per worker (0 = all cores — oversubscribes when
    /// `workers > 1`; the default 1 gives each worker one core).
    pub worker_threads: usize,
    /// First retry delay; doubles per attempt up to the cap.
    pub backoff_base_ms: u64,
    /// Retry delay ceiling.
    pub backoff_cap_ms: u64,
    /// Chain an analysis over the merged CSV after a successful merge
    /// (`--analyze`/`--analyze-metrics`), writing the report CSV to
    /// `<out_dir>/analysis.csv`.
    pub analyze: Option<AnalyzeQuery>,
    /// Suppress stderr progress narration.
    pub quiet: bool,
}

impl OrchestrateConfig {
    /// Defaults for an N-worker run of `sweep_file` into `out_dir`.
    pub fn new(sweep_file: PathBuf, out_dir: PathBuf, workers: usize) -> OrchestrateConfig {
        OrchestrateConfig {
            sweep_file,
            out_dir,
            workers: workers.max(1),
            preset: None,
            filter: None,
            merged: None,
            max_attempts: 3,
            stall_after_s: STALL_AFTER_S,
            poll_interval_ms: 100,
            steal: true,
            min_steal_configs: 8,
            checkpoint_every: CHECKPOINT_EVERY,
            worker_threads: 1,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
            analyze: None,
            quiet: false,
        }
    }

    fn merged_path(&self) -> PathBuf {
        self.merged
            .clone()
            .unwrap_or_else(|| self.out_dir.join("merged.csv"))
    }
}

/// What a finished orchestration reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestrateSummary {
    /// Final task count (initial partition plus split tails).
    pub tasks: usize,
    /// Worker launches, all causes included.
    pub spawns: usize,
    /// Failed invocations requeued with an intact checkpoint.
    pub retries: usize,
    /// Failed invocations requeued from scratch.
    pub reassigns: usize,
    /// Successful range splits.
    pub steals: usize,
    /// Configuration rows in the merged CSV.
    pub rows: usize,
    /// Cells in the (filtered) grid.
    pub cells: usize,
    /// Bytes of merged output.
    pub merged_bytes: u64,
}

/// One occupied worker slot.
struct Slot {
    task: usize,
    handle: Box<dyn WorkerHandle>,
    spawned: Instant,
}

/// Per-task scheduling state the [`Plan`] doesn't carry (the plan is
/// the *work* ledger; this is the *scheduler's* side table, indexed by
/// task id and grown on split).
struct Schedule {
    eligible_at: Vec<Instant>,
    resume_next: Vec<bool>,
}

impl Schedule {
    fn push(&mut self, now: Instant) {
        self.eligible_at.push(now);
        self.resume_next.push(false);
    }
}

/// Runs a whole orchestration: plan, supervise with retry/reassign/
/// steal, and auto-merge. Returns once the merged output is written
/// and hash-verified, or with the first unrecoverable error.
///
/// `chaos` arms the supervisor's own failpoints: `orchestrate_append`
/// at every audit-log write, `merge_write` inside the auto-merge,
/// `analyze_write` for the chained analysis report, and
/// `manifest_rewrite` where a steal shrinks a victim's checkpoint; pass
/// [`green_chaos::NO_CHAOS`] for none. Every worker is armed with the
/// same rules: its [`WorkerSpec::chaos`] carries the registry's spec,
/// which each worker compiles afresh (a process worker from its
/// `--chaos` argument). The supervisor never tears a fragment itself.
pub fn orchestrate(
    config: &OrchestrateConfig,
    launcher: &dyn Launcher,
    chaos: &ChaosRegistry,
) -> io::Result<OrchestrateSummary> {
    let text = std::fs::read_to_string(&config.sweep_file)?;
    let mut sweep = Sweep::from_toml_str(&text)
        .map_err(|e| invalid(format!("{}: {e}", config.sweep_file.display())))?;
    if let Some(token) = &config.preset {
        let preset = WorkloadPreset::parse(token).map_err(|e| invalid(e.to_string()))?;
        sweep.override_preset(preset);
    }
    let replicates = sweep.seeds.len().max(1);
    // The plan partitions the *filtered* grid — the same config space
    // every worker's `--filter` resolves. `cell_at` decodes one cell
    // per configuration, so counting stays cheap even on mega grids.
    let configs = match config.filter.as_deref().filter(|f| !f.is_empty()) {
        None => sweep.config_count(),
        Some(f) => (0..sweep.config_count())
            .filter(|i| cell_label(&sweep.cell_at(i * replicates).spec).contains(f))
            .count(),
    };
    if configs == 0 {
        return Err(invalid("sweep has no cells to orchestrate"));
    }
    std::fs::create_dir_all(&config.out_dir)?;
    // A fresh run supersedes any previous event log in the directory
    // (fragments are regenerated by the workers; the log must match).
    let log_path = crate::orchestrate::events::orchestrate_log_path(&config.out_dir);
    if log_path.exists() {
        std::fs::remove_file(&log_path)?;
    }

    let mut plan = Plan::partition(configs, replicates, config.workers);
    if plan.tasks.is_empty() {
        return Err(invalid("sweep has no cells to orchestrate"));
    }
    let kill_capable = launcher.supports_kill();
    let now = Instant::now();
    let mut schedule = Schedule {
        eligible_at: vec![now; plan.tasks.len()],
        resume_next: vec![false; plan.tasks.len()],
    };
    let mut summary = OrchestrateSummary {
        tasks: plan.tasks.len(),
        spawns: 0,
        retries: 0,
        reassigns: 0,
        steals: 0,
        rows: 0,
        cells: plan.total_cells,
        merged_bytes: 0,
    };
    log_event(
        config,
        chaos,
        OrchestrateEvent::run_level(
            EventKind::Plan,
            format!(
                "tasks={} workers={} configs={configs} replicates={replicates}",
                plan.tasks.len(),
                config.workers
            ),
        ),
    );
    if !config.quiet {
        eprintln!(
            "orchestrate: sweep `{}` — {} cells as {} tasks on {} workers",
            sweep.name,
            plan.total_cells,
            plan.tasks.len(),
            config.workers
        );
    }

    let mut slots: Vec<Slot> = Vec::new();
    loop {
        // 1. Reap exited workers and decide done / retry / reassign.
        let mut index = 0;
        while index < slots.len() {
            match slots[index].handle.poll()? {
                None => index += 1,
                Some(clean) => {
                    let slot = slots.swap_remove(index);
                    handle_exit(
                        config,
                        chaos,
                        &mut plan,
                        &mut schedule,
                        &mut summary,
                        slot.task,
                        clean,
                    )?;
                }
            }
        }

        if plan.all_done() {
            break;
        }

        // 2. Stall detection: silence past the threshold gets the
        //    worker killed; the next poll routes it through the exit
        //    path (attempt budget and backoff included).
        if kill_capable {
            for slot in &mut slots {
                let csv = config.out_dir.join(fragment_name(plan.tasks[slot.task].id));
                // A worker is stalled only once it has both been running
                // and been silent past the threshold — a fresh respawn
                // next to a previous invocation's stale sidecar is not a
                // stall, and neither is a slow startup with no sidecar
                // yet.
                let slot_age = slot.spawned.elapsed().as_secs_f64();
                let age = crate::watch::heartbeat_age_s(&csv)
                    .unwrap_or(f64::INFINITY)
                    .min(slot_age);
                if age > config.stall_after_s {
                    log_event(
                        config,
                        chaos,
                        task_event(
                            EventKind::Stall,
                            &plan,
                            slot.task,
                            format!(
                                "no heartbeat for {age:.0}s — killing {}",
                                slot.handle.describe()
                            ),
                        ),
                    );
                    let _ = slot.handle.kill();
                }
            }
        }

        // 3. Work-stealing: an idle slot with nothing pending splits
        //    the largest uncheckpointed remainder among the runners.
        let pending_ready = plan.tasks.iter().any(|t| t.state == TaskState::Pending);
        if config.steal && kill_capable && !pending_ready && slots.len() < config.workers {
            try_steal(
                config,
                chaos,
                &mut plan,
                &mut schedule,
                &mut summary,
                &mut slots,
            )?;
        }

        // 4. Fill free slots with eligible pending tasks.
        let now = Instant::now();
        while slots.len() < config.workers {
            let Some(task_id) = plan
                .tasks
                .iter()
                .filter(|t| t.state == TaskState::Pending)
                .filter(|t| schedule.eligible_at[t.id] <= now)
                .map(|t| t.id)
                .next()
            else {
                break;
            };
            let resume = schedule.resume_next[task_id];
            let spec = worker_spec(config, chaos, &plan, task_id, resume);
            let handle = launcher.launch(&spec)?;
            let task = &mut plan.tasks[task_id];
            task.state = TaskState::Running;
            task.spawns += 1;
            summary.spawns += 1;
            log_event(
                config,
                chaos,
                OrchestrateEvent {
                    kind: EventKind::Spawn,
                    task: Some(task_id),
                    csv: Some(fragment_name(task_id)),
                    cells: Some(task.cells.clone()),
                    attempt: Some(task.spawns),
                    detail: Some(format!(
                        "{}{}",
                        handle.describe(),
                        if resume { ", resuming" } else { "" }
                    )),
                },
            );
            slots.push(Slot {
                task: task_id,
                handle,
                spawned: now,
            });
        }

        std::thread::sleep(Duration::from_millis(config.poll_interval_ms.max(10)));
    }

    // 5. Merge: hash-verify and reassemble every fragment. The
    //    exact-cover invariant means the contiguity check inside
    //    `merge_shards` doubles as a completeness proof.
    plan.verify_exact_cover()
        .map_err(|e| invalid(e.to_string()))?;
    let mut inputs: Vec<(usize, PathBuf)> = plan
        .tasks
        .iter()
        .map(|t| (t.cells.start, config.out_dir.join(fragment_name(t.id))))
        .collect();
    inputs.sort_by_key(|(start, _)| *start);
    let inputs: Vec<PathBuf> = inputs.into_iter().map(|(_, path)| path).collect();
    let merged_path = config.merged_path();
    let merge = merge_shards_chaos(&inputs, &merged_path, false, chaos)?;
    summary.rows = merge.rows;
    summary.merged_bytes = merge.bytes;
    summary.tasks = plan.tasks.len();
    log_event(
        config,
        chaos,
        OrchestrateEvent::run_level(
            EventKind::Merge,
            format!(
                "fragments={} rows={} bytes={}",
                merge.shards, merge.rows, merge.bytes
            ),
        ),
    );
    // 6. Optional chained analysis over the merged CSV — the same
    //    report `scenarios analyze <merged>` would print, landing next
    //    to the fragments as `analysis.csv`.
    if let Some(query) = &config.analyze {
        let report = analyze_csv(&merged_path, query)?;
        let analysis_path = config.out_dir.join("analysis.csv");
        crate::durable_io::write_atomic(
            &analysis_path,
            report.to_csv_string().as_bytes(),
            chaos,
            Failpoint::AnalyzeWrite,
        )?;
        log_event(
            config,
            chaos,
            OrchestrateEvent::run_level(
                EventKind::Analyze,
                format!(
                    "group-by={} metrics={} groups={} -> analysis.csv",
                    query.group_by.join(","),
                    query.metrics.join(","),
                    report.groups.len()
                ),
            ),
        );
        if !config.quiet {
            eprintln!(
                "orchestrate: analyzed {} rows into {} groups — {}",
                report.rows_matched,
                report.groups.len(),
                analysis_path.display()
            );
        }
    }
    log_event(
        config,
        chaos,
        OrchestrateEvent::run_level(
            EventKind::Complete,
            format!(
                "tasks={} spawns={} retries={} reassigns={} steals={}",
                summary.tasks, summary.spawns, summary.retries, summary.reassigns, summary.steals
            ),
        ),
    );
    if !config.quiet {
        eprintln!(
            "orchestrate: complete — {} rows ({} bytes) merged into {} \
             ({} tasks, {} spawns, {} retries, {} reassigns, {} steals)",
            summary.rows,
            summary.merged_bytes,
            merged_path.display(),
            summary.tasks,
            summary.spawns,
            summary.retries,
            summary.reassigns,
            summary.steals
        );
    }
    Ok(summary)
}

/// The fragment CSV file name of task `id`, inside the output
/// directory.
fn fragment_name(id: usize) -> String {
    format!("frag-{id:04}.csv")
}

fn worker_spec(
    config: &OrchestrateConfig,
    chaos: &ChaosRegistry,
    plan: &Plan,
    task_id: usize,
    resume: bool,
) -> WorkerSpec {
    WorkerSpec {
        sweep_file: config.sweep_file.clone(),
        preset: config.preset.clone(),
        filter: config.filter.clone(),
        cells: plan.tasks[task_id].cells.clone(),
        csv: config.out_dir.join(fragment_name(task_id)),
        resume,
        checkpoint_every: config.checkpoint_every,
        threads: config.worker_threads,
        chaos: chaos.spec().to_string(),
    }
}

fn task_event(kind: EventKind, plan: &Plan, task_id: usize, detail: String) -> OrchestrateEvent {
    let task = &plan.tasks[task_id];
    OrchestrateEvent {
        kind,
        task: Some(task_id),
        csv: Some(fragment_name(task_id)),
        cells: Some(task.cells.clone()),
        attempt: Some(task.spawns),
        detail: Some(detail),
    }
}

fn log_event(config: &OrchestrateConfig, chaos: &ChaosRegistry, event: OrchestrateEvent) {
    // The log is an audit trail, not a correctness dependency: a full
    // disk must not kill a run whose real state lives in the sidecars.
    // (An injected *error* is likewise swallowed; torn/panic faults
    // still crash here — that is the crash they simulate.)
    let _ = event.log(&config.out_dir, chaos);
}

/// The last progress record's failure text, for exit-event details.
/// Tolerant of a torn tail line: a worker killed mid-heartbeat must
/// not hide the terminal record it wrote just before.
fn last_failure(csv: &Path) -> Option<String> {
    let last = newest_record(csv).0?;
    last.failed.then_some(last.error.unwrap_or_default())
}

/// Routes one worker exit: verify the manifest for completion, or
/// consume attempt budget and requeue (resume vs reassign).
fn handle_exit(
    config: &OrchestrateConfig,
    chaos: &ChaosRegistry,
    plan: &mut Plan,
    schedule: &mut Schedule,
    summary: &mut OrchestrateSummary,
    task_id: usize,
    clean: bool,
) -> io::Result<()> {
    let csv = config.out_dir.join(fragment_name(task_id));
    let manifest = ShardManifest::load(&csv);
    let cells = plan.tasks[task_id].cells.clone();
    let complete = manifest
        .as_ref()
        .map(|m| m.complete && m.cells == cells)
        .unwrap_or(false);
    if clean && complete {
        plan.tasks[task_id].state = TaskState::Done;
        log_event(
            config,
            chaos,
            task_event(EventKind::Exit, plan, task_id, "complete".into()),
        );
        return Ok(());
    }

    // Failure. Work out why (for the log) and whether the checkpoint
    // survives (for the retry mode).
    let task = &mut plan.tasks[task_id];
    task.attempts += 1;
    task.state = TaskState::Pending;
    let attempts = task.attempts;
    let why = last_failure(&csv).unwrap_or_else(|| {
        if clean {
            "exited without a complete manifest".into()
        } else {
            "dirty exit without a terminal failed record (killed?)".into()
        }
    });
    log_event(
        config,
        chaos,
        task_event(EventKind::Exit, plan, task_id, why.clone()),
    );
    if attempts >= config.max_attempts {
        log_event(
            config,
            chaos,
            task_event(
                EventKind::Failed,
                plan,
                task_id,
                format!("gave up after {attempts} attempts: {why}"),
            ),
        );
        return Err(invalid(format!(
            "task {task_id} (cells {}..{}) failed {attempts} times, last: {why}",
            cells.start, cells.end
        )));
    }
    // Capped exponential backoff before the requeue becomes eligible.
    let backoff = config
        .backoff_base_ms
        .saturating_mul(1u64 << (attempts.saturating_sub(1)).min(16))
        .min(config.backoff_cap_ms);
    schedule.eligible_at[task_id] = Instant::now() + Duration::from_millis(backoff);
    let checkpoint_intact = manifest.as_ref().map(|m| m.cells == cells).unwrap_or(false);
    if checkpoint_intact {
        summary.retries += 1;
        schedule.resume_next[task_id] = true;
        log_event(
            config,
            chaos,
            task_event(
                EventKind::Retry,
                plan,
                task_id,
                format!(
                    "attempt {} in {backoff}ms, resuming from checkpoint",
                    attempts + 1
                ),
            ),
        );
    } else {
        // No usable checkpoint: requeue the whole range from scratch.
        summary.reassigns += 1;
        schedule.resume_next[task_id] = false;
        for path in [csv.clone(), manifest_path(&csv), progress_path(&csv)] {
            let _ = std::fs::remove_file(path);
        }
        log_event(
            config,
            chaos,
            task_event(
                EventKind::Reassign,
                plan,
                task_id,
                format!(
                    "attempt {} in {backoff}ms, restarting range from scratch",
                    attempts + 1
                ),
            ),
        );
    }
    if !config.quiet {
        eprintln!(
            "orchestrate: task {task_id} attempt {attempts} failed ({why}); retrying in {backoff}ms"
        );
    }
    Ok(())
}

/// Attempts one steal: pick the running task with the most remaining
/// cells, kill its worker, split the post-kill remainder at a config
/// boundary, resume the straggler on the head and queue the tail.
fn try_steal(
    config: &OrchestrateConfig,
    chaos: &ChaosRegistry,
    plan: &mut Plan,
    schedule: &mut Schedule,
    summary: &mut OrchestrateSummary,
    slots: &mut Vec<Slot>,
) -> io::Result<()> {
    let replicates = plan.replicates;
    let min_cells = config.min_steal_configs.max(1) * replicates;
    // Victim: largest remainder beyond the last checkpoint, but only
    // where both halves of a split would clear the minimum — otherwise
    // killing the worker buys nothing.
    let mut victim: Option<(usize, usize)> = None; // (slot index, remaining)
    for (slot_index, slot) in slots.iter().enumerate() {
        let task = &plan.tasks[slot.task];
        let csv = config.out_dir.join(fragment_name(task.id));
        let done = ShardManifest::load(&csv)
            .ok()
            .filter(|m| m.cells == task.cells)
            .map(|m| m.rows * replicates)
            .unwrap_or(0);
        let remaining = (task.cells.end - task.cells.start).saturating_sub(done);
        if remaining >= 2 * min_cells && victim.as_ref().is_none_or(|(_, r)| remaining > *r) {
            victim = Some((slot_index, remaining));
        }
    }
    let Some((slot_index, _)) = victim else {
        return Ok(());
    };
    let mut slot = slots.swap_remove(slot_index);
    let task_id = slot.task;
    if slot.handle.kill().is_err() {
        // An unkillable worker keeps its slot and its whole range —
        // losing a steal opportunity beats orphaning a live worker.
        slots.push(slot);
        return Ok(());
    }
    // The worker is dead and reaped: its manifest is now quiescent and
    // authoritative. Recompute the split from the post-kill checkpoint
    // (it may have advanced past the pre-kill read).
    let csv = config.out_dir.join(fragment_name(task_id));
    let cells = plan.tasks[task_id].cells.clone();
    let manifest = ShardManifest::load(&csv).ok().filter(|m| m.cells == cells);
    let done = manifest.as_ref().map(|m| m.rows * replicates).unwrap_or(0);
    let remaining = (cells.end - cells.start).saturating_sub(done);
    plan.tasks[task_id].state = TaskState::Pending;
    schedule.eligible_at[task_id] = Instant::now();
    if remaining < 2 * min_cells {
        // The checkpoint advanced under us; nothing worth splitting.
        // Just resume (or restart) the worker we killed.
        schedule.resume_next[task_id] = manifest.is_some();
        return Ok(());
    }
    // Give the straggler the first half of its remainder (rounded up to
    // a config boundary) and the thief the rest.
    let keep_configs = (remaining / replicates).div_ceil(2);
    let split = cells.start + done + keep_configs * replicates;
    let new_id = plan
        .split(task_id, split)
        .map_err(|e| invalid(e.to_string()))?;
    debug_assert!(plan.verify_exact_cover().is_ok());
    schedule.push(Instant::now());
    summary.steals += 1;
    if let Some(mut m) = manifest {
        // Shrink the checkpoint to the kept range so `--resume`
        // recognizes the (now smaller) assignment. Rows/bytes/hash are
        // untouched — they describe a verified prefix of the kept head.
        m.cells = cells.start..split;
        m.shard = format!("cells:{}..{split}", cells.start);
        m.store(&csv, chaos)?;
        schedule.resume_next[task_id] = true;
    } else {
        schedule.resume_next[task_id] = false;
    }
    log_event(
        config,
        chaos,
        OrchestrateEvent {
            kind: EventKind::Steal,
            task: Some(task_id),
            csv: Some(fragment_name(task_id)),
            cells: Some(cells.start..split),
            attempt: Some(plan.tasks[task_id].spawns),
            detail: Some(format!(
                "split at {split}: task {new_id} takes {split}..{} ({} configs)",
                cells.end,
                (cells.end - split) / replicates
            )),
        },
    );
    if !config.quiet {
        eprintln!(
            "orchestrate: stole {}..{} from task {task_id} (task {new_id})",
            split, cells.end
        );
    }
    Ok(())
}
