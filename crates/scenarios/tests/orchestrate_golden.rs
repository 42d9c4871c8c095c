//! End-to-end orchestrator contract: a supervised multi-worker run —
//! healthy, crashing, or straggling — always merges to bytes identical
//! to the single-process `--stream` run, and the event log tells the
//! true story of how it got there.
//!
//! Worker failure is injected deterministically through `fragment_row`
//! failpoint specs in [`WorkerSpec::chaos`], which a process worker
//! receives as `--chaos` and a thread worker arms its runner with (the
//! same tear points a real `kill -9` hits, minus the timing race); CI's
//! chaos job additionally exercises the real-signal path on the mega
//! grid.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use green_chaos::{ChaosRegistry, NO_CHAOS};
use green_scenarios::{
    orchestrate, orchestrate_log_path, EventKind, Launcher, OrchestrateConfig, OrchestrateEvent,
    ProcessLauncher, ThreadLauncher, WatchReport, WorkerHandle, WorkerSpec,
};

mod common;
use common::Scratch;

const SWEEP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/sweeps/sensitivity.toml"
);

/// The single-process `--stream` reference bytes for the sweep file.
fn reference_csv(dir: &Scratch) -> Vec<u8> {
    let out = dir.0.join("reference.csv");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args([SWEEP, "--stream", "--quiet", "--out"])
        .arg(&out)
        .status()
        .expect("scenarios binary runs");
    assert!(status.success());
    std::fs::read(&out).expect("reference bytes")
}

fn events(out_dir: &Path) -> Vec<OrchestrateEvent> {
    let text = std::fs::read_to_string(orchestrate_log_path(out_dir)).expect("event log");
    OrchestrateEvent::parse_log(&text).expect("log parses")
}

fn count(events: &[OrchestrateEvent], kind: EventKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

fn base_config(scratch: &Scratch, workers: usize) -> OrchestrateConfig {
    let mut config = OrchestrateConfig::new(PathBuf::from(SWEEP), scratch.0.join("run"), workers);
    config.quiet = true;
    config.poll_interval_ms = 20;
    config.checkpoint_every = 1;
    config.backoff_base_ms = 10;
    config.backoff_cap_ms = 50;
    config
}

/// Healthy run on the deterministic in-process launcher: no kills, no
/// steals, spawns == tasks, merged bytes identical, event log exactly
/// the happy-path sequence.
#[test]
fn thread_launcher_run_is_deterministic_and_byte_identical() {
    let scratch = Scratch::new("thread");
    let reference = reference_csv(&scratch);
    let config = base_config(&scratch, 3);
    let summary = orchestrate(&config, &ThreadLauncher, &NO_CHAOS).expect("orchestration succeeds");
    assert_eq!(summary.tasks, 3);
    assert_eq!(summary.spawns, 3);
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.steals, 0);
    assert_eq!(summary.cells, 36);
    assert_eq!(summary.rows, 12);
    let merged = std::fs::read(config.out_dir.join("merged.csv")).expect("merged");
    assert_eq!(
        merged, reference,
        "merged bytes must match the streamed run"
    );

    let log = events(&config.out_dir);
    assert_eq!(count(&log, EventKind::Plan), 1);
    assert_eq!(count(&log, EventKind::Spawn), 3);
    assert_eq!(count(&log, EventKind::Exit), 3);
    assert_eq!(count(&log, EventKind::Merge), 1);
    assert_eq!(count(&log, EventKind::Complete), 1);
    assert_eq!(log.len(), 9, "no recovery events on a healthy run");

    // `scenarios watch` sees the orchestrated directory: attempts
    // column and a complete footer.
    let report = WatchReport::scan(&config.out_dir, 60.0).expect("watch scans");
    let table = report.render();
    assert!(report.all_complete(), "{table}");
    assert!(table.contains("att"), "{table}");
    assert!(table.contains("orchestrator: complete"), "{table}");
}

/// Thread workers are armed from the registry too: each compiles the
/// spec afresh, so `fragment_row=err@hit:3` fails every 4-row task after
/// two rows, once, and its retry resumes at the checkpoint and writes
/// the last two. The merge is still the reference bytes.
#[test]
fn thread_workers_are_armed_from_the_registry_and_retry() {
    let scratch = Scratch::new("thread-chaos");
    let reference = reference_csv(&scratch);
    let config = base_config(&scratch, 3);
    let chaos = ChaosRegistry::from_spec("fragment_row=err@hit:3").unwrap();
    let summary = orchestrate(&config, &ThreadLauncher, &chaos).expect("the retries finish");
    assert_eq!(summary.tasks, 3);
    assert_eq!(summary.retries, 3, "one retry per task: {summary:?}");
    assert_eq!(summary.spawns, 6);
    let merged = std::fs::read(config.out_dir.join("merged.csv")).expect("merged");
    assert_eq!(merged, reference, "fault recovery must not change bytes");
    let log = events(&config.out_dir);
    assert_eq!(count(&log, EventKind::Retry), 3);
    assert_eq!(
        count(&log, EventKind::Reassign),
        0,
        "checkpoints were intact"
    );
}

/// Process workers running the test build's `scenarios` binary.
fn process_launcher() -> ProcessLauncher {
    ProcessLauncher {
        binary: PathBuf::from(env!("CARGO_BIN_EXE_scenarios")),
    }
}

/// Wraps the process launcher so the Nth launch (and only it) arms
/// `chaos` — deterministic single-worker fault injection.
struct FaultyNth {
    chaos: &'static str,
    nth: u32,
    launches: AtomicU32,
}

impl Launcher for FaultyNth {
    fn launch(&self, spec: &WorkerSpec) -> std::io::Result<Box<dyn WorkerHandle>> {
        let mut spec = spec.clone();
        if self.launches.fetch_add(1, Ordering::SeqCst) == self.nth {
            spec.chaos = self.chaos.to_string();
        }
        process_launcher().launch(&spec)
    }
}

/// A worker that crashes mid-range (injected error after 2 rows) is
/// retried from its checkpoint and the run still merges byte-identical
/// output; the log records the failure and the resume.
#[test]
fn crashed_worker_is_retried_from_checkpoint_and_bytes_match() {
    let scratch = Scratch::new("retry");
    let reference = reference_csv(&scratch);
    let config = base_config(&scratch, 2);
    let launcher = FaultyNth {
        chaos: "fragment_row=err@hit:3",
        nth: 0,
        launches: AtomicU32::new(0),
    };
    let summary = orchestrate(&config, &launcher, &NO_CHAOS).expect("run survives the crash");
    assert_eq!(summary.retries, 1, "one retry consumed: {summary:?}");
    assert_eq!(summary.spawns, 3, "2 workers + 1 respawn");
    let merged = std::fs::read(config.out_dir.join("merged.csv")).expect("merged");
    assert_eq!(merged, reference, "fault recovery must not change bytes");

    let log = events(&config.out_dir);
    assert_eq!(count(&log, EventKind::Retry), 1);
    assert_eq!(count(&log, EventKind::Reassign), 0, "checkpoint was intact");
    // The exit event carries the worker's terminal failure text.
    let crash_exit = log
        .iter()
        .find(|e| e.kind == EventKind::Exit && e.detail.as_deref() != Some("complete"))
        .expect("a failure exit is logged");
    assert!(
        crash_exit.detail.as_deref().unwrap_or("").contains("chaos"),
        "{crash_exit:?}"
    );
}

/// A worker that panics exhausts its attempt budget when every retry
/// panics too — the run fails loudly instead of merging partial output.
#[test]
fn unrecoverable_task_fails_the_run_after_max_attempts() {
    let scratch = Scratch::new("giveup");
    let mut config = base_config(&scratch, 2);
    config.max_attempts = 2;
    // Every worker dies after one row — nothing can finish.
    let chaos = ChaosRegistry::from_spec("fragment_row=panic@hit:2").unwrap();
    let err = orchestrate(&config, &process_launcher(), &chaos).expect_err("run must give up");
    assert!(err.to_string().contains("failed 2 times"), "{err}");
    let log = events(&config.out_dir);
    assert_eq!(count(&log, EventKind::Failed), 1);
    assert_eq!(
        count(&log, EventKind::Merge),
        0,
        "no merge of partial output"
    );
    assert!(!config.out_dir.join("merged.csv").exists());
}

/// Work-stealing: one deliberately slow worker (injected per-row sleep)
/// has its remaining range split onto the idle worker, and the merged
/// bytes still match the reference exactly.
#[test]
fn straggler_range_is_stolen_and_bytes_still_match() {
    let scratch = Scratch::new("steal");
    let reference = reference_csv(&scratch);
    let mut config = base_config(&scratch, 2);
    config.min_steal_configs = 1;
    config.stall_after_s = 300.0; // keep stall recovery out of this test
    let launcher = FaultyNth {
        // Worker 0 crawls: 400ms per row over its 6-config range gives
        // the fast worker ample time to finish and steal.
        chaos: "fragment_row=delay:400@hit:1",
        nth: 0,
        launches: AtomicU32::new(0),
    };
    let summary = orchestrate(&config, &launcher, &NO_CHAOS).expect("orchestration succeeds");
    assert!(
        summary.steals >= 1,
        "expected at least one steal: {summary:?}"
    );
    assert!(summary.tasks > 2, "split appends tasks: {summary:?}");
    let merged = std::fs::read(config.out_dir.join("merged.csv")).expect("merged");
    assert_eq!(merged, reference, "stealing must not change bytes");
    let log = events(&config.out_dir);
    assert!(count(&log, EventKind::Steal) >= 1);
}
