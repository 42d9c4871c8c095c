//! The crash matrix: for **every** failpoint in [`Failpoint::ALL`],
//! crash there mid-run, then prove the recovery path reproduces the
//! golden artifact bytes exactly — or refuses loudly, naming the
//! corrupt file. Never a third outcome (a plausible-looking file with
//! silently different contents is the failure mode this whole
//! subsystem exists to rule out).
//!
//! The dispatch is an exhaustive `match` with no wildcard arm:
//! registering a new failpoint in `green-chaos` without teaching this
//! matrix how to crash there is a compile error, not a coverage gap.
//!
//! The ENOSPC tests at the bottom cover the satellite contract: a full
//! disk mid-manifest-rewrite or mid-fragment-write is recovered by
//! `--resume`, and `merge --partial` over the short fragment refuses
//! by name instead of merging a truncated grid.

use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use green_chaos::{ChaosRegistry, Failpoint, NO_CHAOS};
use green_scenarios::analyze::cols_path;
use green_scenarios::{
    analyze_csv, merge_shards, merge_shards_chaos, orchestrate_log_path, run_shard, write_atomic,
    AnalyzeQuery, EventKind, OrchestrateEvent, ShardAssignment, ShardJob, Sweep, SweepRunner,
};

mod common;
use common::{shard_job, small_grid, Scratch};

/// The 6-configuration × 2-replicate grid the other golden tests use:
/// two fragments of 3 configurations each tile the 12 cells.
fn grid() -> Sweep {
    small_grid("crash-matrix", &[1, 2])
}

fn job<'a>(sweep: &'a Sweep, csv: &'a Path, resume: bool, columnar: bool) -> ShardJob<'a> {
    ShardJob {
        resume,
        columnar,
        ..shard_job(sweep, ShardAssignment::Cells(0..6), csv)
    }
}

/// The golden bytes every recovery must reproduce exactly: fragment
/// CSVs, the columnar sidecar, the merged CSV, the analysis report.
struct Golden {
    fragment: Vec<u8>,
    cols: Vec<u8>,
    merged: Vec<u8>,
    analysis: String,
}

fn golden() -> Golden {
    let sweep = grid();
    let scratch = Scratch::new("golden");
    let frag0 = scratch.path("frag0.csv");
    let frag1 = scratch.path("frag1.csv");
    run_shard(
        &SweepRunner::new(1),
        &job(&sweep, &frag0, false, true),
        None,
    )
    .expect("fragment 0");
    run_shard(
        &SweepRunner::new(1),
        &ShardJob {
            assignment: ShardAssignment::Cells(6..12),
            ..job(&sweep, &frag1, false, false)
        },
        None,
    )
    .expect("fragment 1");
    let merged = scratch.path("merged.csv");
    merge_shards(&[frag0.clone(), frag1.clone()], &merged, false).expect("merge");
    let query = AnalyzeQuery::new(None, None, None).expect("default query");
    let analysis = analyze_csv(&merged, &query)
        .expect("analyze")
        .to_csv_string();
    Golden {
        fragment: std::fs::read(&frag0).expect("fragment bytes"),
        cols: std::fs::read(cols_path(&frag0)).expect("sidecar bytes"),
        merged: std::fs::read(&merged).expect("merged bytes"),
        analysis,
    }
}

/// Runs the fragment under `spec` on `threads` workers, asserting the
/// fault actually fired (panic, or an error prefixed `chaos:` —
/// injected faults must never be mistaken for real ones). Returns the
/// fragment path.
fn crash_fragment(
    sweep: &Sweep,
    scratch: &Scratch,
    spec: &str,
    columnar: bool,
    threads: usize,
) -> PathBuf {
    let csv = scratch.path("frag0.csv");
    let registry = ChaosRegistry::from_spec(spec).expect("spec compiles");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_shard(
            &SweepRunner::new(threads).armed(&registry),
            &job(sweep, &csv, false, columnar),
            None,
        )
    }));
    match outcome {
        Ok(Ok(_)) => panic!("`{spec}` did not fire"),
        Ok(Err(e)) => assert!(e.to_string().starts_with("chaos:"), "{spec}: {e}"),
        Err(_) => {} // torn/panic faults crash by unwinding
    }
    csv
}

/// The refusal arm: merging the crashed fragment must fail loudly and
/// name the file — never produce output from an incomplete shard.
fn assert_merge_refuses_naming(csv: &Path, out: &Path) {
    let err = merge_shards(&[csv.to_path_buf()], out, true)
        .expect_err("merge must refuse an incomplete fragment");
    let text = err.to_string();
    assert!(
        text.contains(&csv.display().to_string()) && text.contains("incomplete"),
        "refusal must name the fragment: {text}"
    );
    assert!(!out.exists(), "refusal must not leave an output file");
}

/// The recovery arm: `--resume` finishes the fragment and the bytes
/// are exactly the uninterrupted run's.
fn assert_resume_reproduces(sweep: &Sweep, csv: &Path, columnar: bool, golden: &Golden) {
    run_shard(&SweepRunner::new(1), &job(sweep, csv, true, columnar), None)
        .expect("resume completes the fragment");
    assert_eq!(
        std::fs::read(csv).expect("fragment bytes"),
        golden.fragment,
        "resumed fragment must be byte-identical to the clean run"
    );
    if columnar {
        assert_eq!(
            std::fs::read(cols_path(csv)).expect("sidecar bytes"),
            golden.cols,
            "rebuilt columnar sidecar must be byte-identical"
        );
    }
}

/// Crash inside a shard invocation (manifest checkpoint, row write, or
/// heartbeat), then: merge refuses by name, resume reproduces golden.
fn shard_crash_recovers(golden: &Golden, spec: &str) {
    let sweep = grid();
    let scratch = Scratch::new(&spec.replace(['=', '@', ':'], "-"));
    let csv = crash_fragment(&sweep, &scratch, spec, false, 1);
    assert_merge_refuses_naming(&csv, &scratch.path("merged.csv"));
    assert_resume_reproduces(&sweep, &csv, false, golden);
}

/// Crash at the parallel writer's in-order row commit, mid-fragment,
/// with two workers racing: the torn row's prefix lands past the last
/// checkpoint, merge refuses, and a *serial* resume reproduces the
/// golden bytes — the two execution shapes are interchangeable on disk.
fn parallel_commit_crash_recovers(golden: &Golden) {
    let sweep = grid();
    let scratch = Scratch::new("parallel-commit");
    // hit 2 = the second committed row: rows commit in config order
    // under the sink lock, so the target is deterministic regardless of
    // which worker gets there.
    let csv = crash_fragment(&sweep, &scratch, "parallel_commit=torn:13@hit:2", false, 2);
    assert_merge_refuses_naming(&csv, &scratch.path("merged.csv"));
    assert_resume_reproduces(&sweep, &csv, false, golden);
}

/// Crash writing the `.cols` sidecar *after* the shard completed: the
/// CSV and manifest are already final, the atomic protocol keeps the
/// torn sidecar out of sight, and resume backfills it byte-identical.
fn columnar_crash_recovers(golden: &Golden) {
    let sweep = grid();
    let scratch = Scratch::new("cols");
    let csv = crash_fragment(&sweep, &scratch, "columnar_sidecar=torn:16@hit:1", true, 1);
    assert!(
        !cols_path(&csv).exists(),
        "a torn sidecar must never appear under its real name"
    );
    // The fragment itself completed before the sidecar crash — no
    // refusal arm here; the CSV already carries the golden bytes.
    assert_eq!(std::fs::read(&csv).expect("fragment"), golden.fragment);
    assert_resume_reproduces(&sweep, &csv, true, golden);
}

/// Crash mid-merge: the torn prefix lands in the atomic staging file,
/// `merged.csv` never exists, and the re-merge is byte-identical.
fn merge_crash_recovers(golden: &Golden) {
    let sweep = grid();
    let scratch = Scratch::new("merge");
    let frag0 = scratch.path("frag0.csv");
    let frag1 = scratch.path("frag1.csv");
    run_shard(
        &SweepRunner::new(1),
        &job(&sweep, &frag0, false, false),
        None,
    )
    .expect("fragment 0");
    run_shard(
        &SweepRunner::new(1),
        &ShardJob {
            assignment: ShardAssignment::Cells(6..12),
            ..job(&sweep, &frag1, false, false)
        },
        None,
    )
    .expect("fragment 1");
    let inputs = [frag0, frag1];
    let merged = scratch.path("merged.csv");
    let registry = ChaosRegistry::from_spec("merge_write=torn:40@hit:2").expect("spec");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        merge_shards_chaos(&inputs, &merged, false, &registry)
    }));
    assert!(outcome.is_err(), "torn merge write must crash");
    assert!(
        !merged.exists(),
        "a torn merge must never leave a merged.csv"
    );
    merge_shards(&inputs, &merged, false).expect("clean re-merge");
    assert_eq!(std::fs::read(&merged).expect("merged"), golden.merged);
}

/// Crash writing the analysis report: the target is never torn, and
/// the clean rewrite is byte-identical.
fn analyze_crash_recovers(golden: &Golden) {
    let scratch = Scratch::new("analyze");
    let report = scratch.path("analysis.csv");
    let registry = ChaosRegistry::from_spec("analyze_write=torn:12@hit:1").expect("spec");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        write_atomic(
            &report,
            golden.analysis.as_bytes(),
            &registry,
            Failpoint::AnalyzeWrite,
        )
    }));
    assert!(outcome.is_err(), "torn report write must crash");
    assert!(!report.exists(), "a torn report must never appear");
    write_atomic(
        &report,
        golden.analysis.as_bytes(),
        &NO_CHAOS,
        Failpoint::AnalyzeWrite,
    )
    .expect("clean rewrite");
    assert_eq!(
        std::fs::read_to_string(&report).expect("report"),
        golden.analysis
    );
}

/// Crash appending to `orchestrate.jsonl`: the torn tail is skipped by
/// the tolerant reader (named by line), and the next append repairs
/// the file so the strict parser accepts every surviving line.
fn orchestrate_append_crash_recovers() {
    let scratch = Scratch::new("append");
    let first = OrchestrateEvent::run_level(EventKind::Plan, "2 tasks");
    let last = OrchestrateEvent::run_level(EventKind::Complete, "ok");
    let registry = ChaosRegistry::from_spec("orchestrate_append=torn:9@hit:2").expect("spec");
    first
        .log(&scratch.0, &registry)
        .expect("first append is clean");
    let outcome = catch_unwind(AssertUnwindSafe(|| last.log(&scratch.0, &registry)));
    assert!(outcome.is_err(), "torn append must crash");

    // Refusal arm: the tolerant reader renders the intact prefix and
    // names the torn line instead of erroring or inventing an event.
    let torn = std::fs::read_to_string(orchestrate_log_path(&scratch.0)).expect("log");
    let (events, warnings) = OrchestrateEvent::parse_log_tolerant(&torn);
    assert_eq!(events.len(), 1, "only the intact line parses");
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].starts_with("line 2:"), "{warnings:?}");

    // Recovery arm: the next append truncates the torn tail first, so
    // the log ends up exactly [first, last] — strictly parseable.
    last.log(&scratch.0, &NO_CHAOS).expect("repairing append");
    let repaired = std::fs::read_to_string(orchestrate_log_path(&scratch.0)).expect("log");
    assert_eq!(
        repaired,
        format!("{}\n{}\n", first.to_json_line(), last.to_json_line()),
        "repaired log must hold exactly the intact appends"
    );
    OrchestrateEvent::parse_log(&repaired).expect("strict parse accepts the repaired log");
}

/// One matrix run: every registered failpoint crashes once and
/// recovers to golden bytes (or refuses loudly). The match has no
/// wildcard arm on purpose — a new failpoint must be added here too.
#[test]
fn every_failpoint_crashes_and_recovers_to_golden_bytes() {
    let golden = golden();
    for fp in Failpoint::ALL {
        match fp {
            // hit 3 = the second row checkpoint: mid-fragment, past
            // real progress, before completion.
            Failpoint::ManifestRewrite => {
                shard_crash_recovers(&golden, "manifest_rewrite=torn:24@hit:3")
            }
            Failpoint::FragmentRow => shard_crash_recovers(&golden, "fragment_row=torn:11@hit:2"),
            Failpoint::ProgressRewrite => {
                shard_crash_recovers(&golden, "progress_rewrite=torn:18@hit:2")
            }
            Failpoint::ColumnarSidecar => columnar_crash_recovers(&golden),
            Failpoint::OrchestrateAppend => orchestrate_append_crash_recovers(),
            Failpoint::MergeWrite => merge_crash_recovers(&golden),
            Failpoint::AnalyzeWrite => analyze_crash_recovers(&golden),
            Failpoint::ParallelCommit => parallel_commit_crash_recovers(&golden),
        }
    }
}

/// ENOSPC mid-manifest-rewrite: the injected error surfaces as
/// `StorageFull` with the `chaos:` prefix, the checkpoint on disk
/// stays the previous intact one, and `--resume` finishes to golden.
#[test]
fn enospc_mid_manifest_rewrite_recovers_on_resume() {
    let golden = golden();
    let sweep = grid();
    let scratch = Scratch::new("enospc-manifest");
    let csv = scratch.path("frag0.csv");
    let registry = ChaosRegistry::from_spec("manifest_rewrite=enospc@hit:3").expect("spec");
    let err = run_shard(
        &SweepRunner::new(1).armed(&registry),
        &job(&sweep, &csv, false, false),
        None,
    )
    .expect_err("full disk kills the invocation");
    assert_eq!(err.kind(), ErrorKind::StorageFull, "{err}");
    assert!(err.to_string().starts_with("chaos:"), "{err}");
    assert_merge_refuses_naming(&csv, &scratch.path("merged.csv"));
    assert_resume_reproduces(&sweep, &csv, false, &golden);
}

/// ENOSPC mid-fragment-write: `--resume` recovers, and until it runs,
/// `merge --partial` over the short fragment refuses by name instead
/// of merging a truncated grid.
#[test]
fn enospc_mid_fragment_write_names_the_short_fragment_then_resumes() {
    let golden = golden();
    let sweep = grid();
    let scratch = Scratch::new("enospc-fragment");
    let csv = scratch.path("frag0.csv");
    let registry = ChaosRegistry::from_spec("fragment_row=enospc@hit:3").expect("spec");
    let err = run_shard(
        &SweepRunner::new(1).armed(&registry),
        &job(&sweep, &csv, false, false),
        None,
    )
    .expect_err("full disk kills the invocation");
    assert_eq!(err.kind(), ErrorKind::StorageFull, "{err}");
    assert_merge_refuses_naming(&csv, &scratch.path("merged.csv"));
    assert_resume_reproduces(&sweep, &csv, false, &golden);
}
