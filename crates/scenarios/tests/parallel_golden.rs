//! The `--threads` byte-identity contract, pinned at the artifact
//! level: a shard run on N workers must leave **exactly** the bytes a
//! serial run leaves — fragment CSV, manifest checkpoint, the
//! deterministic projection of the `.progress` sidecar, and the merge
//! built from them — for every thread count, and it must keep doing so
//! through injected crashes (a torn in-order commit, a mid-run kill)
//! followed by a resume on *either* execution shape.
//!
//! This is the output-level half of the parallel determinism story; the
//! scheduling-level half (in-order exact-cover commits) lives in
//! `tests/reorder_props.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use green_chaos::ChaosRegistry;
use green_scenarios::{
    manifest_path, merge_shards, progress_path, run_shard, ProgressRecord, ShardAssignment,
    ShardJob, ShardManifest, Sweep, SweepRunner,
};

mod common;
use common::{shard_job, small_grid, Scratch};

/// Thread counts under test. 1 is the golden reference, 2 exercises the
/// minimal race, 8 oversubscribes every CI box we run on.
const THREADS: [usize; 3] = [1, 2, 8];

/// A 6-configuration × 3-replicate grid: enough cells (18) that eight
/// workers genuinely race the reorder buffer, small enough to run three
/// times per test.
fn grid() -> Sweep {
    small_grid("parallel-golden", &[1, 2, 3])
}

/// An 8-configuration × 2-replicate market grid: everything a shard's
/// prepare stage builds concurrently — two populations (world chains),
/// two realizations with two price tables each, and four agent
/// populations — so the order workers finish them in varies with the
/// thread count.
fn market_grid() -> Sweep {
    Sweep::from_toml_str(
        r#"
name = "parallel-golden-market"

[workload]
preset = "tiny"
seed = 31

[grid]
policies = ["adaptive"]
methods = ["cba"]
workload_scales = [0.25]
elasticities = [0.5, 2.0]
price_schedules = ["carbon:1.500", "tou:0.250"]
users = [24, 48]
seeds = [1, 2]
"#,
    )
    .expect("the market grid parses")
}

fn job<'a>(
    sweep: &'a Sweep,
    csv: &'a Path,
    cells: std::ops::Range<usize>,
    resume: bool,
) -> ShardJob<'a> {
    ShardJob {
        resume,
        ..shard_job(sweep, ShardAssignment::Cells(cells), csv)
    }
}

/// The deterministic projection of a progress record: everything except
/// the wall-clock-derived fields (elapsed, rate, ETA, RSS, phase
/// timings), which legitimately vary run to run and thread to thread.
type ProgressProjection = (String, String, usize, usize, bool, Option<String>, bool);

fn progress_projection(csv: &Path) -> Vec<ProgressProjection> {
    let text = std::fs::read_to_string(progress_path(csv)).expect("progress sidecar");
    ProgressRecord::parse_sidecar(&text)
        .expect("sidecar parses strictly")
        .into_iter()
        .map(|r| {
            (
                r.sweep,
                r.shard,
                r.rows,
                r.expected_rows,
                r.failed,
                r.error,
                r.complete,
            )
        })
        .collect()
}

/// Runs the whole grid as two fragments, split at the middle
/// configuration, on `threads` workers into `scratch`, returning the two
/// fragment paths.
fn run_fragments(sweep: &Sweep, scratch: &Scratch, threads: usize) -> [PathBuf; 2] {
    let runner = SweepRunner::new(threads);
    let (cells, replicates) = (sweep.cell_count(), sweep.seeds.len());
    let mid = cells / replicates / 2 * replicates;
    let frag0 = scratch.path("frag0.csv");
    let frag1 = scratch.path("frag1.csv");
    run_shard(&runner, &job(sweep, &frag0, 0..mid, false), None).expect("fragment 0");
    run_shard(&runner, &job(sweep, &frag1, mid..cells, false), None).expect("fragment 1");
    [frag0, frag1]
}

/// Fragment bytes, manifest bytes (spec hash, row/byte counts, content
/// hash — the whole checkpoint), and the progress projection of a
/// parallel run are identical to the serial run's, for every thread
/// count.
#[test]
fn every_thread_count_leaves_identical_artifacts() {
    assert_identical_artifacts(&grid());
}

/// The same for market cells, whose price tables, agent populations and
/// second population are built beside each other in the prepare stage.
#[test]
fn market_cells_leave_identical_artifacts_at_every_thread_count() {
    assert_identical_artifacts(&market_grid());
}

fn assert_identical_artifacts(sweep: &Sweep) {
    let serial = Scratch::new("serial");
    let golden = run_fragments(sweep, &serial, 1);
    let golden_bytes: Vec<Vec<u8>> = golden
        .iter()
        .map(|p| std::fs::read(p).expect("fragment"))
        .collect();
    let golden_manifests: Vec<Vec<u8>> = golden
        .iter()
        .map(|p| std::fs::read(manifest_path(p)).expect("manifest"))
        .collect();
    let golden_progress: Vec<_> = golden.iter().map(|p| progress_projection(p)).collect();

    // The golden fragments themselves must be complete and verified.
    for path in &golden {
        assert!(ShardManifest::load(path).expect("manifest").complete);
    }

    for threads in THREADS {
        let scratch = Scratch::new(&format!("t{threads}"));
        let fragments = run_fragments(sweep, &scratch, threads);
        for (i, path) in fragments.iter().enumerate() {
            assert_eq!(
                std::fs::read(path).expect("fragment"),
                golden_bytes[i],
                "threads={threads}: fragment {i} bytes diverged from serial"
            );
            assert_eq!(
                std::fs::read(manifest_path(path)).expect("manifest"),
                golden_manifests[i],
                "threads={threads}: manifest {i} diverged from serial"
            );
            assert_eq!(
                progress_projection(path),
                golden_progress[i],
                "threads={threads}: progress projection {i} diverged from serial"
            );
        }
    }
}

/// A merge over fragments produced by an 8-thread run is byte-identical
/// to the merge over serial fragments — parallelism never leaks through
/// the whole artifact pipeline.
#[test]
fn merged_output_is_identical_across_thread_counts() {
    assert_identical_merges(&grid(), &[8]);
}

/// The market grid's merges on 2 and 8 workers equal its serial merge.
#[test]
fn merged_market_output_is_identical_across_thread_counts() {
    assert_identical_merges(&market_grid(), &[2, 8]);
}

fn assert_identical_merges(sweep: &Sweep, thread_counts: &[usize]) {
    let serial = Scratch::new("merge-serial");
    let golden_frags = run_fragments(sweep, &serial, 1);
    let golden_out = serial.path("merged.csv");
    merge_shards(&golden_frags, &golden_out, false).expect("serial merge");
    let golden = std::fs::read(&golden_out).expect("merged bytes");

    for &threads in thread_counts {
        let parallel = Scratch::new(&format!("merge-t{threads}"));
        let frags = run_fragments(sweep, &parallel, threads);
        let out = parallel.path("merged.csv");
        merge_shards(&frags, &out, false).expect("parallel merge");
        assert_eq!(
            std::fs::read(&out).expect("merged bytes"),
            golden,
            "merge over {threads}-thread fragments diverged from the serial merge"
        );
    }
}

/// Crashes a shard run on `threads` workers with `spec` armed and
/// asserts the crash actually fired by unwinding.
fn crash(sweep: &Sweep, csv: &Path, threads: usize, spec: &str) {
    let registry = ChaosRegistry::from_spec(spec).expect("spec compiles");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_shard(
            &SweepRunner::new(threads).armed(&registry),
            &job(sweep, csv, 0..9, false),
            None,
        )
    }));
    assert!(
        outcome.is_err(),
        "`{spec}` did not fire on {threads} threads"
    );
}

/// Torn in-order commit under 8 racing workers: the partial row lands
/// past the last checkpoint, the terminal progress record says
/// `failed`, and a resume — parallel *or* serial — truncates the tail
/// and reproduces the serial golden bytes.
#[test]
fn torn_parallel_commit_resumes_to_serial_bytes() {
    let sweep = grid();
    let serial = Scratch::new("torn-serial");
    let golden = std::fs::read(&run_fragments(&sweep, &serial, 1)[0]).expect("golden");

    for resume_threads in [8, 1] {
        let scratch = Scratch::new(&format!("torn-resume-t{resume_threads}"));
        let csv = scratch.path("frag0.csv");
        crash(&sweep, &csv, 8, "parallel_commit=torn:13@hit:2");
        let last = progress_projection(&csv)
            .pop()
            .expect("terminal progress record");
        assert!(last.4, "the terminal progress record must say failed");
        run_shard(
            &SweepRunner::new(resume_threads),
            &job(&sweep, &csv, 0..9, true),
            None,
        )
        .expect("resume completes");
        assert_eq!(
            std::fs::read(&csv).expect("fragment"),
            golden,
            "resume on {resume_threads} threads diverged from the serial golden"
        );
        assert!(ShardManifest::load(&csv).expect("manifest").complete);
    }
}

/// A mid-run kill (injected panic at the in-order commit, no torn
/// bytes) under 8 workers: the on-disk checkpoint stays at the last
/// full row, and an 8-thread resume reproduces the serial golden.
#[test]
fn mid_run_kill_resumes_to_serial_bytes() {
    let sweep = grid();
    let serial = Scratch::new("kill-serial");
    let golden = std::fs::read(&run_fragments(&sweep, &serial, 1)[0]).expect("golden");

    let scratch = Scratch::new("kill");
    let csv = scratch.path("frag0.csv");
    crash(&sweep, &csv, 8, "parallel_commit=panic@hit:2");
    // The kill is clean at the row boundary: whatever made it to disk
    // verifies against its own manifest (no torn tail to truncate).
    let manifest = ShardManifest::load(&csv).expect("manifest survives the kill");
    assert!(!manifest.complete, "the kill must interrupt the shard");
    run_shard(&SweepRunner::new(8), &job(&sweep, &csv, 0..9, true), None)
        .expect("parallel resume completes");
    assert_eq!(
        std::fs::read(&csv).expect("fragment"),
        golden,
        "parallel resume after a kill diverged from the serial golden"
    );
}
