//! The sharded-execution contract: for any shard count, running every
//! shard and merging reproduces the single-process `--stream` bytes
//! exactly; a killed worker resumed from its manifest checkpoint
//! converges to the same bytes; empty shards still emit a header so
//! `merge` never sees a headerless file.

use std::path::{Path, PathBuf};

use green_chaos::{ChaosRegistry, NO_CHAOS};
use green_scenarios::shard::Fnv1a;
use green_scenarios::{
    manifest_path, merge_shards, run_shard, shard_ranges, Shard, ShardAssignment, ShardJob,
    ShardManifest, Sweep, SweepRunner,
};

mod common;
use common::{shard_job, small_grid, Scratch};

/// A 6-configuration × 2-replicate grid — small enough that every test
/// re-runs it several times, wide enough that shards land mid-axis.
fn grid() -> Sweep {
    small_grid("shard-golden", &[1, 2])
}

fn reference_csv(sweep: &Sweep) -> Vec<u8> {
    let mut bytes = Vec::new();
    SweepRunner::new(1)
        .run_streamed_range(sweep, None, None, true, None, &mut bytes)
        .expect("streaming to a Vec cannot fail");
    bytes
}

fn run_one_shard(sweep: &Sweep, shard: Shard, csv: &Path, resume: bool) {
    let job = ShardJob {
        resume,
        ..shard_job(sweep, ShardAssignment::Shard(shard), csv)
    };
    run_shard(&SweepRunner::new(1), &job, None).expect("shard runs");
}

#[test]
fn merged_shards_are_byte_identical_to_the_streamed_run() {
    let sweep = grid();
    let reference = reference_csv(&sweep);
    // N = 1, 3, 8: one-shot, mid-axis splits, and more shards than some
    // axes are long (8 shards over 6 configs leaves two shards empty).
    for n in [1usize, 3, 8] {
        let scratch = Scratch::new(&format!("merge{n}"));
        let shards: Vec<PathBuf> = (0..n)
            .map(|index| {
                let csv = scratch.path(&format!("shard_{index}.csv"));
                run_one_shard(&sweep, Shard { index, of: n }, &csv, false);
                csv
            })
            .collect();
        let merged = scratch.path("merged.csv");
        let summary = merge_shards(&shards, &merged, false).expect("merge succeeds");
        assert_eq!(summary.shards, n);
        assert_eq!(summary.rows, sweep.config_count());
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            reference,
            "merged output diverged from the single-process stream at N={n}"
        );
    }
}

#[test]
fn empty_shards_still_write_the_header() {
    // 8 shards over 6 configs: shards 6 and 7 get empty ranges — the
    // regression the zero-cell bugfix pins. Their files must still be
    // headerful and their manifests complete, or `merge` would reject
    // the whole set.
    let sweep = grid();
    let ranges = shard_ranges(sweep.config_count(), sweep.seeds.len(), 8);
    assert_eq!(ranges[6].len(), 0, "the test premise moved");
    let scratch = Scratch::new("empty");
    let csv = scratch.path("empty_shard.csv");
    run_one_shard(&sweep, Shard { index: 6, of: 8 }, &csv, false);
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(
        body.starts_with("policy,method,"),
        "header missing: {body:?}"
    );
    assert_eq!(body.lines().count(), 1, "an empty shard is header-only");
    let manifest = ShardManifest::load(&csv).unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.rows, 0);
    assert_eq!(manifest.hash, Fnv1a::hash(body.as_bytes()));
}

/// The zero-cell end of the same contract on the plain streaming path: a
/// sweep whose filter matches nothing still emits the header row.
#[test]
fn zero_cell_stream_still_writes_the_header() {
    let sweep = grid();
    let mut bytes = Vec::new();
    let summary = SweepRunner::new(1)
        .run_streamed_range(&sweep, Some("no-such-label"), None, true, None, &mut bytes)
        .expect("streaming to a Vec cannot fail");
    assert_eq!(summary.configs, 0);
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.starts_with("policy,method,"));
    assert_eq!(text.lines().count(), 1);
}

#[test]
fn resume_after_a_mid_shard_kill_converges_to_identical_bytes() {
    let sweep = grid();
    let scratch = Scratch::new("resume");

    // The uninterrupted run of shard 0/2 (6 rows).
    let intact = scratch.path("intact.csv");
    run_one_shard(&sweep, Shard { index: 0, of: 2 }, &intact, false);
    let full = std::fs::read(&intact).unwrap();
    let full_manifest = ShardManifest::load(&intact).unwrap();
    assert!(full_manifest.complete);

    // Reconstruct the on-disk state a kill leaves behind: the CSV holds
    // the header + 2 complete rows + a torn partial row the buffers got
    // out before the process died, while the manifest checkpoint only
    // covers the 2 complete rows.
    let killed = scratch.path("killed.csv");
    let newline_offsets: Vec<usize> = full
        .iter()
        .enumerate()
        .filter_map(|(i, b)| (*b == b'\n').then_some(i))
        .collect();
    let checkpoint_bytes = newline_offsets[2] + 1; // header + 2 rows
    let mut torn = full[..checkpoint_bytes].to_vec();
    torn.extend_from_slice(b"greedy,cba,0+1+2+3,20"); // torn row fragment
    std::fs::write(&killed, &torn).unwrap();
    let checkpoint = ShardManifest {
        rows: 2,
        bytes: checkpoint_bytes as u64,
        hash: Fnv1a::hash(&full[..checkpoint_bytes]),
        complete: false,
        ..full_manifest.clone()
    };
    checkpoint.store(&killed, &NO_CHAOS).unwrap();

    // Resume: verify checkpoint, truncate the torn tail, finish.
    run_one_shard(&sweep, Shard { index: 0, of: 2 }, &killed, true);
    assert_eq!(
        std::fs::read(&killed).unwrap(),
        full,
        "resumed shard diverged from the uninterrupted run"
    );
    let resumed_manifest = ShardManifest::load(&killed).unwrap();
    assert_eq!(resumed_manifest, full_manifest);

    // And the resumed shard still merges byte-identically.
    let other = scratch.path("other.csv");
    run_one_shard(&sweep, Shard { index: 1, of: 2 }, &other, false);
    let merged = scratch.path("merged.csv");
    merge_shards(&[killed, other], &merged, false).expect("merge succeeds");
    assert_eq!(std::fs::read(&merged).unwrap(), reference_csv(&sweep));
}

#[test]
fn resume_refuses_a_tampered_prefix_and_a_foreign_checkpoint() {
    let sweep = grid();
    let scratch = Scratch::new("tamper");
    let csv = scratch.path("shard.csv");
    run_one_shard(&sweep, Shard { index: 0, of: 2 }, &csv, false);

    // Flip a byte inside the checkpointed region: the prefix hash no
    // longer matches, so resume must refuse rather than silently emit a
    // file that would fail the merge.
    let mut manifest = ShardManifest::load(&csv).unwrap();
    manifest.complete = false;
    manifest.store(&csv, &NO_CHAOS).unwrap();
    let mut bytes = std::fs::read(&csv).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(&csv, &bytes).unwrap();
    let job = ShardJob {
        resume: true,
        ..shard_job(
            &sweep,
            ShardAssignment::Shard(Shard { index: 0, of: 2 }),
            &csv,
        )
    };
    let err = run_shard(&SweepRunner::new(1), &job, None).unwrap_err();
    assert!(err.to_string().contains("hash mismatch"), "{err}");

    // A checkpoint for a *different* assignment (another shard's range)
    // is refused outright.
    bytes[40] ^= 0x01;
    std::fs::write(&csv, &bytes).unwrap();
    let mut foreign = ShardManifest::load(&csv).unwrap();
    foreign.cells = 2..4;
    foreign.store(&csv, &NO_CHAOS).unwrap();
    let err = run_shard(&SweepRunner::new(1), &job, None).unwrap_err();
    assert!(err.to_string().contains("refusing to resume"), "{err}");

    // And so is a checkpoint taken under a *different resolution* of
    // the same grid shape — e.g. another preset: same cell counts, but
    // the rows would come from a different workload.
    let mut foreign = ShardManifest::load(&csv).unwrap();
    foreign.cells = Shard { index: 0, of: 2 }.cell_range(sweep.config_count(), sweep.seeds.len());
    foreign.spec_hash ^= 0x1;
    foreign.complete = false;
    foreign.store(&csv, &NO_CHAOS).unwrap();
    let err = run_shard(&SweepRunner::new(1), &job, None).unwrap_err();
    assert!(err.to_string().contains("preset/filter"), "{err}");
}

/// A checkpoint whose `bytes` is corrupt — negative, or far past the
/// fragment's length — fails the resume with an error naming the
/// file, before any buffer of that size is allocated.
#[test]
fn resume_refuses_a_corrupt_checkpoint_length() {
    let sweep = grid();
    let scratch = Scratch::new("corrupt-length");
    let csv = scratch.path("shard.csv");
    run_one_shard(&sweep, Shard { index: 0, of: 2 }, &csv, false);
    let mut manifest = ShardManifest::load(&csv).unwrap();
    manifest.complete = false;
    let text = manifest.to_string();
    let line = format!("bytes = {}\n", manifest.bytes);
    assert!(text.contains(&line));
    let job = ShardJob {
        resume: true,
        ..shard_job(
            &sweep,
            ShardAssignment::Shard(Shard { index: 0, of: 2 }),
            &csv,
        )
    };
    for bytes in ["-1", "100000000000000"] {
        let corrupt = text.replace(&line, &format!("bytes = {bytes}\n"));
        std::fs::write(manifest_path(&csv), corrupt).unwrap();
        let err = run_shard(&SweepRunner::new(1), &job, None).unwrap_err();
        assert!(
            err.to_string().contains("shard.csv"),
            "bytes = {bytes}: {err}"
        );
    }
}

#[test]
fn merge_rejects_gaps_incomplete_shards_and_stale_content() {
    let sweep = grid();
    let scratch = Scratch::new("reject");
    let shards: Vec<PathBuf> = (0..3)
        .map(|index| {
            let csv = scratch.path(&format!("s{index}.csv"));
            run_one_shard(&sweep, Shard { index, of: 3 }, &csv, false);
            csv
        })
        .collect();
    let merged = scratch.path("merged.csv");

    // A missing middle shard is a gap.
    let err = merge_shards(&[shards[0].clone(), shards[2].clone()], &merged, false).unwrap_err();
    assert!(
        err.to_string().contains("tile the grid contiguously"),
        "{err}"
    );
    // A missing tail shard is an incomplete cover (but fine with
    // --partial, which asserts contiguity only).
    let err = merge_shards(&[shards[0].clone(), shards[1].clone()], &merged, false).unwrap_err();
    assert!(err.to_string().contains("missing the tail"), "{err}");
    merge_shards(&[shards[0].clone(), shards[1].clone()], &merged, true)
        .expect("partial merge of a contiguous prefix");

    // An incomplete shard (mid-run checkpoint) is refused.
    let mut manifest = ShardManifest::load(&shards[1]).unwrap();
    manifest.complete = false;
    manifest.store(&shards[1], &NO_CHAOS).unwrap();
    let err = merge_shards(&shards, &merged, false).unwrap_err();
    assert!(err.to_string().contains("shard incomplete"), "{err}");
    manifest.complete = true;
    manifest.store(&shards[1], &NO_CHAOS).unwrap();

    // A cell range that runs backwards or past the grid is refused,
    // even by a partial merge.
    let text = ShardManifest::load(&shards[0]).unwrap().to_string();
    let cells = "cells = \"0..4\"";
    assert!(text.contains(cells));
    for range in ["18..0", "0..99999"] {
        let bad = text.replace(cells, &format!("cells = \"{range}\""));
        std::fs::write(manifest_path(&shards[0]), bad).unwrap();
        let err = merge_shards(&shards[..1], &merged, true).unwrap_err();
        assert!(err.to_string().contains("s0.csv.manifest"), "{err}");
    }
    std::fs::write(manifest_path(&shards[0]), text).unwrap();

    // Content drifting from its manifest (stale or edited CSV) is
    // refused by the hash check.
    let mut bytes = std::fs::read(&shards[1]).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(&shards[1], &bytes).unwrap();
    let err = merge_shards(&shards, &merged, false).unwrap_err();
    assert!(
        err.to_string().contains("does not match its manifest"),
        "{err}"
    );
}

#[test]
fn partial_merge_matches_a_cell_range_run() {
    // Two adjacent mid-grid shards, merged with --partial semantics,
    // must reproduce the single-process run over the union range — the
    // form the CI million-cell demo uses.
    let sweep = grid();
    let scratch = Scratch::new("partial");
    let a = scratch.path("a.csv");
    let b = scratch.path("b.csv");
    run_one_shard(&sweep, Shard { index: 1, of: 3 }, &a, false);
    run_one_shard(&sweep, Shard { index: 2, of: 3 }, &b, false);
    let merged = scratch.path("merged.csv");
    merge_shards(&[a, b], &merged, true).expect("partial merge");

    let replicates = sweep.seeds.len();
    let union = Shard { index: 1, of: 3 }
        .cell_range(sweep.config_count(), replicates)
        .start
        ..Shard { index: 2, of: 3 }
            .cell_range(sweep.config_count(), replicates)
            .end;
    let mut reference = Vec::new();
    SweepRunner::new(2)
        .run_streamed_range(&sweep, None, Some(union), true, None, &mut reference)
        .expect("range run");
    assert_eq!(std::fs::read(&merged).unwrap(), reference);
}

#[test]
fn range_validation_rejects_misaligned_and_out_of_bounds() {
    let sweep = grid();
    let mut sink = Vec::new();
    // Misaligned to the 2-seed replicate groups.
    let err = SweepRunner::new(1)
        .run_streamed_range(&sweep, None, Some(1..4), true, None, &mut sink)
        .unwrap_err();
    assert!(err.to_string().contains("not aligned"), "{err}");
    // Past the end of the grid.
    let err = SweepRunner::new(1)
        .run_streamed_range(&sweep, None, Some(0..100), true, None, &mut sink)
        .unwrap_err();
    assert!(err.to_string().contains("outside the grid"), "{err}");
}

#[test]
fn manifest_sidecar_path_is_csv_dot_manifest() {
    assert_eq!(
        manifest_path(Path::new("/tmp/x/shard_0.csv")),
        Path::new("/tmp/x/shard_0.csv.manifest")
    );
}

/// Worker-failure exit semantics (the orchestrator's crash-vs-stall
/// contract): a shard invocation that dies on an error or a panic must
/// leave a terminal `"failed"` progress record — and a resumed re-run
/// must still converge to the reference bytes, continuing the same
/// `.progress` trail, while a fresh run starts a new one.
#[test]
fn dying_shard_leaves_a_terminal_failed_record_then_resumes_clean() {
    use green_scenarios::{progress_path, ProgressRecord};

    let sweep = grid();
    let reference = reference_csv(&sweep);
    let scratch = Scratch::new("failrec");
    let csv = scratch.path("whole.csv");
    let job = |resume: bool| ShardJob {
        resume,
        ..shard_job(&sweep, ShardAssignment::Whole, &csv)
    };
    // Each invocation gets a fresh registry, so `hit:N` counts this
    // invocation's fragment row writes.
    let registry = |spec: &str| ChaosRegistry::from_spec(spec).expect("spec compiles");
    let trail = || {
        let sidecar = std::fs::read_to_string(progress_path(&csv)).expect("sidecar exists");
        ProgressRecord::parse_sidecar(&sidecar).expect("sidecar parses")
    };

    // Error path: the injected I/O failure (on the third row write)
    // surfaces as Err and the sidecar's last record is terminal-failed
    // with the error text.
    let chaos = registry("fragment_row=err@hit:3");
    let err = run_shard(&SweepRunner::new(1).armed(&chaos), &job(false), None).unwrap_err();
    assert!(err.to_string().contains("chaos"), "{err}");
    let records = trail();
    let last = records.last().expect("at least the terminal record");
    assert!(last.failed, "terminal record must be failed: {last:?}");
    assert!(!last.complete);
    assert!(
        last.error.as_deref().unwrap_or("").contains("chaos"),
        "error text preserved: {last:?}"
    );
    // The healthy heartbeat trail of the dead invocation is preserved
    // (append, not rewrite): failed record is not the only one.
    assert!(records.len() > 1, "history kept: {} records", records.len());
    assert!(!records[0].failed);
    let error_trail = records;

    // Panic path (on the second row write): same contract, panic text
    // captured.
    let chaos = registry("fragment_row=panic@hit:2");
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = run_shard(&SweepRunner::new(1).armed(&chaos), &job(true), None);
    }));
    assert!(panicked.is_err(), "panic propagates after recording");
    let records = trail();
    let last = records.last().expect("terminal record");
    assert!(last.failed);
    assert!(
        last.error.as_deref().unwrap_or("").contains("panic"),
        "panic recorded: {last:?}"
    );
    // The resumed invocation appended to the dead one's trail.
    assert_eq!(records[..error_trail.len()], error_trail[..]);
    let panic_trail = records;

    // And the range still finishes: resume without chaos converges to
    // the byte-identical reference.
    run_shard(&SweepRunner::new(1), &job(true), None).expect("resume finishes");
    assert_eq!(std::fs::read(&csv).unwrap(), reference);
    // The one trail holds the whole flight record in order: the error
    // path's heartbeats and failed record, the panic path's heartbeats
    // and failed record, then the clean resume's heartbeats ending
    // `complete`.
    let records = trail();
    assert_eq!(records[..panic_trail.len()], panic_trail[..]);
    let resumed = &records[panic_trail.len()..];
    assert!(resumed.iter().all(|r| !r.failed));
    assert!(resumed.last().unwrap().complete);
    assert_eq!(records.iter().filter(|r| r.failed).count(), 2);

    // A fresh re-run over the same CSV starts a new trail: only its own
    // records, one per checkpoint — the header's, one per row at
    // `checkpoint_every: 1`, and the completing one.
    run_shard(&SweepRunner::new(1), &job(false), None).expect("fresh run finishes");
    assert_eq!(std::fs::read(&csv).unwrap(), reference);
    let records = trail();
    assert_eq!(records.len(), 2 + sweep.config_count());
    assert!(records.iter().all(|r| !r.failed));
    assert_eq!(records[0].rows, 0);
    assert!(records.last().unwrap().complete);
}

/// An invalid sweep is an `InvalidInput` error from every `Result`
/// entry point, found before anything is written: no header on the
/// stream, and no shard CSV or manifest. Only the terminal `.progress`
/// record a failing shard always leaves remains. A NaN intensity scale
/// is such a sweep too, refused before it could panic mid-shard.
#[test]
fn invalid_sweep_is_an_error_and_writes_no_shard_output() {
    use std::io::ErrorKind;

    let mut no_seeds = Sweep::new("bad");
    no_seeds.seeds = vec![];
    let mut nan_scale = Sweep::new("nan");
    nan_scale.intensity_scales = vec![f64::NAN];
    // Finite values that no realized trace or job id can represent.
    let mut huge_scale = Sweep::new("huge-intensity");
    huge_scale.intensity_scales = vec![1e307];
    let mut huge_jitter = Sweep::new("huge-jitter");
    huge_jitter.intensity_jitter = 1e308;
    let mut huge_workload = Sweep::new("huge-workload");
    huge_workload.workload_scales = vec![1e300];
    for (sweep, message) in [
        (&no_seeds, "seeds"),
        (&nan_scale, "intensity scales"),
        (&huge_scale, "intensity scales must be positive"),
        (&huge_jitter, "intensity jitter"),
        (&huge_workload, "workload scale"),
    ] {
        let runner = SweepRunner::new(1);
        let err = runner.run(sweep).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        let err = runner.run_collect(sweep, None, None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        let mut bytes = Vec::new();
        let err = runner
            .run_streamed_range(sweep, None, None, true, None, &mut bytes)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(bytes.is_empty(), "nothing streamed for an invalid sweep");

        let scratch = Scratch::new("invalid");
        let csv = scratch.path("shard.csv");
        let job = shard_job(sweep, ShardAssignment::Whole, &csv);
        let err = run_shard(&runner, &job, None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(message), "{err}");
        assert!(!csv.exists(), "no shard CSV");
        assert!(!manifest_path(&csv).exists(), "no manifest");
    }
}
