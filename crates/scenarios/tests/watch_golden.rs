//! The observability contract of sharded runs: every shard invocation
//! heartbeats a schema-valid `.progress` JSONL sidecar on the manifest
//! checkpoint cadence; a recording run carries the per-phase timing
//! breakdown in those heartbeats; and `scenarios watch` renders a
//! finished run deterministically (golden-tested byte-for-byte — rates
//! and ETAs only appear for in-flight shards, so a complete directory
//! always renders the same table).

use std::path::Path;

use green_obs::{Counter, StatsRecorder};
use green_scenarios::watch::{watch_once, WatchReport, STALL_AFTER_S};
use green_scenarios::{
    progress_path, run_shard, run_shard_obs, ProgressRecord, Shard, ShardAssignment, ShardJob,
    Sweep, SweepRunner, PROGRESS_SCHEMA,
};

mod common;
use common::{shard_job, small_grid, Scratch};

/// The same 6-configuration × 2-replicate grid the shard golden tests
/// use: 3 shards get exactly 2 configurations each.
fn grid() -> Sweep {
    small_grid("watch-golden", &[1, 2])
}

fn job<'a>(sweep: &'a Sweep, shard: Shard, csv: &'a Path, resume: bool) -> ShardJob<'a> {
    ShardJob {
        resume,
        ..shard_job(sweep, ShardAssignment::Shard(shard), csv)
    }
}

#[test]
fn finished_three_shard_run_renders_the_golden_table() {
    let sweep = grid();
    let scratch = Scratch::new("golden");
    for index in 0..3 {
        let csv = scratch.path(&format!("shard_{index}.csv"));
        let job = job(&sweep, Shard { index, of: 3 }, &csv, false);
        run_shard(&SweepRunner::new(1), &job, None).expect("shard runs");
    }

    let report = WatchReport::scan(&scratch.0, STALL_AFTER_S).expect("manifests found");
    assert!(report.all_complete());
    let golden = "\
shard  rows  done  rate  eta  status
0/3    2/2   100%  —     —    complete
1/3    2/2   100%  —     —    complete
2/3    2/2   100%  —     —    complete
3/3 shards complete — 6/6 rows
";
    assert_eq!(report.render(), golden);
    // `scenarios watch --once` prints exactly this pure rendering.
    assert_eq!(watch_once(&scratch.0).unwrap(), golden);
}

#[test]
fn shard_runs_heartbeat_schema_valid_progress_sidecars() {
    let sweep = grid();
    let scratch = Scratch::new("progress");

    // Recording run: heartbeats carry the recorder's phase breakdown.
    let recorder = StatsRecorder::new();
    let obs_csv = scratch.path("obs.csv");
    run_shard_obs(
        &SweepRunner::new(1),
        &job(&sweep, Shard { index: 0, of: 3 }, &obs_csv, false),
        None,
        &recorder,
    )
    .expect("shard runs");
    let text = std::fs::read_to_string(progress_path(&obs_csv)).expect("sidecar written");
    assert!(text.lines().all(|l| l.contains(PROGRESS_SCHEMA)));
    let records = ProgressRecord::parse_sidecar(&text).expect("every line schema-valid");
    // Header checkpoint + one per configuration row + final: rows climb
    // monotonically to completion.
    assert!(records.len() >= 3, "{} records", records.len());
    assert!(records.windows(2).all(|w| w[0].rows <= w[1].rows));
    let last = records.last().unwrap();
    assert!(last.complete);
    assert_eq!((last.rows, last.expected_rows), (2, 2));
    assert_eq!(
        (last.sweep.as_str(), last.shard.as_str()),
        ("watch-golden", "0/3")
    );
    assert!(
        last.phases_ms
            .iter()
            .any(|(name, ms)| name == "schedule" && *ms >= 0.0),
        "recording heartbeats carry phase timings: {:?}",
        last.phases_ms
    );
    // The recorder saw every checkpoint the sidecar did: a fresh run's
    // trail holds exactly one record per checkpoint.
    assert_eq!(recorder.counter(Counter::Checkpoints), records.len() as u64);
    assert!(recorder.counter(Counter::RowsFlushed) >= 2);

    // Default (no-op recorder) run: same sidecar cadence, no phases.
    let noop_csv = scratch.path("noop.csv");
    run_shard(
        &SweepRunner::new(1),
        &job(&sweep, Shard { index: 1, of: 3 }, &noop_csv, false),
        None,
    )
    .expect("shard runs");
    let text = std::fs::read_to_string(progress_path(&noop_csv)).expect("sidecar written");
    let records = ProgressRecord::parse_sidecar(&text).expect("schema-valid");
    assert!(records.last().unwrap().complete);
    assert!(records.iter().all(|r| r.phases_ms.is_empty()));
}

#[test]
fn watch_skips_torn_jsonl_tails_with_a_warning_instead_of_erroring() {
    use std::fs::OpenOptions;
    use std::io::Write as _;

    let sweep = grid();
    let scratch = Scratch::new("torn");
    let csv = scratch.path("shard_0.csv");
    run_shard(
        &SweepRunner::new(1),
        &job(&sweep, Shard { index: 0, of: 3 }, &csv, false),
        None,
    )
    .expect("shard runs");

    // Tear the progress sidecar's final line (a crash mid-append) and
    // drop a torn orchestrate log next to it.
    let mut sidecar = OpenOptions::new()
        .append(true)
        .open(progress_path(&csv))
        .unwrap();
    sidecar.write_all(b"{\"schema\": \"green-progre").unwrap();
    std::fs::write(
        scratch.path("orchestrate.jsonl"),
        "{\"schema\": \"green-orch",
    )
    .unwrap();

    let report = WatchReport::scan(&scratch.0, STALL_AFTER_S).expect("scan tolerates torn tails");
    assert!(report.all_complete(), "intact records still parse");
    assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
    let table = report.render();
    assert!(table.contains("complete"), "{table}");
    assert!(
        table.contains("warning: skipped unparseable shard_0.csv.progress: line "),
        "{table}"
    );
    assert!(
        table.contains("warning: skipped unparseable orchestrate.jsonl: line 1:"),
        "{table}"
    );
}

#[test]
fn resuming_a_complete_shard_counts_verified_rows() {
    let sweep = grid();
    let scratch = Scratch::new("resume");
    let csv = scratch.path("shard_0.csv");
    run_shard(
        &SweepRunner::new(1),
        &job(&sweep, Shard { index: 0, of: 3 }, &csv, false),
        None,
    )
    .expect("shard runs");

    let recorder = StatsRecorder::new();
    let outcome = run_shard_obs(
        &SweepRunner::new(1),
        &job(&sweep, Shard { index: 0, of: 3 }, &csv, true),
        None,
        &recorder,
    )
    .expect("idempotent re-run");
    assert_eq!((outcome.resumed_rows, outcome.written_rows), (2, 0));
    // The resume path verified the checkpointed prefix: 2 rows.
    assert_eq!(recorder.counter(Counter::ResumedRowsVerified), 2);
    assert_eq!(recorder.counter(Counter::CellsRun), 0, "no cell re-ran");
}
