//! The out-of-core analytics contract: `analyze` over a directory of
//! shard fragments is byte-identical to a naive in-memory pass over the
//! merged CSV — for any shard count — and refuses torn fragments with
//! the same message `merge` would give. The naive reference here
//! re-implements the statistics from scratch (arrival-order folding,
//! n−1 standard deviation, nearest-rank percentiles), so the engine
//! cannot be wrong in the same way twice.

use std::path::{Path, PathBuf};

use green_chaos::NO_CHAOS;

use green_scenarios::{
    analyze_csv, analyze_dir, analyze_path, manifest_path, merge_shards, AnalyzeQuery, Shard,
    ShardAssignment, ShardJob, ShardManifest, Sweep, SweepRunner,
};

mod common;
use common::{shard_job, small_grid, Scratch};

/// A 6-configuration × 2-replicate grid, same shape as shard_golden —
/// wide enough that 3- and 8-way splits land mid-axis.
fn grid() -> Sweep {
    small_grid("analyze-golden", &[1, 2])
}

fn run_one_shard(sweep: &Sweep, shard: Shard, csv: &Path, columnar: bool) {
    let job = ShardJob {
        columnar,
        ..shard_job(sweep, ShardAssignment::Shard(shard), csv)
    };
    green_scenarios::run_shard(&SweepRunner::new(1), &job, None).expect("shard runs");
}

/// Runs an N-way sharded sweep into a fresh scratch dir.
fn shard_out(sweep: &Sweep, n: usize, name: &str, columnar: bool) -> (Scratch, Vec<PathBuf>) {
    let scratch = Scratch::new(name);
    let shards: Vec<PathBuf> = (0..n)
        .map(|index| {
            let csv = scratch.path(&format!("shard_{index}.csv"));
            run_one_shard(sweep, Shard { index, of: n }, &csv, columnar);
            csv
        })
        .collect();
    (scratch, shards)
}

/// The naive reference: parse the merged CSV in memory, group and fold
/// with independently-written formulas, and render the same CSV shape.
fn naive_analyze_csv(merged: &Path, query: &AnalyzeQuery) -> String {
    let text = std::fs::read_to_string(merged).expect("merged CSV");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let key_cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|axis| header.iter().position(|h| h == axis).expect("axis column"))
        .collect();
    let metric_cols: Vec<usize> = query
        .metrics
        .iter()
        .map(|m| header.iter().position(|h| h == m).expect("metric column"))
        .collect();

    // Group rows in first-seen order, keeping raw metric values.
    let mut order: Vec<Vec<String>> = Vec::new();
    let mut values: Vec<Vec<Vec<f64>>> = Vec::new(); // [group][metric][row]
    for line in lines.filter(|l| !l.is_empty()) {
        let fields: Vec<&str> = line.split(',').collect();
        if let Some(filter) = query.filter.as_deref() {
            if !fields[..11].join("/").contains(filter) {
                continue;
            }
        }
        let key: Vec<String> = key_cols.iter().map(|&c| fields[c].to_string()).collect();
        let group = match order.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                order.push(key);
                values.push(vec![Vec::new(); metric_cols.len()]);
                order.len() - 1
            }
        };
        for (slot, &col) in values[group].iter_mut().zip(&metric_cols) {
            slot.push(fields[col].parse().expect("numeric metric"));
        }
    }

    let nearest_rank = |sorted: &[f64], q: f64| -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    };
    let mut out = format!(
        "{},metric,rows,mean,std,min,max,p50,p90,p99\n",
        query.group_by.join(",")
    );
    for (key, metrics) in order.iter().zip(&values) {
        for (name, rows) in query.metrics.iter().zip(metrics) {
            let n = rows.len() as f64;
            let sum: f64 = rows.iter().sum();
            let sum_sq: f64 = rows.iter().map(|v| v * v).sum();
            let mean = sum / n;
            let std = if rows.len() < 2 {
                0.0
            } else {
                ((sum_sq - sum * sum / n).max(0.0) / (n - 1.0)).sqrt()
            };
            let min = rows.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = rows.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sorted = rows.clone();
            sorted.sort_by(f64::total_cmp);
            out.push_str(&format!(
                "{},{name},{},{mean:.6},{std:.6},{min:.6},{max:.6},{:.6},{:.6},{:.6}\n",
                key.join(","),
                rows.len(),
                nearest_rank(&sorted, 0.50),
                nearest_rank(&sorted, 0.90),
                nearest_rank(&sorted, 0.99),
            ));
        }
    }
    out
}

#[test]
fn analyze_matches_the_naive_pass_for_any_shard_count() {
    let sweep = grid();
    let query = AnalyzeQuery::new(
        Some("policy,method"),
        Some("energy_mwh_mean,credits_mean,mean_wait_h_mean"),
        None,
    )
    .unwrap();

    // The reference: merge one layout, analyze the merged CSV naively.
    let (scratch, shards) = shard_out(&sweep, 3, "ref", false);
    let merged = scratch.path("merged.csv");
    merge_shards(&shards, &merged, false).expect("merge");
    let naive = naive_analyze_csv(&merged, &query);
    let via_merged = analyze_csv(&merged, &query).expect("analyze merged");
    assert_eq!(via_merged.to_csv_string(), naive, "engine vs naive");

    // N = 1, 3, 8 shard layouts (8 leaves two shards empty): the
    // out-of-core fold must produce byte-identical reports — CSV,
    // JSONL, and rendered table alike.
    for n in [1usize, 3, 8] {
        let (scratch, _) = shard_out(&sweep, n, &format!("n{n}"), false);
        let report = analyze_dir(&scratch.0, &query, false).expect("analyze dir");
        assert_eq!(report.to_csv_string(), naive, "shard-dir diverged at N={n}");
        assert_eq!(report.to_jsonl(), via_merged.to_jsonl(), "jsonl at N={n}");
        assert_eq!(report.render(), via_merged.render(), "table at N={n}");
    }
}

/// Shard-count invariance as a property over many queries: every
/// group-by/metrics/filter combination must agree across layouts
/// (including the default query) — the contract README's determinism
/// table points at.
#[test]
fn every_query_is_shard_count_invariant() {
    let sweep = grid();
    let (s1, _) = shard_out(&sweep, 1, "prop1", false);
    let (s3, _) = shard_out(&sweep, 3, "prop3", false);
    let (s8, _) = shard_out(&sweep, 8, "prop8", false);
    let queries = [
        AnalyzeQuery::new(None, None, None).unwrap(),
        AnalyzeQuery::new(Some("method"), Some("utilization_mean"), None).unwrap(),
        AnalyzeQuery::new(Some("sim_year,users,policy"), None, None).unwrap(),
        AnalyzeQuery::new(None, None, Some("eba".into())).unwrap(),
        AnalyzeQuery::new(
            Some("fleet"),
            Some("attr_carbon_kg_mean"),
            Some("greedy".into()),
        )
        .unwrap(),
        AnalyzeQuery::new(None, None, Some("no-such-label".into())).unwrap(),
    ];
    for (i, query) in queries.iter().enumerate() {
        let a = analyze_path(&s1.0, query, false)
            .expect("N=1")
            .to_csv_string();
        let b = analyze_path(&s3.0, query, false)
            .expect("N=3")
            .to_csv_string();
        let c = analyze_path(&s8.0, query, false)
            .expect("N=8")
            .to_csv_string();
        assert_eq!(a, b, "query {i} diverged between N=1 and N=3");
        assert_eq!(a, c, "query {i} diverged between N=1 and N=8");
    }
}

/// The torn-shard bugfix: a directory holding a mid-run checkpoint (or
/// a fragment whose bytes drifted from its manifest) refuses the whole
/// analysis, naming the offending fragment — never a silently partial
/// answer.
#[test]
fn analyze_refuses_torn_and_stale_fragments_by_name() {
    let sweep = grid();
    let query = AnalyzeQuery::new(None, None, None).unwrap();
    let (scratch, shards) = shard_out(&sweep, 3, "torn", false);

    // Mid-run checkpoint: complete=false.
    let mut manifest = ShardManifest::load(&shards[1]).unwrap();
    manifest.complete = false;
    manifest.store(&shards[1], &NO_CHAOS).unwrap();
    let err = analyze_dir(&scratch.0, &query, false).unwrap_err();
    assert!(err.to_string().contains("shard incomplete"), "{err}");
    assert!(
        err.to_string().contains("shard_1.csv"),
        "must name the torn fragment: {err}"
    );
    manifest.complete = true;
    manifest.store(&shards[1], &NO_CHAOS).unwrap();

    // Torn tail: bytes drifted from the manifest hash.
    let mut bytes = std::fs::read(&shards[2]).unwrap();
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&shards[2], &bytes).unwrap();
    let err = analyze_dir(&scratch.0, &query, false).unwrap_err();
    assert!(
        err.to_string().contains("does not match its manifest"),
        "{err}"
    );
    assert!(
        err.to_string().contains("shard_2.csv"),
        "must name the stale fragment: {err}"
    );

    // A missing middle shard is a gap, with or without --partial.
    std::fs::remove_file(&shards[1]).unwrap();
    std::fs::remove_file(manifest_path(&shards[1])).unwrap();
    let err = analyze_dir(&scratch.0, &query, true).unwrap_err();
    assert!(
        err.to_string().contains("tile the grid contiguously"),
        "{err}"
    );
}

#[test]
fn analyze_of_an_empty_directory_names_the_missing_sidecars() {
    let scratch = Scratch::new("empty");
    let query = AnalyzeQuery::new(None, None, None).unwrap();
    let err = analyze_dir(&scratch.0, &query, false).unwrap_err();
    assert!(err.to_string().contains("no shard outputs found"), "{err}");
}

/// The columnar sidecar: a `--columnar` shard run leaves a `.cols` file
/// that analyzes to byte-identical output — even with the CSV text
/// deleted outright, proving the fold never re-parses CSV when the
/// sidecar binds.
#[test]
fn columnar_sidecar_replaces_the_csv_byte_identically() {
    let sweep = grid();
    let query = AnalyzeQuery::new(Some("policy"), None, None).unwrap();
    let (plain, _) = shard_out(&sweep, 3, "plaincsv", false);
    let reference = analyze_dir(&plain.0, &query, false)
        .expect("plain analyze")
        .to_csv_string();

    let (cols, shards) = shard_out(&sweep, 3, "cols", true);
    for csv in &shards {
        assert!(
            green_scenarios::analyze::cols_path(csv).exists(),
            "--columnar must leave a sidecar next to {}",
            csv.display()
        );
        // Remove the CSV text entirely: the manifests and sidecars are
        // all the analysis needs.
        std::fs::remove_file(csv).unwrap();
    }
    let report = analyze_dir(&cols.0, &query, false).expect("columnar analyze");
    assert_eq!(report.to_csv_string(), reference);
}

/// A stale sidecar (CSV regenerated, `.cols` left behind) must lose to
/// the manifest binding and fall back to the CSV — not poison the
/// report with old rows.
#[test]
fn stale_columnar_sidecar_falls_back_to_the_csv() {
    let sweep = grid();
    let query = AnalyzeQuery::new(None, None, None).unwrap();
    let (scratch, shards) = shard_out(&sweep, 1, "stale", true);
    let reference = analyze_dir(&scratch.0, &query, false)
        .expect("analyze")
        .to_csv_string();

    // Corrupt the sidecar; the manifest-verified CSV must still carry
    // the analysis to the same answer.
    let sidecar = green_scenarios::analyze::cols_path(&shards[0]);
    let mut bytes = std::fs::read(&sidecar).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&sidecar, &bytes).unwrap();
    let report = analyze_dir(&scratch.0, &query, false).expect("fallback analyze");
    assert_eq!(report.to_csv_string(), reference);
}

/// `analyze <csv>` binds the CSV's sidecar by byte count and hash, as a
/// directory binds it to the manifest: a CSV rewritten in place at the
/// same length is folded from its own bytes, not from the old sidecar.
#[test]
fn single_csv_analysis_reads_a_csv_rewritten_in_place() {
    let sweep = grid();
    let query = AnalyzeQuery::new(Some("policy"), Some("attr_carbon_kg_mean"), None).unwrap();
    let (_scratch, shards) = shard_out(&sweep, 1, "rewritten", true);
    let csv = &shards[0];
    let before = analyze_csv(csv, &query).expect("analyze").to_csv_string();

    // Bump the last digit of the first row's metric, keeping the length.
    let text = std::fs::read_to_string(csv).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let column = header.split(',').position(|h| h == "attr_carbon_kg_mean");
    let fields = lines.next().unwrap().split(',');
    let field_end: usize = fields.take(column.unwrap() + 1).map(|f| f.len() + 1).sum();
    let at = header.len() + field_end - 1;
    let mut bytes = text.into_bytes();
    let digit = &mut bytes[at];
    assert!(digit.is_ascii_digit(), "metric ends in a digit");
    *digit = b'0' + (*digit - b'0' + 1) % 10;
    std::fs::write(csv, &bytes).unwrap();

    let after = analyze_csv(csv, &query).expect("analyze").to_csv_string();
    assert_ne!(after, before, "the rewritten value must reach the report");
    assert_eq!(after, naive_analyze_csv(csv, &query));
}

/// A sidecar whose header claims 2^40 or 2^60 rows, or four billion
/// columns, fails to load instead of allocating that many, and the
/// analysis falls back to the CSV.
#[test]
fn lying_sidecar_header_falls_back_to_the_csv() {
    let sweep = grid();
    let query = AnalyzeQuery::new(None, None, None).unwrap();
    let (scratch, shards) = shard_out(&sweep, 1, "lying", true);
    let reference = analyze_dir(&scratch.0, &query, false)
        .expect("analyze")
        .to_csv_string();
    let sidecar = green_scenarios::analyze::cols_path(&shards[0]);
    let real = std::fs::read(&sidecar).unwrap();
    // The row count is the u64 at byte 16, the column count the u32 at
    // byte 40 (after the 16-byte schema tag and three u64 fields).
    let lies: [(usize, &[u8]); 3] = [
        (16, &(1u64 << 40).to_le_bytes()),
        (16, &(1u64 << 60).to_le_bytes()),
        (40, &4_000_000_000u32.to_le_bytes()),
    ];
    for (at, value) in lies {
        let mut bytes = real.clone();
        bytes[at..at + value.len()].copy_from_slice(value);
        std::fs::write(&sidecar, &bytes).unwrap();
        let report = analyze_dir(&scratch.0, &query, false).expect("fallback analyze");
        assert_eq!(report.to_csv_string(), reference, "lie at byte {at}");
    }
}

/// `--partial` over a contiguous sub-span matches analyzing the partial
/// merge of the same shards.
#[test]
fn partial_analyze_matches_the_partial_merge() {
    let sweep = grid();
    let query = AnalyzeQuery::new(None, None, None).unwrap();
    let scratch = Scratch::new("partial");
    let a = scratch.path("a.csv");
    let b = scratch.path("b.csv");
    run_one_shard(&sweep, Shard { index: 1, of: 3 }, &a, false);
    run_one_shard(&sweep, Shard { index: 2, of: 3 }, &b, false);
    let merged = scratch.path("sub").join("merged.csv");
    std::fs::create_dir_all(merged.parent().unwrap()).unwrap();
    merge_shards(&[a, b], &merged, true).expect("partial merge");

    let err = analyze_dir(&scratch.0, &query, false).unwrap_err();
    assert!(err.to_string().contains("not 0"), "{err}");
    let report = analyze_dir(&scratch.0, &query, true).expect("partial analyze");
    assert_eq!(
        report.to_csv_string(),
        analyze_csv(&merged, &query)
            .expect("merged analyze")
            .to_csv_string()
    );
}
