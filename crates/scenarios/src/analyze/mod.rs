//! Out-of-core analytics over sweep output: `scenarios analyze`.
//!
//! A million-cell sweep ends as a 250k-row aggregate CSV (or a
//! directory of shard fragments); this module is the query surface that
//! turns those rows into answers without a full merge and without
//! holding the grid in memory:
//!
//! * [`AnalyzeQuery`] — the query model: `group_by` over the eleven
//!   configuration-axis columns, `metrics` over the numeric columns,
//!   an optional label `filter` (same substring semantics as the sweep
//!   `--filter`);
//! * [`analyze_dir`] — the out-of-core path: shard fragments are
//!   discovered via their `.manifest` sidecars, verified exactly as
//!   [`crate::merge_shards`] verifies them (complete, one sweep/spec,
//!   contiguous tiling, content hashes intact), and folded one shard at
//!   a time in cell-range order — which *is* expansion order, so the
//!   fold visits rows in precisely the order a single pass over the
//!   merged CSV would. Stable fold order makes every statistic
//!   bit-identical for any shard count (`tests/analyze_golden.rs`);
//! * [`analyze_csv`] — the same fold over one already-merged CSV;
//! * [`engine`] — the streaming group-by core: per-group running
//!   moments plus p50/p90/p99 via a deterministic fixed-size quantile
//!   sketch ([`sketch`]) with exact buffering below
//!   [`EXACT_QUANTILE_ROWS`] rows per group;
//! * [`columnar`] — the optional `<csv>.cols` binary sidecar
//!   (`--columnar` on shard runs): dictionary-encoded axes + raw `f64`
//!   metric columns, bound to the CSV by the manifest's row/byte/hash
//!   triple, so re-analysis never re-parses CSV text;
//! * [`AnalyzeReport`] — the result, renderable as a fixed-width table,
//!   CSV, or JSON Lines (schema [`ANALYZE_SCHEMA`]).
//!
//! The CLI flags, output columns and sidecar wire format are documented
//! in `docs/analytics.md` (`tools/check_docs.sh` keeps that page
//! honest).
//!
//! # Example
//!
//! ```
//! use green_scenarios::analyze::{analyze_csv, AnalyzeQuery};
//! use green_scenarios::{MethodSpec, PolicySpec, Sweep, SweepRunner};
//!
//! let mut sweep = Sweep::new("doctest-analyze");
//! sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Energy];
//! sweep.methods = vec![MethodSpec::Eba, MethodSpec::Cba];
//! sweep.seeds = vec![1, 2];
//! let results = SweepRunner::new(2).run(&sweep)?;
//!
//! let dir = std::env::temp_dir().join(format!("analyze-doctest-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let csv = dir.join("results.csv");
//! results.write_csv(&csv).unwrap();
//!
//! let query = AnalyzeQuery::new(Some("policy"), Some("energy_mwh_mean"), None).unwrap();
//! let report = analyze_csv(&csv, &query).unwrap();
//! assert_eq!(report.groups.len(), 2);        // one group per policy
//! assert_eq!(report.rows_matched, 4);        // 4 configurations scanned
//! assert!(report.to_csv_string().starts_with("policy,metric,rows,"));
//! std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod columnar;
pub mod engine;
mod input;
pub mod sketch;

pub use columnar::{
    cols_path, write_sidecar, write_sidecar_chaos, ColsFile, Column, ColumnType, COLS_SCHEMA,
};
pub use input::{analyze_csv, analyze_dir, analyze_path};
pub use sketch::QuantileSketch;

use crate::agg::CSV_HEADERS;
use crate::spec::SpecError;

/// Schema tag carried by every JSON Lines output record.
pub const ANALYZE_SCHEMA: &str = "green-analyze/1";

/// Per-group rows a metric buffers exactly before degrading to the
/// fixed-size quantile sketch: below this threshold p50/p90/p99 are
/// exact nearest-rank percentiles, above it they are sketch
/// approximations (still deterministic and shard-count invariant).
pub const EXACT_QUANTILE_ROWS: usize = 4096;

/// The statistic columns of every report row, following the group-by
/// key columns.
pub const ANALYZE_STAT_HEADERS: [&str; 9] = [
    "metric", "rows", "mean", "std", "min", "max", "p50", "p90", "p99",
];

/// How many leading CSV columns are configuration axes (the legal
/// `--group-by` names).
const AXIS_COLUMNS: usize = 11;

/// The configuration-axis column names `--group-by` accepts.
pub fn group_axes() -> &'static [&'static str] {
    &CSV_HEADERS[..AXIS_COLUMNS]
}

/// The numeric column names `--metrics` accepts.
pub fn metric_columns() -> &'static [&'static str] {
    &CSV_HEADERS[AXIS_COLUMNS..]
}

/// One analysis request: what to group on, what to summarize, what to
/// keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeQuery {
    /// Group-by axis columns, in output order (validated against
    /// [`group_axes`]).
    pub group_by: Vec<String>,
    /// Metric columns to summarize (validated against
    /// [`metric_columns`]).
    pub metrics: Vec<String>,
    /// Optional substring filter over the `/`-joined axis columns —
    /// the same label the sweep `--filter` matches.
    pub filter: Option<String>,
}

/// The default metric set when `--metrics` is omitted: the headline
/// sustainability columns.
pub const DEFAULT_METRICS: [&str; 5] = [
    "energy_mwh_mean",
    "attr_carbon_kg_mean",
    "credits_mean",
    "mean_wait_h_mean",
    "utilization_mean",
];

impl AnalyzeQuery {
    /// Builds a query from comma-separated CLI spellings. `None`
    /// group-by defaults to `policy,method`; `None` metrics defaults to
    /// [`DEFAULT_METRICS`]. Unknown names are rejected with the list of
    /// valid ones.
    pub fn new(
        group_by: Option<&str>,
        metrics: Option<&str>,
        filter: Option<String>,
    ) -> Result<AnalyzeQuery, SpecError> {
        let split = |list: &str| -> Vec<String> {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        };
        let group_by = match group_by {
            Some(list) => split(list),
            None => vec!["policy".into(), "method".into()],
        };
        let metrics = match metrics {
            Some(list) => split(list),
            None => DEFAULT_METRICS.iter().map(|m| m.to_string()).collect(),
        };
        if group_by.is_empty() {
            return Err(SpecError("--group-by needs at least one axis".into()));
        }
        if metrics.is_empty() {
            return Err(SpecError("--metrics needs at least one column".into()));
        }
        for axis in &group_by {
            if !group_axes().contains(&axis.as_str()) {
                return Err(SpecError(format!(
                    "unknown group-by axis `{axis}` (valid: {})",
                    group_axes().join(", ")
                )));
            }
        }
        for metric in &metrics {
            if !metric_columns().contains(&metric.as_str()) {
                return Err(SpecError(format!(
                    "unknown metric column `{metric}` (valid: {})",
                    metric_columns().join(", ")
                )));
            }
        }
        Ok(AnalyzeQuery {
            group_by,
            metrics,
            filter,
        })
    }

    /// The group-by columns as indices into the axis columns.
    pub(crate) fn key_axes(&self) -> Vec<usize> {
        self.group_by
            .iter()
            .map(|axis| group_axes().iter().position(|a| a == axis).unwrap())
            .collect()
    }

    /// The metric columns as indices into [`CSV_HEADERS`].
    pub(crate) fn metric_indices(&self) -> Vec<usize> {
        self.metrics
            .iter()
            .map(|m| CSV_HEADERS.iter().position(|h| h == m).unwrap())
            .collect()
    }
}

/// The summary statistics of one metric within one group. Quantiles are
/// exact below [`EXACT_QUANTILE_ROWS`] rows, sketch approximations
/// above — deterministic either way.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStats {
    /// Rows folded into this metric.
    pub rows: u64,
    /// Arithmetic mean (folded in expansion order).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single row).
    pub std: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

/// One group of the report: its key values (parallel to
/// [`AnalyzeReport::group_by`]) and one [`MetricStats`] per requested
/// metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// The group-by column values.
    pub key: Vec<String>,
    /// Per-metric summaries, parallel to [`AnalyzeReport::metrics`].
    pub stats: Vec<MetricStats>,
}

/// A finished analysis: groups in first-seen (expansion) order.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReport {
    /// The group-by axis names, in key order.
    pub group_by: Vec<String>,
    /// The summarized metric column names.
    pub metrics: Vec<String>,
    /// Rows read from the input.
    pub rows_scanned: usize,
    /// Rows surviving the filter (equal to `rows_scanned` without one).
    pub rows_matched: usize,
    /// One summary per group, first-seen order.
    pub groups: Vec<GroupSummary>,
}

/// Fixed six-decimal formatting — the same convention as the aggregate
/// CSV, keeping report bytes stable across platforms.
fn sig(v: f64) -> String {
    format!("{v:.6}")
}

impl AnalyzeReport {
    /// One output record per group × metric: the group key columns
    /// followed by [`ANALYZE_STAT_HEADERS`].
    fn record_rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for group in &self.groups {
            for (metric, stats) in self.metrics.iter().zip(&group.stats) {
                let mut row = group.key.clone();
                row.push(metric.clone());
                row.push(stats.rows.to_string());
                for v in [
                    stats.mean, stats.std, stats.min, stats.max, stats.p50, stats.p90, stats.p99,
                ] {
                    row.push(sig(v));
                }
                rows.push(row);
            }
        }
        rows
    }

    /// The report as CSV (group-by columns + stat columns, one line per
    /// group × metric). Byte-identical for any shard layout of the same
    /// grid — the property the CI invariance check `cmp`s.
    pub fn to_csv_string(&self) -> String {
        let headers: Vec<&str> = self
            .group_by
            .iter()
            .map(String::as_str)
            .chain(ANALYZE_STAT_HEADERS)
            .collect();
        let mut out = green_bench::export::csv_line(&headers);
        for row in self.record_rows() {
            out.push_str(&green_bench::export::csv_line(&row));
        }
        out
    }

    /// The report as JSON Lines: one flat object per group × metric,
    /// tagged [`ANALYZE_SCHEMA`], group-by axes as string fields, stats
    /// with the same six-decimal formatting as the CSV.
    pub fn to_jsonl(&self) -> String {
        use green_bench::json::quote;
        let mut out = String::new();
        for group in &self.groups {
            for (metric, stats) in self.metrics.iter().zip(&group.stats) {
                let mut line = format!("{{\"schema\": {}", quote(ANALYZE_SCHEMA));
                for (axis, value) in self.group_by.iter().zip(&group.key) {
                    line.push_str(&format!(", {}: {}", quote(axis), quote(value)));
                }
                line.push_str(&format!(", \"metric\": {}", quote(metric)));
                line.push_str(&format!(", \"rows\": {}", stats.rows));
                for (name, v) in [
                    ("mean", stats.mean),
                    ("std", stats.std),
                    ("min", stats.min),
                    ("max", stats.max),
                    ("p50", stats.p50),
                    ("p90", stats.p90),
                    ("p99", stats.p99),
                ] {
                    line.push_str(&format!(", \"{name}\": {}", sig(v)));
                }
                line.push_str("}\n");
                out.push_str(&line);
            }
        }
        out
    }

    /// A fixed-width table via the shared renderer. The title carries
    /// only the query and row counts — never the input path or shard
    /// count — so the table too is identical across shard layouts.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self
            .group_by
            .iter()
            .map(String::as_str)
            .chain(ANALYZE_STAT_HEADERS)
            .collect();
        green_bench::render::table(
            &format!(
                "Analyze — group-by {} ({} rows, {} groups)",
                self.group_by.join(","),
                self.rows_matched,
                self.groups.len()
            ),
            &headers,
            &self.record_rows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_validates_names_and_applies_defaults() {
        let q = AnalyzeQuery::new(None, None, None).unwrap();
        assert_eq!(q.group_by, vec!["policy", "method"]);
        assert_eq!(q.metrics.len(), DEFAULT_METRICS.len());
        let q = AnalyzeQuery::new(Some("users, sim_year"), Some("credits_mean"), None).unwrap();
        assert_eq!(q.group_by, vec!["users", "sim_year"]);
        assert_eq!(q.key_axes(), vec![4, 3]);
        assert_eq!(q.metric_indices(), vec![23]);
        assert!(AnalyzeQuery::new(Some("nope"), None, None).is_err());
        assert!(AnalyzeQuery::new(None, Some("policy"), None).is_err());
        assert!(AnalyzeQuery::new(Some(""), None, None).is_err());
    }

    #[test]
    fn report_renders_all_three_formats() {
        let report = AnalyzeReport {
            group_by: vec!["policy".into()],
            metrics: vec!["credits_mean".into()],
            rows_scanned: 2,
            rows_matched: 2,
            groups: vec![GroupSummary {
                key: vec!["greedy".into()],
                stats: vec![MetricStats {
                    rows: 2,
                    mean: 1.5,
                    std: 0.5,
                    min: 1.0,
                    max: 2.0,
                    p50: 1.0,
                    p90: 2.0,
                    p99: 2.0,
                }],
            }],
        };
        let csv = report.to_csv_string();
        assert!(csv.starts_with("policy,metric,rows,mean,std,min,max,p50,p90,p99\n"));
        assert!(csv.contains("greedy,credits_mean,2,1.500000"));
        let jsonl = report.to_jsonl();
        let parsed = green_bench::json::Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            parsed
                .get("schema")
                .and_then(green_bench::json::Json::as_str),
            Some(ANALYZE_SCHEMA)
        );
        assert_eq!(
            parsed
                .get("policy")
                .and_then(green_bench::json::Json::as_str),
            Some("greedy")
        );
        assert!(report.render().contains("group-by policy"));
    }
}
