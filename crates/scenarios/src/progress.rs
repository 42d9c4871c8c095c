//! Live progress telemetry for shard workers.
//!
//! A shard invocation appends one [`ProgressRecord`] to a JSONL sidecar
//! (`<out>.progress`) at every manifest checkpoint, through the
//! repaired append of [`crate::durable_io::append_line`]: a kill tears
//! at most the final line, which the next append (or a tolerant reader)
//! drops. Each record is a flat one-line JSON object (the dialect of
//! [`green_bench::json`]): rows done vs expected, elapsed seconds,
//! derived rate/ETA, resident-set size, and — when the worker ran with
//! recording enabled — the per-phase wall-time breakdown from the
//! observability recorder.
//!
//! The sidecar is one append-only trail per shard CSV, one record per
//! checkpoint: a fresh invocation starts it where it creates the CSV, a
//! resumed one continues it, so a dead invocation's heartbeats and its
//! terminal `failed` record stay in the flight record. Its readers
//! (`scenarios watch`, the orchestrator's failure probe) want only the
//! newest record ([`newest_record`]).

use std::io;
use std::path::{Path, PathBuf};

use green_bench::json::{fmt_num, quote, Json};
use green_chaos::{ChaosRegistry, Failpoint};

use crate::durable_io::{append_line, parse_lines_tolerant};
use crate::spec::SpecError;

/// Schema tag carried by every progress record (first key), so a
/// consumer can refuse a sidecar written by an incompatible build.
pub const PROGRESS_SCHEMA: &str = "green-progress/1";

/// Records per `.progress` rewrite in perfbench's computed
/// `shard.bytes_written` (`perfbench/src/sweeps.rs`), its only reader.
/// Nothing bounds the sidecar itself: it is an append-only trail of one
/// record per checkpoint.
pub const PROGRESS_HISTORY: usize = 64;

/// The progress sidecar path of a shard CSV: `<csv>.progress`.
pub fn progress_path(csv: &Path) -> PathBuf {
    let mut name = csv.file_name().unwrap_or_default().to_os_string();
    name.push(".progress");
    csv.with_file_name(name)
}

/// One heartbeat from a shard worker: a snapshot of where the run is
/// and how fast it is moving. Serialized as one JSON line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressRecord {
    /// Sweep name (matches the manifest's `sweep`).
    pub sweep: String,
    /// Worker label (`"2/8"`, `"cells:A..B"`, `"0/1"`).
    pub shard: String,
    /// Configuration rows checkpointed so far (resumed rows included).
    pub rows: usize,
    /// Rows the assigned range will produce in total.
    pub expected_rows: usize,
    /// Seconds since this invocation started (monotonic clock — resumed
    /// work from earlier invocations is not included).
    pub elapsed_s: f64,
    /// Rows per second over this invocation (`0` until the first row).
    pub rate_rows_per_s: f64,
    /// Estimated seconds to completion at the current rate; `None`
    /// before a rate exists or once the shard is complete.
    pub eta_s: Option<f64>,
    /// Worker resident-set size in MiB (`VmRSS`); `None` off Linux.
    pub rss_mb: Option<f64>,
    /// Per-phase wall milliseconds from the observability recorder —
    /// empty when the worker ran with the default no-op recorder.
    pub phases_ms: Vec<(String, f64)>,
    /// True on the terminal record of a shard invocation that died on an
    /// error or panic ([`crate::run_shard`] appends it on the way down),
    /// so a consumer can tell a crash (terminal `failed` record) from a
    /// stall (heartbeats simply stop — the SIGKILL case).
    pub failed: bool,
    /// The error text of a `failed` record; `None` on healthy
    /// heartbeats.
    pub error: Option<String>,
    /// True on the final record of a finished shard.
    pub complete: bool,
}

impl ProgressRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\": {}, \"sweep\": {}, \"shard\": {}, \"rows\": {}, \
             \"expected_rows\": {}, \"elapsed_s\": {}, \"rate_rows_per_s\": {}",
            quote(PROGRESS_SCHEMA),
            quote(&self.sweep),
            quote(&self.shard),
            self.rows,
            self.expected_rows,
            fmt_num(self.elapsed_s),
            fmt_num(self.rate_rows_per_s),
        );
        out.push_str(", \"eta_s\": ");
        match self.eta_s {
            Some(eta) => out.push_str(&fmt_num(eta)),
            None => out.push_str("null"),
        }
        out.push_str(", \"rss_mb\": ");
        match self.rss_mb {
            Some(rss) => out.push_str(&fmt_num(rss)),
            None => out.push_str("null"),
        }
        out.push_str(", \"phases_ms\": {");
        for (i, (name, ms)) in self.phases_ms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", quote(name), fmt_num(*ms)));
        }
        out.push_str(&format!("}}, \"failed\": {}", self.failed));
        out.push_str(", \"error\": ");
        match &self.error {
            Some(error) => out.push_str(&quote(error)),
            None => out.push_str("null"),
        }
        out.push_str(&format!(", \"complete\": {}}}", self.complete));
        out
    }

    /// Parses one JSON line previously written by
    /// [`to_json_line`](Self::to_json_line).
    pub fn parse(line: &str) -> Result<ProgressRecord, SpecError> {
        let bad = |m: &str| SpecError(format!("bad progress record: {m}"));
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `schema`"))?;
        if schema != PROGRESS_SCHEMA {
            return Err(bad(&format!(
                "schema `{schema}` (this build reads `{PROGRESS_SCHEMA}`)"
            )));
        }
        let string = |key: &str| -> Result<String, SpecError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string `{key}`")))
        };
        let number = |key: &str| -> Result<f64, SpecError> {
            v.get(key)
                .and_then(Json::as_number)
                .ok_or_else(|| bad(&format!("missing number `{key}`")))
        };
        let optional = |key: &str| v.get(key).and_then(Json::as_number);
        let phases_ms = match v.get("phases_ms") {
            Some(Json::Object(fields)) => fields
                .iter()
                .map(|(k, ms)| {
                    ms.as_number()
                        .map(|ms| (k.clone(), ms))
                        .ok_or_else(|| bad(&format!("`phases_ms.{k}` must be a number")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("missing object `phases_ms`")),
        };
        Ok(ProgressRecord {
            sweep: string("sweep")?,
            shard: string("shard")?,
            rows: number("rows")? as usize,
            expected_rows: number("expected_rows")? as usize,
            elapsed_s: number("elapsed_s")?,
            rate_rows_per_s: number("rate_rows_per_s")?,
            eta_s: optional("eta_s"),
            rss_mb: optional("rss_mb"),
            phases_ms,
            // `failed`/`error` joined the schema with the orchestrator:
            // absent (old sidecars) reads as a healthy record.
            failed: v.get("failed").and_then(Json::as_bool).unwrap_or(false),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            complete: v
                .get("complete")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("missing boolean `complete`"))?,
        })
    }

    /// Parses a whole sidecar (one record per non-empty line, oldest
    /// first). Strict: any bad line fails the whole parse — the right
    /// contract for tests and tools that must not paper over
    /// corruption.
    pub fn parse_sidecar(text: &str) -> Result<Vec<ProgressRecord>, SpecError> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(ProgressRecord::parse)
            .collect()
    }

    /// Parses a sidecar tolerantly ([`parse_lines_tolerant`]):
    /// unparsable lines are skipped and described in the returned
    /// warnings.
    pub fn parse_sidecar_tolerant(text: &str) -> (Vec<ProgressRecord>, Vec<String>) {
        parse_lines_tolerant(text, ProgressRecord::parse)
    }

    /// Appends the record to the `.progress` trail of `csv` — the one
    /// write path of the sidecar. `chaos` arms the `progress_rewrite`
    /// failpoint; pass [`green_chaos::NO_CHAOS`] for none.
    pub(crate) fn append_to(&self, csv: &Path, chaos: &ChaosRegistry) -> io::Result<()> {
        append_line(
            &progress_path(csv),
            &self.to_json_line(),
            chaos,
            Failpoint::ProgressRewrite,
        )
    }
}

/// The newest parseable record of the `.progress` trail of `csv`
/// (`None` without a sidecar or an intact record), plus a warning for
/// every line the tolerant parse skipped, prefixed with the sidecar's
/// file name. A torn final line therefore never hides the record
/// written before it.
pub fn newest_record(csv: &Path) -> (Option<ProgressRecord>, Vec<String>) {
    let path = progress_path(csv);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return (None, Vec::new());
    };
    let (records, torn) = ProgressRecord::parse_sidecar_tolerant(&text);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let warnings = torn.into_iter().map(|w| format!("{name}: {w}")).collect();
    (records.into_iter().next_back(), warnings)
}

/// The process's current resident set size in MiB, read from
/// `/proc/self/status` (`VmRSS`). `None` off Linux — progress records
/// treat it as advisory either way.
pub fn current_rss_mb() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_scratch::Scratch;
    use green_chaos::NO_CHAOS;

    fn record() -> ProgressRecord {
        ProgressRecord {
            sweep: "mega".into(),
            shard: "2/8".into(),
            rows: 64,
            expected_rows: 480,
            elapsed_s: 12.5,
            rate_rows_per_s: 5.12,
            eta_s: Some(81.25),
            rss_mb: Some(48.7),
            phases_ms: vec![("schedule".into(), 6200.0), ("events".into(), 3100.5)],
            failed: false,
            error: None,
            complete: false,
        }
    }

    #[test]
    fn record_roundtrips_including_nulls() {
        let r = record();
        assert_eq!(ProgressRecord::parse(&r.to_json_line()).unwrap(), r);
        let bare = ProgressRecord {
            eta_s: None,
            rss_mb: None,
            phases_ms: vec![],
            complete: true,
            ..record()
        };
        let line = bare.to_json_line();
        assert!(line.contains("\"eta_s\": null"), "{line}");
        assert!(line.contains("\"complete\": true"), "{line}");
        assert_eq!(ProgressRecord::parse(&line).unwrap(), bare);
    }

    #[test]
    fn failed_records_roundtrip_and_old_records_read_healthy() {
        let failed = ProgressRecord {
            failed: true,
            error: Some("chaos: injected failure after 3 rows".into()),
            ..record()
        };
        let line = failed.to_json_line();
        assert!(line.contains("\"failed\": true"), "{line}");
        assert_eq!(ProgressRecord::parse(&line).unwrap(), failed);
        // A pre-orchestrator record (no `failed`/`error` keys) still
        // parses, as a healthy record.
        let old = record()
            .to_json_line()
            .replace(", \"failed\": false, \"error\": null", "");
        let parsed = ProgressRecord::parse(&old).unwrap();
        assert!(!parsed.failed);
        assert_eq!(parsed.error, None);
    }

    #[test]
    fn append_line_grows_a_log_without_rewriting_it() {
        let dir = Scratch::new("progress-append");
        let log = dir.join("events.jsonl");
        for line in ["{\"a\": 1}", "{\"b\": 2}"] {
            append_line(&log, line, &NO_CHAOS, Failpoint::OrchestrateAppend).unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&log).unwrap(),
            "{\"a\": 1}\n{\"b\": 2}\n"
        );
    }

    #[test]
    fn tolerant_parse_skips_torn_lines_with_warnings() {
        let good = record();
        let mut text = good.to_json_line();
        text.push('\n');
        text.push_str("{\"schema\": \"green-progress/1\", \"sw"); // torn tail
        let (records, warnings) = ProgressRecord::parse_sidecar_tolerant(&text);
        assert_eq!(records, vec![good]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].starts_with("line 2:"), "{warnings:?}");
        // Strict parse still refuses the same text.
        assert!(ProgressRecord::parse_sidecar(&text).is_err());
        // The newest-record reader skips the same line, naming the
        // sidecar it came from.
        let dir = Scratch::new("progress-newest");
        let csv = dir.join("shard0.csv");
        assert_eq!(newest_record(&csv), (None, vec![]), "no sidecar yet");
        std::fs::write(progress_path(&csv), &text).unwrap();
        let (last, warnings) = newest_record(&csv);
        assert_eq!(last, Some(record()));
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].starts_with("shard0.csv.progress: line 2:"),
            "{warnings:?}"
        );
        // A healthy sidecar produces no warnings.
        let (_, warnings) = ProgressRecord::parse_sidecar_tolerant(&record().to_json_line());
        assert!(warnings.is_empty());
    }

    #[test]
    fn parse_rejects_other_schemas_and_garbage() {
        let other = record().to_json_line().replace("green-progress/1", "v9");
        assert!(ProgressRecord::parse(&other).is_err());
        assert!(ProgressRecord::parse("not json").is_err());
        assert!(ProgressRecord::parse("{}").is_err());
    }

    #[test]
    fn sidecar_path_appends_progress_suffix() {
        assert_eq!(
            progress_path(Path::new("out/shard0.csv")),
            Path::new("out/shard0.csv.progress")
        );
    }
}
