//! `scenarios watch`: a live view over a directory of shard outputs.
//!
//! A sharded sweep leaves two sidecars next to every shard CSV: the
//! [`ShardManifest`] (authoritative rows/bytes checkpoint) and the
//! `.progress` JSONL heartbeat trail ([`crate::progress`]). This module
//! joins the two into a per-shard status table:
//!
//! * **scanning** ([`WatchReport::scan`]) reads every `*.manifest` in a
//!   directory, pairs it with its progress sidecar, and samples the
//!   sidecar's mtime for stall detection — the only wall-clock input;
//! * **rendering** ([`WatchReport::render`]) is a pure function of the
//!   report, so `tests/watch_golden.rs` can golden-test the exact
//!   output of a finished run (finished shards show no rates, ETAs or
//!   ages — those would differ run to run).
//!
//! The CLI wraps this as `scenarios watch <dir>`: `--once` prints one
//! table (CI-friendly), the default loop redraws every few seconds.

use std::io;
use std::path::Path;

use crate::orchestrate::events::{orchestrate_log_path, EventKind, OrchestrateEvent};
use crate::progress::{newest_record, progress_path, ProgressRecord};
use crate::shard::ShardManifest;

/// Seconds without a heartbeat before an incomplete shard is reported
/// as stalled. Checkpoints land every [`crate::CHECKPOINT_EVERY`] rows,
/// so a healthy worker heartbeats far more often than this unless a
/// single configuration takes minutes — stall detection is advisory.
pub const STALL_AFTER_S: f64 = 60.0;

/// One shard's joined status: manifest checkpoint, latest heartbeat,
/// and how stale that heartbeat is.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// The shard CSV file name (the manifest's path minus `.manifest`).
    pub name: String,
    /// The parsed manifest, or the parse error's text.
    pub manifest: Result<ShardManifest, String>,
    /// The newest progress record, if a sidecar exists and parses.
    pub last: Option<ProgressRecord>,
    /// Seconds since the progress sidecar was last appended to (`None`
    /// without a sidecar). Only sampled for incomplete shards — a
    /// finished shard's age is irrelevant and would make rendering
    /// non-deterministic.
    pub heartbeat_age_s: Option<f64>,
}

impl ShardStatus {
    fn complete(&self) -> bool {
        self.manifest.as_ref().map(|m| m.complete).unwrap_or(false)
    }

    fn stalled(&self, stall_after_s: f64) -> bool {
        !self.complete() && self.heartbeat_age_s.is_some_and(|age| age > stall_after_s)
    }
}

/// What the orchestrator's event log adds to a watch: per-fragment
/// invocation counts and run-wide recovery totals. Present only when
/// the scanned directory holds an `orchestrate.jsonl` — a plain
/// hand-sharded directory renders exactly as it did before the
/// orchestrator existed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrchestratorView {
    /// Worker launches per fragment CSV name.
    pub spawns: Vec<(String, u32)>,
    /// Failed invocations requeued with an intact checkpoint.
    pub retries: usize,
    /// Failed invocations requeued from scratch.
    pub reassigns: usize,
    /// Range splits onto idle workers.
    pub steals: usize,
    /// Stall kills.
    pub stalls: usize,
    /// True once the log carries a `complete` record.
    pub complete: bool,
    /// True once the log carries a `failed` record (run gave up).
    pub failed: bool,
}

impl OrchestratorView {
    /// Folds an event log into the view (oldest record first).
    pub fn from_events(events: &[OrchestrateEvent]) -> OrchestratorView {
        let mut view = OrchestratorView::default();
        for event in events {
            match event.kind {
                EventKind::Spawn => {
                    if let Some(csv) = &event.csv {
                        match view.spawns.iter_mut().find(|(name, _)| name == csv) {
                            Some((_, count)) => *count += 1,
                            None => view.spawns.push((csv.clone(), 1)),
                        }
                    }
                }
                EventKind::Retry => view.retries += 1,
                EventKind::Reassign => view.reassigns += 1,
                EventKind::Steal => view.steals += 1,
                EventKind::Stall => view.stalls += 1,
                EventKind::Complete => view.complete = true,
                EventKind::Failed => view.failed = true,
                EventKind::Plan | EventKind::Exit | EventKind::Merge | EventKind::Analyze => {}
            }
        }
        view
    }

    /// Launches of the fragment named `csv` (0 when never spawned).
    pub fn spawns_of(&self, csv: &str) -> u32 {
        self.spawns
            .iter()
            .find(|(name, _)| name == csv)
            .map(|(_, count)| *count)
            .unwrap_or(0)
    }
}

/// Every shard found in one directory scan, ordered by assigned cell
/// range (then name, for broken manifests).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchReport {
    /// Per-shard statuses in range order.
    pub shards: Vec<ShardStatus>,
    /// The stall threshold the report was scanned under (seconds).
    pub stall_after_s: f64,
    /// Orchestrator state, when the directory carries an event log.
    pub orchestrator: Option<OrchestratorView>,
    /// Unparseable JSONL lines skipped during the scan, one message per
    /// line, prefixed with the file they came from. A crash can tear
    /// the final line of a `.progress` sidecar or `orchestrate.jsonl`;
    /// a live view must render the intact prefix and say what it
    /// skipped rather than refuse the whole directory.
    pub warnings: Vec<String>,
}

impl WatchReport {
    /// Scans `dir` for `*.manifest` sidecars and joins each with its
    /// progress trail. An empty directory is an error — `watch` pointed
    /// at the wrong place should say so rather than render nothing.
    pub fn scan(dir: &Path, stall_after_s: f64) -> io::Result<WatchReport> {
        let mut shards = Vec::new();
        let mut warnings = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(csv_name) = name.strip_suffix(".manifest") else {
                continue;
            };
            let csv = path.with_file_name(csv_name);
            shards.push(shard_status(&csv, &mut warnings));
        }
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no shard manifests (*.manifest) found", dir.display()),
            ));
        }
        shards.sort_by(|a, b| {
            let key = |s: &ShardStatus| {
                (
                    s.manifest
                        .as_ref()
                        .map(|m| m.cells.start)
                        .unwrap_or(usize::MAX),
                    s.name.clone(),
                )
            };
            key(a).cmp(&key(b))
        });
        let log_path = orchestrate_log_path(dir);
        let orchestrator = match std::fs::read_to_string(&log_path) {
            Ok(text) => {
                let (events, torn) = OrchestrateEvent::parse_log_tolerant(&text);
                let log_name = log_path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| log_path.display().to_string());
                warnings.extend(torn.into_iter().map(|w| format!("{log_name}: {w}")));
                Some(OrchestratorView::from_events(&events))
            }
            Err(_) => None,
        };
        Ok(WatchReport {
            shards,
            stall_after_s,
            orchestrator,
            warnings,
        })
    }

    /// Renders the status table. Pure: same report, same bytes. An
    /// orchestrated directory (event log present) gains an `att` column
    /// (worker launches per fragment) and a recovery-totals footer; a
    /// plain shard directory renders byte-identically to before the
    /// orchestrator existed (`tests/watch_golden.rs` pins both).
    pub fn render(&self) -> String {
        let mut header = vec![
            "shard".to_string(),
            "rows".into(),
            "done".into(),
            "rate".into(),
            "eta".into(),
        ];
        if self.orchestrator.is_some() {
            header.push("att".into());
        }
        header.push("status".into());
        let columns = header.len();
        let mut rows: Vec<Vec<String>> = vec![header];
        let mut done = 0usize;
        let mut total_rows = 0usize;
        let mut expected_rows = 0usize;
        for shard in &self.shards {
            rows.push(self.row(shard));
            if shard.complete() {
                done += 1;
            }
            if let Ok(m) = &shard.manifest {
                total_rows += m.rows;
                expected_rows += m.expected_rows();
            }
        }
        let widths: Vec<usize> = (0..columns)
            .map(|col| {
                rows.iter()
                    .map(|r| r[col].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for row in &rows {
            for (col, cell) in row.iter().enumerate() {
                if col > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                // Pad all but the last column to its width.
                if col + 1 < row.len() {
                    out.extend(std::iter::repeat_n(' ', widths[col] - cell.chars().count()));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{}/{} shards complete — {}/{} rows\n",
            done,
            self.shards.len(),
            total_rows,
            expected_rows,
        ));
        if let Some(view) = &self.orchestrator {
            let state = if view.failed {
                "FAILED"
            } else if view.complete {
                "complete"
            } else {
                "running"
            };
            out.push_str(&format!(
                "orchestrator: {state} — {} retries, {} reassigns, {} steals, {} stalls\n",
                view.retries, view.reassigns, view.steals, view.stalls,
            ));
        }
        // Torn-line warnings last, so the table above stays identical
        // to a clean directory's (a healthy run renders no warnings).
        for warning in &self.warnings {
            out.push_str(&format!("warning: skipped unparseable {warning}\n"));
        }
        out
    }

    /// True when every shard's manifest parses and says complete.
    pub fn all_complete(&self) -> bool {
        self.shards.iter().all(ShardStatus::complete)
    }

    fn row(&self, shard: &ShardStatus) -> Vec<String> {
        let attempts = self
            .orchestrator
            .as_ref()
            .map(|view| view.spawns_of(&shard.name).to_string());
        let finish = |mut row: Vec<String>, status: String| -> Vec<String> {
            if let Some(att) = &attempts {
                row.push(att.clone());
            }
            row.push(status);
            row
        };
        let manifest = match &shard.manifest {
            Ok(m) => m,
            Err(e) => {
                return finish(
                    vec![
                        shard.name.clone(),
                        "—".into(),
                        "—".into(),
                        "—".into(),
                        "—".into(),
                    ],
                    format!("bad manifest: {e}"),
                );
            }
        };
        let expected = manifest.expected_rows();
        let pct = if expected == 0 {
            100.0
        } else {
            100.0 * manifest.rows as f64 / expected as f64
        };
        let (rate, eta) = match (&shard.last, manifest.complete) {
            // Finished shards render without rates: deterministic.
            (_, true) | (None, _) => ("—".into(), "—".into()),
            (Some(last), false) => (
                if last.rate_rows_per_s > 0.0 {
                    format!("{:.1} rows/s", last.rate_rows_per_s)
                } else {
                    "—".into()
                },
                match last.eta_s {
                    Some(eta) => human_duration(eta),
                    None => "—".into(),
                },
            ),
        };
        let status = if manifest.complete {
            "complete".into()
        } else if shard.last.as_ref().is_some_and(|last| last.failed) {
            // A terminal failed record outranks stall age: the worker
            // is known dead, not merely silent ([`crate::run_shard`]'s
            // exit contract).
            format!(
                "FAILED ({})",
                shard
                    .last
                    .as_ref()
                    .and_then(|last| last.error.as_deref())
                    .unwrap_or("no error recorded")
            )
        } else if shard.stalled(self.stall_after_s) {
            format!(
                "STALLED (no heartbeat for {})",
                human_duration(shard.heartbeat_age_s.unwrap_or(0.0))
            )
        } else if shard.last.is_none() {
            "no heartbeat yet".into()
        } else {
            "running".into()
        };
        finish(
            vec![
                manifest.shard.clone(),
                format!("{}/{expected}", manifest.rows),
                format!("{pct:.0}%"),
                rate,
                eta,
            ],
            status,
        )
    }
}

/// Seconds since the progress sidecar of `csv` was last appended to —
/// the stall-detection clock, shared between `watch` and the
/// orchestrator's supervisor. `None` without a sidecar.
pub fn heartbeat_age_s(csv: &Path) -> Option<f64> {
    std::fs::metadata(progress_path(csv))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .map(|age| age.as_secs_f64())
}

/// Joins one shard CSV's sidecars into a [`ShardStatus`]. Torn or
/// garbage sidecar lines are skipped into `warnings` (prefixed with
/// the sidecar's file name) — the intact prefix still renders.
fn shard_status(csv: &Path, warnings: &mut Vec<String>) -> ShardStatus {
    let name = csv
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| csv.display().to_string());
    let manifest = ShardManifest::load(csv).map_err(|e| e.to_string());
    let complete = manifest.as_ref().map(|m| m.complete).unwrap_or(false);
    let (last, torn) = newest_record(csv);
    warnings.extend(torn);
    // Only sampled for incomplete shards — a finished shard's age is
    // irrelevant and would make rendering non-deterministic.
    let heartbeat_age_s = if complete { None } else { heartbeat_age_s(csv) };
    ShardStatus {
        name,
        manifest,
        last,
        heartbeat_age_s,
    }
}

/// `93.4` seconds → `"1m33s"`; sub-minute values keep one decimal.
fn human_duration(seconds: f64) -> String {
    if seconds < 60.0 {
        format!("{seconds:.0}s")
    } else if seconds < 3600.0 {
        format!(
            "{}m{:02}s",
            (seconds / 60.0) as u64,
            (seconds % 60.0) as u64
        )
    } else {
        format!(
            "{}h{:02}m",
            (seconds / 3600.0) as u64,
            ((seconds % 3600.0) / 60.0) as u64
        )
    }
}

/// One scan + render of `dir` with the default stall threshold — what
/// `scenarios watch --once` prints.
pub fn watch_once(dir: &Path) -> io::Result<String> {
    Ok(WatchReport::scan(dir, STALL_AFTER_S)?.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(
        shard: &str,
        cells: std::ops::Range<usize>,
        rows: usize,
        complete: bool,
    ) -> ShardManifest {
        ShardManifest {
            sweep: "demo".into(),
            shard: shard.into(),
            spec_hash: 0xabcd,
            cells,
            total_cells: 30,
            replicates: 2,
            rows,
            bytes: 100,
            hash: 0,
            complete,
        }
    }

    #[test]
    fn render_is_deterministic_and_columns_align() {
        let report = WatchReport {
            shards: vec![
                ShardStatus {
                    name: "s0.csv".into(),
                    manifest: Ok(manifest("0/3", 0..10, 5, true)),
                    last: None,
                    heartbeat_age_s: None,
                },
                ShardStatus {
                    name: "s1.csv".into(),
                    manifest: Ok(manifest("1/3", 10..20, 3, false)),
                    last: Some(ProgressRecord {
                        sweep: "demo".into(),
                        shard: "1/3".into(),
                        rows: 3,
                        expected_rows: 5,
                        elapsed_s: 2.0,
                        rate_rows_per_s: 1.5,
                        eta_s: Some(1.3),
                        rss_mb: Some(40.0),
                        phases_ms: vec![],
                        failed: false,
                        error: None,
                        complete: false,
                    }),
                    heartbeat_age_s: Some(1.0),
                },
            ],
            stall_after_s: STALL_AFTER_S,
            orchestrator: None,
            warnings: vec![],
        };
        let a = report.render();
        assert_eq!(a, report.render(), "render must be pure");
        assert!(a.contains("complete"), "{a}");
        assert!(a.contains("1.5 rows/s"), "{a}");
        assert!(a.contains("1/2 shards complete — 8/10 rows"), "{a}");
        assert!(!report.all_complete());
    }

    #[test]
    fn stalls_flag_only_incomplete_shards() {
        let stale = ShardStatus {
            name: "s1.csv".into(),
            manifest: Ok(manifest("1/3", 10..20, 3, false)),
            last: None,
            heartbeat_age_s: Some(120.0),
        };
        assert!(stale.stalled(STALL_AFTER_S));
        let finished = ShardStatus {
            manifest: Ok(manifest("1/3", 10..20, 5, true)),
            ..stale.clone()
        };
        assert!(!finished.stalled(STALL_AFTER_S));
        let report = WatchReport {
            shards: vec![stale],
            stall_after_s: STALL_AFTER_S,
            orchestrator: None,
            warnings: vec![],
        };
        assert!(report.render().contains("STALLED"), "{}", report.render());
    }

    #[test]
    fn failed_terminal_record_outranks_stall() {
        let crashed = ShardStatus {
            name: "frag-0001.csv".into(),
            manifest: Ok(manifest("cells:10..20", 10..20, 3, false)),
            last: Some(ProgressRecord {
                sweep: "demo".into(),
                shard: "cells:10..20".into(),
                rows: 3,
                expected_rows: 5,
                elapsed_s: 2.0,
                rate_rows_per_s: 0.0,
                eta_s: None,
                rss_mb: None,
                phases_ms: vec![],
                failed: true,
                error: Some("chaos: injected failure after 3 rows".into()),
                complete: false,
            }),
            heartbeat_age_s: Some(999.0),
        };
        let report = WatchReport {
            shards: vec![crashed],
            stall_after_s: STALL_AFTER_S,
            orchestrator: None,
            warnings: vec![],
        };
        let table = report.render();
        assert!(
            table.contains("FAILED (chaos: injected failure after 3 rows)"),
            "{table}"
        );
        assert!(!table.contains("STALLED"), "{table}");
    }

    #[test]
    fn orchestrator_view_adds_attempts_column_and_footer() {
        use crate::orchestrate::events::{EventKind, OrchestrateEvent};
        let events = vec![
            OrchestrateEvent {
                kind: EventKind::Spawn,
                task: Some(0),
                csv: Some("s0.csv".into()),
                cells: Some(0..10),
                attempt: Some(1),
                detail: None,
            },
            OrchestrateEvent {
                kind: EventKind::Spawn,
                task: Some(0),
                csv: Some("s0.csv".into()),
                cells: Some(0..10),
                attempt: Some(2),
                detail: None,
            },
            OrchestrateEvent {
                kind: EventKind::Retry,
                task: Some(0),
                csv: Some("s0.csv".into()),
                cells: Some(0..10),
                attempt: Some(2),
                detail: None,
            },
            OrchestrateEvent::run_level(EventKind::Complete, "ok"),
        ];
        let view = OrchestratorView::from_events(&events);
        assert_eq!(view.spawns_of("s0.csv"), 2);
        assert_eq!(view.retries, 1);
        assert!(view.complete);
        let report = WatchReport {
            shards: vec![ShardStatus {
                name: "s0.csv".into(),
                manifest: Ok(manifest("0/1", 0..10, 5, true)),
                last: None,
                heartbeat_age_s: None,
            }],
            stall_after_s: STALL_AFTER_S,
            orchestrator: Some(view),
            warnings: vec![],
        };
        let table = report.render();
        assert!(table.contains("att"), "{table}");
        assert!(
            table.contains("orchestrator: complete — 1 retries, 0 reassigns, 0 steals, 0 stalls"),
            "{table}"
        );
    }

    #[test]
    fn warnings_render_after_the_table_and_clean_runs_render_none() {
        let shard = ShardStatus {
            name: "s0.csv".into(),
            manifest: Ok(manifest("0/1", 0..10, 5, true)),
            last: None,
            heartbeat_age_s: None,
        };
        let clean = WatchReport {
            shards: vec![shard.clone()],
            stall_after_s: STALL_AFTER_S,
            orchestrator: None,
            warnings: vec![],
        };
        assert!(!clean.render().contains("warning:"));
        let torn = WatchReport {
            warnings: vec!["s0.csv.progress: line 4: bad json".into()],
            ..clean
        };
        let table = torn.render();
        assert!(
            table.ends_with("warning: skipped unparseable s0.csv.progress: line 4: bad json\n"),
            "{table}"
        );
        // The table itself is unchanged by the warning.
        assert!(table.contains("1/1 shards complete"), "{table}");
    }

    #[test]
    fn human_durations_read_naturally() {
        assert_eq!(human_duration(4.2), "4s");
        assert_eq!(human_duration(93.4), "1m33s");
        assert_eq!(human_duration(4000.0), "1h06m");
    }
}
