//! The orchestrator's append-only audit trail:
//! `<out-dir>/orchestrate.jsonl`.
//!
//! Every scheduling decision the supervisor takes — spawn, exit,
//! stall-kill, retry, reassign, steal, merge — appends one
//! [`OrchestrateEvent`] line via the shared
//! [`crate::durable_io::append_line`] helper, so a concurrent reader
//! (`scenarios watch`, the CI chaos job) sees either the old tail or a
//! whole new record, never a torn one. The log is the *history*; the
//! authoritative current state stays where it always was, in the
//! per-fragment `.manifest`/`.progress` sidecars.
//!
//! Records share the flat one-line JSON dialect of the progress sidecar
//! (`green-bench`'s [`Json`]), tagged `green-orchestrate/1`; the record
//! names are documented in `docs/orchestration.md` and
//! `tools/check_docs.sh` fails if one is added without documentation.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use green_bench::json::{quote, Json};
use green_chaos::{ChaosRegistry, Failpoint};

use crate::durable_io::{append_line, parse_lines_tolerant};
use crate::spec::SpecError;

/// Schema tag carried by every event record (first key).
pub const ORCHESTRATE_SCHEMA: &str = "green-orchestrate/1";

/// The largest whole number a JSON number (an `f64`) holds exactly,
/// 2^53 − 1: the bound of a parsed `task`.
const MAX_EXACT_JSON_INT: f64 = 9_007_199_254_740_991.0;

/// The event log path inside an orchestration output directory.
pub fn orchestrate_log_path(dir: &Path) -> PathBuf {
    dir.join("orchestrate.jsonl")
}

/// What happened. One variant per scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The initial partition: `detail` holds `tasks=N workers=M`.
    Plan,
    /// A worker launched for a task (`attempt` counts from 1).
    Spawn,
    /// A worker exited; `detail` says `complete` or carries the failure.
    Exit,
    /// A worker was killed for exceeding the stall threshold.
    Stall,
    /// A failed task was requeued to resume from its intact checkpoint.
    Retry,
    /// A failed task's checkpoint was unusable; its whole range was
    /// requeued from scratch (fragment files removed).
    Reassign,
    /// A straggler's remaining range was split; `detail` names the new
    /// task and the cut point.
    Steal,
    /// All fragments hash-verified and merged; `detail` holds
    /// `rows=R bytes=B`.
    Merge,
    /// A chained analysis ran over the merged CSV; `detail` holds the
    /// query and output path.
    Analyze,
    /// The run finished end to end.
    Complete,
    /// The run gave up (a task exhausted its attempt budget).
    Failed,
}

impl EventKind {
    /// The wire name (the `event` key's value).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Plan => "plan",
            EventKind::Spawn => "spawn",
            EventKind::Exit => "exit",
            EventKind::Stall => "stall",
            EventKind::Retry => "retry",
            EventKind::Reassign => "reassign",
            EventKind::Steal => "steal",
            EventKind::Merge => "merge",
            EventKind::Analyze => "analyze",
            EventKind::Complete => "complete",
            EventKind::Failed => "failed",
        }
    }

    /// Parses a wire name back to the variant.
    pub fn parse(name: &str) -> Option<EventKind> {
        [
            EventKind::Plan,
            EventKind::Spawn,
            EventKind::Exit,
            EventKind::Stall,
            EventKind::Retry,
            EventKind::Reassign,
            EventKind::Steal,
            EventKind::Merge,
            EventKind::Analyze,
            EventKind::Complete,
            EventKind::Failed,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// One audit record: the decision plus whatever identifies its subject.
/// Run-level events (`plan`, `merge`, `complete`, `failed`) carry no
/// task/csv; task-level events carry all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestrateEvent {
    /// What happened.
    pub kind: EventKind,
    /// The task id, for task-level events.
    pub task: Option<usize>,
    /// The fragment CSV file name (not the full path — the log lives in
    /// the same directory).
    pub csv: Option<String>,
    /// The task's cell range at the time of the event.
    pub cells: Option<Range<usize>>,
    /// The invocation number (1-based), for spawn/exit/retry events.
    pub attempt: Option<u32>,
    /// Free-text context (error text, split point, merge totals).
    pub detail: Option<String>,
}

impl OrchestrateEvent {
    /// A run-level event with only a detail string.
    pub fn run_level(kind: EventKind, detail: impl Into<String>) -> OrchestrateEvent {
        OrchestrateEvent {
            kind,
            task: None,
            csv: None,
            cells: None,
            attempt: None,
            detail: Some(detail.into()),
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\": {}, \"event\": {}",
            quote(ORCHESTRATE_SCHEMA),
            quote(self.kind.name()),
        );
        out.push_str(", \"task\": ");
        match self.task {
            Some(task) => out.push_str(&task.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"csv\": ");
        match &self.csv {
            Some(csv) => out.push_str(&quote(csv)),
            None => out.push_str("null"),
        }
        out.push_str(", \"cells\": ");
        match &self.cells {
            Some(cells) => out.push_str(&quote(&format!("{}..{}", cells.start, cells.end))),
            None => out.push_str("null"),
        }
        out.push_str(", \"attempt\": ");
        match self.attempt {
            Some(attempt) => out.push_str(&attempt.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"detail\": ");
        match &self.detail {
            Some(detail) => out.push_str(&quote(detail)),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Parses one JSON line previously written by
    /// [`to_json_line`](Self::to_json_line).
    pub fn parse(line: &str) -> Result<OrchestrateEvent, SpecError> {
        let bad = |m: &str| SpecError(format!("bad orchestrate event: {m}"));
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `schema`"))?;
        if schema != ORCHESTRATE_SCHEMA {
            return Err(bad(&format!(
                "schema `{schema}` (this build reads `{ORCHESTRATE_SCHEMA}`)"
            )));
        }
        let name = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `event`"))?;
        let kind = EventKind::parse(name).ok_or_else(|| bad(&format!("unknown event `{name}`")))?;
        let cells = match v.get("cells").and_then(Json::as_str) {
            None => None,
            Some(text) => Some(
                text.split_once("..")
                    .and_then(|(a, b)| {
                        let start: usize = a.parse().ok()?;
                        let end: usize = b.parse().ok()?;
                        (start <= end).then_some(start..end)
                    })
                    .ok_or_else(|| bad(&format!("bad `cells` range `{text}`")))?,
            ),
        };
        // A count must be a whole number in range: a cast would read -5
        // as 0 and 1e20 as `u32::MAX`.
        let count = |key: &str, max: f64| match v.get(key).and_then(Json::as_number) {
            None => Ok(None),
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= max => Ok(Some(n)),
            Some(n) => Err(bad(&format!(
                "`{key}` {n} is not a whole number in 0..={max}"
            ))),
        };
        Ok(OrchestrateEvent {
            kind,
            task: count("task", MAX_EXACT_JSON_INT)?.map(|n| n as usize),
            csv: v.get("csv").and_then(Json::as_str).map(str::to_string),
            cells,
            attempt: count("attempt", u32::MAX as f64)?.map(|n| n as u32),
            detail: v.get("detail").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Parses a whole log (one record per non-empty line, oldest first).
    pub fn parse_log(text: &str) -> Result<Vec<OrchestrateEvent>, SpecError> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(OrchestrateEvent::parse)
            .collect()
    }

    /// [`parse_log`](Self::parse_log) for readers of a *live* (or
    /// crashed) log: a line that does not parse — above all the torn
    /// final line a mid-append kill leaves — is skipped with a warning
    /// instead of failing the whole read. Tools that only observe
    /// (`scenarios watch`, `analyze`) must render the intact prefix; a
    /// torn audit line is evidence of a crash, not a reason to go
    /// blind.
    pub fn parse_log_tolerant(text: &str) -> (Vec<OrchestrateEvent>, Vec<String>) {
        parse_lines_tolerant(text, OrchestrateEvent::parse)
    }

    /// Appends this event to `dir`'s log. Best-effort durability is the
    /// supervisor's call; the writes themselves are single short
    /// appends (see [`crate::durable_io::append_line`]). `chaos` arms
    /// the `orchestrate_append` failpoint — the supervisor's write path
    /// under `--chaos`; pass [`green_chaos::NO_CHAOS`] for none.
    pub fn log(&self, dir: &Path, chaos: &ChaosRegistry) -> io::Result<()> {
        append_line(
            &orchestrate_log_path(dir),
            &self.to_json_line(),
            chaos,
            Failpoint::OrchestrateAppend,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_scratch::Scratch;
    use green_chaos::NO_CHAOS;

    #[test]
    fn every_kind_roundtrips_by_name() {
        for kind in [
            EventKind::Plan,
            EventKind::Spawn,
            EventKind::Exit,
            EventKind::Stall,
            EventKind::Retry,
            EventKind::Reassign,
            EventKind::Steal,
            EventKind::Merge,
            EventKind::Analyze,
            EventKind::Complete,
            EventKind::Failed,
        ] {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("restart"), None);
    }

    #[test]
    fn events_roundtrip_including_nulls() {
        let full = OrchestrateEvent {
            kind: EventKind::Steal,
            task: Some(2),
            csv: Some("frag-0002.csv".into()),
            cells: Some(40..100),
            attempt: Some(3),
            detail: Some("split at 70 -> task 5".into()),
        };
        assert_eq!(OrchestrateEvent::parse(&full.to_json_line()).unwrap(), full);
        let bare = OrchestrateEvent::run_level(EventKind::Complete, "ok");
        let line = bare.to_json_line();
        assert!(line.contains("\"task\": null"), "{line}");
        assert_eq!(OrchestrateEvent::parse(&line).unwrap(), bare);
    }

    #[test]
    fn parse_rejects_other_schemas_and_unknown_events() {
        let line = OrchestrateEvent::run_level(EventKind::Plan, "x").to_json_line();
        assert!(OrchestrateEvent::parse(&line.replace("green-orchestrate/1", "v9")).is_err());
        assert!(OrchestrateEvent::parse(&line.replace("\"plan\"", "\"warp\"")).is_err());
        assert!(OrchestrateEvent::parse("not json").is_err());
    }

    #[test]
    fn tolerant_parse_skips_the_torn_tail_with_a_warning() {
        let mut text = OrchestrateEvent::run_level(EventKind::Plan, "tasks=2").to_json_line();
        text.push('\n');
        // A mid-append kill: the final line stops mid-record.
        text.push_str("{\"schema\": \"green-orchestrate/1\", \"event\": \"spa");
        let (events, warnings) = OrchestrateEvent::parse_log_tolerant(&text);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Plan);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].starts_with("line 2: "), "{}", warnings[0]);
        // An intact log parses clean.
        let (_, none) = OrchestrateEvent::parse_log_tolerant(&events[0].to_json_line());
        assert!(none.is_empty());
    }

    #[test]
    fn log_appends_in_order() {
        let dir = Scratch::new("orchestrate-events");
        OrchestrateEvent::run_level(EventKind::Plan, "tasks=2")
            .log(&dir, &NO_CHAOS)
            .unwrap();
        OrchestrateEvent::run_level(EventKind::Complete, "ok")
            .log(&dir, &NO_CHAOS)
            .unwrap();
        let text = std::fs::read_to_string(orchestrate_log_path(&dir)).unwrap();
        let events = OrchestrateEvent::parse_log(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Plan);
        assert_eq!(events[1].kind, EventKind::Complete);
    }
}
