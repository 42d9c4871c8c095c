//! Machine-readable perf reports and the CI regression gate.
//!
//! A [`PerfReport`] is what the `green-perf` binary emits: per-bench
//! **deterministic work counters** (events processed, cells executed,
//! realizations built — quantities that cannot vary between runs of the
//! same code) alongside wall-clock milliseconds and derived rates.
//!
//! The gate ([`PerfReport::compare`]) treats the two kinds of numbers
//! differently, because CI runners are noisy but work counts are not:
//!
//! * a counter drifting beyond ±20 % ([`TOLERANCE`]) of the committed
//!   baseline **fails** — the code started doing measurably more (or
//!   different) work, e.g. a cache stopped deduplicating realizations —
//!   and so does a bench or counter that only one side reports;
//! * wall time, peak RSS and phase times growing past 2× only **warn** —
//!   a shared GitHub runner can be 2× slower for reasons that have
//!   nothing to do with the diff.
//!
//! [`PerfReport::compare`] walks both reports once into a [`Comparison`]
//! of rows, and everything the gate prints reads those rows.
//!
//! The JSON codec is deliberately minimal (flat schema, no escapes
//! beyond the basics), so the repository needs no serialization crate.

use std::fmt::Write as _;

use crate::json::{fmt_num, quote, Json};

/// One benchmark's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBench {
    /// Bench name (`sim_year`, `attribution`, `sweep_grid`, …).
    pub name: String,
    /// Wall-clock time of the measured section, milliseconds.
    pub wall_ms: f64,
    /// Process peak RSS (high-water mark) sampled when the bench
    /// finished, in MiB. Best-effort: read from `/proc/self/status` on
    /// Linux, `None` elsewhere; runners that can reset the high-water
    /// mark between benches (Linux `/proc/self/clear_refs`) make this
    /// approximate the bench's *own* peak rather than the process
    /// lifetime's. Like wall time it is machine-dependent, so the gate
    /// only warns on drift — but it makes allocation regressions (a
    /// broken arena, a cache that stopped sharing) visible in the
    /// committed baseline.
    pub peak_rss_mb: Option<f64>,
    /// Deterministic work counters (name → count). Run-to-run stable on
    /// identical code; the gate fails when they drift.
    pub counters: Vec<(String, f64)>,
    /// Per-phase wall-time attribution (phase name → milliseconds),
    /// present for the benches that run under a recorder. Wall-clock
    /// derived, so the gate treats drift as warn-only — the counters
    /// already gate the work itself.
    pub phases: Vec<(String, f64)>,
    /// Derived throughput rates (name → per-second value). Reported for
    /// humans; the gate ignores them.
    pub rates: Vec<(String, f64)>,
}

/// The process's peak resident set size in MiB, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or when the field is
/// unavailable — callers treat the value as advisory either way.
pub fn peak_rss_mb() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resets the process's RSS high-water mark (`VmHWM`) so the next
/// [`peak_rss_mb`] read approximates the peak of the work that follows
/// rather than the process lifetime's. Linux only (`echo 5 >
/// /proc/self/clear_refs`); returns whether the kernel accepted the
/// reset, `false` elsewhere or without permission — callers treat the
/// whole mechanism as best-effort.
///
/// Benches that run back to back in one process **must** call this
/// before starting their measured section, not rely on an earlier
/// bench having done so: a multi-threaded bench's worker pool keeps
/// touching pages until its scope joins, so a reset issued before the
/// *previous* bench still carries that bench's high-water mark into
/// this one's reading.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// What a report ran on, so a single-core or heavily stolen run is never
/// read as a scaling result or a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Cores this process may run on.
    pub cores: usize,
    /// Share of all CPU time the hypervisor stole while the suite ran
    /// (`/proc/stat`); `None` where that file is unreadable.
    pub steal_share: Option<f64>,
}

impl Host {
    /// Runs `suite` and records the host it ran on.
    pub fn during<T>(suite: impl FnOnce() -> T) -> (T, Host) {
        let before = cpu_ticks();
        let result = suite();
        let steal_share = before
            .zip(cpu_ticks())
            .map(|((total0, steal0), (total, steal))| {
                let total = total.saturating_sub(total0);
                if total == 0 {
                    0.0
                } else {
                    steal.saturating_sub(steal0) as f64 / total as f64
                }
            });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (result, Host { cores, steal_share })
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.steal_share {
            Some(steal) => write!(f, "{} cores, {:.1} % CPU steal", self.cores, 100.0 * steal),
            None => write!(f, "{} cores, CPU steal unknown", self.cores),
        }
    }
}

/// All and stolen CPU ticks from the aggregate `cpu` line of
/// `/proc/stat` (`cpu user nice system idle iowait irq softirq steal
/// …`); `None` where the file is unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// A full perf-suite report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfReport {
    /// The host the suite ran on; `None` in reports written before
    /// reports recorded it.
    pub host: Option<Host>,
    /// One entry per bench, in suite order.
    pub benches: Vec<PerfBench>,
}

/// Allowed drift of a gated counter against its baseline: ±20 %.
pub const TOLERANCE: f64 = 0.20;

/// Growth past which a warn-only metric warns: +100 %, i.e. 2× the
/// baseline.
const WARN_GROWTH: f64 = 1.00;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within bounds.
    Ok,
    /// A warn-only metric grew past 2× or is missing from the run.
    Warn,
    /// A counter drifted past [`TOLERANCE`], or a bench or counter is
    /// missing from one side.
    Fail,
}

/// One (bench, metric) row of a [`Comparison`]: both sides' values and
/// the verdict on them. Its [`Display`](std::fmt::Display) is the
/// row's `FAIL:` or `warning:` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    bench: String,
    /// A counter's name, `wall_ms`, `peak_rss_mb` or `phase:<name>`;
    /// `None` for a whole bench that one side lacks.
    metric: Option<String>,
    /// The baseline's and the run's value, or the side that lacks the
    /// metric: `"baseline"` or `"current run"`.
    values: Result<(f64, f64), &'static str>,
    /// Counters and whole benches gate; wall time, peak RSS and phases
    /// only warn.
    gated: bool,
    /// Worked out from the three above when the row is made.
    verdict: Verdict,
}

impl Row {
    fn new(
        bench: &str,
        metric: Option<String>,
        gated: bool,
        values: Result<(f64, f64), &'static str>,
    ) -> Row {
        let verdict = match (values, gated) {
            (Ok((base, now)), true) if drift(now, base).abs() > TOLERANCE => Verdict::Fail,
            (Ok((base, now)), false) if drift(now, base) > WARN_GROWTH => Verdict::Warn,
            (Ok(_), _) => Verdict::Ok,
            (Err(_), true) => Verdict::Fail,
            (Err(_), false) => Verdict::Warn,
        };
        Row {
            bench: bench.to_string(),
            metric,
            values,
            gated,
            verdict,
        }
    }

    /// `bench.metric`, or the bench alone for a whole-bench row: the
    /// name a failing gate lists.
    pub fn name(&self) -> String {
        match &self.metric {
            Some(metric) => format!("{}.{metric}", self.bench),
            None => self.bench.clone(),
        }
    }

    /// The row's line in the drift table.
    fn markdown(&self) -> String {
        let mut verdict = match self.verdict {
            Verdict::Fail => "**FAIL**",
            Verdict::Warn => "warn",
            Verdict::Ok if self.gated => "ok",
            Verdict::Ok => "ok (warn-only)",
        }
        .to_string();
        let (base, now, change) = match self.values {
            Ok((base, now)) => (
                fmt_num(base),
                fmt_num(now),
                format!("{:+.1}%", 100.0 * drift(now, base)),
            ),
            Err(side) => {
                let what = match (&self.metric, self.gated) {
                    (None, _) => "bench",
                    (Some(_), true) => "counter",
                    (Some(_), false) => "phase",
                };
                verdict = format!("{verdict} ({what} missing from {side})");
                ("—".into(), "—".into(), "—".into())
            }
        };
        format!(
            "| {} | {} | {base} | {now} | {change} | {verdict} |",
            escape_cell(&self.bench),
            escape_cell(self.metric.as_deref().unwrap_or("—")),
        )
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = self.name();
        match self.values {
            Ok((base, now)) => write!(
                f,
                "{name} {:+.1}% (baseline {}, now {})",
                100.0 * drift(now, base),
                fmt_num(base),
                fmt_num(now)
            )?,
            Err(side) => write!(f, "{name} missing from the {side}")?,
        }
        if !self.gated {
            f.write_str(" — warn-only")?;
        }
        Ok(())
    }
}

/// The gate's verdict on a run against a baseline, one [`Row`] per
/// (bench, metric). The exit status, the `FAIL:` and `warning:` lines,
/// the failing names and the drift table all read these rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Each baseline bench's rows in baseline order, then a row for each
    /// bench only the run reports.
    rows: Vec<Row>,
}

impl Comparison {
    /// True when no row fails.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }

    /// The rows that fail the gate.
    pub fn failures(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Fail)
    }

    /// The rows that warn.
    pub fn warnings(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Warn)
    }

    /// The rows as a GitHub-flavoured markdown drift table: bench,
    /// metric, both values, signed drift and verdict. CI writes it into
    /// the job summary, so a failing gate names its rows at a glance.
    pub fn drift_table(&self) -> String {
        let mut out = String::from(
            "| bench | metric | baseline | current | drift | verdict |\n\
             |---|---|---:|---:|---:|---|\n",
        );
        for row in &self.rows {
            out.push_str(&row.markdown());
            out.push('\n');
        }
        out
    }
}

impl PerfReport {
    /// Looks a bench up by name.
    pub fn bench(&self, name: &str) -> Option<&PerfBench> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Serializes the report as stable, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"green-perf/1\",\n");
        if let Some(host) = &self.host {
            let steal = host
                .steal_share
                .map(|v| format!(", \"steal_share\": {v:.4}"))
                .unwrap_or_default();
            let _ = writeln!(out, "  \"host\": {{\"cores\": {}{steal}}},", host.cores);
        }
        out.push_str("  \"benches\": {\n");
        for (i, bench) in self.benches.iter().enumerate() {
            let _ = writeln!(out, "    {}: {{", quote(&bench.name));
            let _ = writeln!(out, "      \"wall_ms\": {},", fmt_num(bench.wall_ms));
            if let Some(rss) = bench.peak_rss_mb {
                let _ = writeln!(out, "      \"peak_rss_mb\": {},", fmt_num(rss));
            }
            let _ = writeln!(out, "      \"counters\": {{{}}},", pairs(&bench.counters));
            if !bench.phases.is_empty() {
                let _ = writeln!(out, "      \"phases\": {{{}}},", pairs(&bench.phases));
            }
            let _ = writeln!(out, "      \"rates\": {{{}}}", pairs(&bench.rates));
            out.push_str("    }");
            out.push_str(if i + 1 < self.benches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`to_json`](Self::to_json)
    /// (or hand-edited to the same flat schema).
    pub fn parse(text: &str) -> Result<PerfReport, String> {
        let root = Json::parse(text)?;
        let host = match root.get("host") {
            None => None,
            Some(host) => {
                let number = |key: &str| host.get(key).and_then(Json::as_number);
                let cores = number("cores")
                    .filter(|n| *n >= 1.0 && n.fract() == 0.0)
                    .ok_or("`host.cores` must be a positive integer")?;
                Some(Host {
                    cores: cores as usize,
                    steal_share: number("steal_share"),
                })
            }
        };
        let benches = root
            .get("benches")
            .ok_or("missing `benches` object")?
            .as_object()
            .ok_or("`benches` must be an object")?;
        let mut report = PerfReport {
            host,
            benches: Vec::new(),
        };
        for (name, body) in benches {
            let body = body.as_object().ok_or("bench body must be an object")?;
            let wall_ms = body
                .iter()
                .find(|(k, _)| k == "wall_ms")
                .and_then(|(_, v)| v.as_number())
                .ok_or_else(|| format!("bench `{name}` missing numeric `wall_ms`"))?;
            let numbers = |key: &str| -> Result<Vec<(String, f64)>, String> {
                let Some((_, v)) = body.iter().find(|(k, _)| k == key) else {
                    return Ok(Vec::new());
                };
                let obj = v
                    .as_object()
                    .ok_or_else(|| format!("bench `{name}`: `{key}` must be an object"))?;
                obj.iter()
                    .map(|(k, v)| {
                        v.as_number()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("bench `{name}`: `{key}.{k}` must be a number"))
                    })
                    .collect()
            };
            report.benches.push(PerfBench {
                name: name.clone(),
                wall_ms,
                peak_rss_mb: body
                    .iter()
                    .find(|(k, _)| k == "peak_rss_mb")
                    .and_then(|(_, v)| v.as_number()),
                counters: numbers("counters")?,
                phases: numbers("phases")?,
                rates: numbers("rates")?,
            });
        }
        Ok(report)
    }

    /// Gates `self` (the current run) against `baseline` in one walk
    /// over both. Every counter either side reports is gated at
    /// [`TOLERANCE`] and fails when the other side lacks it, and so does
    /// a whole bench; wall time, peak RSS (where both sides record it)
    /// and the baseline's phases warn past 2×, and a phase missing from
    /// the run warns.
    pub fn compare(&self, baseline: &PerfReport) -> Comparison {
        let value = |items: &[(String, f64)], key: &str| {
            items.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
        };
        let mut rows = Vec::new();
        for base in &baseline.benches {
            let bench = base.name.as_str();
            let Some(now) = self.bench(bench) else {
                rows.push(Row::new(bench, None, true, Err("current run")));
                continue;
            };
            for (counter, expected) in &base.counters {
                let values = value(&now.counters, counter).map(|actual| (*expected, actual));
                rows.push(Row::new(
                    bench,
                    Some(counter.clone()),
                    true,
                    values.ok_or("current run"),
                ));
            }
            for (counter, _) in &now.counters {
                if value(&base.counters, counter).is_none() {
                    rows.push(Row::new(
                        bench,
                        Some(counter.clone()),
                        true,
                        Err("baseline"),
                    ));
                }
            }
            let wall = Ok((base.wall_ms, now.wall_ms));
            rows.push(Row::new(bench, Some("wall_ms".into()), false, wall));
            if let (Some(expected), Some(actual)) = (base.peak_rss_mb, now.peak_rss_mb) {
                rows.push(Row::new(
                    bench,
                    Some("peak_rss_mb".into()),
                    false,
                    Ok((expected, actual)),
                ));
            }
            for (phase, expected) in &base.phases {
                let values = value(&now.phases, phase).map(|actual| (*expected, actual));
                let metric = Some(format!("phase:{phase}"));
                rows.push(Row::new(bench, metric, false, values.ok_or("current run")));
            }
        }
        for now in &self.benches {
            if baseline.bench(&now.name).is_none() {
                rows.push(Row::new(&now.name, None, true, Err("baseline")));
            }
        }
        Comparison { rows }
    }

    /// The hosts of this run and of `baseline`, one line, for the head
    /// of the drift table.
    pub fn host_summary(&self, baseline: &PerfReport) -> String {
        let describe = |host: Option<Host>| host.map_or("not recorded".into(), |h| h.to_string());
        format!(
            "Host: {} (baseline: {})",
            describe(self.host),
            describe(baseline.host)
        )
    }
}

/// Escapes a value for a GitHub-flavoured-markdown table cell: `|`
/// would end the cell and a newline the row, so a counter named after,
/// say, a filter expression can't silently shear the drift table.
fn escape_cell(s: &str) -> String {
    s.replace('|', "\\|").replace(['\n', '\r'], " ")
}

/// Drift of `now` relative to the baseline's `base`, signed, so "±20 %"
/// means what it says: +21 % growth and −21 % shrinkage both trip the
/// tolerance. A value appearing where the baseline had zero is
/// effectively infinite drift (the baseline must be regenerated
/// alongside such a change).
fn drift(now: f64, base: f64) -> f64 {
    if now == base {
        return 0.0;
    }
    (now - base) / base.abs().max(1e-12)
}

fn pairs(items: &[(String, f64)]) -> String {
    items
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), fmt_num(*v)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `FAIL:` or `warning:` lines of `rows`.
    fn lines<'a>(rows: impl Iterator<Item = &'a Row>) -> Vec<String> {
        rows.map(Row::to_string).collect()
    }

    fn report() -> PerfReport {
        PerfReport {
            host: None,
            benches: vec![
                PerfBench {
                    name: "sim_year".into(),
                    wall_ms: 123.456,
                    peak_rss_mb: Some(512.25),
                    counters: vec![("events".into(), 108000.0), ("jobs".into(), 54000.0)],
                    phases: vec![("schedule".into(), 80.0), ("events".into(), 40.0)],
                    rates: vec![("events_per_s".into(), 874912.252)],
                },
                PerfBench {
                    name: "sweep_grid".into(),
                    wall_ms: 250.0,
                    peak_rss_mb: None,
                    counters: vec![("cells".into(), 36.0)],
                    phases: vec![],
                    rates: vec![],
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report();
        let parsed = PerfReport::parse(&r.to_json()).expect("own output parses");
        assert_eq!(parsed.benches.len(), 2);
        assert_eq!(parsed.bench("sim_year").unwrap().counters[0].1, 108000.0);
        assert!((parsed.bench("sim_year").unwrap().wall_ms - 123.456).abs() < 1e-9);
        assert!((parsed.bench("sim_year").unwrap().rates[0].1 - 874912.252).abs() < 1e-9);
        assert_eq!(parsed.bench("sweep_grid").unwrap().counters[0].1, 36.0);
        // Peak RSS survives the roundtrip where present and stays absent
        // where it was unavailable.
        assert_eq!(parsed.bench("sim_year").unwrap().peak_rss_mb, Some(512.25));
        assert_eq!(parsed.bench("sweep_grid").unwrap().peak_rss_mb, None);
    }

    /// The host record roundtrips, with or without a steal share, and a
    /// report without one (every baseline before it) parses to `None`
    /// and writes no `host` object.
    #[test]
    fn host_roundtrips_and_stays_optional() {
        for steal_share in [Some(0.0123), None] {
            let mut r = report();
            r.host = Some(Host {
                cores: 2,
                steal_share,
            });
            let parsed = PerfReport::parse(&r.to_json()).expect("own output parses");
            assert_eq!(parsed, r);
        }
        let r = report();
        assert!(!r.to_json().contains("\"host\""));
        assert_eq!(PerfReport::parse(&r.to_json()).unwrap().host, None);
        assert!(PerfReport::parse("{\"host\": {\"cores\": 0}, \"benches\": {}}").is_err());
        let mut current = report();
        current.host = Some(Host {
            cores: 2,
            steal_share: Some(0.05),
        });
        assert_eq!(
            current.host_summary(&report()),
            "Host: 2 cores, 5.0 % CPU steal (baseline: not recorded)"
        );
    }

    /// The committed baseline predates the host record and still parses.
    #[test]
    fn baseline_without_a_host_parses() {
        let baseline = PerfReport::parse(include_str!("../../../BENCH_11.json")).unwrap();
        assert_eq!(baseline.host, None);
        assert!(!baseline.benches.is_empty());
    }

    /// `Host::during` records this process's cores and, where
    /// `/proc/stat` is readable, a steal share between 0 and 1.
    #[test]
    fn host_during_records_cores_and_steal() {
        let (value, host) = Host::during(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(host.cores >= 1);
        if let Some(steal) = host.steal_share {
            assert!((0.0..=1.0).contains(&steal), "{steal}");
        }
        assert_eq!(cpu_ticks().is_some(), host.steal_share.is_some());
    }

    #[test]
    fn rss_growth_only_warns() {
        let mut current = report();
        current.benches[0].peak_rss_mb = Some(512.25 * 4.0);
        let cmp = current.compare(&report());
        assert!(cmp.passed(), "RSS must never fail the gate");
        let warnings = lines(cmp.warnings());
        assert!(
            warnings.iter().any(|w| w.contains("peak_rss_mb")),
            "{warnings:?}"
        );
        // A bench without RSS on either side warns about nothing.
        let cmp = report().compare(&report());
        assert!(lines(cmp.warnings()).is_empty());
    }

    #[test]
    fn markdown_table_names_offending_counters() {
        let mut current = report();
        current.benches[0].counters[0].1 *= 1.5; // events +50%: FAIL
        current.benches[0].wall_ms *= 3.0; // wall: warn-only
        let table = current.compare(&report()).drift_table();
        let events_row = table
            .lines()
            .find(|l| l.contains("| events |"))
            .expect("events row present");
        assert!(events_row.contains("**FAIL**"), "{events_row}");
        assert!(events_row.contains("+50.0%"), "{events_row}");
        let wall_row = table
            .lines()
            .find(|l| l.contains("| sim_year | wall_ms |"))
            .expect("wall row present");
        assert!(wall_row.contains("warn"), "{wall_row}");
        assert!(!wall_row.contains("FAIL"), "{wall_row}");
        // Verdicts mirror the gate: a wall *improvement* (or growth
        // inside 2×) is not a warning, even when it exceeds the much
        // tighter counter tolerance.
        let mut faster = report();
        faster.benches[0].wall_ms *= 0.5;
        faster.benches[1].wall_ms *= 1.4; // +40% < +100%
        let table = faster.compare(&report()).drift_table();
        for line in table.lines().filter(|l| l.contains("| wall_ms |")) {
            assert!(line.contains("ok (warn-only)"), "{line}");
        }
        let jobs_row = table
            .lines()
            .find(|l| l.contains("| jobs |"))
            .expect("jobs row present");
        assert!(jobs_row.contains("| ok |"), "{jobs_row}");
        // Peak RSS appears as a warn-only row when both sides report it.
        assert!(table.contains("| peak_rss_mb |"), "{table}");
    }

    #[test]
    fn local_peak_rss_is_sane_on_linux() {
        if let Some(rss) = peak_rss_mb() {
            // The test binary plainly uses more than 1 MB and (sanity
            // bound) less than a terabyte.
            assert!(rss > 1.0 && rss < 1e6, "implausible peak RSS {rss}");
        }
    }

    #[test]
    fn reset_peak_rss_drops_the_high_water_mark() {
        // Non-Linux (or a kernel refusing clear_refs) makes the whole
        // mechanism a documented no-op — nothing to regress.
        if peak_rss_mb().is_none() {
            return;
        }
        // Inflate the high-water mark well above steady state with a
        // touched (page-resident) buffer, then free it.
        let mut buffer = vec![0u8; 192 << 20];
        for i in (0..buffer.len()).step_by(4096) {
            buffer[i] = 1;
        }
        std::hint::black_box(&buffer);
        drop(buffer);
        let inflated = peak_rss_mb().expect("linux path");
        assert!(inflated > 150.0, "buffer never became resident");
        if !reset_peak_rss() {
            return; // best-effort: no permission to clear_refs here
        }
        let after = peak_rss_mb().expect("linux path");
        assert!(
            after < inflated - 100.0,
            "reset must drop the high-water mark below the freed \
             buffer's peak (before {inflated:.0} MB, after {after:.0} MB) — \
             a bench measured after this reset would inherit its \
             predecessor's allocations"
        );
    }

    #[test]
    fn equal_reports_pass_the_gate() {
        let cmp = report().compare(&report());
        assert!(cmp.passed());
        assert!(lines(cmp.warnings()).is_empty());
    }

    #[test]
    fn counter_drift_fails_both_directions() {
        let mut current = report();
        current.benches[0].counters[0].1 *= 1.21; // +21% work
        let cmp = current.compare(&report());
        assert!(!cmp.passed(), "tolerance is baseline-relative");
        let failures = lines(cmp.failures());
        assert!(failures[0].contains("events"), "{failures:?}");

        let mut current = report();
        current.benches[1].counters[0].1 = 10.0; // grid shrank
        let cmp = current.compare(&report());
        assert!(!cmp.passed(), "shrunk workloads must fail too");
    }

    #[test]
    fn counters_appearing_from_zero_fail() {
        let mut baseline = report();
        baseline.benches[1]
            .counters
            .push(("price_tables".into(), 0.0));
        assert!(baseline.compare(&baseline).passed(), "0 == 0 passes");
        let mut current = baseline.clone();
        current.benches[1].counters[1].1 = 4.0;
        assert!(
            !current.compare(&baseline).passed(),
            "0 → 4 must force a baseline regeneration"
        );
    }

    #[test]
    fn wall_time_only_warns() {
        let mut current = report();
        current.benches[0].wall_ms *= 3.0;
        let cmp = current.compare(&report());
        assert!(cmp.passed(), "wall noise must not fail the gate");
        let warnings = lines(cmp.warnings());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("warn-only"));
    }

    #[test]
    fn missing_bench_fails() {
        let current = PerfReport::default();
        let cmp = current.compare(&report());
        assert_eq!(cmp.failures().count(), 2);
    }

    #[test]
    fn a_bench_or_counter_missing_from_the_baseline_fails() {
        let mut baseline = report();
        baseline.benches[0].counters.remove(0);
        let cmp = report().compare(&baseline);
        assert!(!cmp.passed(), "an ungated counter must fail");
        assert_eq!(
            cmp.failures().map(Row::name).collect::<Vec<_>>(),
            ["sim_year.events"]
        );
        let failures = lines(cmp.failures());
        assert!(
            failures[0].contains("missing from the baseline"),
            "{failures:?}"
        );

        let mut baseline = report();
        baseline.benches.remove(1);
        let cmp = report().compare(&baseline);
        assert!(!cmp.passed(), "an ungated bench must fail");
        assert_eq!(
            cmp.failures().map(Row::name).collect::<Vec<_>>(),
            ["sweep_grid"]
        );

        let table = cmp.drift_table();
        assert!(
            table.contains(
                "| sweep_grid | — | — | — | — | **FAIL** (bench missing from baseline) |"
            ),
            "{table}"
        );
    }

    #[test]
    fn within_tolerance_drift_passes() {
        let mut current = report();
        current.benches[0].counters[0].1 *= 1.1; // +10% < 20%
        assert!(current.compare(&report()).passed());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(PerfReport::parse("not json").is_err());
        assert!(PerfReport::parse("{}").is_err(), "missing benches");
        assert!(PerfReport::parse("{\"benches\": 3}").is_err());
    }

    #[test]
    fn phases_roundtrip_and_only_warn() {
        let r = report();
        let parsed = PerfReport::parse(&r.to_json()).expect("own output parses");
        assert_eq!(
            parsed.bench("sim_year").unwrap().phases,
            r.benches[0].phases
        );
        // A bench with no phases serializes without a `phases` object,
        // keeping pre-phase baselines byte-compatible.
        assert!(!r.to_json().contains("\"phases\": {}"));

        let mut current = report();
        current.benches[0].phases[0].1 *= 3.0; // schedule phase 3× slower
        let cmp = current.compare(&report());
        assert!(cmp.passed(), "phase drift must never fail the gate");
        let warnings = lines(cmp.warnings());
        assert!(
            warnings.iter().any(|w| w.contains("phase:schedule")),
            "{warnings:?}"
        );
        // Phases show up in the drift table as warn-only rows.
        let table = cmp.drift_table();
        let row = table
            .lines()
            .find(|l| l.contains("| phase:schedule |"))
            .expect("phase row present");
        assert!(row.contains("warn"), "{row}");
        assert!(!row.contains("FAIL"), "{row}");
    }

    /// A phase the run does not report warns, and the drift table shows
    /// it as the same warn row; the gate still passes.
    #[test]
    fn a_phase_missing_from_the_run_warns_in_lines_and_table() {
        let mut current = report();
        current.benches[0].phases.remove(0);
        let cmp = current.compare(&report());
        assert!(cmp.passed(), "phases never fail the gate");
        assert_eq!(
            lines(cmp.warnings()),
            ["sim_year.phase:schedule missing from the current run — warn-only"]
        );
        let table = cmp.drift_table();
        assert!(
            table.contains(
                "| sim_year | phase:schedule | — | — | — | warn (phase missing from current run) |"
            ),
            "{table}"
        );
    }

    /// A counter renamed in the baseline fails on both sides, and the
    /// failing names list both.
    #[test]
    fn a_renamed_counter_fails_on_both_sides() {
        let mut baseline = report();
        baseline.benches[0].counters[1].0 = "jobs_x".into();
        let cmp = report().compare(&baseline);
        assert_eq!(
            cmp.failures().map(Row::name).collect::<Vec<_>>(),
            ["sim_year.jobs_x", "sim_year.jobs"]
        );
        assert_eq!(
            lines(cmp.failures()),
            [
                "sim_year.jobs_x missing from the current run",
                "sim_year.jobs missing from the baseline"
            ]
        );
    }

    #[test]
    fn markdown_escapes_pipes_and_newlines_in_names() {
        let mut baseline = report();
        baseline.benches[0]
            .counters
            .push(("odd|name\nsplit".into(), 7.0));
        let mut current = baseline.clone();
        current.benches[0].counters[2].1 = 700.0; // drifted: FAIL row
        let table = current.compare(&baseline).drift_table();
        let row = table
            .lines()
            .find(|l| l.contains("odd\\|name split"))
            .expect("escaped counter row present");
        assert!(row.contains("**FAIL**"), "{row}");
        // Every data row still has exactly 6 columns — the raw `|` and
        // newline would have sheared the table.
        for line in table.lines().skip(2) {
            assert_eq!(line.matches(" | ").count(), 5, "{line}");
        }
    }
}
