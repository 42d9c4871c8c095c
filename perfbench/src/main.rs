//! `green-perfbench --workload <repro|market|survey> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Runs one workload from the current directory (the repository root),
//! prints a report, and ends with one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced iteration
//! and the probes and reports the per-layer metrics. Scratch files go to
//! `.bench_scratch/` and are removed; spans and output digests are kept
//! in `.bench_out/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use green_bench::json::{quote, Json};
use green_bench::{peak_rss_mb, reset_peak_rss};
use green_perfbench::host::{CpuTimes, Host};
use green_perfbench::inputs::mix;
use green_perfbench::metrics::{result_line, s, Metrics};
use green_perfbench::spans::{layer_self_ns, Tracer, ROOT};
use green_perfbench::{
    secs, workload, Tally, Workload, WorkloadKind, END_TO_END, LAYERS, PER_LAYER, THREADS,
};
use green_perfmodel::stats::median;

const USAGE: &str =
    "usage: green-perfbench --workload <repro|market|survey> --seed <n> --seconds <n> --trace <0|1>";

/// Set-up stages timed per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Iterations an end-to-end run makes even when they overrun `--seconds`.
const MIN_ITERATIONS: usize = 3;

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let kind = value("--workload")?;
    let kind = WorkloadKind::parse(kind).ok_or_else(|| format!("unknown workload `{kind}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    let trace = number("--trace")?;
    if seconds == 0 || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".into());
    }
    Ok(Args {
        kind,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: trace == 1,
    })
}

/// What one benchmark run measured.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    digest: u64,
    report: Vec<String>,
    spans: Option<Tracer>,
}

/// Starts every iteration from the same state: dirty pages of earlier
/// iterations written back, so their writeback does not land inside this
/// one's fsyncs; and the allocator's free pages returned to the kernel,
/// so the RSS high-water mark starts from live memory — as it does in a
/// fresh `repro` or `scenarios` process.
fn quiesce() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn sync();
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `sync` and glibc's `malloc_trim` take no pointers;
        // `sync` only schedules and waits for writeback, and
        // `malloc_trim` only releases memory the allocator holds free.
        // Both are safe to call at any time from any thread.
        unsafe {
            sync();
            malloc_trim(0);
        }
    }
}

/// Untraced run: the set-up stage `SETUP_REPEATS` times, then iterations
/// until the next one would end past `seconds`; medians of both.
fn end_to_end(w: &mut dyn Workload, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let setup = w.setup();
        tally.absorb(setup.tally);
        setups.push(setup.total_s);
    }
    let (mut walls, mut rates, mut peaks, mut digests) = (vec![], vec![], vec![], vec![]);
    let mut report = Vec::new();
    let start = Instant::now();
    loop {
        quiesce();
        reset_peak_rss();
        let cpu = CpuTimes::now();
        let it = w.iterate(&mut Tracer::disabled());
        let peak = peak_rss_mb().unwrap_or(0.0);
        let steal = cpu.steal_share(&CpuTimes::now());
        let rate = if it.exec_s > 0.0 {
            it.cells as f64 / it.exec_s
        } else {
            0.0
        };
        report.push(format!(
            "iteration {}: wall_s {:.4} exec_s {:.4} cells {} peak_rss_mb {:.1} steal {:.3} \
             digest {:016x}",
            walls.len(),
            it.wall_s,
            it.exec_s,
            it.cells,
            peak,
            steal,
            it.digest
        ));
        tally.absorb(it.tally);
        walls.push(it.wall_s);
        rates.push(rate);
        peaks.push(peak);
        digests.push(it.digest);
        if walls.len() >= MIN_ITERATIONS && secs(start) + median(&walls) > seconds {
            break;
        }
    }
    tally.check(
        digests.iter().all(|d| *d == digests[0]),
        "every iteration reproduces the first one's outputs",
    );
    let mut metrics = Metrics::default();
    let values = [
        median(&walls),
        median(&setups),
        median(&rates),
        median(&peaks),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        metrics.set(name, value, unit);
    }
    report.push(format!(
        "set-up stages (s): {}",
        setups
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Outcome {
        metrics,
        tally,
        digest: digests[0],
        report,
        spans: None,
    }
}

/// Traced run: one set-up stage, then the same iteration untraced,
/// traced and untraced again (the traced one's overhead is taken against
/// the mean of the two around it), then the probes.
fn traced(w: &mut dyn Workload, trace_id: u64) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let setup = w.setup();
    tally.absorb(setup.tally);
    quiesce();
    let plain = w.iterate(&mut Tracer::disabled());
    tally.absorb(plain.tally);
    let mut tracer = Tracer::new(trace_id);
    quiesce();
    let traced = w.iterate(&mut tracer);
    tally.absorb(traced.tally);
    quiesce();
    let after = w.iterate(&mut Tracer::disabled());
    tally.absorb(after.tally);
    tally.check(
        traced.digest == plain.digest && after.digest == plain.digest,
        "the traced iteration reproduces the untraced outputs",
    );
    let untraced_wall_s = (plain.wall_s + after.wall_s) / 2.0;
    // Untraced figures win where both iterations report one; the
    // recorder's phases and counters exist only in the traced one.
    metrics.extend(&setup.layers);
    metrics.extend(&traced.layers);
    metrics.extend(&after.layers);

    let spans = tracer.spans();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == ROOT)
        .expect("the traced iteration opens its root span");
    let layers = layer_self_ns(spans, root.id);
    let wall_ns = root.duration_ns();
    tally.check(
        layers.values().sum::<u64>() == wall_ns,
        "layer self times and the unattributed rest add up to the traced wall_s",
    );
    tally.check(
        layers
            .keys()
            .all(|k| k == ROOT || LAYERS.contains(&k.as_str())),
        "every span belongs to a known layer",
    );
    let mut report = vec![format!("{:<12} {:>10} {:>7}", "layer", "self_s", "share")];
    let mut row = |name: &str, ns: u64| {
        report.push(format!(
            "{name:<12} {:>10.4} {:>6.1}%",
            s(ns),
            100.0 * ns as f64 / wall_ns.max(1) as f64
        ))
    };
    for layer in LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0);
        metrics.set(&format!("{layer}.self_s"), s(ns), "s");
        row(layer, ns);
    }
    let unattributed = layers.get(ROOT).copied().unwrap_or(0);
    row("unattributed", unattributed);
    row("wall_s", wall_ns);
    metrics.set("trace.unattributed_s", s(unattributed), "s");
    metrics.set("trace.wall_s", s(wall_ns), "s");
    metrics.set("trace.overhead_x", s(wall_ns) / untraced_wall_s, "x");
    report.push(format!(
        "untraced wall_s {:.4} and {:.4}, traced wall_s {:.4}",
        plain.wall_s,
        after.wall_s,
        s(wall_ns)
    ));

    w.probes(&after, &mut metrics, &mut tally);
    Outcome {
        metrics,
        tally,
        digest: plain.digest,
        report,
        spans: Some(tracer),
    }
}

/// Identifies this build of the benchmark: its executable's size and
/// modification time. Outputs may change between builds, never within
/// one.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{modified}", m.len())
        })
        .unwrap_or_default()
}

/// Records this run's output digest in `ledger` and checks it against
/// earlier runs of the same workload by the same build: the same seed
/// must give the same digest, another seed another one.
fn check_digest(ledger: &Path, kind: WorkloadKind, seed: u64, digest: u64, tally: &mut Tally) {
    let digest = format!("{digest:016x}");
    let seed = seed.to_string();
    let build = build_id();
    let text = std::fs::read_to_string(ledger).unwrap_or_default();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let Ok(record) = Json::parse(line) else {
            continue;
        };
        let field = |k: &str| record.get(k).and_then(Json::as_str).map(str::to_string);
        let this = field("workload").as_deref() == Some(kind.name())
            && field("build").as_deref() == Some(build.as_str());
        if let (true, Some(s), Some(d)) = (this, field("seed"), field("digest")) {
            seen.insert(s, d);
        }
    }
    if let Some(earlier) = seen.get(&seed) {
        tally.check(*earlier == digest, "a seed reproduces its earlier outputs");
    }
    tally.check(
        !seen.iter().any(|(s, d)| *s != seed && *d == digest),
        "different seeds give different outputs",
    );
    if !seen.contains_key(&seed) {
        let line = format!(
            "{{\"workload\": {}, \"build\": {}, \"seed\": {}, \"digest\": {}}}\n",
            quote(kind.name()),
            quote(&build),
            quote(&seed),
            quote(&digest)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ledger)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot record the digest in {}: {e}", ledger.display());
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every worker pool, rayon's included, runs THREADS workers on any
    // host; set before the first thread starts.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());

    let out_dir = PathBuf::from(".bench_out");
    let scratch = PathBuf::from(".bench_scratch").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("cannot create the scratch directories: {e}");
        return ExitCode::from(1);
    }
    let host = Host::probe(&scratch);
    let cpu = CpuTimes::now();
    let mut w = workload(args.kind, args.seed, scratch.clone());
    let trace_id = mix(args.seed ^ u64::from(std::process::id()) ^ mix(cpu.total));
    let mut outcome = if args.trace {
        traced(&mut *w, trace_id)
    } else {
        end_to_end(&mut *w, args.seconds)
    };
    drop(w);
    let steal = cpu.steal_share(&CpuTimes::now());
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    check_digest(
        &out_dir.join("digests.jsonl"),
        args.kind,
        args.seed,
        outcome.digest,
        &mut outcome.tally,
    );

    let mut metrics = Metrics::default();
    if args.trace {
        outcome
            .metrics
            .set("host.cores", host.cores as f64, "count");
        outcome.metrics.set("host.steal_share", steal, "share");
        for (name, unit) in PER_LAYER {
            metrics.set(name, outcome.metrics.get(name).unwrap_or(0.0), unit);
        }
        if let Some(tracer) = &outcome.spans {
            let path = out_dir.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
            if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    } else {
        metrics = outcome.metrics.clone();
    }

    println!(
        "workload {} seed {} trace {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json(steal));
    if host.cores < THREADS {
        println!(
            "warning: {} core(s) for {THREADS} workers; no scaling result",
            host.cores
        );
    }
    for line in &outcome.report {
        println!("{line}");
    }
    for m in &metrics.0 {
        println!(
            "{:<28} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    let Tally { attempted, failed } = outcome.tally;
    println!(
        "digest {:016x} error_rate {}",
        outcome.digest,
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        result_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
