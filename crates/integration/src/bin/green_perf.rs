//! `green-perf` — the repository's perf suite, with a CI regression
//! gate.
//!
//! ```text
//! green-perf [--out <report.json>] [--check <baseline.json>]
//!            [--tolerance <rel>] [--wall-tolerance <rel>]
//!            [--summary <file.md>] [--only <substring>] [--quiet]
//! ```
//!
//! Runs these benches and emits a machine-readable JSON report
//! (`green_bench::perf` schema):
//!
//! * `sim_year` — the discrete-event simulator over the Table 5 fleet
//!   for three policies on a year of hourly grid data; counts events
//!   processed and jobs completed.
//! * `attribution` — per-job carbon attribution's O(1) prefix-summed
//!   window means, a year-scale trace, hundreds of thousands of window
//!   queries; counts queries.
//! * `sweep_grid` — the `examples/sweeps/sensitivity.toml` grid through
//!   the scenario engine (single-threaded, so cells/s is comparable
//!   across machines); counts cells, simulator events, realizations
//!   derived and price tables compiled — the counters that catch a
//!   broken structure-sharing cache.
//! * `orchestrate_mega` — the **full** million-cell mega grid under the
//!   fault-tolerant orchestrator ([`green_scenarios::orchestrate()`]) with
//!   four in-process workers (the deterministic `ThreadLauncher`: no
//!   kills, no steals), hash-verified and auto-merged: the repo's first
//!   multi-worker throughput number, measured on exactly the supervised
//!   path `scenarios orchestrate` runs. The `retries`/`steals` counters
//!   are zero-baseline tripwires — a deterministic run that recovers
//!   from anything is a scheduling bug.
//! * `analyze_mega` — `scenarios analyze` over the fragment directory
//!   the orchestrated mega run leaves behind (before cleanup): the
//!   default `policy,method` roll-up folded out-of-core from the shard
//!   manifests, reported as aggregate rows per second. The `rows` and
//!   `groups` counters pin the fold's coverage.
//! * `chaos_noop` — a 100,000-cell checkpointed shard through the
//!   default `NoopChaos` path (failpoint probes compiled away) and
//!   again with an armed-but-never-firing registry. The
//!   `faults_injected` counter is a hard zero gate, and the armed
//!   variant's relative wall cost reports warn-only — the
//!   disabled-path overhead claim of `docs/robustness.md`, measured.
//! * `scaling_paper_t{1,4,8,16}` / `scaling_mega_t{1,4,8,16}` — the
//!   scaling suite: the paper grid (8 heavy cells of the full
//!   142,380-job workload, in-memory) and a 100,000-cell shard (0/10) of
//!   the million-cell `examples/sweeps/mega_grid.toml` (streamed into a
//!   null sink through [`green_scenarios::SweepRunner::run_streamed_range`],
//!   the exact sharded path CI fans out) on 1/4/8/16 workers. The
//!   1-thread runs are the suite's paper-scale and survey-scale cells/s.
//!   Work counters are identical at every thread count — that
//!   invariance *is* the parallel determinism contract, and it
//!   hard-gates; the derived `speedup_x` and `efficiency` rates are
//!   core-count properties of the machine, so they report warn-only and
//!   only mean something on CI's multi-core runners (`--only scaling_`
//!   is the scaling job's entry point). A ladder runs only the rungs
//!   `--only` selects, plus its 1-thread rung as the speedup reference.
//!
//! Every bench also records the process peak RSS at completion
//! (best-effort, Linux `/proc/self/status`; the high-water mark is
//! reset before each bench where the platform allows) so allocation
//! regressions — a broken [`green_batchsim::SimArena`], a cache that
//! stopped sharing — show in the committed baseline. RSS and wall time
//! are warn-only.
//!
//! The report also records the host it ran on (`host`: the cores this
//! process may use and the share of CPU time stolen while the suite
//! ran, from `/proc/stat` where readable), and the drift table's header
//! names both runs' hosts, so a single-core or heavily stolen run is not
//! read as a scaling result. A baseline written before the host record
//! (`BENCH_11.json`) parses with the host unrecorded; no counter reads
//! it.
//!
//! The `release_work` counter (scheduler release-list entries examined
//! by backfill reservations) is a deliberate **tripwire**: on every
//! gated grid the binding constraint is the paper's
//! one-running-job-per-user rule, never core capacity, so its baseline
//! value is zero. Any change that makes reservation scans appear fails
//! the gate — by the same zero-baseline rule as `price_tables` — and
//! demands a deliberate baseline regeneration, because it means
//! scheduling behaviour itself changed.
//!
//! `--check` compares the run against a committed baseline
//! (`BENCH_11.json`, recorded with `--phases`; a check that selects a
//! bench whose baseline holds recorder counters exits 2 up front
//! without `--phases`): deterministic-counter drift beyond `--tolerance`
//! (default 0.20) **fails**, and the failure message names each
//! offending `bench.counter`; wall-time/RSS drift beyond
//! `--wall-tolerance` (default 1.00, i.e. 2× slower) only warns — CI
//! runners are noisy, work counts are not. `--summary` appends a
//! markdown drift table (every counter, wall and RSS row with its
//! verdict) to the given file — pointed at `$GITHUB_STEP_SUMMARY` in CI.

use std::time::Instant;

use green_batchsim::{intensity_for, run_cell_in_obs, PlacementTable, Policy, SimArena, SimConfig};
use green_bench::{peak_rss_mb, reset_peak_rss, Host, PerfBench, PerfReport};
use green_carbon::HourlyTrace;
use green_chaos::{ChaosRegistry, NoopChaos};
use green_machines::simulation_fleet;
use green_obs::{NoopRecorder, Recorder, StatsRecorder};
use green_perfmodel::CrossMachinePredictor;
use green_scenarios::{
    analyze_dir, orchestrate, run_shard, AnalyzeQuery, OrchestrateConfig, Shard, ShardAssignment,
    ShardJob, Sweep, SweepRunner, ThreadLauncher,
};
use green_units::TimePoint;
use green_workload::{Trace, TraceConfig};

/// The grids the sweep benches replay — the shipped examples, so the
/// bench measures exactly what users (and CI) run.
const SENSITIVITY_TOML: &str = include_str!("../../../../examples/sweeps/sensitivity.toml");
const PAPER_GRID_TOML: &str = include_str!("../../../../examples/sweeps/paper_grid.toml");
const MEGA_GRID_TOML: &str = include_str!("../../../../examples/sweeps/mega_grid.toml");

const USAGE: &str = "\
green-perf — deterministic perf suite and bench-regression gate

USAGE:
    green-perf [--out <report.json>] [--check <baseline.json>]
               [--tolerance <rel>] [--wall-tolerance <rel>]
               [--summary <file.md>] [--only <substring>]
               [--phases] [--quiet]

--only <substring> runs (and gates) just the benches whose name
contains the substring — e.g. `--only scaling_` for the scaling suite,
`--only mega` for the survey-scale benches. A full bench name selects
that bench alone. Baseline benches outside the filter are skipped, not
reported missing.

--phases runs the suite with the observability recorder enabled: each
bench additionally reports the recorder's deterministic work counters
(ready_user_merges, cells_run, cache_hits, …) — gated like any
counter — and a per-phase wall-time breakdown (schedule/events/settle/
attribute/csv), which drifts warn-only like wall time. Without the
flag the suite runs the zero-cost no-op recorder and reports neither;
the committed baseline holds the recorder's counters of sim_year and
sweep_grid, so a --check that selects either needs --phases and exits 2
before running any bench without it.
";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Runs one bench with the process RSS high-water mark reset first
/// ([`green_bench::reset_peak_rss`]; best-effort, no-op off Linux or
/// without permission), so each bench's `peak_rss_mb` approximates its
/// *own* peak instead of inheriting every earlier bench's. The reset
/// happens here, immediately before the bench closure — never hoisted
/// earlier: with multi-threaded benches back to back, the previous
/// bench's worker pool keeps touching pages until its scope joins, so
/// an early reset would hand this bench its predecessor's high-water
/// mark (the regression is pinned by `reset_peak_rss_drops_the_high_
/// water_mark` in `green_bench::perf`). Memory the allocator retains
/// from earlier benches still floors the value — the number is
/// advisory either way.
fn measured(bench: impl FnOnce() -> PerfBench) -> PerfBench {
    let _ = reset_peak_rss();
    bench()
}

/// Folds a recording run's snapshot into the bench: recorder counters
/// are deterministic work counts (gated like any other), phase
/// milliseconds land in the warn-only `phases` section.
fn folded(mut bench: PerfBench, recorder: &StatsRecorder) -> PerfBench {
    if let Some(snapshot) = recorder.snapshot() {
        for (name, value) in &snapshot.counters {
            bench.counters.push((name.to_string(), *value as f64));
        }
        bench.phases = snapshot
            .phases_ms
            .iter()
            .map(|(name, ms)| (name.to_string(), *ms))
            .collect();
    }
    bench
}

fn bench_sim_year<R: Recorder>(obs: &R) -> PerfBench {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, 23);
    let trace = Trace::generate(&TraceConfig::small(23), &predictor);
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    let intensity: Vec<HourlyTrace> = intensity_for(&fleet, 23);

    let start = Instant::now();
    let mut arena = SimArena::new();
    let mut events = 0u64;
    let mut jobs = 0u64;
    let mut release_work = 0u64;
    for policy in [Policy::Greedy, Policy::Energy, Policy::Eft] {
        let metrics = run_cell_in_obs(
            &trace,
            &fleet,
            &table,
            &intensity,
            SimConfig::new(policy, green_accounting::MethodKind::eba(), 24),
            &mut arena,
            obs,
        );
        events += metrics.events as u64;
        jobs += metrics.outcomes.len() as u64;
        release_work += metrics.release_work;
        arena.recycle(metrics);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: "sim_year".into(),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("events".into(), events as f64),
            ("jobs".into(), jobs as f64),
            ("release_work".into(), release_work as f64),
        ],
        phases: vec![],
        rates: vec![(
            "events_per_s".into(),
            events as f64 / (wall_ms / 1e3).max(1e-12),
        )],
    }
}

fn bench_attribution() -> PerfBench {
    // A year of hourly data; windows from minutes to weeks, sliding
    // across the year — the shape of real job populations.
    let values: Vec<f64> = (0..8760)
        .map(|h| 200.0 + 150.0 * ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
        .collect();
    let trace = HourlyTrace::new(values);
    const QUERIES: u64 = 400_000;

    let start = Instant::now();
    let mut checksum = 0.0f64;
    for i in 0..QUERIES {
        let from_h = (i as f64 * 37.0) % 8_000.0;
        let span_h = 0.05 + (i % 337) as f64;
        let from = TimePoint::from_hours(from_h);
        let to = TimePoint::from_hours(from_h + span_h);
        checksum += trace.window_mean(from, to).as_g_per_kwh();
    }
    std::hint::black_box(checksum);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: "attribution".into(),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![("queries".into(), QUERIES as f64)],
        phases: vec![],
        rates: vec![(
            "queries_per_s".into(),
            QUERIES as f64 / (wall_ms / 1e3).max(1e-12),
        )],
    }
}

/// Runs the sensitivity grid single-threaded and reports its
/// deterministic work counters plus cells/s and events/s.
fn bench_sweep_grid<R: Recorder>(obs: &R) -> PerfBench {
    let sweep = Sweep::from_toml_str(SENSITIVITY_TOML).expect("shipped sweep parses");
    let start = Instant::now();
    let (results, stats) = SweepRunner::new(1)
        .recording(obs)
        .run_collect(&sweep, None, None)
        .expect("shipped sweep is valid");
    std::hint::black_box(results);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: "sweep_grid".into(),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("cells".into(), stats.cells as f64),
            ("events".into(), stats.events as f64),
            ("release_work".into(), stats.release_work as f64),
            ("realizations".into(), stats.realizations as f64),
            ("price_tables".into(), stats.price_tables as f64),
        ],
        phases: vec![],
        rates: vec![
            (
                "cells_per_s".into(),
                stats.cells as f64 / (wall_ms / 1e3).max(1e-12),
            ),
            (
                "events_per_s".into(),
                stats.events as f64 / (wall_ms / 1e3).max(1e-12),
            ),
            ("ms_per_cell".into(), wall_ms / stats.cells.max(1) as f64),
        ],
    }
}

/// Runs the full million-cell mega grid through the orchestrator on
/// four in-process worker threads and merges the fragments — aggregate
/// multi-worker cells/s plus the plan's deterministic counters. The
/// `ThreadLauncher` cannot be killed, so the supervisor's stall-kill
/// and steal paths stay off and every counter is exactly reproducible:
/// `spawns == tasks`, `retries == steals == 0`.
fn bench_orchestrate_mega(out_dir: &std::path::Path) -> PerfBench {
    let sweep_file = out_dir.join("mega_grid.toml");
    std::fs::write(&sweep_file, MEGA_GRID_TOML).expect("bench sweep file");

    let mut config = OrchestrateConfig::new(sweep_file, out_dir.join("run"), 4);
    config.quiet = true;
    let start = Instant::now();
    let summary =
        orchestrate(&config, &ThreadLauncher, &NoopChaos).expect("orchestrated mega grid");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: "orchestrate_mega".into(),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("cells".into(), summary.cells as f64),
            ("rows".into(), summary.rows as f64),
            ("tasks".into(), summary.tasks as f64),
            ("spawns".into(), summary.spawns as f64),
            ("retries".into(), summary.retries as f64),
            ("steals".into(), summary.steals as f64),
            ("merged_bytes".into(), summary.merged_bytes as f64),
        ],
        phases: vec![],
        rates: vec![
            (
                "cells_per_s".into(),
                summary.cells as f64 / (wall_ms / 1e3).max(1e-12),
            ),
            (
                "rows_per_s".into(),
                summary.rows as f64 / (wall_ms / 1e3).max(1e-12),
            ),
        ],
    }
}

/// Analyzes the fragment directory `orchestrate_mega` left behind —
/// the default `policy,method` roll-up over the million-cell output,
/// folded out-of-core straight from the shard fragments (the merged
/// CSV carries no manifest, so discovery skips it). Rows/s over the
/// survey-scale aggregate is the headline rate; `rows` and `groups`
/// are the deterministic tripwires.
fn bench_analyze_mega(run_dir: &std::path::Path) -> PerfBench {
    let query = AnalyzeQuery::new(None, None, None).expect("default query");
    let start = Instant::now();
    let report = analyze_dir(run_dir, &query, false).expect("analyze mega fragments");
    std::hint::black_box(report.to_csv_string());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: "analyze_mega".into(),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("rows".into(), report.rows_scanned as f64),
            ("groups".into(), report.groups.len() as f64),
        ],
        phases: vec![],
        rates: vec![(
            "rows_per_s".into(),
            report.rows_scanned as f64 / (wall_ms / 1e3).max(1e-12),
        )],
    }
}

/// The chaos subsystem's disabled-path contract, measured: the same
/// checkpointed 100,000-cell shard run twice — once through
/// [`run_shard`] on the default runner (`NoopChaos`, every failpoint
/// probe compiled away) and once on a runner
/// [`armed`](SweepRunner::armed) with a registry whose rule can never
/// fire (dynamic-dispatch probes on every durable write). `faults_injected` is the hard zero gate: a
/// disabled or never-firing chaos run that injects anything is a
/// correctness bug, and both variants must write identical row counts.
/// The `armed_overhead_rel` rate reports what arming costs (warn-only,
/// like all rates) — the noop path's wall time is the one the default
/// baselines gate.
fn bench_chaos_noop() -> PerfBench {
    let sweep = Sweep::from_toml_str(MEGA_GRID_TOML).expect("shipped sweep parses");
    let dir = std::env::temp_dir().join(format!("green-perf-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    fn job<'a>(sweep: &'a Sweep, csv: &'a std::path::Path) -> ShardJob<'a> {
        ShardJob {
            sweep,
            filter: None,
            assignment: ShardAssignment::Shard(Shard { index: 0, of: 10 }),
            csv,
            resume: false,
            checkpoint_every: 64,
            columnar: false,
        }
    }

    let noop_csv = dir.join("noop.csv");
    let start = Instant::now();
    let noop =
        run_shard(&SweepRunner::new(1), &job(&sweep, &noop_csv), None).expect("noop shard runs");
    let noop_ms = start.elapsed().as_secs_f64() * 1e3;

    // Armed but unfireable: u64::MAX hits will never be reached, so
    // every probe takes the full registry-evaluation path and still
    // injects nothing.
    let spec = format!("fragment_row=err@hit:{}", u64::MAX);
    let registry = ChaosRegistry::from_spec(&spec).expect("bench spec compiles");
    let armed_csv = dir.join("armed.csv");
    let start = Instant::now();
    let armed = run_shard(
        &SweepRunner::new(1).armed(&registry),
        &job(&sweep, &armed_csv),
        None,
    )
    .expect("armed-but-quiet shard runs");
    let armed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        noop.written_rows, armed.written_rows,
        "arming chaos must not change the work done"
    );
    let _ = std::fs::remove_dir_all(&dir);

    PerfBench {
        name: "chaos_noop".into(),
        wall_ms: noop_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("cells".into(), noop.range.len() as f64),
            ("rows".into(), noop.written_rows as f64),
            ("armed_rows".into(), armed.written_rows as f64),
            ("faults_injected".into(), 0.0),
        ],
        phases: vec![],
        rates: vec![
            (
                "rows_per_s".into(),
                noop.written_rows as f64 / (noop_ms / 1e3).max(1e-12),
            ),
            (
                "armed_rows_per_s".into(),
                armed.written_rows as f64 / (armed_ms / 1e3).max(1e-12),
            ),
            ("armed_overhead_rel".into(), armed_ms / noop_ms.max(1e-12)),
        ],
    }
}

/// The mega pair: orchestrate the million-cell grid, keep its fragment
/// directory alive long enough to analyze it, then clean up. Both
/// halves get their own RSS reset via [`measured`].
fn bench_mega_pair() -> (PerfBench, PerfBench) {
    let out_dir = std::env::temp_dir().join(format!("green-perf-orch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).expect("bench scratch dir");
    let orchestrate = measured(|| bench_orchestrate_mega(&out_dir));
    let analyze = measured(|| bench_analyze_mega(&out_dir.join("run")));
    let _ = std::fs::remove_dir_all(&out_dir);
    (orchestrate, analyze)
}

/// Thread counts the scaling suite measures. 1 is the reference every
/// speedup is computed against; 16 oversubscribes any CI runner we use,
/// which is exactly the point — efficiency should saturate, not crash.
const SCALING_THREADS: [usize; 4] = [1, 4, 8, 16];

/// Attaches the scaling suite's derived rates to a bench: cells/s plus
/// `speedup_x` (vs the suite's own 1-thread run) and `efficiency`
/// (speedup over the workers that can run at once: `threads`, capped at
/// the available cores, so 16 workers on 2 cores are judged against a
/// 2× ideal, not 16×). All three are **rates**, which the gate ignores
/// by design: they are properties of the machine's core count, not of
/// the code's work, so they report warn-only wherever the report is
/// checked — CI's multi-core runners are where the numbers mean
/// something. The hard gate rides on the counters, which are identical
/// for every thread count (that is the `--threads` determinism
/// contract, enforced byte-for-byte by `parallel_golden.rs`).
fn with_scaling_rates(mut bench: PerfBench, threads: usize, t1_ms: f64) -> PerfBench {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells = bench
        .counters
        .iter()
        .find(|(k, _)| k == "cells")
        .map_or(0.0, |(_, v)| *v);
    let speedup = t1_ms / bench.wall_ms.max(1e-12);
    bench.rates = vec![
        (
            "cells_per_s".into(),
            cells / (bench.wall_ms / 1e3).max(1e-12),
        ),
        ("speedup_x".into(), speedup),
        ("efficiency".into(), speedup / threads.min(cores) as f64),
    ];
    bench
}

/// The paper grid through the in-memory collect path on `threads`
/// workers: 8 cells of 142,380 jobs each — few, heavy cells, the shape
/// where one slow cell dominates and the claim window matters least.
fn bench_scaling_paper(threads: usize) -> PerfBench {
    let sweep = Sweep::from_toml_str(PAPER_GRID_TOML).expect("shipped sweep parses");
    let start = Instant::now();
    let (results, stats) = SweepRunner::new(threads)
        .run_collect(&sweep, None, None)
        .expect("shipped sweep is valid");
    std::hint::black_box(results);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: format!("scaling_paper_t{threads}"),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("threads".into(), threads as f64),
            ("cells".into(), stats.cells as f64),
            ("events".into(), stats.events as f64),
            ("release_work".into(), stats.release_work as f64),
            ("realizations".into(), stats.realizations as f64),
        ],
        phases: vec![],
        rates: vec![],
    }
}

/// One 100,000-cell shard of the mega grid streamed to a null sink on
/// `threads` workers: many tiny cells through the bounded reorder
/// buffer — the other end of the granularity spectrum, and the exact
/// path CI's `--threads` shard matrix runs.
fn bench_scaling_mega(threads: usize) -> PerfBench {
    let sweep = Sweep::from_toml_str(MEGA_GRID_TOML).expect("shipped sweep parses");
    let range = Shard { index: 0, of: 10 }.cell_range(sweep.config_count(), sweep.seeds.len());
    let start = Instant::now();
    let summary = SweepRunner::new(threads)
        .run_streamed_range(&sweep, None, Some(range), true, None, &mut std::io::sink())
        .expect("streaming to a sink cannot fail");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    PerfBench {
        name: format!("scaling_mega_t{threads}"),
        wall_ms,
        peak_rss_mb: peak_rss_mb(),
        counters: vec![
            ("threads".into(), threads as f64),
            ("cells".into(), summary.cells as f64),
            ("configs".into(), summary.configs as f64),
            ("events".into(), summary.stats.events as f64),
            ("release_work".into(), summary.stats.release_work as f64),
            ("realizations".into(), summary.stats.realizations as f64),
        ],
        phases: vec![],
        rates: vec![],
    }
}

/// Runs the rungs of one grid's scaling ladder (`scaling_<grid>_t<N>`
/// for each [`SCALING_THREADS`] count) that `want` selects. The
/// 1-thread rung runs first whenever any rung does, since it is every
/// wider rung's speedup reference, but is reported only when selected.
/// The benches always run with the no-op recorder, `--phases` or not:
/// N workers' overlapping phase walls sum past the bench's own wall and
/// drift with scheduling, and the 1-thread sweeps already gate the
/// recorder's counters.
fn scaling_ladder(
    grid: &str,
    bench: impl Fn(usize) -> PerfBench,
    want: impl Fn(&str) -> bool,
) -> Vec<PerfBench> {
    let wanted = SCALING_THREADS.map(|threads| want(&format!("scaling_{grid}_t{threads}")));
    if !wanted.contains(&true) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t1_ms = f64::NAN;
    for (threads, wanted) in SCALING_THREADS.into_iter().zip(wanted) {
        if !wanted && threads != 1 {
            continue;
        }
        let run = measured(|| bench(threads));
        if threads == 1 {
            t1_ms = run.wall_ms;
        }
        if wanted {
            out.push(with_scaling_rates(run, threads, t1_ms));
        }
    }
    out
}

/// Every bench name the suite can report, for `--only`'s exact match.
fn bench_names() -> impl Iterator<Item = String> {
    let single = [
        "sim_year",
        "attribution",
        "sweep_grid",
        "orchestrate_mega",
        "analyze_mega",
        "chaos_noop",
    ];
    let ladders = ["paper", "mega"].into_iter().flat_map(|grid| {
        SCALING_THREADS
            .into_iter()
            .map(move |threads| format!("scaling_{grid}_t{threads}"))
    });
    single.into_iter().map(String::from).chain(ladders)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut summary: Option<String> = None;
    let mut only: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut wall_tolerance = 1.00f64;
    let mut phases = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--check" => check = Some(value("--check")),
            "--summary" => summary = Some(value("--summary")),
            "--only" => only = Some(value("--only")),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --tolerance"));
            }
            "--wall-tolerance" => {
                wall_tolerance = value("--wall-tolerance")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --wall-tolerance"));
            }
            "--phases" => phases = true,
            "--quiet" => quiet = true,
            other => fail(&format!("unknown option `{other}`")),
        }
    }
    if summary.is_some() && check.is_none() {
        fail("--summary renders drift against a baseline; it requires --check");
    }
    // `--only <substring>` narrows both the run and the baseline
    // comparison to matching bench names — what CI's scaling job uses
    // to run `--only scaling_` without paying for the full suite. A full
    // bench name selects that bench alone, so `scaling_mega_t1` does not
    // also select `scaling_mega_t16`.
    let exact = only
        .as_deref()
        .is_some_and(|f| bench_names().any(|name| name == f));
    let want = |name: &str| {
        only.as_deref()
            .is_none_or(|f| if exact { name == f } else { name.contains(f) })
    };

    // Read the baseline before any bench runs. `--only` narrows the gate
    // the same way it narrows the run — a baseline bench that
    // deliberately did not run must not register as "missing" (which
    // would hard-fail).
    let baseline = check.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading baseline {path}: {e}");
            std::process::exit(1);
        });
        let mut baseline = PerfReport::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing baseline {path}: {e}");
            std::process::exit(1);
        });
        baseline.benches.retain(|b| want(&b.name));
        (path, baseline)
    });
    // A baseline bench with phase rows was recorded under `--phases`,
    // so its recorder counters exist only in a `--phases` run.
    if let Some((path, baseline)) = &baseline {
        let recorded: Vec<&str> = baseline
            .benches
            .iter()
            .filter(|b| !b.phases.is_empty())
            .map(|b| b.name.as_str())
            .collect();
        if !phases && !recorded.is_empty() {
            fail(&format!(
                "{path} gates the recorder's counters of {}; check them with --phases",
                recorded.join(", ")
            ));
        }
    }

    // With --phases each bench gets its own recorder (so counters and
    // phase times attribute per bench); the default path hands every
    // bench the no-op recorder, whose probes compile to nothing.
    let (benches, host) = Host::during(|| {
        let mut benches: Vec<PerfBench> = Vec::new();
        // Only reached when `phases` is set: each recorded bench gets
        // its own recorder so counters and phase times attribute to it.
        let rec = |bench: fn(&StatsRecorder) -> PerfBench| {
            measured(|| {
                let recorder = StatsRecorder::new();
                folded(bench(&recorder), &recorder)
            })
        };
        if want("sim_year") {
            benches.push(if phases {
                rec(bench_sim_year)
            } else {
                measured(|| bench_sim_year(&NoopRecorder))
            });
        }
        if want("attribution") {
            benches.push(measured(bench_attribution));
        }
        if want("sweep_grid") {
            benches.push(if phases {
                rec(bench_sweep_grid)
            } else {
                measured(|| bench_sweep_grid(&NoopRecorder))
            });
        }
        // The orchestrator spawns its own worker threads, so a
        // per-bench recorder cannot attribute their work; the mega pair
        // runs un-instrumented in both modes (and shares one fragment
        // directory, so either half selects the pair's setup).
        if want("orchestrate_mega") || want("analyze_mega") {
            let (orchestrate_mega, analyze_mega) = bench_mega_pair();
            if want("orchestrate_mega") {
                benches.push(orchestrate_mega);
            }
            if want("analyze_mega") {
                benches.push(analyze_mega);
            }
        }
        if want("chaos_noop") {
            benches.push(measured(bench_chaos_noop));
        }
        benches.extend(scaling_ladder("paper", bench_scaling_paper, want));
        benches.extend(scaling_ladder("mega", bench_scaling_mega, want));
        benches
    });
    if benches.is_empty() {
        fail(&format!(
            "--only `{}` matched no bench",
            only.as_deref().unwrap_or_default()
        ));
    }
    let report = PerfReport {
        host: Some(host),
        benches,
    };
    if !quiet {
        eprintln!("host: {host}");
        for bench in &report.benches {
            let rates: Vec<String> = bench
                .rates
                .iter()
                .map(|(k, v)| format!("{k} {v:.0}"))
                .collect();
            eprintln!(
                "bench {:<16} {:>9.1} ms   {}",
                bench.name,
                bench.wall_ms,
                rates.join("  ")
            );
        }
    }

    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        if !quiet {
            eprintln!("wrote {path}");
        }
    }

    if let Some((path, baseline)) = baseline {
        let cmp = report.compare(&baseline, tolerance, wall_tolerance);
        if let Some(summary_path) = summary {
            let table = format!(
                "## green-perf drift vs `{path}`\n\n{}\n\n{}\n",
                report.host_summary(&baseline),
                report.markdown_table(&baseline, tolerance, wall_tolerance)
            );
            use std::io::Write as _;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&summary_path)
                .and_then(|mut f| f.write_all(table.as_bytes()));
            if let Err(e) = appended {
                eprintln!("warning: could not write summary {summary_path}: {e}");
            }
        }
        for warning in &cmp.warnings {
            eprintln!("warning: {warning}");
        }
        for failure in &cmp.failures {
            eprintln!("FAIL: {failure}");
        }
        if !cmp.passed() {
            eprintln!(
                "bench gate: counter regression(s) beyond ±{:.0}% of {path} in: {}",
                tolerance * 100.0,
                cmp.failed_counters.join(", ")
            );
            std::process::exit(1);
        }
        if !quiet {
            eprintln!(
                "bench gate: counters within ±{:.0}% of {path}",
                tolerance * 100.0
            );
        }
    }
}
