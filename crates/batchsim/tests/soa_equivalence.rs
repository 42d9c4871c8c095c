//! Differential battery pinning the data-oriented cell core to the
//! pre-change scalar path, bit for bit.
//!
//! The golden fixtures in `tests/fixtures/soa_golden.txt` were captured
//! from the tree *before* the struct-of-arrays arena restructure and the
//! batched calendar-queue draining landed. Every digest is an FNV-1a
//! hash over a canonical little-endian byte encoding of a complete
//! [`RunMetrics`] — every field of every [`JobOutcome`], the policy
//! string, and the scalar work counters — so a single bit of drift in
//! any output anywhere in the run fails the battery.
//!
//! The `<preset>-elastic` rows pin the posted-quote delay search:
//! `Adaptive` under CBA and EBA with elastic agents and carbon-indexed
//! and time-of-use price tables, so every delay the agents consider is
//! quoted. They were captured from the tree before the quote kernel
//! replaced the per-call quote.
//!
//! The `tiny-saturated` rows cut every shared cluster to 8 nodes, so
//! backfill reservations run in every row. They were captured from the
//! tree before the dense running-slot table replaced the job → slot
//! map.
//!
//! The `tiny-shift` rows run `GreedyShift` under CBA with week- and
//! month-long delay budgets, so most jobs re-arrive days after they
//! arrive and many re-arrivals are pending at once. They were captured
//! from the tree before the event heap replaced the calendar queue,
//! which had served these re-arrivals from far-future buckets.
//!
//! Regenerate (only when an *intentional* output change is being made,
//! which per the determinism contract should never happen on a perf
//! refactor) with:
//!
//! ```text
//! SOA_GOLDEN_REGEN=1 cargo test -p green-batchsim --test soa_equivalence -- --test-threads=1
//! ```

use std::sync::Arc;

use green_accounting::MethodKind;
use green_batchsim::{
    intensity_for, run_cell_in_obs, JobOutcome, MarketAgent, MarketInputs, PlacementTable, Policy,
    PriceTable, RunMetrics, SimArena, SimConfig,
};
use green_carbon::HourlyTrace;
use green_machines::{simulation_fleet, FleetMachine};
use green_obs::NoopRecorder;
use green_perfmodel::CrossMachinePredictor;
use green_units::TimeSpan;
use green_workload::{Trace, TraceConfig};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/soa_golden.txt");

/// Workload shapes mirroring the sweep engine's `tiny`, `quick` and
/// `paper` presets. The trace seed is fixed per preset (exactly as a
/// sweep shares one trace across replicates); the 8 golden seeds drive
/// the per-replicate carbon-intensity realization.
fn preset(name: &str) -> TraceConfig {
    match name {
        "tiny" => TraceConfig::small(23),
        "quick" => TraceConfig {
            users: 60,
            unique_jobs: 6_000,
            duration: TimeSpan::from_days(14.0),
            max_runtime: TimeSpan::from_hours(48.0),
            seed: 23,
        },
        "paper" => TraceConfig::paper_scale(23),
        other => panic!("unknown preset `{other}`"),
    }
}

/// Per-seed policy/method pairs: one of each policy family, so the event
/// queue is exercised under pure FCFS pops, shifted re-arrivals
/// (GreedyShift/Adaptive), and market quoting.
fn config_for(seed: u64, users: u32, fleet_len: usize) -> SimConfig {
    let (policy, method) = match seed % 8 {
        0 => (Policy::Greedy, MethodKind::eba()),
        1 => (Policy::Energy, MethodKind::Cba),
        2 => (Policy::Eft, MethodKind::Runtime),
        3 => (Policy::Mixed, MethodKind::Energy),
        4 => (Policy::Runtime, MethodKind::Peak),
        5 => (Policy::Fixed(2), MethodKind::eba()),
        6 => (
            Policy::GreedyShift {
                max_delay_hours: 24,
            },
            MethodKind::Cba,
        ),
        _ => (Policy::Adaptive, MethodKind::eba()),
    };
    let config = SimConfig::new(policy, method, users);
    if matches!(policy, Policy::Adaptive) {
        config.with_market(MarketInputs::identity(fleet_len))
    } else {
        config
    }
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        // Bit pattern, not value: -0.0 vs 0.0 or a NaN payload change
        // is output drift and must fail the battery.
        self.update(&v.to_bits().to_le_bytes());
    }
}

/// The canonical digest of a complete run: every output byte the
/// simulator produces, in a fixed field order.
fn digest(metrics: &RunMetrics) -> u64 {
    let mut h = Fnv1a::new();
    h.update(metrics.policy.as_bytes());
    h.update(&[0xff]);
    h.u64(metrics.rejected as u64);
    h.u64(metrics.events as u64);
    h.u64(metrics.release_work);
    h.u64(metrics.outcomes.len() as u64);
    for o in &metrics.outcomes {
        let JobOutcome {
            job,
            user,
            machine,
            cores,
            arrival_s,
            start_s,
            end_s,
            energy_kwh,
            charges,
            op_carbon_g,
            attributed_g,
            work_core_hours,
        } = *o;
        h.u32(job);
        h.u32(user);
        h.u32(machine);
        h.u32(cores);
        h.f64(arrival_s);
        h.f64(start_s);
        h.f64(end_s);
        h.f64(energy_kwh);
        for c in charges {
            h.f64(c);
        }
        h.f64(op_carbon_g);
        h.f64(attributed_g);
        h.f64(work_core_hours);
    }
    h.0
}

struct World {
    fleet: Vec<FleetMachine>,
    trace: Trace,
    table: PlacementTable,
}

fn world(preset_name: &str) -> World {
    world_at(preset_name, 1.0)
}

/// The preset's world at a workload volume (`1.0` = the preset trace),
/// scaled with the trace seed as a sweep's `workload_scales` axis does.
fn world_at(preset_name: &str, volume: f64) -> World {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, 23);
    let mut trace = Trace::generate(&preset(preset_name), &predictor);
    if volume != 1.0 {
        trace = trace.scaled(volume, 23);
    }
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    World {
        fleet,
        trace,
        table,
    }
}

/// A `(label, policy, digest)` golden row; the label is the seed, plus
/// the method and schedule on elastic rows.
type GoldenRow = (String, String, u64);

/// Runs all 8 golden seeds of one preset through a single reused arena
/// (the sweep-worker shape — recycling is part of what the goldens pin)
/// and returns `(seed, policy, digest)` rows.
fn run_preset(preset_name: &str) -> Vec<GoldenRow> {
    run_seeds(&world(preset_name), preset(preset_name).users, |_| {})
}

/// The 8 golden seeds over `world`, each run through one reused arena
/// and handed to `inspect` before it is digested.
fn run_seeds(world: &World, users: u32, inspect: impl Fn(&RunMetrics)) -> Vec<GoldenRow> {
    let mut arena = SimArena::new();
    let mut rows = Vec::new();
    for seed in 1..=8u64 {
        let intensity: Vec<HourlyTrace> = intensity_for(&world.fleet, seed);
        let config = config_for(seed, users, world.fleet.len());
        let metrics = run_cell_in_obs(
            &world.trace,
            &world.fleet,
            &world.table,
            &intensity,
            config,
            &mut arena,
            &NoopRecorder,
        );
        inspect(&metrics);
        rows.push((seed.to_string(), metrics.policy.clone(), digest(&metrics)));
        arena.recycle(metrics);
    }
    rows
}

/// Saturated rows: the tiny preset with every shared cluster cut to 8
/// nodes, so queues back up for days and the blocked head of a queue
/// reserves its start on every policy. These are the only rows in which
/// backfill reservations run — and with them the tie order of the
/// running-job table, whose slot index breaks equal end times.
fn run_saturated() -> Vec<GoldenRow> {
    let mut world = world("tiny");
    for machine in world.fleet.iter_mut().filter(|m| !m.per_user) {
        machine.nodes = 8;
    }
    run_seeds(&world, preset("tiny").users, |metrics| {
        assert!(
            metrics.release_work > 0,
            "{}: no backfill reservation ran — the row no longer saturates the fleet",
            metrics.policy
        );
    })
}

/// The two posted schedules of `examples/sweeps/incentives.toml`.
#[derive(Clone, Copy)]
enum Schedule {
    /// `carbon:1.5`: the multiplier tracks the machine's own grid.
    Carbon,
    /// `tou:0.25`: a quarter off in the cleanest quartile of hours, a
    /// quarter on in the dirtiest.
    TimeOfUse,
}

impl Schedule {
    fn label(self) -> &'static str {
        match self {
            Schedule::Carbon => "carbon",
            Schedule::TimeOfUse => "tou",
        }
    }

    /// One machine's hourly multipliers, compiled from its realization
    /// the way `green_market::price_table` compiles these schedules.
    fn series(self, trace: &HourlyTrace) -> Vec<f64> {
        let values = trace.values();
        match self {
            Schedule::Carbon => {
                let mean = trace.mean().as_g_per_kwh().max(1e-9);
                values
                    .iter()
                    .map(|i| (1.0 + 1.5 * (i - mean) / mean).clamp(0.25, 4.0))
                    .collect()
            }
            Schedule::TimeOfUse => {
                let mut sorted = values.to_vec();
                sorted.sort_by(f64::total_cmp);
                let (q25, q75) = (sorted[sorted.len() / 4], sorted[sorted.len() * 3 / 4]);
                values
                    .iter()
                    .map(|&i| match i {
                        i if i <= q25 => 0.75,
                        i if i >= q75 => 1.25,
                        _ => 1.0,
                    })
                    .collect()
            }
        }
    }
}

/// Elastic agents: elasticities 0.25–2.0 and slacks 6–48 h, mixed so
/// that neighbouring users differ in both.
fn elastic_agents() -> Vec<MarketAgent> {
    (0..16u32)
        .map(|k| MarketAgent {
            elasticity: 0.25 * (1 + k % 8) as f64,
            slack_hours: 6 * (1 + (k * 3) % 8),
        })
        .collect()
}

fn elastic_market(intensity: &[HourlyTrace], schedule: Schedule) -> MarketInputs {
    MarketInputs {
        prices: Arc::new(PriceTable::new(
            intensity.iter().map(|t| schedule.series(t)).collect(),
        )),
        agents: Arc::new(elastic_agents()),
        max_delay_hours: 24,
        shift_threshold: 0.10,
    }
}

/// Elastic rows: `Adaptive` under CBA and EBA at both schedules, two
/// seeds, through one reused arena. `paper` runs at the incentive
/// sweep's 0.25 volume, where the fleet has the slack capacity
/// temporal shifting needs.
fn run_elastic(preset_name: &str) -> Vec<GoldenRow> {
    let volume = if preset_name == "paper" { 0.25 } else { 1.0 };
    let world = world_at(preset_name, volume);
    let users = preset(preset_name).users;
    let mut arena = SimArena::new();
    let mut rows = Vec::new();
    for seed in 1..=2u64 {
        let intensity: Vec<HourlyTrace> = intensity_for(&world.fleet, seed);
        for method in [MethodKind::Cba, MethodKind::eba()] {
            for schedule in [Schedule::Carbon, Schedule::TimeOfUse] {
                let config = SimConfig::new(Policy::Adaptive, method, users)
                    .with_market(elastic_market(&intensity, schedule));
                let metrics = run_cell_in_obs(
                    &world.trace,
                    &world.fleet,
                    &world.table,
                    &intensity,
                    config,
                    &mut arena,
                    &NoopRecorder,
                );
                let label = format!("{seed}-{method}-{}", schedule.label());
                // Each delayed job re-arrives once: one event beyond
                // its arrival and finish.
                let jobs = world.trace.jobs.len();
                let delayed = metrics.events - jobs - metrics.outcomes.len();
                assert!(
                    4 * delayed >= jobs,
                    "{preset_name} {label}: only {delayed} of {jobs} jobs delayed — \
                     the row no longer exercises the delay search"
                );
                rows.push((label, metrics.policy.clone(), digest(&metrics)));
                arena.recycle(metrics);
            }
        }
    }
    rows
}

/// Long-shift rows: `GreedyShift` under CBA with week- and month-long
/// delay budgets, two seeds, on the tiny preset. Most jobs wait days for
/// a cleaner hour, so many re-arrivals are pending far ahead of the
/// current time at once. (EBA's quotes do not change over time, so it
/// never shifts.)
fn run_long_shift() -> Vec<GoldenRow> {
    let world = world("tiny");
    let users = preset("tiny").users;
    let mut arena = SimArena::new();
    let mut rows = Vec::new();
    for seed in 1..=2u64 {
        let intensity: Vec<HourlyTrace> = intensity_for(&world.fleet, seed);
        for max_delay_hours in [168, 720] {
            let config = SimConfig::new(
                Policy::GreedyShift { max_delay_hours },
                MethodKind::Cba,
                users,
            );
            let metrics = run_cell_in_obs(
                &world.trace,
                &world.fleet,
                &world.table,
                &intensity,
                config,
                &mut arena,
                &NoopRecorder,
            );
            let label = format!("{seed}-{max_delay_hours}h");
            let jobs = world.trace.jobs.len();
            let delayed = metrics.events - jobs - metrics.outcomes.len();
            let days_late = metrics
                .outcomes
                .iter()
                .filter(|o| o.start_s - o.arrival_s > 2.0 * 86_400.0)
                .count();
            assert!(
                2 * delayed >= jobs && 2 * days_late >= jobs,
                "{label}: {delayed} of {jobs} jobs delayed, {days_late} started over \
                 two days late — the row no longer keeps re-arrivals pending days ahead"
            );
            rows.push((label, metrics.policy.clone(), digest(&metrics)));
            arena.recycle(metrics);
        }
    }
    rows
}

fn golden_lines(block: &str, rows: &[GoldenRow]) -> String {
    rows.iter()
        .map(|(label, policy, digest)| format!("{block} {label} {policy} {digest:016x}\n"))
        .collect()
}

fn check_preset(preset_name: &str) {
    check_block(preset_name, &run_preset(preset_name));
}

fn check_elastic(preset_name: &str) {
    check_block(&format!("{preset_name}-elastic"), &run_elastic(preset_name));
}

/// Compares one block of rows (the fixture lines starting `<block> `)
/// with the fixture file, or rewrites the block under
/// `SOA_GOLDEN_REGEN`.
fn check_block(block: &str, rows: &[GoldenRow]) {
    let current = golden_lines(block, rows);
    if std::env::var_os("SOA_GOLDEN_REGEN").is_some() {
        regen(block, &current);
        return;
    }
    let golden = std::fs::read_to_string(FIXTURES)
        .expect("tests/fixtures/soa_golden.txt missing — run with SOA_GOLDEN_REGEN=1");
    let expected: String = golden
        .lines()
        .filter(|l| l.starts_with(&format!("{block} ")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        !expected.is_empty(),
        "no golden rows for `{block}` in {FIXTURES}"
    );
    assert_eq!(
        current, expected,
        "`{block}` diverged from the pre-change golden digests — \
         the refactor moved output bytes"
    );
}

/// Rewrites one block of the fixture file, preserving the other blocks'
/// rows (each `#[test]` regenerates only its own block, so one regen run
/// over the whole battery, with `--test-threads=1`, rebuilds the whole
/// file).
fn regen(block: &str, lines_text: &str) {
    let existing = std::fs::read_to_string(FIXTURES).unwrap_or_default();
    let mut kept: String = existing
        .lines()
        .filter(|l| !l.starts_with(&format!("{block} ")) && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    kept.push_str(lines_text);
    let mut lines: Vec<&str> = kept.lines().collect();
    lines.sort();
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::create_dir_all(std::path::Path::new(FIXTURES).parent().unwrap()).unwrap();
    std::fs::write(FIXTURES, text).unwrap();
    eprintln!("soa_equivalence: regenerated `{block}` golden digests");
}

#[test]
fn tiny_preset_matches_prechange_goldens() {
    check_preset("tiny");
}

#[test]
fn quick_preset_matches_prechange_goldens() {
    check_preset("quick");
}

#[test]
fn paper_preset_matches_prechange_goldens() {
    check_preset("paper");
}

#[test]
fn tiny_saturated_fleet_matches_prechange_goldens() {
    check_block("tiny-saturated", &run_saturated());
}

#[test]
fn tiny_long_shift_matches_prechange_goldens() {
    check_block("tiny-shift", &run_long_shift());
}

#[test]
fn tiny_elastic_market_matches_prechange_goldens() {
    check_elastic("tiny");
}

#[test]
fn quick_elastic_market_matches_prechange_goldens() {
    check_elastic("quick");
}

#[test]
fn paper_elastic_market_matches_prechange_goldens() {
    check_elastic("paper");
}

/// The arena path and the fresh-allocation path must agree bit for bit
/// — recycling may never leak state into the next cell's output.
#[test]
fn arena_runs_match_fresh_runs() {
    let world = world("tiny");
    let mut arena = SimArena::new();
    for seed in [1u64, 6, 7] {
        let intensity: Vec<HourlyTrace> = intensity_for(&world.fleet, seed);
        let config = config_for(seed, preset("tiny").users, world.fleet.len());
        let in_arena = run_cell_in_obs(
            &world.trace,
            &world.fleet,
            &world.table,
            &intensity,
            config.clone(),
            &mut arena,
            &NoopRecorder,
        );
        let fresh = run_cell_in_obs(
            &world.trace,
            &world.fleet,
            &world.table,
            &intensity,
            config,
            &mut SimArena::new(),
            &NoopRecorder,
        );
        assert_eq!(digest(&in_arena), digest(&fresh), "seed {seed}");
        assert_eq!(in_arena, fresh, "seed {seed}");
        arena.recycle(in_arena);
    }
}
