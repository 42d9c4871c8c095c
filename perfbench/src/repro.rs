//! The `repro` workload: every table and figure of `repro --full` at the
//! paper's 142,380-job scale, stage by stage through
//! `green_bench::experiments`, with the seed in place of the fixed ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use green_batchsim::cluster::DEFAULT_BACKFILL_DEPTH;
use green_batchsim::{run_cell_in_obs, PlacementTable, Scenario, SimArena, SimConfig};
use green_bench::experiments::{embodied, gpu, platform, simulation, surveyfig};
use green_bench::SimScale;
use green_machines::simulation_fleet;
use green_obs::{NoopRecorder, Phase, Recorder, StatsRecorder};
use green_perfmodel::stats::median;
use green_perfmodel::{CrossMachinePredictor, MachineBehavior};
use green_scenarios::shard::Fnv1a;
use green_userstudy::{AgentProfile, Game, Study, StudyAnalysis, StudyConfig, Version};
use green_workload::{Trace, TraceConfig};

use crate::metrics::{ms, Metrics};
use crate::spans::{Tracer, ROOT};
use crate::{secs, Iteration, Setup, Tally, Workload, THREADS};

/// Table 5's embodied carbon rates, g/h, to one decimal.
const TABLE5_RATES: [&str; 4] = ["105.2", "12.2", "16.7", "2.0"];

/// Policy runs of the three paper scenarios: 8 under EBA, 5 under CBA,
/// 5 under low-carbon CBA.
const POLICY_RUNS: usize = 18;

/// The `repro` workload for one seed.
pub struct Repro {
    seed: u64,
}

impl Repro {
    /// The workload with `seed` in place of `repro`'s fixed seeds.
    pub fn new(seed: u64) -> Repro {
        Repro { seed }
    }

    /// The paper-scale trace and placement table, built the way
    /// `simulation::run` builds them.
    fn prepare(&self) -> (Trace, PlacementTable) {
        let fleet = simulation_fleet();
        let behaviors: Vec<MachineBehavior> = fleet
            .iter()
            .map(|m| MachineBehavior::for_spec(&m.spec))
            .collect();
        let predictor = CrossMachinePredictor::train(behaviors, 2, self.seed);
        let trace = Trace::generate(&TraceConfig::paper_scale(self.seed), &predictor).doubled();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        (trace, table)
    }
}

/// Runs `runs` one at a time on `THREADS` workers through
/// `run_cell_in_obs` with `obs`; returns each run's seconds and events,
/// in run order.
fn timed_runs<R: Recorder>(
    runs: &[(&Scenario, SimConfig)],
    trace: &Trace,
    table: &PlacementTable,
    obs: &R,
) -> Vec<(f64, u64)> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![(0.0, 0); runs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut arena = SimArena::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((s, config)) = runs.get(i) else {
                        break;
                    };
                    let start = Instant::now();
                    let metrics = run_cell_in_obs(
                        trace,
                        &s.fleet,
                        table,
                        &s.intensity,
                        config.clone(),
                        &mut arena,
                        obs,
                    );
                    let took = secs(start);
                    let events = metrics.events as u64;
                    arena.recycle(metrics);
                    results.lock().expect("results lock")[i] = (took, events);
                }
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// Appends `value`'s debug text to `out`: the rendered artifact the
/// digest covers.
fn render(out: &mut String, value: &impl std::fmt::Debug) {
    out.push_str(&format!("{value:?}\n"));
}

impl Workload for Repro {
    fn setup(&mut self) -> Setup {
        let start = Instant::now();
        let (trace, table) = self.prepare();
        let mut setup = Setup {
            total_s: secs(start),
            ..Setup::default()
        };
        setup
            .tally
            .record(1, !trace.is_empty() && table.machine_count() == 4);
        setup.layers.set("prepare.world_s", setup.total_s, "s");
        setup
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Iteration {
        let seed = self.seed;
        let mut it = Iteration::default();
        let mut text = String::new();
        let mut stage_s = [0.0f64; 4];
        let start = Instant::now();
        let root = tracer.open(ROOT);

        let span = tracer.open("repro:simulation");
        let stage = Instant::now();
        let sim = simulation::run(SimScale::Paper, seed);
        stage_s[0] = secs(stage);
        tracer.close(span);

        let span = tracer.open("repro:figures");
        let stage = Instant::now();
        render(&mut text, &sim.fig5a());
        render(&mut text, &sim.fig5b(100.0));
        render(&mut text, &sim.fig5c());
        render(&mut text, &sim.fig6());
        render(&mut text, &sim.fig7a());
        render(&mut text, &sim.fig7b);
        render(&mut text, &sim.fig7c);
        render(&mut text, &sim.table6());
        render(&mut text, &surveyfig::figures(seed));
        render(&mut text, &platform::figure4());
        let mut game = Game::new(Version::V3);
        AgentProfile::population(1, seed)[0].play(&mut game, seed);
        render(&mut text, &(game.completed_jobs(), game.energy_used_kwh()));
        stage_s[1] = secs(stage);
        tracer.close(span);

        let span = tracer.open("repro:study");
        let stage = Instant::now();
        let study = Study::run(StudyConfig {
            seed,
            ..StudyConfig::default()
        });
        let analysis = StudyAnalysis::of(&study);
        render(&mut text, &analysis.summaries);
        render(&mut text, &(analysis.p_v3_vs_v1, analysis.p_v2_vs_v1));
        render(&mut text, &analysis.energy_by_jobs);
        render(&mut text, &analysis.run_probability);
        stage_s[2] = secs(stage);
        tracer.close(span);

        let span = tracer.open("repro:tables");
        let stage = Instant::now();
        render(&mut text, &platform::table1());
        render(&mut text, &gpu::table2());
        render(&mut text, &gpu::table3());
        render(&mut text, &embodied::table4());
        let table5 = embodied::table5();
        render(&mut text, &table5);
        stage_s[3] = secs(stage);
        tracer.close(span);

        let span = tracer.open("verify");
        let t = &mut it.tally;
        let rates: Vec<String> = table5
            .iter()
            .map(|r| format!("{:.1}", r.carbon_rate))
            .collect();
        t.check(
            rates == TABLE5_RATES,
            "Table 5 carbon rates are 105.2 / 12.2 / 16.7 / 2.0 g/h",
        );
        t.check(
            sim.fig7c.len() == 24
                && sim
                    .fig7c
                    .iter()
                    .all(|hour| (hour.iter().sum::<f64>() - 1.0).abs() < 1e-9),
            "each hour's Figure 7c shares sum to 1",
        );
        let runs: Vec<_> = [&sim.eba, &sim.cba, &sim.low_carbon]
            .iter()
            .flat_map(|s| s.runs.iter())
            .collect();
        t.check(runs.len() == POLICY_RUNS, "18 policy runs");
        for run in &runs {
            let whole = run.outcomes.len() + run.rejected == sim.trace.len();
            t.record(1, whole);
            render(
                &mut text,
                &(
                    &run.policy,
                    run.outcomes.len(),
                    run.rejected,
                    run.events,
                    run.total_energy_mwh(),
                    run.attributed_carbon_kg(),
                ),
            );
        }
        it.digest = Fnv1a::hash(text.as_bytes());
        tracer.close(span);
        tracer.close(root);
        it.wall_s = secs(start);
        it.exec_s = stage_s[0];
        it.cells = runs.len() as u64;

        let names = [
            "repro.simulation_s",
            "repro.figures_s",
            "repro.study_s",
            "repro.tables_s",
        ];
        for (name, value) in names.into_iter().zip(stage_s) {
            it.layers.set(name, value, "s");
        }
        let events: usize = runs.iter().map(|r| r.events).sum();
        let release: u64 = runs.iter().map(|r| r.release_work).sum();
        it.layers.set("batchsim.events", events as f64, "count");
        it.layers
            .set("batchsim.release_work", release as f64, "count");
        it
    }

    fn probes(&mut self, _untraced: &Iteration, out: &mut Metrics, tally: &mut Tally) {
        // The 18 policy runs again, one at a time on two workers, through
        // `run_cell_in_obs`: first with the no-op recorder (per-run
        // timing), then with a recording one (phases and its cost).
        let (trace, table) = self.prepare();
        let scenarios = [
            Scenario::eba(self.seed, SimScale::Paper.users()),
            Scenario::cba(self.seed, SimScale::Paper.users()),
            Scenario::low_carbon(self.seed, SimScale::Paper.users()),
        ];
        let runs: Vec<(&Scenario, SimConfig)> = scenarios
            .iter()
            .flat_map(|s| {
                s.policies.iter().map(move |&policy| {
                    let config = SimConfig {
                        policy,
                        decision_method: s.decision,
                        sim_year: s.sim_year,
                        users: s.users,
                        backfill_depth: DEFAULT_BACKFILL_DEPTH,
                        market: None,
                    };
                    (s, config)
                })
            })
            .collect();
        let plain = timed_runs(&runs, &trace, &table, &NoopRecorder);
        let rec = StatsRecorder::new();
        let recorded = timed_runs(&runs, &trace, &table, &rec);
        let same =
            plain.len() == POLICY_RUNS && plain.iter().zip(&recorded).all(|(a, b)| a.1 == b.1);
        tally.record(POLICY_RUNS as u64 * 2, same);
        let plain_ms: Vec<f64> = plain.iter().map(|r| r.0 * 1e3).collect();
        let plain_s: f64 = plain.iter().map(|r| r.0).sum();
        let recorded_s: f64 = recorded.iter().map(|r| r.0).sum();
        let events: u64 = plain.iter().map(|r| r.1).sum();
        out.set("batchsim.cell_ms_p50", median(&plain_ms), "ms");
        out.set("batchsim.cell_ms_p99", 0.0, "ms");
        out.set("batchsim.cell_samples", plain_ms.len() as f64, "count");
        out.set("batchsim.events_per_s", events as f64 / plain_s, "1/s");
        out.set("batchsim.schedule_ms", ms(rec.phase(Phase::Schedule)), "ms");
        out.set("batchsim.events_ms", ms(rec.phase(Phase::Events)), "ms");
        out.set(
            "batchsim.attribute_ms",
            ms(rec.phase(Phase::Attribute)),
            "ms",
        );
        out.set("obs.overhead_x", recorded_s / plain_s, "x");
    }
}
