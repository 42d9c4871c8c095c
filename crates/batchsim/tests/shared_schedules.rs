//! Shared schedules ≡ independent runs. `Scenario::run_all` simulates a
//! policy that reads no charge once per schedule key and attributes that
//! one schedule under every scenario that runs the policy. This battery
//! runs the paper's three scenarios through it and compares every result
//! with one independent `Simulator::run` per (scenario, policy), every
//! field of every outcome bit for bit.
//!
//! The tiny case runs in tier-1. The paper-scale case (142,380 jobs, 18
//! runs each way) is ignored by default; CI runs it in release with
//!
//! ```text
//! cargo test --release -p green-batchsim --test shared_schedules -- --ignored
//! ```

use green_batchsim::cluster::DEFAULT_BACKFILL_DEPTH;
use green_batchsim::{
    JobOutcome, PlacementTable, RunMetrics, Scenario, SimArena, SimConfig, Simulator,
};
use green_machines::simulation_fleet;
use green_obs::NoopRecorder;
use green_perfmodel::CrossMachinePredictor;
use green_workload::{Trace, TraceConfig};

/// The doubled trace and placement table `repro` builds for `config`.
fn world(config: &TraceConfig) -> (Trace, PlacementTable) {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, config.seed);
    let trace = Trace::generate(config, &predictor).doubled();
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    (trace, table)
}

/// Every field of two runs, floats compared by bit pattern.
fn assert_bit_identical(shared: &RunMetrics, alone: &RunMetrics, label: &str) {
    assert_eq!(shared.policy, alone.policy, "{label}: policy");
    assert_eq!(shared.rejected, alone.rejected, "{label}: rejected");
    assert_eq!(shared.events, alone.events, "{label}: events");
    assert_eq!(
        shared.release_work, alone.release_work,
        "{label}: release_work"
    );
    assert_eq!(
        shared.outcomes.len(),
        alone.outcomes.len(),
        "{label}: outcomes"
    );
    let bits = |o: &JobOutcome| {
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
        let floats = [
            arrival_s,
            start_s,
            end_s,
            energy_kwh,
            charges[0],
            charges[1],
            charges[2],
            charges[3],
            charges[4],
            op_carbon_g,
            attributed_g,
            work_core_hours,
        ];
        ([job, user, machine, cores], floats.map(f64::to_bits))
    };
    for (i, (a, b)) in shared.outcomes.iter().zip(&alone.outcomes).enumerate() {
        assert_eq!(bits(a), bits(b), "{label}: outcome {i}");
    }
}

/// `run_all` over the EBA, CBA and low-carbon scenarios against one
/// independent run per (scenario, policy).
fn check(config: TraceConfig, users: u32) {
    let (trace, table) = world(&config);
    let seed = config.seed;
    let scenarios = [
        Scenario::eba(seed, users),
        Scenario::cba(seed, users),
        Scenario::low_carbon(seed, users),
    ];
    let shared = Scenario::run_all(&scenarios, &trace, &table);
    assert_eq!(shared.len(), scenarios.len());
    let runs: Vec<(usize, usize)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, scenario)| (0..scenario.policies.len()).map(move |p| (s, p)))
        .collect();
    let alone: Vec<RunMetrics> = green_pool::map(&runs, |_, &(s, p)| {
        let scenario = &scenarios[s];
        let config = SimConfig {
            policy: scenario.policies[p],
            decision_method: scenario.decision,
            sim_year: scenario.sim_year,
            users: scenario.users,
            backfill_depth: DEFAULT_BACKFILL_DEPTH,
            market: None,
        };
        Simulator::new(&trace, &scenario.fleet, &table, &scenario.intensity, config)
            .run(&mut SimArena::new(), &NoopRecorder)
    });
    for (&(s, p), alone) in runs.iter().zip(&alone) {
        let results = &shared[s];
        assert_eq!(results.scenario, scenarios[s].name);
        assert_eq!(results.runs.len(), scenarios[s].policies.len());
        let label = format!("{} {}", scenarios[s].name, alone.policy);
        assert_bit_identical(&results.runs[p], alone, &label);
    }
    // The comparison catches a wrongly shared schedule only where the
    // scenarios' schedules differ. Greedy and Mixed choose by price, so
    // theirs must differ between EBA and CBA.
    let schedule = |m: &RunMetrics| -> Vec<(u32, u64, u64)> {
        m.outcomes
            .iter()
            .map(|o| (o.machine, o.start_s.to_bits(), o.end_s.to_bits()))
            .collect()
    };
    for name in ["Greedy", "Mixed"] {
        let eba = shared[0].run(name).expect("EBA runs it");
        let cba = shared[1].run(name).expect("CBA runs it");
        assert!(
            schedule(eba) != schedule(cba),
            "{name} chooses by price but schedules alike under EBA and CBA"
        );
    }
}

#[test]
fn shared_schedules_match_independent_runs_at_tiny_scale() {
    check(TraceConfig::small(7), 24);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn shared_schedules_match_independent_runs_at_paper_scale() {
    check(TraceConfig::paper_scale(7), 250);
}
