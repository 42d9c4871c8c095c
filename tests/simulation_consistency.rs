//! Batch-simulator consistency: conservation laws and cross-policy
//! sanity over a reduced workload.

use green_accounting::MethodKind;
use green_batchsim::metrics::cost;
use green_batchsim::{PlacementTable, Policy, Scenario, SimArena, SimConfig, Simulator};
use green_machines::simulation_fleet;
use green_obs::NoopRecorder;
use green_perfmodel::CrossMachinePredictor;
use green_workload::{Trace, TraceConfig};

struct World {
    trace: Trace,
    fleet: Vec<green_machines::FleetMachine>,
    table: PlacementTable,
    intensity: Vec<green_carbon::HourlyTrace>,
}

fn world(seed: u64) -> World {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, seed);
    let trace = Trace::generate(&TraceConfig::small(seed), &predictor);
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    let intensity = fleet
        .iter()
        .map(|m| m.spec.facility.region.trace(seed, 120))
        .collect();
    World {
        trace,
        fleet,
        table,
        intensity,
    }
}

#[test]
fn every_policy_conserves_jobs() {
    let w = world(51);
    for policy in Policy::paper_set() {
        let metrics = Simulator::new(
            &w.trace,
            &w.fleet,
            &w.table,
            &w.intensity,
            SimConfig::new(policy, MethodKind::eba(), 24),
        )
        .run(&mut SimArena::new(), &NoopRecorder);
        assert_eq!(
            metrics.outcomes.len() + metrics.rejected,
            w.trace.len(),
            "{}: jobs must be conserved",
            metrics.policy
        );
        // No outcome may start before its arrival or end before start.
        for o in &metrics.outcomes {
            assert!(o.start_s >= o.arrival_s - 1e-6);
            assert!(o.end_s > o.start_s);
            assert!(o.energy_kwh > 0.0);
            assert!(o.charges.iter().all(|c| *c >= 0.0));
            assert!(o.attributed_g >= o.op_carbon_g);
        }
    }
}

#[test]
fn outcome_energy_matches_placement_table() {
    let w = world(53);
    let metrics = Simulator::new(
        &w.trace,
        &w.fleet,
        &w.table,
        &w.intensity,
        SimConfig::new(Policy::Greedy, MethodKind::eba(), 24),
    )
    .run(&mut SimArena::new(), &NoopRecorder);
    for o in metrics.outcomes.iter().take(200) {
        let job = w
            .trace
            .jobs
            .iter()
            .find(|j| j.id.0 == o.job)
            .expect("job exists");
        let expect = w.table.energy(job, o.machine as usize).as_kwh();
        assert!(
            (o.energy_kwh - expect).abs() < expect * 1e-9 + 1e-12,
            "outcome energy must equal the table's prediction"
        );
    }
}

#[test]
fn total_work_identical_across_policies() {
    // "Work" is machine-neutral, so every policy that completes all jobs
    // reports the same total work.
    let w = world(57);
    let mut totals = Vec::new();
    for policy in [Policy::Greedy, Policy::Eft, Policy::Runtime] {
        let metrics = Simulator::new(
            &w.trace,
            &w.fleet,
            &w.table,
            &w.intensity,
            SimConfig::new(policy, MethodKind::eba(), 24),
        )
        .run(&mut SimArena::new(), &NoopRecorder);
        assert_eq!(metrics.rejected, 0);
        totals.push(metrics.total_work());
    }
    for t in &totals[1..] {
        assert!((t - totals[0]).abs() < totals[0] * 1e-9);
    }
}

#[test]
fn allocation_work_monotone_in_budget() {
    let w = world(59);
    let metrics = Simulator::new(
        &w.trace,
        &w.fleet,
        &w.table,
        &w.intensity,
        SimConfig::new(Policy::Greedy, MethodKind::eba(), 24),
    )
    .run(&mut SimArena::new(), &NoopRecorder);
    let total_cost = metrics.total_cost(cost::EBA);
    let mut last = 0.0;
    for frac in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let work = metrics.work_within_allocation(total_cost * frac, cost::EBA);
        assert!(work + 1e-9 >= last, "work must grow with the allocation");
        last = work;
    }
    assert!((last - metrics.total_work()).abs() < metrics.total_work() * 1e-9);
}

#[test]
fn scenario_results_deterministic_across_parallel_runs() {
    let w = world(61);
    let scenario = Scenario::eba(61, 24);
    let a = scenario.run(&w.trace, &w.table);
    let b = scenario.run(&w.trace, &w.table);
    assert_eq!(a, b, "parallel runs must not leak nondeterminism");
}
