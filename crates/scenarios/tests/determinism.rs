//! The engine's central guarantee: the aggregated output of a sweep is a
//! pure function of the sweep spec — worker-thread count must not change
//! a single byte. Market-enabled sweeps (adaptive agents, dynamic
//! prices, per-cell settlement) are held to the same bar, and the
//! two `CreditStore` backends must be indistinguishable on the same
//! transaction stream.

use green_accounting::{CreditStore, LockedLedger};
use green_market::{
    market_population, price_table, settle_run, CreditBank, PriceSpec, ShardedLedger,
};
use green_scenarios::{MethodSpec, PolicySpec, Sweep, SweepRunner};

fn sensitivity_sweep() -> Sweep {
    let mut sweep = Sweep::new("determinism");
    sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Energy, PolicySpec::Eft];
    sweep.methods = vec![MethodSpec::Eba, MethodSpec::Cba];
    sweep.intensity_scales = vec![1.0, 1.5];
    sweep.intensity_jitter = 0.1;
    sweep.seeds = vec![1, 2, 3];
    sweep
}

#[test]
fn csv_is_byte_identical_across_thread_counts() {
    let sweep = sensitivity_sweep();
    assert_eq!(sweep.cell_count(), 36);

    let serial = SweepRunner::new(1).run(&sweep).to_csv_string();
    for threads in [2, 4, 8] {
        let parallel = SweepRunner::new(threads).run(&sweep).to_csv_string();
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the aggregated CSV"
        );
    }
    // And re-running serially reproduces the same bytes (no hidden
    // global state).
    assert_eq!(serial, SweepRunner::new(1).run(&sweep).to_csv_string());
}

#[test]
fn structured_results_equal_across_thread_counts() {
    let mut sweep = sensitivity_sweep();
    // Trim to keep two full runs cheap.
    sweep.policies = vec![PolicySpec::Greedy];
    sweep.intensity_scales = vec![1.0];
    let a = SweepRunner::new(1).run(&sweep);
    let b = SweepRunner::new(4).run(&sweep);
    assert_eq!(a, b);
}

/// A market-enabled sweep: adaptive agents reacting to carbon-indexed
/// posted prices, settled per cell with banking. The full incentive
/// loop must still be a pure function of the spec.
#[test]
fn market_sweep_is_byte_identical_across_thread_counts() {
    let mut sweep = Sweep::new("market-determinism");
    sweep.policies = vec![PolicySpec::Adaptive];
    sweep.methods = vec![MethodSpec::Cba];
    sweep.workload_scales = vec![0.25];
    sweep.elasticities = vec![0.0, 1.5];
    sweep.price_schedules = vec![PriceSpec::parse("carbon:1.5").unwrap()];
    sweep.banking_caps = vec![100.0];
    sweep.intensity_jitter = 0.1;
    sweep.seeds = vec![1, 2];

    let serial = SweepRunner::new(1).run(&sweep).to_csv_string();
    // Market cells must actually exercise the market columns.
    assert!(serial.contains("carbon:1.500"));
    let posted: Vec<&str> = serial.lines().skip(1).collect();
    assert!(!posted.is_empty());
    for threads in [2, 8] {
        let parallel = SweepRunner::new(threads).run(&sweep).to_csv_string();
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the market sweep CSV"
        );
    }
}

/// The two `CreditStore` backends fed one simulated run's settlement
/// stream end with identical balances and transaction views.
#[test]
fn credit_store_backends_agree_on_a_settlement_stream() {
    // One real simulated cell's outcomes, via the public runner path.
    let mut sweep = Sweep::new("backend-xcheck");
    sweep.policies = vec![PolicySpec::Adaptive];
    sweep.methods = vec![MethodSpec::Cba];
    sweep.workload_scales = vec![0.25];
    sweep.elasticities = vec![1.0];
    sweep.price_schedules = vec![PriceSpec::parse("carbon:1.5").unwrap()];
    let world = green_scenarios::SweepWorld::build(&sweep);
    let spec = &sweep.expand()[0].spec;

    // Re-derive the cell's raw outcomes and prices the way the runner
    // does, then settle the identical stream through both backends.
    let fleet = green_machines::simulation_fleet();
    let intensity: Vec<green_carbon::HourlyTrace> =
        green_batchsim::intensity_for(&fleet, spec.seed);
    let prices = std::sync::Arc::new(price_table(&intensity, spec.price_schedule));
    let population = &world.populations[0];
    let trace = &population
        .traces
        .iter()
        .find(|(s, _)| *s == 0.25)
        .unwrap()
        .1;
    let slice = &population.fleets[0];
    let config = green_batchsim::SimConfig {
        policy: spec.policy.to_policy(),
        decision_method: spec.method.to_method(),
        sim_year: spec.sim_year,
        users: spec.users,
        backfill_depth: spec.backfill_depth,
        market: Some(green_batchsim::MarketInputs {
            prices: std::sync::Arc::clone(&prices),
            agents: std::sync::Arc::new(market_population(
                spec.users as usize,
                sweep.workload.seed,
                spec.elasticity,
            )),
            max_delay_hours: 24,
            shift_threshold: 0.1,
        }),
    };
    let metrics =
        green_batchsim::run_cell(trace, &slice.machines, &slice.table, &intensity, config);
    assert!(!metrics.outcomes.is_empty());

    let locked = LockedLedger::new();
    let sharded = ShardedLedger::new(8);
    let mut bank_a = CreditBank::new(100.0, 0.05);
    let mut bank_b = CreditBank::new(100.0, 0.05);
    let a = settle_run(
        &metrics.outcomes,
        spec.method.cost_index(),
        &prices,
        &locked,
        &mut bank_a,
        1.25,
    );
    let b = settle_run(
        &metrics.outcomes,
        spec.method.cost_index(),
        &prices,
        &sharded,
        &mut bank_b,
        1.25,
    );
    assert_eq!(a, b, "settlement summaries diverged");
    assert_eq!(
        locked.snapshot(),
        sharded.snapshot(),
        "backend balances diverged"
    );
    assert_eq!(
        locked.transactions(),
        sharded.transactions(),
        "backend transaction views diverged"
    );
    assert!(locked.total_spent().value() > 0.0);
}
