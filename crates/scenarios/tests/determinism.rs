//! The engine's central guarantee: the aggregated output of a sweep is a
//! pure function of the sweep spec — worker-thread count must not change
//! a single byte. Market-enabled sweeps (adaptive agents, dynamic
//! prices, per-cell settlement) are held to the same bar.

use green_market::PriceSpec;
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

/// The sweep's aggregated CSV, run on `threads` workers.
fn csv(sweep: &Sweep, threads: usize) -> String {
    SweepRunner::new(threads)
        .run(sweep)
        .unwrap()
        .to_csv_string()
}

#[test]
fn csv_is_byte_identical_across_thread_counts() {
    let sweep = sensitivity_sweep();
    assert_eq!(sweep.cell_count(), 36);

    let serial = csv(&sweep, 1);
    for threads in [2, 4, 8] {
        let parallel = csv(&sweep, threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the aggregated CSV"
        );
    }
    // And re-running serially reproduces the same bytes (no hidden
    // global state).
    assert_eq!(serial, csv(&sweep, 1));
}

#[test]
fn structured_results_equal_across_thread_counts() {
    let mut sweep = sensitivity_sweep();
    // Trim to keep two full runs cheap.
    sweep.policies = vec![PolicySpec::Greedy];
    sweep.intensity_scales = vec![1.0];
    let a = SweepRunner::new(1).run(&sweep).unwrap();
    let b = SweepRunner::new(4).run(&sweep).unwrap();
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

    let serial = csv(&sweep, 1);
    // Market cells must actually exercise the market columns.
    assert!(serial.contains("carbon:1.500"));
    let posted: Vec<&str> = serial.lines().skip(1).collect();
    assert!(!posted.is_empty());
    for threads in [2, 8] {
        let parallel = csv(&sweep, threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the market sweep CSV"
        );
    }
}
