//! Folded runs ≡ full runs. `simulation::run` folds each policy run to a
//! `PolicyRun` as soon as it is attributed, so it never holds the 18
//! runs' outcome records at once. This oracle runs the same study again
//! through `Scenario::run_all`'s identity fold, which keeps every run's
//! full `RunMetrics`, and compares what the folded artifacts produce with
//! what the full metrics give, floats by bit pattern: every value of
//! Figures 5a, 5b, 5c, 6 and 7a, every Table 6 row, and each run's
//! completed jobs, rejections, events, release work and totals.
//!
//! Generated arrivals never tie, so the fixed-allocation walk's
//! log-order tie break shows only in a world whose arrivals are floored
//! to the hour; the oracle runs one of those too.

use green_batchsim::metrics::cost;
use green_batchsim::{PlacementTable, RunMetrics, Scenario, ScenarioResults};
use green_bench::experiments::simulation::{self, SimArtifacts};
use green_bench::SimScale;
use green_units::TimePoint;
use green_workload::Trace;

/// `(policy, work)` pairs with the work's bit pattern.
fn work_bits(rows: &[(String, f64)]) -> Vec<(String, u64)> {
    rows.iter()
        .map(|(policy, work)| (policy.clone(), work.to_bits()))
        .collect()
}

/// A jobs-finished curve with its times' bit patterns.
fn curve_bits(curve: &[(f64, usize)]) -> Vec<(u64, usize)> {
    curve.iter().map(|&(t, done)| (t.to_bits(), done)).collect()
}

/// A run's totals as bit patterns: energy, operational and attributed
/// carbon, and the charge under the scenario's allocation method.
fn totals_bits(energy: f64, op: f64, attributed: f64, charge: f64) -> [u64; 4] {
    [energy, op, attributed, charge].map(f64::to_bits)
}

/// Table 6 from the full runs, row by row as the paper lays it out.
fn table6(eba: &ScenarioResults, cba: &ScenarioResults) -> Vec<(String, [u64; 3])> {
    let row = |label: String, run: &RunMetrics| {
        let values = [
            run.total_energy_mwh(),
            run.operational_carbon_kg(),
            run.attributed_carbon_kg(),
        ];
        (label, values.map(f64::to_bits))
    };
    let mut rows = Vec::new();
    for (results, tag) in [(eba, "EBA"), (cba, "CBA")] {
        for name in ["Greedy", "Mixed"] {
            rows.push(row(format!("{name} - {tag}"), results.run(name).unwrap()));
        }
    }
    for name in ["Energy", "EFT", "Runtime"] {
        rows.push(row(name.to_string(), eba.run(name).unwrap()));
    }
    rows
}

/// Runs the study over `trace` both ways and compares them.
fn check(trace: Trace, table: &PlacementTable, scenarios: &[Scenario; 3], label: &str) {
    let full = Scenario::run_all(scenarios, &trace, table, |_, run| run.clone());
    let folded: SimArtifacts = simulation::study(trace, table, scenarios);
    let (eba, cba, low) = (&full[0], &full[1], &full[2]);

    let figures = [
        (
            "5a",
            folded.fig5a(),
            eba.work_with_fixed_allocation(cost::EBA),
        ),
        (
            "6",
            folded.fig6(),
            cba.work_with_fixed_allocation(cost::CBA),
        ),
        (
            "7a",
            folded.fig7a(),
            low.work_with_fixed_allocation(cost::CBA),
        ),
    ];
    for (figure, folded, full) in figures {
        assert_eq!(
            work_bits(&folded),
            work_bits(&full),
            "{label}: Figure {figure}"
        );
    }
    for bucket in [50.0, 100.0] {
        let expected: Vec<_> = eba
            .runs
            .iter()
            .map(|r| (r.policy.clone(), curve_bits(&r.jobs_finished_curve(bucket))))
            .collect();
        let got: Vec<_> = folded
            .fig5b(bucket)
            .iter()
            .map(|(policy, curve)| (policy.clone(), curve_bits(curve)))
            .collect();
        assert_eq!(got, expected, "{label}: Figure 5b, {bucket} h buckets");
    }
    let machines = scenarios[0].fleet.len();
    let expected: Vec<_> = eba
        .runs
        .iter()
        .map(|r| (r.policy.clone(), r.machine_distribution(machines)))
        .collect();
    assert_eq!(folded.fig5c(), expected, "{label}: Figure 5c");
    let got: Vec<_> = folded
        .table6()
        .into_iter()
        .map(|(name, mwh, op, attr)| (name, [mwh, op, attr].map(f64::to_bits)))
        .collect();
    assert_eq!(got, table6(eba, cba), "{label}: Table 6");

    let folded_results = [&folded.eba, &folded.cba, &folded.low_carbon];
    for ((results, full), scenario) in folded_results.into_iter().zip(&full).zip(scenarios) {
        assert_eq!(results.scenario, full.scenario, "{label}");
        assert_eq!(results.runs.len(), full.runs.len(), "{label}");
        let kind = cost::of(scenario.decision);
        for (run, whole) in results.runs.iter().zip(&full.runs) {
            let at = format!("{label}: {} {}", full.scenario, whole.policy);
            assert_eq!(run.policy, whole.policy, "{at}");
            assert_eq!(run.outcomes.len(), whole.outcomes.len(), "{at}: completed");
            assert_eq!(run.rejected, whole.rejected, "{at}: rejected");
            assert_eq!(run.events, whole.events, "{at}: events");
            assert_eq!(run.release_work, whole.release_work, "{at}: release work");
            assert_eq!(
                totals_bits(
                    run.total_energy_mwh(),
                    run.operational_carbon_kg(),
                    run.attributed_carbon_kg(),
                    run.totals.charges[run.kind],
                ),
                totals_bits(
                    whole.total_energy_mwh(),
                    whole.operational_carbon_kg(),
                    whole.attributed_carbon_kg(),
                    whole.total_cost(kind),
                ),
                "{at}: totals"
            );
        }
    }
}

/// The study at `scale` over three seeds.
fn check_scale(scale: SimScale, seeds: [u64; 3]) {
    for seed in seeds {
        let (trace, table) = simulation::world(scale, seed);
        let label = format!("{scale:?} seed {seed}");
        check(trace, &table, &simulation::scenarios(scale, seed), &label);
    }
}

#[test]
fn folded_runs_match_full_runs_at_tiny_scale() {
    check_scale(SimScale::Tiny, [31, 5, 12]);
}

#[test]
fn folded_runs_match_full_runs_at_quick_scale() {
    check_scale(SimScale::Quick, [31, 5, 12]);
}

/// Arrivals floored to the hour tie by the dozen, and tied jobs differ
/// in charge and work, so a walk that took a tie out of log order would
/// move Figures 5a, 6 and 7a.
#[test]
fn folded_runs_match_full_runs_with_tied_arrivals() {
    for seed in [31, 5, 12] {
        let (mut trace, table) = simulation::world(SimScale::Tiny, seed);
        for job in &mut trace.jobs {
            job.arrival = TimePoint::from_hours((job.arrival.as_secs() / 3600.0).floor());
        }
        let ties = trace
            .jobs
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert!(ties > trace.jobs.len() / 2, "seed {seed}: {ties} ties");
        let label = format!("hourly arrivals, seed {seed}");
        check(
            trace,
            &table,
            &simulation::scenarios(SimScale::Tiny, seed),
            &label,
        );
    }
}
