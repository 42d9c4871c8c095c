//! Figures 5–7 and Table 6: the batch-simulation studies.

use green_batchsim::metrics::cost;
use green_batchsim::{PlacementTable, Scenario, ScenarioResults};
use green_machines::simulation_fleet;
use green_perfmodel::CrossMachinePredictor;
use green_workload::{Trace, TraceConfig};

/// Simulation scale: the paper's full workload or reduced versions for
/// `repro`'s default and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimScale {
    /// 142,380 jobs, 250 users, 60 days — the paper's workload.
    Paper,
    /// ~12,000 jobs — seconds per policy in release builds.
    Quick,
    /// ~3,000 jobs — CI-sized.
    Tiny,
}

impl SimScale {
    fn trace_config(self, seed: u64) -> TraceConfig {
        match self {
            SimScale::Paper => TraceConfig::paper_scale(seed),
            SimScale::Quick => TraceConfig {
                users: 60,
                unique_jobs: 6_000,
                duration: green_units::TimeSpan::from_days(14.0),
                max_runtime: green_units::TimeSpan::from_hours(48.0),
                seed,
            },
            SimScale::Tiny => TraceConfig::small(seed),
        }
    }

    /// User population (sizes the Desktop pool).
    pub fn users(self) -> u32 {
        match self {
            SimScale::Paper => 250,
            SimScale::Quick => 60,
            SimScale::Tiny => 24,
        }
    }
}

/// Everything the simulation figures need, computed once.
#[derive(Debug)]
pub struct SimArtifacts {
    /// The (doubled) workload.
    pub trace: Trace,
    /// EBA scenario results (8 policies) — Figures 5a–5c, Table 6.
    pub eba: ScenarioResults,
    /// CBA scenario results — Figure 6, Table 6.
    pub cba: ScenarioResults,
    /// Low-carbon scenario results — Figure 7a.
    pub low_carbon: ScenarioResults,
    /// Figure 7b: one day's hourly intensity per machine (low-carbon
    /// grids), `[machine][hour]`.
    pub fig7b: Vec<Vec<f64>>,
    /// Figure 7c: cheapest-machine share by hour, `[hour][machine]`.
    pub fig7c: Vec<[f64; 4]>,
    /// Fleet machine names, index-aligned.
    pub machine_names: Vec<String>,
}

/// Runs the full simulation study at `scale`.
pub fn run(scale: SimScale, seed: u64) -> SimArtifacts {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, seed);
    let trace = Trace::generate(&scale.trace_config(seed), &predictor).doubled();
    let table = PlacementTable::build(&trace, &fleet, &predictor);

    let users = scale.users();
    let scenarios = [
        Scenario::eba(seed, users),
        Scenario::cba(seed, users),
        Scenario::low_carbon(seed, users),
    ];
    // One pool over all three scenarios: their 12 runs that read no
    // charge share 6 schedules, so the 18 results take 12 simulations.
    let [eba, cba, low_carbon]: [ScenarioResults; 3] =
        Scenario::run_all(&scenarios, &trace, &table)
            .try_into()
            .expect("one result per scenario");
    let low_scenario = &scenarios[2];

    // Figure 7b: day 10 of each low-carbon grid.
    let fig7b = low_scenario
        .intensity
        .iter()
        .map(|t| t.day_profile(10))
        .collect();
    let fig7c = low_scenario.cheapest_by_hour(&trace, &table, 400, 10);

    SimArtifacts {
        trace,
        eba,
        cba,
        low_carbon,
        fig7b,
        fig7c,
        machine_names: fleet.iter().map(|m| m.spec.name.clone()).collect(),
    }
}

impl SimArtifacts {
    /// Figure 5a: work (core-hours) per policy under a fixed EBA
    /// allocation.
    pub fn fig5a(&self) -> Vec<(String, f64)> {
        self.eba.work_with_fixed_allocation(cost::EBA)
    }

    /// Figure 6: work per policy under a fixed CBA allocation.
    pub fn fig6(&self) -> Vec<(String, f64)> {
        self.cba.work_with_fixed_allocation(cost::CBA)
    }

    /// Figure 7a: work per policy under CBA with low-carbon grids.
    pub fn fig7a(&self) -> Vec<(String, f64)> {
        self.low_carbon.work_with_fixed_allocation(cost::CBA)
    }

    /// Figure 5b: jobs-finished curves per policy (hours, cumulative).
    pub fn fig5b(&self, bucket_hours: f64) -> Vec<(String, Vec<(f64, usize)>)> {
        self.eba
            .runs
            .iter()
            .map(|r| (r.policy.clone(), r.jobs_finished_curve(bucket_hours)))
            .collect()
    }

    /// Figure 5c: per-policy machine distributions.
    pub fn fig5c(&self) -> Vec<(String, Vec<usize>)> {
        self.eba
            .runs
            .iter()
            .map(|r| (r.policy.clone(), r.machine_distribution(4)))
            .collect()
    }

    /// Table 6 rows: (label, energy MWh, operational kg, attributed kg).
    pub fn table6(&self) -> Vec<(String, f64, f64, f64)> {
        let mut rows = Vec::new();
        for (results, tag) in [(&self.eba, "EBA"), (&self.cba, "CBA")] {
            for name in ["Greedy", "Mixed"] {
                if let Some(run) = results.run(name) {
                    rows.push((
                        format!("{name} - {tag}"),
                        run.total_energy_mwh(),
                        run.operational_carbon_kg(),
                        run.attributed_carbon_kg(),
                    ));
                }
            }
        }
        for name in ["Energy", "EFT", "Runtime"] {
            if let Some(run) = self.eba.run(name) {
                rows.push((
                    name.to_string(),
                    run.total_energy_mwh(),
                    run.operational_carbon_kg(),
                    run.attributed_carbon_kg(),
                ));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's orderings are claims rows (`claims::figure5`,
    /// `claims::table6`).
    #[test]
    fn tiny_scale_reproduces_headline_shapes() {
        let artifacts = run(SimScale::Tiny, 31);
        // Fig 7c: shares sum to 1 per hour.
        for row in &artifacts.fig7c {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // Fig 7b: 4 machines × 24 hours.
        assert_eq!(artifacts.fig7b.len(), 4);
        assert!(artifacts.fig7b.iter().all(|d| d.len() == 24));
    }
}
