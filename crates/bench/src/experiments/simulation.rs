//! Figures 5–7 and Table 6: the batch-simulation studies.
//!
//! The study prices 18 policy runs. Each run is folded to a
//! [`PolicyRun`] as soon as it is attributed, inside
//! [`Scenario::run_all`]: the figures read three per-job columns and a
//! few totals, so no run keeps its full outcome records until the
//! figures render.

use green_batchsim::metrics::{self, cost, ChargedJob, Totals};
use green_batchsim::{PlacementTable, RunMetrics, Scenario, ScenarioResults};
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

/// One policy run, folded to what Figures 5–7, Table 6 and the
/// benchmark's verify step read of it. Each field is computed from the
/// run's full [`RunMetrics`] by the same reduction the full metrics use
/// (`green_batchsim::metrics`), so every figure it feeds has the full
/// run's bits (`tests/folded_runs.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun {
    /// Policy display name.
    pub policy: String,
    /// Per completed job, in log order: its arrival, its charge under
    /// the scenario's allocation method, and its work — what the
    /// fixed-allocation walk of Figures 5a, 6 and 7a reads.
    pub outcomes: Vec<ChargedJob>,
    /// The method `outcomes` are charged under (`cost::*` index).
    pub kind: usize,
    /// Completion times in hours, in log order; kept for EBA runs only,
    /// the runs Figure 5b draws.
    pub end_hours: Option<Vec<f64>>,
    /// Jobs per fleet machine (Figure 5c).
    pub machines: Vec<usize>,
    /// The run's totals, summed in log order (Table 6).
    pub totals: Totals,
    /// Jobs the policy could not place anywhere.
    pub rejected: usize,
    /// Discrete events the simulation loop processed.
    pub events: usize,
    /// Release-list entries examined by backfill reservations.
    pub release_work: u64,
}

impl PolicyRun {
    /// Folds `run`, one policy run of `scenario`, charging its jobs under
    /// the scenario's decision method.
    pub fn fold(scenario: &Scenario, run: &RunMetrics) -> PolicyRun {
        let kind = cost::of(scenario.decision);
        let jobs = run.outcomes.len();
        let mut outcomes = Vec::with_capacity(jobs);
        let mut end_hours = (kind == cost::EBA).then(|| Vec::with_capacity(jobs));
        let mut machines = vec![0; scenario.fleet.len()];
        let mut totals = Totals::default();
        // One pass: a paper run's outcome records outgrow the caches, so
        // each reduction takes its step as the pass reads each record.
        for o in &run.outcomes {
            outcomes.push(o.charged(kind));
            if let Some(ends) = &mut end_hours {
                ends.push(o.end_hours());
            }
            metrics::count_machine(&mut machines, o);
            totals.add(o);
        }
        PolicyRun {
            policy: run.policy.clone(),
            outcomes,
            kind,
            end_hours,
            machines,
            totals,
            rejected: run.rejected,
            events: run.events,
            release_work: run.release_work,
        }
    }

    /// Total energy in MWh.
    pub fn total_energy_mwh(&self) -> f64 {
        self.totals.energy_mwh()
    }

    /// Total operational carbon in kgCO2e.
    pub fn operational_carbon_kg(&self) -> f64 {
        self.totals.operational_carbon_kg()
    }

    /// Total attributed carbon (operational + embodied) in kgCO2e.
    pub fn attributed_carbon_kg(&self) -> f64 {
        self.totals.attributed_carbon_kg()
    }
}

/// Everything the simulation figures need, computed once.
#[derive(Debug)]
pub struct SimArtifacts {
    /// The (doubled) workload.
    pub trace: Trace,
    /// EBA scenario results (8 policies) — Figures 5a–5c, Table 6.
    pub eba: ScenarioResults<PolicyRun>,
    /// CBA scenario results — Figure 6, Table 6.
    pub cba: ScenarioResults<PolicyRun>,
    /// Low-carbon scenario results — Figure 7a.
    pub low_carbon: ScenarioResults<PolicyRun>,
    /// Figure 7b: one day's hourly intensity per machine (low-carbon
    /// grids), `[machine][hour]`.
    pub fig7b: Vec<Vec<f64>>,
    /// Figure 7c: cheapest-machine share by hour, `[hour][machine]`.
    pub fig7c: Vec<Vec<f64>>,
    /// Fleet machine names, index-aligned.
    pub machine_names: Vec<String>,
}

/// The doubled workload at `scale` and its placement table on the
/// Table 5 fleet.
pub fn world(scale: SimScale, seed: u64) -> (Trace, PlacementTable) {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, seed);
    let trace = Trace::generate(&scale.trace_config(seed), &predictor).doubled();
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    (trace, table)
}

/// The study's three scenarios at `scale`: EBA, CBA and low-carbon CBA.
pub fn scenarios(scale: SimScale, seed: u64) -> [Scenario; 3] {
    let users = scale.users();
    [
        Scenario::eba(seed, users),
        Scenario::cba(seed, users),
        Scenario::low_carbon(seed, users),
    ]
}

/// Runs the full simulation study at `scale`.
pub fn run(scale: SimScale, seed: u64) -> SimArtifacts {
    let (trace, table) = world(scale, seed);
    study(trace, &table, &scenarios(scale, seed))
}

/// Runs `scenarios` (EBA, CBA, low-carbon CBA, as [`scenarios`] builds
/// them) over `trace` and folds each run to a [`PolicyRun`].
pub fn study(trace: Trace, table: &PlacementTable, scenarios: &[Scenario; 3]) -> SimArtifacts {
    // One pool over all three scenarios: their 12 runs that read no
    // charge share 6 schedules, so the 18 results take 12 simulations.
    let [eba, cba, low_carbon]: [ScenarioResults<PolicyRun>; 3] =
        Scenario::run_all(scenarios, &trace, table, PolicyRun::fold)
            .try_into()
            .expect("one result per scenario");
    let low_scenario = &scenarios[2];

    // Figure 7b: day 10 of each low-carbon grid.
    let fig7b = low_scenario
        .intensity
        .iter()
        .map(|t| t.day_profile(10))
        .collect();
    let fig7c = low_scenario.cheapest_by_hour(&trace, table, 400, 10);

    SimArtifacts {
        trace,
        eba,
        cba,
        low_carbon,
        fig7b,
        fig7c,
        machine_names: low_scenario
            .fleet
            .iter()
            .map(|m| m.spec.name.clone())
            .collect(),
    }
}

/// The fixed-allocation work comparison of one scenario (Figures 5a, 6,
/// 7a): the allocation is the *Greedy* run's total charge, and every
/// policy reports the work it finishes within it. The runs are walked
/// in parallel.
fn work_with_fixed_allocation(results: &ScenarioResults<PolicyRun>) -> Vec<(String, f64)> {
    let allocation =
        run_named(results, "Greedy").map_or(f64::INFINITY, |g| g.totals.charges[g.kind]);
    green_pool::map(&results.runs, |_, r| {
        (
            r.policy.clone(),
            metrics::work_within_allocation(r.outcomes.iter().copied(), allocation),
        )
    })
}

/// The run of policy `name` in `results`.
fn run_named<'a>(results: &'a ScenarioResults<PolicyRun>, name: &str) -> Option<&'a PolicyRun> {
    results.runs.iter().find(|r| r.policy == name)
}

impl SimArtifacts {
    /// Figure 5a: work (core-hours) per policy under a fixed EBA
    /// allocation.
    pub fn fig5a(&self) -> Vec<(String, f64)> {
        work_with_fixed_allocation(&self.eba)
    }

    /// Figure 6: work per policy under a fixed CBA allocation.
    pub fn fig6(&self) -> Vec<(String, f64)> {
        work_with_fixed_allocation(&self.cba)
    }

    /// Figure 7a: work per policy under CBA with low-carbon grids.
    pub fn fig7a(&self) -> Vec<(String, f64)> {
        work_with_fixed_allocation(&self.low_carbon)
    }

    /// Figure 5b: jobs-finished curves per policy (hours, cumulative).
    pub fn fig5b(&self, bucket_hours: f64) -> Vec<(String, Vec<(f64, usize)>)> {
        self.eba
            .runs
            .iter()
            .map(|r| {
                let ends = r.end_hours.as_ref().expect("EBA runs keep their end times");
                (
                    r.policy.clone(),
                    metrics::finished_curve(ends.iter().copied(), bucket_hours),
                )
            })
            .collect()
    }

    /// Figure 5c: per-policy machine distributions.
    pub fn fig5c(&self) -> Vec<(String, Vec<usize>)> {
        self.eba
            .runs
            .iter()
            .map(|r| (r.policy.clone(), r.machines.clone()))
            .collect()
    }

    /// Table 6 rows: (label, energy MWh, operational kg, attributed kg).
    pub fn table6(&self) -> Vec<(String, f64, f64, f64)> {
        let row = |label: String, run: &PolicyRun| {
            (
                label,
                run.total_energy_mwh(),
                run.operational_carbon_kg(),
                run.attributed_carbon_kg(),
            )
        };
        let mut rows = Vec::new();
        for (results, tag) in [(&self.eba, "EBA"), (&self.cba, "CBA")] {
            for name in ["Greedy", "Mixed"] {
                if let Some(run) = run_named(results, name) {
                    rows.push(row(format!("{name} - {tag}"), run));
                }
            }
        }
        for name in ["Energy", "EFT", "Runtime"] {
            if let Some(run) = run_named(&self.eba, name) {
                rows.push(row(name.to_string(), run));
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
