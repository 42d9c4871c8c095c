//! The paper's three simulation scenarios and their derived figures.

use green_accounting::MethodKind;
use green_carbon::{GridRegion, HourlyTrace, IntensitySource};
use green_machines::{simulation_fleet, FleetMachine, SIM_YEAR};
use green_obs::NoopRecorder;
use green_units::TimePoint;
use green_workload::Trace;

use crate::arena::SimArena;
use crate::cluster::DEFAULT_BACKFILL_DEPTH;
use crate::metrics::RunMetrics;
use crate::policy::Policy;
use crate::profile::PlacementTable;
use crate::simulator::{MachineTable, SimConfig, Simulator};

/// A fully specified simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (for reports).
    pub name: String,
    /// Accounting method driving cost-aware policies and the allocation
    /// comparison.
    pub decision: MethodKind,
    /// Policies to simulate.
    pub policies: Vec<Policy>,
    /// The fleet (possibly with re-assigned grids).
    pub fleet: Vec<FleetMachine>,
    /// Hourly intensity per machine, index-aligned with the fleet.
    pub intensity: Vec<HourlyTrace>,
    /// Simulation start year.
    pub sim_year: i32,
    /// Simulated user population (sizes the per-user Desktop pool).
    pub users: u32,
}

impl Scenario {
    /// Section 5.4: EBA over the Table 5 fleet, all eight policies.
    pub fn eba(seed: u64, users: u32) -> Scenario {
        let fleet = simulation_fleet();
        let intensity = intensity_for(&fleet, seed);
        Scenario {
            name: "EBA".into(),
            decision: MethodKind::eba(),
            policies: Policy::paper_set(),
            fleet,
            intensity,
            sim_year: SIM_YEAR,
            users,
        }
    }

    /// Section 5.5: CBA over the same fleet, multi-machine policies.
    pub fn cba(seed: u64, users: u32) -> Scenario {
        let fleet = simulation_fleet();
        let intensity = intensity_for(&fleet, seed);
        Scenario {
            name: "CBA".into(),
            decision: MethodKind::Cba,
            policies: Policy::multi_machine_set(),
            fleet,
            intensity,
            sim_year: SIM_YEAR,
            users,
        }
    }

    /// Section 5.6: the low-carbon scenario. Machines move to
    /// high-variability grids — IC → AU-SA, FASTER → CA-ON,
    /// Desktop → NO-NO2, Theta → DK-BHM — with embodied rates unchanged.
    pub fn low_carbon(seed: u64, users: u32) -> Scenario {
        let mut fleet = simulation_fleet();
        let regions = [
            GridRegion::CaOntario,        // FASTER
            GridRegion::NoSouthernNorway, // Desktop
            GridRegion::AuSouthAustralia, // IC
            GridRegion::DkBornholm,       // Theta
        ];
        for (machine, region) in fleet.iter_mut().zip(regions) {
            machine.spec.facility.region = region;
        }
        let intensity = intensity_for(&fleet, seed);
        Scenario {
            name: "CBA low-carbon".into(),
            decision: MethodKind::Cba,
            policies: Policy::multi_machine_set(),
            fleet,
            intensity,
            sim_year: SIM_YEAR,
            users,
        }
    }

    /// Runs every policy (in parallel) over the workload.
    pub fn run(&self, trace: &Trace, table: &PlacementTable) -> ScenarioResults {
        Scenario::run_all(std::slice::from_ref(self), trace, table)
            .pop()
            .expect("one result per scenario")
    }

    /// Runs every policy of every scenario over the workload, in
    /// parallel, simulating each schedule once. A policy that reads no
    /// charge ([`Policy::reads`]) schedules the same jobs at the same
    /// times under any accounting method, grid or year: its schedule
    /// depends only on the policy, the clusters' shapes, the user count
    /// and the backfill depth. Such a schedule is simulated once per
    /// distinct key and attributed under every scenario that runs the
    /// policy; a policy that reads a charge is simulated per scenario.
    /// The results equal one independent [`run_cell_in_obs`] per
    /// (scenario, policy), bit for bit (`tests/shared_schedules.rs`).
    pub fn run_all(
        scenarios: &[Scenario],
        trace: &Trace,
        table: &PlacementTable,
    ) -> Vec<ScenarioResults> {
        // One entry per simulated schedule: the (scenario, policy) runs
        // it serves, the first of which simulates it, and the key of a
        // schedule that reads no charge.
        let mut keys: Vec<Option<ScheduleKey>> = Vec::new();
        let mut schedules: Vec<Vec<(usize, usize)>> = Vec::new();
        for (s, scenario) in scenarios.iter().enumerate() {
            for (p, &policy) in scenario.policies.iter().enumerate() {
                let key = (!policy.reads().cost).then(|| scenario.schedule_key(policy));
                match keys.iter().position(|other| key.is_some() && *other == key) {
                    Some(i) => schedules[i].push((s, p)),
                    None => {
                        keys.push(key);
                        schedules.push(vec![(s, p)]);
                    }
                }
            }
        }
        let simulator = |(s, p): (usize, usize)| {
            let scenario = &scenarios[s];
            Simulator::new(
                trace,
                &scenario.fleet,
                table,
                &scenario.intensity,
                scenario.config(scenario.policies[p]),
            )
        };
        let attributed: Vec<Vec<RunMetrics>> = green_pool::map(&schedules, |_, runs| {
            let mut arena = SimArena::new();
            let counters = simulator(runs[0]).schedule_in(&mut arena, &NoopRecorder);
            // Attribution reads only the finish log: free the rest of
            // the arena first, so the outcome records can take its
            // memory.
            let finishes = std::mem::take(&mut arena.finishes);
            drop(arena);
            runs.iter()
                .map(|&run| {
                    simulator(run).attribute_in(&finishes, Vec::new(), counters, &NoopRecorder)
                })
                .collect()
        });
        let mut results: Vec<Vec<Option<RunMetrics>>> = scenarios
            .iter()
            .map(|s| vec![None; s.policies.len()])
            .collect();
        for (runs, metrics) in schedules.iter().zip(attributed) {
            for (&(s, p), m) in runs.iter().zip(metrics) {
                results[s][p] = Some(m);
            }
        }
        scenarios
            .iter()
            .zip(results)
            .map(|(scenario, runs)| ScenarioResults {
                scenario: scenario.name.clone(),
                runs: runs
                    .into_iter()
                    .map(|r| r.expect("every run is attributed"))
                    .collect(),
            })
            .collect()
    }

    /// The simulator configuration of `policy` in this scenario.
    fn config(&self, policy: Policy) -> SimConfig {
        SimConfig {
            policy,
            decision_method: self.decision,
            sim_year: self.sim_year,
            users: self.users,
            backfill_depth: DEFAULT_BACKFILL_DEPTH,
            market: None,
        }
    }

    /// What a charge-blind schedule of `policy` depends on in this
    /// scenario, beside the trace and the placement table.
    fn schedule_key(&self, policy: Policy) -> ScheduleKey {
        ScheduleKey {
            policy,
            clusters: self
                .fleet
                .iter()
                .map(|m| (m.spec.cores, m.nodes, m.spec.slice_cores, m.per_user))
                .collect(),
            users: self.users,
            backfill_depth: DEFAULT_BACKFILL_DEPTH,
        }
    }

    /// Figure 7c: for each hour of day, the share of jobs whose cheapest
    /// (CBA) machine is each fleet machine, aggregated over `days` days
    /// and a job sample of `sample` jobs. Each machine is priced as the
    /// simulator prices it, facility PUE included.
    #[allow(clippy::needless_range_loop)]
    pub fn cheapest_by_hour(
        &self,
        trace: &Trace,
        table: &PlacementTable,
        sample: usize,
        days: usize,
    ) -> Vec<[f64; 4]> {
        let machines = MachineTable::new(&self.fleet, self.sim_year);
        let step = (trace.jobs.len() / sample.max(1)).max(1);
        let jobs: Vec<usize> = (0..trace.jobs.len()).step_by(step).collect();
        let mut shares = vec![[0.0f64; 4]; 24];
        for hour in 0..24 {
            let mut counts = [0usize; 4];
            for day in 0..days {
                let at = TimePoint::from_hours((day * 24 + hour) as f64);
                for &j in &jobs {
                    let job = &trace.jobs[j];
                    let mut best = None;
                    let mut best_cost = f64::INFINITY;
                    for m in 0..self.fleet.len() {
                        if self.fleet[m].per_user && job.cores > self.fleet[m].spec.cores {
                            continue;
                        }
                        let provisioned = machines.provisioned(m, job.cores);
                        let mut ctx = machines.charge_basis(table, m, job, provisioned);
                        ctx.carbon_intensity = self.intensity[m].intensity_at(at);
                        let cost = MethodKind::Cba.charge(&ctx).value();
                        if cost < best_cost {
                            best_cost = cost;
                            best = Some(m);
                        }
                    }
                    if let Some(m) = best {
                        counts[m] += 1;
                    }
                }
            }
            let total: usize = counts.iter().sum();
            for m in 0..4 {
                shares[hour][m] = counts[m] as f64 / total.max(1) as f64;
            }
        }
        shares
    }
}

/// One year of per-machine hourly grid intensity for `fleet`, derived
/// deterministically from `seed` — the per-replicate state external sweep
/// drivers (the `green-scenarios` engine) re-derive per cell while
/// sharing the trace and placement table by reference.
pub fn intensity_for(fleet: &[FleetMachine], seed: u64) -> Vec<HourlyTrace> {
    fleet
        .iter()
        .map(|m| m.spec.facility.region.trace(seed, 365))
        .collect()
}

/// Simulates one policy/method configuration against shared, borrowed
/// experiment state, without re-deriving the trace or placement table,
/// on a reusable [`SimArena`] that amortizes all simulation allocations
/// across cells. See [`Simulator::run`] for the phase/counter taxonomy;
/// results are bit-identical regardless of the recorder.
pub fn run_cell_in_obs<R: green_obs::Recorder>(
    trace: &Trace,
    fleet: &[FleetMachine],
    table: &PlacementTable,
    intensity: &[HourlyTrace],
    config: SimConfig,
    arena: &mut SimArena,
    obs: &R,
) -> RunMetrics {
    Simulator::new(trace, fleet, table, intensity, config).run(arena, obs)
}

/// What a schedule that reads no charge depends on, beside the trace and
/// the placement table: the policy, each cluster's shape (cores per
/// node, nodes, slice, per-user flag), the user count and the backfill
/// depth.
#[derive(Debug, PartialEq)]
struct ScheduleKey {
    policy: Policy,
    clusters: Vec<(u32, u32, u32, bool)>,
    users: u32,
    backfill_depth: usize,
}

/// All policy runs of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResults {
    /// Scenario name.
    pub scenario: String,
    /// One metrics record per policy, in scenario policy order.
    pub runs: Vec<RunMetrics>,
}

impl ScenarioResults {
    /// Looks up a run by policy display name.
    pub fn run(&self, policy: &str) -> Option<&RunMetrics> {
        self.runs.iter().find(|r| r.policy == policy)
    }

    /// The fixed-allocation work comparison (Figures 5a, 6, 7a): the
    /// allocation is sized so the *Greedy* run completes its entire
    /// workload, and every policy reports the work it finishes within
    /// that same budget. Returns `(policy, core-hours)` pairs. The runs
    /// are folded in parallel.
    pub fn work_with_fixed_allocation(&self, kind: usize) -> Vec<(String, f64)> {
        let allocation = self
            .run("Greedy")
            .map(|g| g.total_cost(kind))
            .unwrap_or(f64::INFINITY);
        green_pool::map(&self.runs, |_, r| {
            (r.policy.clone(), r.work_within_allocation(allocation, kind))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::cost;
    use green_perfmodel::CrossMachinePredictor;
    use green_workload::TraceConfig;

    fn setup(scenario: &Scenario) -> (Trace, PlacementTable) {
        let predictor = CrossMachinePredictor::for_fleet(&scenario.fleet, 31);
        let trace = Trace::generate(&TraceConfig::small(31), &predictor);
        let table = PlacementTable::build(&trace, &scenario.fleet, &predictor);
        (trace, table)
    }

    #[test]
    fn eba_scenario_greedy_completes_most_work() {
        let scenario = Scenario::eba(31, 24);
        let (trace, table) = setup(&scenario);
        let results = scenario.run(&trace, &table);
        assert_eq!(results.runs.len(), 8);
        let work = results.work_with_fixed_allocation(cost::EBA);
        let get = |name: &str| {
            work.iter()
                .find(|(n, _)| n == name)
                .map(|(_, w)| *w)
                .unwrap()
        };
        let greedy = get("Greedy");
        assert!(greedy > 0.0);
        // Greedy completes at least as much work as every other policy
        // within its own allocation.
        for (name, w) in &work {
            assert!(
                *w <= greedy * 1.01,
                "{name} beat Greedy: {w:.0} vs {greedy:.0}"
            );
        }
        // Theta-only is the worst of the fixed policies under EBA.
        assert!(get("ALCF Theta") < get("Institutional Cluster"));
    }

    #[test]
    fn low_carbon_scenario_swaps_grids() {
        let scenario = Scenario::low_carbon(5, 8);
        assert_eq!(
            scenario.fleet[2].spec.facility.region,
            GridRegion::AuSouthAustralia
        );
        assert_eq!(
            scenario.fleet[3].spec.facility.region,
            GridRegion::DkBornholm
        );
        // Embodied rates unchanged from Table 5.
        let rate = scenario.fleet[0].spec.carbon_rate(SIM_YEAR).as_g_per_hour();
        assert!((rate - 105.2).abs() / 105.2 < 0.01);
    }

    #[test]
    fn cheapest_by_hour_shares_sum_to_one() {
        let scenario = Scenario::low_carbon(7, 8);
        let (trace, table) = setup(&scenario);
        let shares = scenario.cheapest_by_hour(&trace, &table, 100, 5);
        assert_eq!(shares.len(), 24);
        for row in &shares {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{row:?}");
        }
    }

    /// Figure 7c prices each machine as the simulator does, facility PUE
    /// included: a PUE of 1.5 on the machine most often cheapest must
    /// cost it some of the hours it wins at PUE 1.
    #[test]
    fn cheapest_by_hour_prices_facility_pue() {
        let mut scenario = Scenario::low_carbon(7, 8);
        let (trace, table) = setup(&scenario);
        let wins = |shares: &[[f64; 4]], m: usize| shares.iter().map(|h| h[m]).sum::<f64>();
        let before = scenario.cheapest_by_hour(&trace, &table, 100, 5);
        let top = (0..4)
            .max_by(|&a, &b| wins(&before, a).total_cmp(&wins(&before, b)))
            .unwrap();
        scenario.fleet[top].spec.facility.pue = 1.5;
        let after = scenario.cheapest_by_hour(&trace, &table, 100, 5);
        assert!(
            wins(&after, top) < wins(&before, top),
            "PUE 1.5 left machine {top}'s share at {:.3}",
            wins(&after, top)
        );
    }

    #[test]
    fn temporal_shifting_lands_at_spatial_parity() {
        // The GreedyShift extension on volatile low-carbon grids. The
        // instructive outcome: with four machines on decorrelated grids,
        // *spatial* arbitrage (Figure 7c — some machine is always cheap)
        // already captures nearly all the temporal variance, so adding a
        // 24 h delay budget moves the carbon bill by at most a few
        // percent in either direction (queue-compression noise included).
        let mut scenario = Scenario::low_carbon(13, 16);
        scenario.policies = vec![
            Policy::Greedy,
            Policy::GreedyShift {
                max_delay_hours: 24,
            },
        ];
        let (trace, table) = setup(&scenario);
        let results = scenario.run(&trace, &table);
        let greedy = &results.runs[0];
        let shifted = &results.runs[1];
        assert_eq!(shifted.policy, "Greedy+Shift(24h)");
        assert_eq!(greedy.outcomes.len(), shifted.outcomes.len());
        let ratio = shifted.attributed_carbon_kg() / greedy.attributed_carbon_kg();
        assert!(
            (0.90..1.05).contains(&ratio),
            "shifting should sit near spatial parity: ratio {ratio:.3}"
        );
    }
}
