//! Per-run metrics: everything Figures 5–7 and Table 6 are built from.

/// Index into [`JobOutcome::charges`], matching `MethodKind::ALL` order.
pub mod cost {
    /// Runtime (core-seconds).
    pub const RUNTIME: usize = 0;
    /// Energy (joules).
    pub const ENERGY: usize = 1;
    /// Peak (core-seconds × score).
    pub const PEAK: usize = 2;
    /// EBA (joules).
    pub const EBA: usize = 3;
    /// CBA (grams CO2e).
    pub const CBA: usize = 4;
}

/// The record of one completed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub job: u32,
    /// Submitting user.
    pub user: u32,
    /// Machine that ran the job (fleet index).
    pub machine: u32,
    /// Requested cores.
    pub cores: u32,
    /// Submission time (seconds).
    pub arrival_s: f64,
    /// Start time (seconds).
    pub start_s: f64,
    /// Completion time (seconds).
    pub end_s: f64,
    /// Energy consumed (kWh).
    pub energy_kwh: f64,
    /// Charges under all five methods (`cost::*` indices).
    pub charges: [f64; 5],
    /// Operational carbon (grams).
    pub op_carbon_g: f64,
    /// Attributed carbon: operational + embodied share (grams).
    pub attributed_g: f64,
    /// Machine-neutral work (core-hours averaged across machines).
    pub work_core_hours: f64,
}

impl JobOutcome {
    /// Queue wait in seconds.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }
}

/// An unsigned key that orders as [`f64::total_cmp`] orders: negative
/// values have every bit flipped, the others only the sign bit.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The outcome of simulating one policy over the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Policy display name.
    pub policy: String,
    /// One record per completed job.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs the policy could not place anywhere.
    pub rejected: usize,
    /// Discrete events the simulation loop processed (arrivals including
    /// shift re-submissions, plus finishes) — the deterministic work
    /// counter the perf suite trends instead of noisy wall time.
    pub events: usize,
    /// Release-list entries examined by backfill reservations, summed
    /// over all clusters — the scheduler's other deterministic work
    /// counter, so the bench gate sees reservation-scan regressions.
    pub release_work: u64,
}

impl RunMetrics {
    /// Total energy in MWh (the unit of Table 6).
    pub fn total_energy_mwh(&self) -> f64 {
        self.outcomes.iter().map(|o| o.energy_kwh).sum::<f64>() / 1_000.0
    }

    /// Total operational carbon in kgCO2e.
    pub fn operational_carbon_kg(&self) -> f64 {
        self.outcomes.iter().map(|o| o.op_carbon_g).sum::<f64>() / 1_000.0
    }

    /// Total attributed carbon (operational + embodied) in kgCO2e.
    pub fn attributed_carbon_kg(&self) -> f64 {
        self.outcomes.iter().map(|o| o.attributed_g).sum::<f64>() / 1_000.0
    }

    /// Total charge under one method (`cost::*` index).
    pub fn total_cost(&self, kind: usize) -> f64 {
        self.outcomes.iter().map(|o| o.charges[kind]).sum()
    }

    /// Total machine-neutral work in core-hours.
    pub fn total_work(&self) -> f64 {
        self.outcomes.iter().map(|o| o.work_core_hours).sum()
    }

    /// The fixed-allocation comparison of Figures 5a/6/7a: walk jobs in
    /// arrival order, spend the allocation, and report the work completed
    /// before it runs out. Jobs that arrive together are walked in log
    /// order.
    pub fn work_within_allocation(&self, allocation: f64, kind: usize) -> f64 {
        // Sort packed (arrival key, log position, charge, work) records
        // rather than references into the outcomes: the key orders as
        // `f64::total_cmp` does, and the position breaks ties, so an
        // unstable sort gives exactly a stable sort's order.
        let mut order: Vec<(u128, f64, f64)> = self
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let key = ((total_order_key(o.arrival_s) as u128) << 64) | i as u128;
                (key, o.charges[kind], o.work_core_hours)
            })
            .collect();
        order.sort_unstable_by_key(|&(key, _, _)| key);
        let mut spent = 0.0;
        let mut work = 0.0;
        // Relative slack: summation order differs from the total-cost
        // computation, so exact budgets can miss by one ULP-scale error.
        let budget = allocation * (1.0 + 1e-12) + 1e-9;
        for (_, charge, job_work) in order {
            if spent + charge > budget {
                break;
            }
            spent += charge;
            work += job_work;
        }
        work
    }

    /// Jobs completed over time: cumulative counts sampled every
    /// `bucket_hours` (Figure 5b).
    pub fn jobs_finished_curve(&self, bucket_hours: f64) -> Vec<(f64, usize)> {
        if self.outcomes.is_empty() {
            return Vec::new();
        }
        let mut ends: Vec<f64> = self.outcomes.iter().map(|o| o.end_s / 3600.0).collect();
        ends.sort_by(f64::total_cmp);
        let last = *ends.last().expect("non-empty");
        let buckets = (last / bucket_hours).ceil() as usize + 1;
        let mut curve = Vec::with_capacity(buckets);
        let mut done = 0usize;
        for b in 0..buckets {
            let t = b as f64 * bucket_hours;
            while done < ends.len() && ends[done] <= t {
                done += 1;
            }
            curve.push((t, done));
        }
        curve
    }

    /// Jobs per machine (Figure 5c).
    pub fn machine_distribution(&self, machines: usize) -> Vec<usize> {
        let mut counts = vec![0usize; machines];
        for o in &self.outcomes {
            counts[o.machine as usize] += 1;
        }
        counts
    }

    /// Makespan in hours.
    pub fn makespan_hours(&self) -> f64 {
        self.outcomes.iter().map(|o| o.end_s).fold(0.0f64, f64::max) / 3600.0
    }

    /// Mean queue wait in hours.
    pub fn mean_wait_hours(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.wait_s()).sum::<f64>() / self.outcomes.len() as f64 / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn outcome(job: u32, arrival: f64, end: f64, work: f64, charge: f64) -> JobOutcome {
        JobOutcome {
            job,
            user: 0,
            machine: (job % 4),
            cores: 8,
            arrival_s: arrival,
            start_s: arrival + 10.0,
            end_s: end,
            energy_kwh: 2.0,
            charges: [charge; 5],
            op_carbon_g: 100.0,
            attributed_g: 150.0,
            work_core_hours: work,
        }
    }

    fn metrics() -> RunMetrics {
        RunMetrics {
            policy: "Test".into(),
            outcomes: (0..10)
                .map(|i| outcome(i, i as f64 * 100.0, 1_000.0 + i as f64 * 100.0, 5.0, 10.0))
                .collect(),
            rejected: 0,
            events: 20,
            release_work: 0,
        }
    }

    #[test]
    fn totals() {
        let m = metrics();
        assert!((m.total_energy_mwh() - 0.02).abs() < 1e-12);
        assert!((m.operational_carbon_kg() - 1.0).abs() < 1e-12);
        assert!((m.attributed_carbon_kg() - 1.5).abs() < 1e-12);
        assert!((m.total_work() - 50.0).abs() < 1e-12);
        assert!((m.total_cost(cost::EBA) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_cuts_off_in_arrival_order() {
        let m = metrics();
        // 10 credits per job: a 35-credit allocation affords 3 jobs.
        let work = m.work_within_allocation(35.0, cost::EBA);
        assert!((work - 15.0).abs() < 1e-12);
        // Full allocation completes everything.
        let work = m.work_within_allocation(1e9, cost::EBA);
        assert!((work - 50.0).abs() < 1e-12);
    }

    /// The walk the packed sort replaced, kept as its oracle: a stable
    /// sort of references by arrival, then the same spend.
    fn work_within_allocation_oracle(m: &RunMetrics, allocation: f64, kind: usize) -> f64 {
        let mut order: Vec<&JobOutcome> = m.outcomes.iter().collect();
        order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        let mut spent = 0.0;
        let mut work = 0.0;
        let budget = allocation * (1.0 + 1e-12) + 1e-9;
        for o in order {
            if spent + o.charges[kind] > budget {
                break;
            }
            spent += o.charges[kind];
            work += o.work_core_hours;
        }
        work
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The packed sort walks jobs in the stable sort's order: arrivals
        /// drawn from a handful of values (signed zeros included) tie
        /// often, and charges and work vary per job, so a tie taken out
        /// of log order moves the result.
        #[test]
        fn packed_allocation_walk_matches_the_stable_sort(
            jobs in prop::collection::vec(
                (
                    prop_oneof![
                        (0u32..6).prop_map(|k| k as f64 * 3600.0),
                        Just(-0.0f64),
                        Just(-3600.0f64),
                        -1.0e7..1.0e7f64,
                    ],
                    0.0..100.0f64,
                    0.0..50.0f64,
                ),
                0..200,
            ),
            share in 0.0..1.2f64,
            kind in 0usize..5,
        ) {
            let mut m = metrics();
            m.outcomes = jobs
                .iter()
                .enumerate()
                .map(|(i, &(arrival, charge, work))| {
                    let mut o = outcome(i as u32, arrival, arrival + 10.0, work, 0.0);
                    o.charges[kind] = charge;
                    o
                })
                .collect();
            let allocation = m.total_cost(kind) * share;
            prop_assert_eq!(
                m.work_within_allocation(allocation, kind).to_bits(),
                work_within_allocation_oracle(&m, allocation, kind).to_bits()
            );
        }
    }

    #[test]
    fn finished_curve_monotone() {
        let m = metrics();
        let curve = m.jobs_finished_curve(0.1);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(curve.last().unwrap().1, 10);
    }

    #[test]
    fn machine_distribution_counts() {
        let m = metrics();
        let dist = m.machine_distribution(4);
        assert_eq!(dist.iter().sum::<usize>(), 10);
        assert_eq!(dist[0], 3); // jobs 0,4,8
    }

    #[test]
    fn waits_and_makespan() {
        let m = metrics();
        assert!((m.mean_wait_hours() - 10.0 / 3600.0).abs() < 1e-9);
        assert!((m.makespan_hours() - 1900.0 / 3600.0).abs() < 1e-9);
    }
}
