//! Resolved per-(archetype, machine) behaviour: the cache in front of the
//! KNN predictor.
//!
//! Jobs sharing an archetype share counters, so the 142k-job workload only
//! needs one KNN prediction per archetype per machine. The table resolves
//! a job into concrete runtime/power/energy on each machine — the values
//! the simulator treats as ground truth, exactly as the paper's simulator
//! consumes its predictions.

use green_machines::FleetMachine;
use green_perfmodel::{CrossMachinePredictor, MachinePrediction};
use green_units::{Energy, Power, TimeSpan};
use green_workload::{Job, Trace};
use std::sync::Arc;

/// The immutable per-(archetype, machine) score matrix one `build`
/// produces — shared by every projection of the table, so projecting is
/// O(machines) bookkeeping instead of an O(archetypes × machines) copy.
#[derive(Debug)]
struct ScoreMatrix {
    machines: usize,
    /// `predictions[archetype * machines + machine]`.
    predictions: Vec<MachinePrediction>,
    /// Cross-machine mean runtime ratio per archetype (the "work" weight).
    mean_ratio: Vec<f64>,
}

/// Per-archetype, per-machine predictions: a view over a shared score
/// matrix through a machine-column map.
#[derive(Debug, Clone)]
pub struct PlacementTable {
    matrix: Arc<ScoreMatrix>,
    /// View machine index → matrix machine column. The identity for a
    /// freshly built table; a subset (in sub-fleet order) after
    /// [`project`](PlacementTable::project).
    cols: Vec<usize>,
}

impl PlacementTable {
    /// Precomputes predictions for every archetype in `trace` on every
    /// fleet machine.
    pub fn build(
        trace: &Trace,
        fleet: &[FleetMachine],
        predictor: &CrossMachinePredictor,
    ) -> PlacementTable {
        assert_eq!(
            fleet.len(),
            predictor.machines().len(),
            "fleet and predictor must cover the same machines"
        );
        let machines = fleet.len();
        let mut predictions = Vec::with_capacity(trace.archetypes.len() * machines);
        let mut mean_ratio = Vec::with_capacity(trace.archetypes.len());
        for counters in &trace.archetypes {
            let preds = predictor.predict(counters);
            let mean = preds.iter().map(|p| p.runtime_ratio).sum::<f64>() / machines as f64;
            mean_ratio.push(mean);
            predictions.extend(preds);
        }
        PlacementTable {
            matrix: Arc::new(ScoreMatrix {
                machines,
                predictions,
                mean_ratio,
            }),
            cols: (0..machines).collect(),
        }
    }

    /// Number of machines covered.
    pub fn machine_count(&self) -> usize {
        self.cols.len()
    }

    /// Projects the table onto a fleet subset (`machines` are indices into
    /// this table's fleet, in the order the sub-fleet will use) — an
    /// O(machines) column-map composition sharing the underlying score
    /// matrix, never a rebuild. Projecting a projection composes.
    ///
    /// The machine-neutral work weight (`mean_ratio`) is deliberately kept
    /// from the *full* fleet, so "work completed" stays comparable across
    /// sweep cells that simulate different fleet subsets.
    pub fn project(&self, machines: &[usize]) -> PlacementTable {
        assert!(
            machines.iter().all(|m| *m < self.cols.len()),
            "projection index out of range"
        );
        PlacementTable {
            matrix: Arc::clone(&self.matrix),
            cols: machines.iter().map(|&m| self.cols[m]).collect(),
        }
    }

    /// The raw prediction for an archetype on a machine.
    pub fn prediction(&self, archetype: u32, machine: usize) -> &MachinePrediction {
        &self.matrix.predictions[archetype as usize * self.matrix.machines + self.cols[machine]]
    }

    /// Predicted wall-clock runtime of `job` on `machine`.
    pub fn runtime(&self, job: &Job, machine: usize) -> TimeSpan {
        job.ref_runtime * self.prediction(job.archetype, machine).runtime_ratio
    }

    /// Predicted average power of `job` on `machine` (all requested
    /// cores).
    pub fn power(&self, job: &Job, machine: usize) -> Power {
        self.prediction(job.archetype, machine).power_per_core * job.cores as f64
    }

    /// Predicted energy of `job` on `machine`.
    pub fn energy(&self, job: &Job, machine: usize) -> Energy {
        self.power(job, machine) * self.runtime(job, machine)
    }

    /// The paper's machine-neutral work measure: the job's core-hours
    /// averaged across all machines.
    pub fn work_core_hours(&self, job: &Job) -> f64 {
        job.cores as f64
            * job.ref_runtime.as_hours()
            * self.matrix.mean_ratio[job.archetype as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::simulation_fleet;
    use green_workload::TraceConfig;

    fn setup() -> (Trace, Vec<FleetMachine>, CrossMachinePredictor) {
        let fleet = simulation_fleet();
        let predictor = CrossMachinePredictor::for_fleet(&fleet, 17);
        let trace = Trace::generate(&TraceConfig::small(17), &predictor);
        (trace, fleet, predictor)
    }

    #[test]
    fn covers_all_archetypes_and_machines() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        assert_eq!(table.machine_count(), 4);
        for job in trace.jobs.iter().take(100) {
            for m in 0..4 {
                assert!(table.runtime(job, m).as_secs() > 0.0);
                assert!(table.energy(job, m).as_joules() > 0.0);
            }
        }
    }

    #[test]
    fn reference_machine_runtime_close_to_trace() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let mut ratios = Vec::new();
        for job in trace.jobs.iter().take(200) {
            ratios.push(table.runtime(job, 2) / job.ref_runtime);
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((mean - 1.0).abs() < 0.15, "IC ratio mean {mean:.3}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn theta_slowest_on_average() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let mut sums = [0.0f64; 4];
        for job in trace.jobs.iter().take(300) {
            for m in 0..4 {
                sums[m] += table.runtime(job, m).as_secs();
            }
        }
        assert!(sums[3] > sums[0] && sums[3] > sums[1] && sums[3] > sums[2]);
    }

    #[test]
    fn projection_matches_source_table() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let sub = table.project(&[2, 0]);
        assert_eq!(sub.machine_count(), 2);
        for job in trace.jobs.iter().take(50) {
            assert_eq!(sub.runtime(job, 0), table.runtime(job, 2));
            assert_eq!(sub.runtime(job, 1), table.runtime(job, 0));
            assert_eq!(
                sub.energy(job, 0).as_joules(),
                table.energy(job, 2).as_joules()
            );
            // Work stays full-fleet-neutral.
            assert_eq!(sub.work_core_hours(job), table.work_core_hours(job));
        }
    }

    /// Pins the O(machines) shared-matrix projection to the from-scratch
    /// copy the old implementation performed: for every archetype and
    /// every sub-fleet position, the view must resolve to exactly the
    /// prediction the naive rebuild would have copied — including
    /// through a projection *of a projection*.
    #[test]
    fn projection_is_equivalent_to_naive_rebuild() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let subsets: [&[usize]; 4] = [&[0, 1, 2, 3], &[3, 1], &[2], &[1, 1, 0]];
        for subset in subsets {
            let view = table.project(subset);
            assert_eq!(view.machine_count(), subset.len());
            for a in 0..trace.archetypes.len() as u32 {
                for (pos, &m) in subset.iter().enumerate() {
                    // The naive rebuild copied predictions[a * machines + m]
                    // into slot (a, pos).
                    let naive = table.prediction(a, m);
                    let viewed = view.prediction(a, pos);
                    assert_eq!(naive.runtime_ratio, viewed.runtime_ratio);
                    assert_eq!(
                        naive.power_per_core.as_watts(),
                        viewed.power_per_core.as_watts()
                    );
                }
            }
        }
        // Composition: projecting a projection equals projecting the
        // composed index map directly.
        let once = table.project(&[3, 1, 0]);
        let twice = once.project(&[2, 0]);
        let direct = table.project(&[0, 3]);
        for a in 0..trace.archetypes.len() as u32 {
            for m in 0..2 {
                assert_eq!(
                    twice.prediction(a, m).runtime_ratio,
                    direct.prediction(a, m).runtime_ratio
                );
            }
        }
    }

    #[test]
    fn work_is_machine_neutral_and_positive() {
        let (trace, fleet, predictor) = setup();
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        for job in trace.jobs.iter().take(100) {
            let w = table.work_core_hours(job);
            assert!(w > 0.0);
            // Bounded by slowest-machine core-hours.
            let max = (0..4)
                .map(|m| job.cores as f64 * table.runtime(job, m).as_hours())
                .fold(f64::MIN, f64::max);
            assert!(w <= max + 1e-9);
        }
    }
}
