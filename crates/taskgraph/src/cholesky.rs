//! The Table 3 experiment: tiled Cholesky on every GPU configuration,
//! priced under EBA, CBA and the Peak baseline.

use green_accounting::{ChargeContext, MethodKind};
use green_machines::GpuNode;
use green_units::{CarbonIntensity, Energy, TimeSpan};

use crate::dag::CholeskyDag;
use crate::device::DeviceFarm;
use crate::sched::simulate;

/// The year of the GPU measurements (fixes device ages for Table 2).
pub const GPU_EXPERIMENT_YEAR: i32 = 2023;
/// Table 2's average grid intensity: 53 gCO2e/kWh.
pub const GPU_GRID_INTENSITY: f64 = 53.0;

/// Measured outcome of one (generation, #GPUs) run.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyOutcome {
    /// GPU generation name.
    pub gpu: String,
    /// Devices used.
    pub count: u32,
    /// Wall-clock runtime.
    pub runtime: TimeSpan,
    /// Whole-node energy over the run.
    pub energy: Energy,
    /// Raw EBA charge (joules).
    pub eba: f64,
    /// Raw CBA charge (grams CO2e).
    pub cba: f64,
    /// Raw Peak charge (device-seconds × GFlop/s).
    pub perf: f64,
    /// Mean device utilization.
    pub utilization: f64,
}

/// Runs the paper's 42 GB Cholesky on one node configuration.
pub fn run_cholesky(node: GpuNode) -> CholeskyOutcome {
    let dag = CholeskyDag::paper_problem();
    run_cholesky_with(&dag, node)
}

/// Runs an arbitrary Cholesky problem on one node configuration.
pub fn run_cholesky_with(dag: &CholeskyDag, node: GpuNode) -> CholeskyOutcome {
    let farm = DeviceFarm::new(node);
    let result = simulate(dag, &farm);

    // Whole-node energy: base wall power over the makespan plus dynamic
    // power for device-busy seconds (what the paper's wattmeters see).
    let cal = farm.calibration;
    let base = cal.node_base_power * TimeSpan::from_secs(result.makespan_s);
    let dynamic =
        cal.gpu_dynamic_power * TimeSpan::from_secs(result.device_busy_s.iter().sum::<f64>());
    let energy = base + dynamic;
    let runtime = TimeSpan::from_secs(result.makespan_s);

    let ctx = ChargeContext::new(energy, runtime)
        .with_cores(farm.node.count)
        // GPUs are allocated whole: TDP_R is the devices' combined TDP.
        .with_provisioned(farm.node.total_tdp(), 1.0)
        .with_carbon(
            CarbonIntensity::from_g_per_kwh(GPU_GRID_INTENSITY),
            farm.node.carbon_rate(GPU_EXPERIMENT_YEAR),
        );

    let perf = runtime.as_secs() * farm.node.total_gflops();
    CholeskyOutcome {
        gpu: farm.node.gpu.name.clone(),
        count: farm.node.count,
        runtime,
        energy,
        eba: MethodKind::eba().charge(&ctx).value(),
        cba: MethodKind::Cba.charge(&ctx).value(),
        perf,
        utilization: result.device_utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::{gpu_nodes, GpuModel};

    fn outcome(gpu: &str, count: u32) -> CholeskyOutcome {
        let node = gpu_nodes()
            .into_iter()
            .find(|n| n.gpu.name == gpu && n.count == count)
            .expect("catalog covers the configuration");
        run_cholesky(node)
    }

    /// Table 3's runtime column, within 20 % per cell.
    #[test]
    fn table3_runtimes() {
        let expect = [
            ("P100", 1, 2321.0),
            ("P100", 2, 1396.0),
            ("V100", 1, 1494.0),
            ("V100", 2, 1190.0),
            ("V100", 4, 917.0),
            ("V100", 8, 926.0),
            ("A100", 1, 1405.0),
            ("A100", 2, 926.0),
            ("A100", 4, 841.0),
            ("A100", 8, 838.0),
        ];
        for (gpu, count, runtime) in expect {
            let o = outcome(gpu, count);
            let rel = (o.runtime.as_secs() - runtime).abs() / runtime;
            assert!(
                rel < 0.20,
                "{gpu} x{count}: {:.0} s vs paper {runtime} (err {:.0}%)",
                o.runtime.as_secs(),
                rel * 100.0
            );
        }
    }

    /// Table 3's energy column, within 25 % per cell.
    #[test]
    fn table3_energies() {
        let expect = [
            ("P100", 1, 889.0),
            ("P100", 2, 635.0),
            ("V100", 1, 1316.0),
            ("V100", 4, 916.0),
            ("A100", 1, 2100.0),
            ("A100", 8, 1325.0),
        ];
        for (gpu, count, kj) in expect {
            let o = outcome(gpu, count);
            let rel = (o.energy.as_kilojoules() - kj).abs() / kj;
            assert!(
                rel < 0.25,
                "{gpu} x{count}: {:.0} kJ vs paper {kj} (err {:.0}%)",
                o.energy.as_kilojoules(),
                rel * 100.0
            );
        }
    }

    /// The headline qualitative claims of Section 4.2.2.
    #[test]
    fn table3_shape() {
        // Two P100s: the cheapest under both EBA and CBA.
        let all: Vec<CholeskyOutcome> = gpu_nodes().into_iter().map(run_cholesky).collect();
        let p100_2 = all
            .iter()
            .find(|o| o.gpu == "P100" && o.count == 2)
            .unwrap();
        for o in &all {
            if !(o.gpu == "P100" && o.count == 2) {
                assert!(p100_2.eba <= o.eba * 1.02, "EBA: {} x{}", o.gpu, o.count);
                assert!(p100_2.cba <= o.cba * 1.02, "CBA: {} x{}", o.gpu, o.count);
            }
        }
        // The newest GPU is only modestly faster than the previous
        // generation but uses far more energy.
        let v1 = all
            .iter()
            .find(|o| o.gpu == "V100" && o.count == 1)
            .unwrap();
        let a1 = all
            .iter()
            .find(|o| o.gpu == "A100" && o.count == 1)
            .unwrap();
        assert!(a1.runtime.as_secs() < v1.runtime.as_secs());
        assert!(
            a1.runtime.as_secs() > v1.runtime.as_secs() * 0.85,
            "A100 gain should be modest"
        );
        assert!(a1.energy.as_joules() > v1.energy.as_joules() * 1.4);
        // Peak accounting charges least for one P100 even though two
        // P100s use less energy and time.
        let p100_1 = all
            .iter()
            .find(|o| o.gpu == "P100" && o.count == 1)
            .unwrap();
        for o in &all {
            if !(o.gpu == "P100" && o.count == 1) {
                assert!(p100_1.perf < o.perf, "Perf: {} x{}", o.gpu, o.count);
            }
        }
        assert!(p100_2.energy < p100_1.energy);
        assert!(p100_2.runtime < p100_1.runtime);
    }

    #[test]
    fn smaller_problem_runs_fast() {
        let dag = CholeskyDag::new(8, 256);
        let node = GpuNode::table2_node(GpuModel::a100(), 2);
        let o = run_cholesky_with(&dag, node);
        assert!(o.runtime.as_secs() < 10.0);
        assert!(o.energy.as_joules() > 0.0);
    }
}
