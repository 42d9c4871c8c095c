//! GPU models and multi-GPU nodes (Tables 2 and 3).

use green_carbon::{DepreciationSchedule, DoubleDecliningBalance, GpuClass};
use green_units::CarbonMass;
use green_units::{CarbonRate, Power};

/// A data-center GPU generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Marketing name, e.g. `"V100"`.
    pub name: String,
    /// Year this generation was deployed in the testbed (Table 2).
    pub year: i32,
    /// Manufacturer-reported peak GFlop/s (Table 2's basis for the *Peak*
    /// baseline).
    pub gflops: f64,
    /// Device TDP.
    pub tdp: Power,
    /// Device memory in GiB.
    pub memory_gib: u32,
    /// Memory bandwidth in GB/s (drives the transfer/kernel cost models).
    pub mem_bw_gbs: f64,
    /// Embodied-carbon class.
    pub class: GpuClass,
}

impl GpuModel {
    /// Nvidia P100 (Pascal, 2018 deployment).
    pub fn p100() -> Self {
        GpuModel {
            name: "P100".into(),
            year: 2018,
            gflops: 6_700.0,
            tdp: Power::from_watts(250.0),
            memory_gib: 16,
            mem_bw_gbs: 732.0,
            class: GpuClass::Pascal,
        }
    }

    /// Nvidia V100 (Volta, 2019 deployment).
    pub fn v100() -> Self {
        GpuModel {
            name: "V100".into(),
            year: 2019,
            gflops: 14_000.0,
            tdp: Power::from_watts(250.0),
            memory_gib: 32,
            mem_bw_gbs: 900.0,
            class: GpuClass::Volta,
        }
    }

    /// Nvidia A100 (Ampere, 2021 deployment).
    pub fn a100() -> Self {
        GpuModel {
            name: "A100".into(),
            year: 2021,
            gflops: 18_000.0,
            tdp: Power::from_watts(400.0),
            memory_gib: 40,
            mem_bw_gbs: 1_555.0,
            class: GpuClass::Ampere,
        }
    }

    /// The three generations of Table 2, oldest first.
    pub fn table2() -> Vec<GpuModel> {
        vec![GpuModel::p100(), GpuModel::v100(), GpuModel::a100()]
    }
}

/// A host node carrying `count` identical GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuNode {
    /// The GPU generation installed.
    pub gpu: GpuModel,
    /// Number of devices used by the job (whole devices, per the paper).
    pub count: u32,
    /// Embodied carbon of the host (chassis, CPUs, DRAM) *excluding* the
    /// GPUs. Calibrated from datasheets/SCARIF so that the double-declining
    /// schedule reproduces Table 2's carbon rates at each generation's age.
    pub host_embodied: CarbonMass,
    /// PCIe/NVLink host-device bandwidth in GB/s (transfer model).
    pub link_bw_gbs: f64,
}

impl GpuNode {
    /// Builds the Table 2 node for a generation and device count.
    pub fn table2_node(gpu: GpuModel, count: u32) -> Self {
        let host_embodied = match gpu.class {
            GpuClass::Pascal => CarbonMass::from_kg(2_225.0),
            GpuClass::Volta => CarbonMass::from_kg(2_994.0),
            GpuClass::Ampere => CarbonMass::from_kg(4_910.0),
            GpuClass::None => CarbonMass::ZERO,
        };
        let link_bw_gbs = match gpu.class {
            GpuClass::Pascal => 12.0,
            GpuClass::Volta => 14.0,
            GpuClass::Ampere => 22.0,
            GpuClass::None => 12.0,
        };
        GpuNode {
            gpu,
            count,
            host_embodied,
            link_bw_gbs,
        }
    }

    /// Total embodied carbon: host plus installed devices.
    pub fn embodied_carbon(&self) -> CarbonMass {
        self.host_embodied + self.gpu.class.embodied_per_device() * self.count as f64
    }

    /// Age in whole years at `sim_year`.
    pub fn age_years(&self, sim_year: i32) -> u32 {
        (sim_year - self.gpu.year).max(0) as u32
    }

    /// Table 2's "Carbon Rate": the node's hourly embodied charge under
    /// accelerated depreciation at `sim_year`.
    pub fn carbon_rate(&self, sim_year: i32) -> CarbonRate {
        DoubleDecliningBalance::standard()
            .hourly_rate(self.embodied_carbon(), self.age_years(sim_year))
    }

    /// Combined TDP of the provisioned devices (GPUs are allocated whole,
    /// so this is the EBA potential-usage term).
    pub fn total_tdp(&self) -> Power {
        self.gpu.tdp * self.count as f64
    }

    /// Aggregate peak GFlop/s across devices (basis of the *Peak* column in
    /// Table 3).
    pub fn total_gflops(&self) -> f64 {
        self.gflops_per_device() * self.count as f64
    }

    fn gflops_per_device(&self) -> f64 {
        self.gpu.gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's carbon rates (gCO2e/h), reproduced by the calibrated
    /// embodied values + accelerated depreciation at the paper's 2023
    /// snapshot.
    #[test]
    fn table2_carbon_rates() {
        let cases = [
            (GpuModel::p100(), 1, 8.5),
            (GpuModel::p100(), 2, 9.1),
            (GpuModel::v100(), 1, 19.0),
            (GpuModel::v100(), 2, 20.0),
            (GpuModel::v100(), 4, 23.0),
            (GpuModel::v100(), 8, 28.0),
            (GpuModel::a100(), 1, 87.0),
            (GpuModel::a100(), 2, 93.0),
            (GpuModel::a100(), 4, 106.0),
            (GpuModel::a100(), 8, 131.0),
        ];
        for (gpu, count, expect) in cases {
            let node = GpuNode::table2_node(gpu.clone(), count);
            let rate = node.carbon_rate(2023).as_g_per_hour();
            assert!(
                (rate - expect).abs() / expect < 0.08,
                "{} x{count}: rate {rate:.1} vs Table 2 {expect}",
                gpu.name
            );
        }
    }

    #[test]
    fn newer_generations_rate_higher() {
        let p = GpuNode::table2_node(GpuModel::p100(), 2).carbon_rate(2023);
        let v = GpuNode::table2_node(GpuModel::v100(), 2).carbon_rate(2023);
        let a = GpuNode::table2_node(GpuModel::a100(), 2).carbon_rate(2023);
        assert!(p < v && v < a);
    }

    #[test]
    fn tdp_and_gflops_scale_with_count() {
        let node = GpuNode::table2_node(GpuModel::v100(), 4);
        assert!((node.total_tdp().as_watts() - 1000.0).abs() < 1e-9);
        assert!((node.total_gflops() - 56_000.0).abs() < 1e-9);
    }
}
