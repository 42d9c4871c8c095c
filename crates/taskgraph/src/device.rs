//! Device and node power models, with per-generation calibration.

use green_carbon::GpuClass;
use green_machines::GpuNode;
use green_units::Power;

/// Per-generation calibration of the execution model.
///
/// `kernel_efficiency` is the achieved fraction of manufacturer peak for
/// the out-of-core tiled solver (critical path + launch overheads +
/// streaming stalls); `host_link_gbs` is the *effective contended*
/// host-to-device bandwidth shared by all devices of the node (pageable
/// transfers, bidirectional interference). Both are calibrated against
/// Table 3's single-GPU runtimes and multi-GPU plateaus; the
/// `table3_runtimes` and `table3_energies` tests in `cholesky` hold them
/// there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationCalibration {
    /// Fraction of peak GFlop/s the kernels achieve.
    pub kernel_efficiency: f64,
    /// Effective shared host-link bandwidth (GB/s).
    pub host_link_gbs: f64,
    /// Wall power of the node with all devices idle (host + idle GPUs).
    pub node_base_power: Power,
    /// Additional power per device while computing.
    pub gpu_dynamic_power: Power,
}

impl GenerationCalibration {
    /// Calibration for a GPU generation.
    pub fn for_class(class: GpuClass) -> GenerationCalibration {
        match class {
            GpuClass::Pascal => GenerationCalibration {
                kernel_efficiency: 0.0231,
                host_link_gbs: 0.97,
                node_base_power: Power::from_watts(330.0),
                gpu_dynamic_power: Power::from_watts(50.0),
            },
            GpuClass::Volta => GenerationCalibration {
                kernel_efficiency: 0.0172,
                host_link_gbs: 1.39,
                node_base_power: Power::from_watts(870.0),
                gpu_dynamic_power: Power::from_watts(30.0),
            },
            GpuClass::Ampere => GenerationCalibration {
                kernel_efficiency: 0.0142,
                host_link_gbs: 1.53,
                node_base_power: Power::from_watts(1_400.0),
                gpu_dynamic_power: Power::from_watts(90.0),
            },
            GpuClass::None => GenerationCalibration {
                kernel_efficiency: 0.02,
                host_link_gbs: 1.0,
                node_base_power: Power::from_watts(200.0),
                gpu_dynamic_power: Power::from_watts(50.0),
            },
        }
    }

    /// Achieved GFlop/s of one device with `peak_gflops` manufacturer
    /// peak.
    pub fn achieved_gflops(&self, peak_gflops: f64) -> f64 {
        self.kernel_efficiency * peak_gflops
    }
}

/// The execution resources of one multi-GPU node.
#[derive(Debug, Clone)]
pub struct DeviceFarm {
    /// The node description (generation, device count).
    pub node: GpuNode,
    /// Calibrated execution model.
    pub calibration: GenerationCalibration,
}

impl DeviceFarm {
    /// Builds the farm for a catalog node.
    pub fn new(node: GpuNode) -> DeviceFarm {
        let calibration = GenerationCalibration::for_class(node.gpu.class);
        DeviceFarm { node, calibration }
    }

    /// Seconds to execute `flops` on one device.
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        flops / (self.calibration.achieved_gflops(self.node.gpu.gflops) * 1.0e9)
    }

    /// Seconds to move `bytes` over the shared host link.
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.calibration.host_link_gbs * 1.0e9)
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.node.count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::GpuModel;

    #[test]
    fn newer_generations_lower_efficiency() {
        // The paper: "recent GPUs consume more energy for modest
        // performance gains" — achieved efficiency shrinks as peaks grow.
        let p = GenerationCalibration::for_class(GpuClass::Pascal);
        let v = GenerationCalibration::for_class(GpuClass::Volta);
        let a = GenerationCalibration::for_class(GpuClass::Ampere);
        assert!(p.kernel_efficiency > v.kernel_efficiency);
        assert!(v.kernel_efficiency > a.kernel_efficiency);
        // But achieved throughput still improves generation over
        // generation (V100 solves ~1.55× faster than P100).
        assert!(v.achieved_gflops(14_000.0) > p.achieved_gflops(6_700.0));
        assert!(a.achieved_gflops(18_000.0) > v.achieved_gflops(14_000.0));
    }

    #[test]
    fn farm_unit_conversions() {
        let farm = DeviceFarm::new(GpuNode::table2_node(GpuModel::v100(), 4));
        assert_eq!(farm.devices(), 4);
        let s = farm.compute_seconds(1.0e12);
        assert!((s - 1.0e12 / (0.0172 * 14.0e12)).abs() < 1e-9);
        let t = farm.transfer_seconds(1.39e9);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
