//! SCARIF-like parametric estimation of a machine's embodied carbon.
//!
//! The paper computes embodied carbon "using manufacturers datasheets where
//! available or SCARIF" (Ji et al., ISVLSI'24). SCARIF estimates server
//! embodied carbon from high-level hardware attributes; we implement the same
//! idea as a linear model over chassis, CPU silicon, DRAM, storage and
//! accelerators. Coefficients are calibrated so that the per-node carbon
//! *rates* in Tables 2 and 5 are reproduced by the double-declining-balance
//! schedule at each machine's age (see `green-machines::catalog` for the
//! calibration targets).

use green_units::CarbonMass;

/// The hardware attributes the embodied model consumes.
///
/// This struct lives here (rather than in `green-machines`) so the carbon
/// crate stays leaf-level; the machine catalog converts its richer node
/// specs into `HardwareSpec`s.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Number of CPU sockets.
    pub cpu_sockets: u32,
    /// Total physical cores across sockets.
    pub cpu_cores: u32,
    /// Installed DRAM in GiB.
    pub dram_gib: u32,
    /// Flash storage in TB (HDD ignored; HPC nodes are flash or diskless).
    pub ssd_tb: f64,
    /// Number of discrete accelerators.
    pub gpus: u32,
    /// Die-size class of the accelerators, if any.
    pub gpu_class: GpuClass,
    /// Form factor of the chassis.
    pub chassis: ChassisClass,
}

impl HardwareSpec {
    /// A diskless dual-socket compute node, the common HPC shape.
    pub fn compute_node(cpu_sockets: u32, cpu_cores: u32, dram_gib: u32) -> Self {
        HardwareSpec {
            cpu_sockets,
            cpu_cores,
            dram_gib,
            ssd_tb: 0.5,
            gpus: 0,
            gpu_class: GpuClass::None,
            chassis: ChassisClass::RackServer,
        }
    }

    /// A desktop workstation.
    pub fn desktop(cpu_cores: u32, dram_gib: u32) -> Self {
        HardwareSpec {
            cpu_sockets: 1,
            cpu_cores,
            dram_gib,
            ssd_tb: 1.0,
            gpus: 0,
            gpu_class: GpuClass::None,
            chassis: ChassisClass::Desktop,
        }
    }

    /// Adds accelerators to the spec.
    pub fn with_gpus(mut self, gpus: u32, class: GpuClass) -> Self {
        self.gpus = gpus;
        self.gpu_class = class;
        self
    }
}

/// Accelerator embodied-carbon class, keyed by die size / HBM capacity
/// generation rather than by vendor SKU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuClass {
    /// No accelerator.
    None,
    /// 16 nm-era data-center GPU (e.g. P100).
    Pascal,
    /// 12 nm-era with HBM2 (e.g. V100).
    Volta,
    /// 7 nm-era with large HBM2e (e.g. A100).
    Ampere,
}

impl GpuClass {
    /// Per-device embodied carbon (gCO2e). Values follow SCARIF's finding
    /// that accelerator embodied carbon grows with die area and HBM
    /// capacity across generations.
    pub fn embodied_per_device(self) -> CarbonMass {
        let kg = match self {
            GpuClass::None => 0.0,
            GpuClass::Pascal => 145.0,
            GpuClass::Volta => 185.0,
            GpuClass::Ampere => 330.0,
        };
        CarbonMass::from_kg(kg)
    }
}

/// Chassis/form-factor base footprint class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChassisClass {
    /// Consumer desktop tower.
    Desktop,
    /// 1U/2U rack server (sheet metal, PSU, mainboard).
    RackServer,
    /// Blade in a dense enclosure (amortized enclosure share).
    Blade,
}

impl ChassisClass {
    fn base(self) -> CarbonMass {
        let kg = match self {
            ChassisClass::Desktop => 180.0,
            ChassisClass::RackServer => 520.0,
            ChassisClass::Blade => 380.0,
        };
        CarbonMass::from_kg(kg)
    }
}

/// A linear embodied-carbon model in the spirit of SCARIF.
///
/// `embodied = chassis_base + sockets·per_socket + cores·per_core +
/// dram_gib·per_gib + ssd_tb·per_tb + gpus·per_device`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbodiedCarbonModel {
    /// Per-socket packaging/substrate footprint (gCO2e).
    pub per_socket: CarbonMass,
    /// Per-core silicon footprint (gCO2e); scales with die area.
    pub per_core: CarbonMass,
    /// Per-GiB DRAM footprint (gCO2e).
    pub per_dram_gib: CarbonMass,
    /// Per-TB flash footprint (gCO2e).
    pub per_ssd_tb: CarbonMass,
}

impl Default for EmbodiedCarbonModel {
    fn default() -> Self {
        Self::scarif_like()
    }
}

impl EmbodiedCarbonModel {
    /// Coefficients calibrated against SCARIF's published server estimates
    /// (≈1–4 tCO2e per server, DRAM-dominated for large-memory nodes).
    pub fn scarif_like() -> Self {
        EmbodiedCarbonModel {
            per_socket: CarbonMass::from_kg(35.0),
            per_core: CarbonMass::from_kg(3.2),
            per_dram_gib: CarbonMass::from_kg(1.6),
            per_ssd_tb: CarbonMass::from_kg(60.0),
        }
    }

    /// Estimates total embodied carbon for `spec`.
    pub fn estimate(&self, spec: &HardwareSpec) -> CarbonMass {
        spec.chassis.base()
            + self.per_socket * spec.cpu_sockets as f64
            + self.per_core * spec.cpu_cores as f64
            + self.per_dram_gib * spec.dram_gib as f64
            + self.per_ssd_tb * spec.ssd_tb
            + spec.gpu_class.embodied_per_device() * spec.gpus as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_estimate_in_scarif_range() {
        let model = EmbodiedCarbonModel::scarif_like();
        // A 2-socket, 48-core, 384 GiB node.
        let spec = HardwareSpec::compute_node(2, 48, 384);
        let e = model.estimate(&spec);
        // SCARIF-era rack servers land between 1 and 4 tCO2e.
        assert!(e.as_tonnes() > 1.0 && e.as_tonnes() < 4.0, "{e}");
    }

    #[test]
    fn desktop_much_smaller_than_server() {
        let model = EmbodiedCarbonModel::scarif_like();
        let desk = model.estimate(&HardwareSpec::desktop(8, 32));
        let node = model.estimate(&HardwareSpec::compute_node(2, 64, 512));
        assert!(desk.as_kg() < 600.0);
        assert!(desk < node * 0.35);
    }

    #[test]
    fn gpus_add_per_device_increments() {
        let model = EmbodiedCarbonModel::scarif_like();
        let base = HardwareSpec::compute_node(2, 32, 256);
        let e0 = model.estimate(&base);
        let e4 = model.estimate(&base.clone().with_gpus(4, GpuClass::Ampere));
        let diff = e4 - e0;
        assert!(
            (diff.as_kg() - 4.0 * 330.0).abs() < 1e-9,
            "per-device increments should be linear"
        );
    }

    #[test]
    fn newer_gpu_classes_cost_more() {
        assert!(GpuClass::Ampere.embodied_per_device() > GpuClass::Volta.embodied_per_device());
        assert!(GpuClass::Volta.embodied_per_device() > GpuClass::Pascal.embodied_per_device());
    }
}
