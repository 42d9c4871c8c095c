//! Node specifications: the unit of scheduling and accounting.

use green_carbon::{DepreciationSchedule, DoubleDecliningBalance, HardwareSpec};
use green_units::CarbonMass;
use green_units::{CarbonRate, Power};

use crate::cpu::CpuModel;
use crate::facility::Facility;

/// Identifies a machine (a homogeneous partition of nodes) within a catalog
/// or simulation. Plain index; names live on the [`NodeSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for MachineId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The full specification of one node type.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Machine name, e.g. `"TAMU FASTER"`.
    pub name: String,
    /// Year the machine entered service.
    pub year_deployed: i32,
    /// CPU SKU installed.
    pub cpu: CpuModel,
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Schedulable cores per node. Usually `sockets × cores_per_socket`,
    /// but may count SMT threads when the site schedules by thread (the
    /// paper's Desktop exposes 16).
    pub cores: u32,
    /// Idle power of all sockets on the node (monitoring code only).
    pub idle_power: Power,
    /// Installed DRAM.
    pub dram_gib: u32,
    /// Minimum number of cores a job can be provisioned (allocation
    /// granularity); requests are rounded up to a multiple of this.
    pub slice_cores: u32,
    /// Embodied carbon of one node. `None` means "estimate from the
    /// hardware spec via the SCARIF-like model"; `Some` carries a
    /// datasheet-derived calibrated value.
    pub embodied_override: Option<CarbonMass>,
    /// Where the node lives.
    pub facility: Facility,
}

impl NodeSpec {
    /// Total node TDP: all sockets at their design power.
    pub fn node_tdp(&self) -> Power {
        self.cpu.tdp_per_socket * self.sockets as f64
    }

    /// TDP attributable to one schedulable core.
    pub fn tdp_per_core(&self) -> Power {
        self.node_tdp() / self.cores as f64
    }

    /// TDP of a provisioned slice of `cores` cores (after granularity
    /// rounding).
    pub fn slice_tdp(&self, cores: u32) -> Power {
        self.tdp_per_core() * self.provisioned_cores(cores) as f64
    }

    /// Rounds a core request up to the allocation granularity, capped at
    /// the node size.
    pub fn provisioned_cores(&self, requested: u32) -> u32 {
        let slices = requested.max(1).div_ceil(self.slice_cores);
        (slices * self.slice_cores).min(self.cores)
    }

    /// Fraction of the node a request occupies after rounding.
    pub fn provisioned_share(&self, requested: u32) -> f64 {
        self.provisioned_cores(requested) as f64 / self.cores as f64
    }

    /// The node's hardware spec for embodied-carbon estimation.
    pub fn hardware_spec(&self) -> HardwareSpec {
        HardwareSpec::compute_node(self.sockets, self.cores, self.dram_gib)
    }

    /// Embodied carbon of one node: the calibrated override when present,
    /// otherwise the SCARIF-like estimate.
    pub fn embodied_carbon(&self) -> CarbonMass {
        self.embodied_override.unwrap_or_else(|| {
            green_carbon::EmbodiedCarbonModel::scarif_like().estimate(&self.hardware_spec())
        })
    }

    /// Age in whole service years at simulation time, assuming the
    /// simulation epoch is January of `sim_year`.
    pub fn age_years(&self, sim_year: i32) -> u32 {
        (sim_year - self.year_deployed).max(0) as u32
    }

    /// The embodied-carbon charge rate of one node at the simulation year,
    /// under the paper's accelerated (double-declining-balance) schedule.
    pub fn carbon_rate(&self, sim_year: i32) -> CarbonRate {
        DoubleDecliningBalance::standard()
            .hourly_rate(self.embodied_carbon(), self.age_years(sim_year))
    }

    /// Peak-performance charge rate for one core (Peak accounting).
    pub fn peak_rate_per_core(&self) -> f64 {
        self.cpu.peak_per_thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_carbon::GridRegion;

    fn spec() -> NodeSpec {
        NodeSpec {
            name: "test".into(),
            year_deployed: 2021,
            cpu: CpuModel::new("Xeon 6248R", 24, 205.0, 2500.0),
            sockets: 2,
            cores: 48,
            idle_power: Power::from_watts(136.0),
            dram_gib: 192,
            slice_cores: 16,
            embodied_override: Some(CarbonMass::from_kg(1016.0)),
            facility: Facility::new("UC", GridRegion::UsMidwest, 1.3),
        }
    }

    #[test]
    fn tdp_math() {
        let s = spec();
        assert!((s.node_tdp().as_watts() - 410.0).abs() < 1e-9);
        assert!((s.tdp_per_core().as_watts() - 410.0 / 48.0).abs() < 1e-9);
        assert!((s.slice_tdp(8).as_watts() - 16.0 * 410.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn provisioning_rounds_to_slices() {
        let s = spec();
        assert_eq!(s.provisioned_cores(1), 16);
        assert_eq!(s.provisioned_cores(16), 16);
        assert_eq!(s.provisioned_cores(17), 32);
        assert_eq!(s.provisioned_cores(48), 48);
        // Requests beyond the node are capped.
        assert_eq!(s.provisioned_cores(64), 48);
        assert!((s.provisioned_share(17) - 32.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn carbon_rate_uses_ddb_age() {
        let s = spec();
        // Age 2 in 2023: rate = 0.4 * 0.6^2 * C / 8760.
        let expect = 0.4 * 0.36 * 1_016_000.0 / 8760.0;
        assert!((s.carbon_rate(2023).as_g_per_hour() - expect).abs() < 1e-6);
        // Before deployment the machine is brand new (age 0).
        assert_eq!(s.age_years(2020), 0);
    }

    #[test]
    fn embodied_falls_back_to_model() {
        let mut s = spec();
        s.embodied_override = None;
        assert!(s.embodied_carbon().as_tonnes() > 0.5);
    }
}
