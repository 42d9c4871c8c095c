//! The concrete machine catalogs used across the paper's experiments.
//!
//! Embodied-carbon overrides are calibrated so that the accelerated
//! depreciation schedule reproduces the paper's published carbon rates
//! (Tables 2 and 5) at the experiment snapshot years; allocation
//! granularities (`slice_cores`) are calibrated so Eq. (1) lands near
//! Table 1's normalized EBA costs. The tests below and `green-bench`'s
//! claims rows for Tables 1, 2 and 5 check both calibrations.

use green_carbon::GridRegion;
use green_units::CarbonMass;
use green_units::Power;

use crate::cpu::CpuModel;
use crate::facility::Facility;
use crate::gpu::{GpuModel, GpuNode};
use crate::node::{MachineId, NodeSpec};

/// The year of the platform (testbed) measurements.
pub const TESTBED_YEAR: i32 = 2024;
/// The year the batch simulation starts (the paper: January 2023).
pub const SIM_YEAR: i32 = 2023;

/// The four CPU testbed machines of Section 4.2.1, in the index order used
/// by [`crate::apps::AppProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TestbedMachine {
    /// Consumer desktop with an i7-10700.
    Desktop,
    /// Dual Intel Xeon 6248R node.
    CascadeLake,
    /// Dual Intel Xeon Platinum 8380 node.
    IceLake,
    /// Dual AMD EPYC 7763 node.
    Zen3,
}

impl TestbedMachine {
    /// All four machines in profile-index order.
    pub const ALL: [TestbedMachine; 4] = [
        TestbedMachine::Desktop,
        TestbedMachine::CascadeLake,
        TestbedMachine::IceLake,
        TestbedMachine::Zen3,
    ];

    /// Index into profile arrays.
    pub fn index(self) -> usize {
        match self {
            TestbedMachine::Desktop => 0,
            TestbedMachine::CascadeLake => 1,
            TestbedMachine::IceLake => 2,
            TestbedMachine::Zen3 => 3,
        }
    }

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            TestbedMachine::Desktop => "Desktop",
            TestbedMachine::CascadeLake => "Cascade Lake",
            TestbedMachine::IceLake => "Ice Lake",
            TestbedMachine::Zen3 => "Zen3",
        }
    }

    /// Machine age in Table 4 (years in service at the measurement).
    pub fn age_years(self) -> u32 {
        self.spec().age_years(TESTBED_YEAR)
    }

    /// The node specification.
    pub fn spec(self) -> NodeSpec {
        // A single testbed facility keeps the Table 1 comparison about the
        // machines, not their grids (the paper's nodes were also largely
        // Chameleon@UChicago).
        let facility = Facility::new("Chameleon@UChicago", GridRegion::UsMidwest, 1.0);
        match self {
            TestbedMachine::Desktop => NodeSpec {
                name: "Desktop".into(),
                year_deployed: TESTBED_YEAR - 3,
                cpu: CpuModel::new("Intel i7-10700", 8, 65.0, 3200.0),
                sockets: 1,
                cores: 8,
                idle_power: Power::from_watts(6.5),
                dram_gib: 32,
                slice_cores: 8,
                embodied_override: Some(CarbonMass::from_kg(150.0)),
                facility,
            },
            TestbedMachine::CascadeLake => NodeSpec {
                name: "Cascade Lake".into(),
                year_deployed: TESTBED_YEAR - 4,
                cpu: CpuModel::new("Intel Xeon 6248R", 24, 205.0, 2500.0),
                sockets: 2,
                cores: 48,
                idle_power: Power::from_watts(136.0),
                dram_gib: 192,
                slice_cores: 16,
                embodied_override: Some(CarbonMass::from_kg(1_080.0)),
                facility,
            },
            TestbedMachine::IceLake => NodeSpec {
                name: "Ice Lake".into(),
                year_deployed: TESTBED_YEAR - 2,
                cpu: CpuModel::new("Intel Platinum 8380", 40, 270.0, 2700.0),
                sockets: 2,
                cores: 80,
                idle_power: Power::from_watts(155.0),
                dram_gib: 256,
                slice_cores: 12,
                embodied_override: Some(CarbonMass::from_kg(1_050.0)),
                facility,
            },
            TestbedMachine::Zen3 => NodeSpec {
                name: "Zen3".into(),
                year_deployed: TESTBED_YEAR - 1,
                cpu: CpuModel::new("AMD EPYC 7763", 64, 280.0, 2800.0),
                sockets: 2,
                cores: 128,
                idle_power: Power::from_watts(144.0),
                dram_gib: 512,
                slice_cores: 16,
                embodied_override: Some(CarbonMass::from_kg(900.0)),
                facility,
            },
        }
    }
}

impl core::fmt::Display for TestbedMachine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Returns the four testbed machines' specs, in profile-index order.
pub fn cpu_testbed() -> Vec<NodeSpec> {
    TestbedMachine::ALL.iter().map(|m| m.spec()).collect()
}

/// One machine of the Table 5 simulation fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMachine {
    /// Stable identifier (index into the fleet).
    pub id: MachineId,
    /// Node specification (one node type per machine).
    pub spec: NodeSpec,
    /// Number of nodes in the cluster. For the per-user Desktop this is
    /// the per-user count (1).
    pub nodes: u32,
    /// True when every simulated user owns a private instance (the
    /// Desktop); such machines have no shared queue.
    pub per_user: bool,
}

/// The four machines of Table 5: FASTER, Desktop, IC, Theta.
///
/// Carbon rates at the January-2023 simulation start reproduce Table 5:
/// 105.2, 12.2, 16.7 and 2.0 gCO2e/h respectively (asserted in tests).
pub fn simulation_fleet() -> Vec<FleetMachine> {
    vec![
        FleetMachine {
            id: MachineId(0),
            spec: NodeSpec {
                name: "TAMU FASTER".into(),
                year_deployed: 2023,
                cpu: CpuModel::new("Intel Xeon 8352Y", 32, 205.0, 2600.0),
                sockets: 2,
                cores: 64,
                idle_power: Power::from_watts(205.0),
                dram_gib: 256,
                slice_cores: 16,
                embodied_override: Some(CarbonMass::from_kg(2_304.0)),
                facility: Facility::new("Texas A&M", GridRegion::UsTexas, 1.0),
            },
            nodes: 180,
            per_user: false,
        },
        FleetMachine {
            id: MachineId(1),
            spec: NodeSpec {
                name: "Desktop".into(),
                year_deployed: 2022,
                cpu: CpuModel::new("Intel Core i7-10700", 16, 65.0, 3200.0),
                sockets: 1,
                cores: 16,
                idle_power: Power::from_watts(6.51),
                dram_gib: 32,
                slice_cores: 16,
                embodied_override: Some(CarbonMass::from_kg(445.3)),
                facility: Facility::new("Home office", GridRegion::UsMidwest, 1.0),
            },
            nodes: 1,
            per_user: true,
        },
        FleetMachine {
            id: MachineId(2),
            spec: NodeSpec {
                name: "Institutional Cluster".into(),
                year_deployed: 2021,
                cpu: CpuModel::new("Intel Xeon 6248R", 24, 205.0, 2500.0),
                sockets: 2,
                cores: 48,
                idle_power: Power::from_watts(136.0),
                dram_gib: 192,
                slice_cores: 16,
                embodied_override: Some(CarbonMass::from_kg(1_015.9)),
                facility: Facility::new("UChicago Midway", GridRegion::UsMidwest, 1.0),
            },
            nodes: 400,
            per_user: false,
        },
        FleetMachine {
            id: MachineId(3),
            spec: NodeSpec {
                name: "ALCF Theta".into(),
                year_deployed: 2017,
                cpu: CpuModel::new("Intel KNL 7230", 64, 215.0, 1200.0),
                sockets: 1,
                cores: 64,
                idle_power: Power::from_watts(110.0),
                dram_gib: 208,
                slice_cores: 64,
                embodied_override: Some(CarbonMass::from_kg(938.8)),
                facility: Facility::new("ALCF", GridRegion::UsIllinois, 1.0),
            },
            nodes: 4_392,
            per_user: false,
        },
    ]
}

/// All Table 2 GPU node configurations: generations × device counts. The
/// P100 testbed only offered 1 and 2 devices (matching the paper's table).
pub fn gpu_nodes() -> Vec<GpuNode> {
    let mut nodes = Vec::new();
    for gpu in GpuModel::table2() {
        let counts: &[u32] = if gpu.name == "P100" {
            &[1, 2]
        } else {
            &[1, 2, 4, 8]
        };
        for &count in counts {
            nodes.push(GpuNode::table2_node(gpu.clone(), count));
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 5's grid averages.
    #[test]
    fn table5_grid_assignments() {
        let fleet = simulation_fleet();
        let means = [389.0, 454.0, 454.0, 502.0];
        for (machine, mean) in fleet.iter().zip(means) {
            assert_eq!(machine.spec.facility.region.target_mean(), mean);
        }
    }

    /// Table 4's machine ages.
    #[test]
    fn testbed_ages() {
        assert_eq!(TestbedMachine::Desktop.age_years(), 3);
        assert_eq!(TestbedMachine::CascadeLake.age_years(), 4);
        assert_eq!(TestbedMachine::IceLake.age_years(), 2);
        assert_eq!(TestbedMachine::Zen3.age_years(), 1);
    }

    /// The calibrated slice granularities that make Eq. (1) land near
    /// Table 1 (`green_bench::claims::table1` checks the costs).
    #[test]
    fn testbed_slice_tdps() {
        let expect = [
            (TestbedMachine::Desktop, 65.0),
            (TestbedMachine::CascadeLake, 410.0 * 16.0 / 48.0),
            (TestbedMachine::IceLake, 540.0 * 12.0 / 80.0),
            (TestbedMachine::Zen3, 560.0 * 16.0 / 128.0),
        ];
        for (m, tdp) in expect {
            let spec = m.spec();
            assert!(
                (spec.slice_tdp(8).as_watts() - tdp).abs() < 1e-9,
                "{m}: {} vs {tdp}",
                spec.slice_tdp(8).as_watts()
            );
        }
    }

    #[test]
    fn gpu_catalog_has_ten_configs() {
        let nodes = gpu_nodes();
        assert_eq!(nodes.len(), 10);
        assert_eq!(nodes.iter().filter(|n| n.gpu.name == "P100").count(), 2);
        assert_eq!(nodes.iter().filter(|n| n.gpu.name == "A100").count(), 4);
    }

    #[test]
    fn theta_is_whole_node_allocated() {
        let fleet = simulation_fleet();
        let theta = &fleet[3].spec;
        assert_eq!(theta.provisioned_cores(1), 64);
        assert_eq!(theta.provisioned_cores(64), 64);
    }

    #[test]
    fn machine_ids_are_stable() {
        let fleet = simulation_fleet();
        for (i, m) in fleet.iter().enumerate() {
            assert_eq!(m.id, MachineId(i as u32));
        }
    }
}
