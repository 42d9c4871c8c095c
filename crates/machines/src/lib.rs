//! Machine catalog for the green-credits workspace.
//!
//! Three families of machines appear in the paper:
//!
//! * the **CPU testbed** (Section 4.2.1 / Tables 1 & 4): a Desktop, a
//!   Cascade Lake node, an Ice Lake node and a Zen3 node;
//! * the **GPU nodes** (Section 4.2.2 / Tables 2 & 3): P100, V100 and A100
//!   nodes with 1–8 devices;
//! * the **simulation fleet** (Section 5 / Table 5): TAMU FASTER, a personal
//!   Desktop, an Institutional Cluster (IC) and ALCF Theta.
//!
//! [`catalog`] reconstructs all three with the paper's published
//! specifications; where the paper derived a value from manufacturer
//! datasheets (embodied carbon) the catalog carries an explicit calibrated
//! override. The tests in [`catalog`] and `green-bench`'s claims rows for
//! Tables 1, 2 and 5 hold the calibration to the paper's values.
//!
//! The crate also hosts the reference [application profiles](apps) used by
//! Figure 4 and by the telemetry/prediction substrates.

pub mod apps;
pub mod catalog;
pub mod cpu;
pub mod facility;
pub mod gpu;
pub mod node;

pub use apps::{AppId, AppProfile, MachineProfile};
pub use catalog::{
    cpu_testbed, gpu_nodes, simulation_fleet, FleetMachine, TestbedMachine, SIM_YEAR, TESTBED_YEAR,
};
pub use cpu::CpuModel;
pub use facility::Facility;
pub use gpu::{GpuModel, GpuNode};
pub use node::{MachineId, NodeSpec};
