//! A StarPU-like heterogeneous task-DAG runtime simulator.
//!
//! The paper's GPU evaluation (Section 4.2.2, Table 3) runs a tiled
//! Cholesky factorization of a 42 GB single-precision matrix across 1–8
//! Nvidia GPUs using StarPU. This crate reproduces that system:
//!
//! * [`dag`] generates the classic tiled-Cholesky task graph
//!   (POTRF → TRSM → SYRK/GEMM dependencies);
//! * [`device`] models the GPUs and the *shared host link* the 42 GB
//!   out-of-core working set must stream over — the resource whose
//!   saturation produces the paper's 4-GPU scaling plateau;
//! * [`sched`] is a dmdas-style list scheduler: priority-ordered ready
//!   tasks, earliest-available device, FIFO host-link transfers;
//! * [`cholesky`] assembles the Table 3 experiment: runtime, energy and
//!   the EBA/CBA/Peak cost columns for every (generation, #GPUs) node.
//!
//! Kernel efficiency and effective link bandwidth are per-generation
//! calibration constants (see [`device::GenerationCalibration`]); the
//! tests in [`cholesky`] hold them to Table 3's runtimes and energies.

pub mod cholesky;
pub mod dag;
pub mod device;
pub mod sched;

pub use cholesky::{run_cholesky, CholeskyOutcome};
pub use dag::{CholeskyDag, KernelKind, Task, TaskId};
pub use device::{DeviceFarm, GenerationCalibration};
pub use sched::{simulate, ScheduleResult};
