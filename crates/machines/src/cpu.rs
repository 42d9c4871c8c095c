//! CPU models: the processor-level attributes accounting cares about.

use green_units::Power;

/// A CPU SKU as it appears in a node specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Marketing name, e.g. `"Intel Xeon 6248R"`.
    pub name: String,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Thermal design power per socket.
    pub tdp_per_socket: Power,
    /// Peak per-thread performance score (PassMark-like arbitrary units).
    /// The *Peak* accounting baseline charges proportionally to this.
    pub peak_per_thread: f64,
}

impl CpuModel {
    /// Builds a CPU model.
    pub fn new(
        name: impl Into<String>,
        cores_per_socket: u32,
        tdp_watts: f64,
        peak_per_thread: f64,
    ) -> Self {
        CpuModel {
            name: name.into(),
            cores_per_socket,
            tdp_per_socket: Power::from_watts(tdp_watts),
            peak_per_thread,
        }
    }

    /// TDP attributable to a single core.
    pub fn tdp_per_core(&self) -> Power {
        self.tdp_per_socket / self.cores_per_socket as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_tdp() {
        let cpu = CpuModel::new("Intel Xeon 6248R", 24, 205.0, 2500.0);
        assert!((cpu.tdp_per_core().as_watts() - 205.0 / 24.0).abs() < 1e-9);
    }
}
