//! Reference application profiles: the seven functions of Figure 4.
//!
//! Five applications come from the SeBS serverless benchmark suite plus two
//! scientific applications, executed on the four CPU testbed machines. The
//! profiles below are the *calibration data* of this reproduction: runtime
//! and attributed task energy per (app, machine), with Cholesky matching
//! Table 1 exactly and the rest following Figure 4's shapes (Cascade Lake
//! fast but energy-hungry, Zen3 frugal but slower, Desktop in between).
//!
//! The profiles also derive per-app hardware-counter signatures
//! (instructions/s, LLC misses/s) that the telemetry simulator replays and
//! the GMM/KNN prediction pipeline trains on.

use green_units::{Energy, Power, TimeSpan};

use crate::catalog::TestbedMachine;

/// The seven reference applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Dense Cholesky decomposition (the paper's running example).
    Cholesky,
    /// Molecular-dynamics kernel.
    Md,
    /// PageRank over a web graph.
    Pagerank,
    /// Dense matrix multiplication.
    MatMul,
    /// DNA sequence visualization (SeBS).
    DnaViz,
    /// Breadth-first search (SeBS graph suite).
    Bfs,
    /// Minimum spanning tree (SeBS graph suite).
    Mst,
}

impl AppId {
    /// All applications in Figure 4's order.
    pub const ALL: [AppId; 7] = [
        AppId::Cholesky,
        AppId::Md,
        AppId::Pagerank,
        AppId::MatMul,
        AppId::DnaViz,
        AppId::Bfs,
        AppId::Mst,
    ];

    /// Display name matching the figure labels.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Cholesky => "Cholesky",
            AppId::Md => "MD",
            AppId::Pagerank => "Pagerank",
            AppId::MatMul => "MatMul",
            AppId::DnaViz => "DNA Viz.",
            AppId::Bfs => "BFS",
            AppId::Mst => "MST",
        }
    }

    /// Total retired instructions per invocation (billions). App-intrinsic:
    /// the same work runs on every machine.
    pub fn giga_instructions(self) -> f64 {
        match self {
            AppId::Cholesky => 95.0,
            AppId::Md => 160.0,
            AppId::Pagerank => 70.0,
            AppId::MatMul => 85.0,
            AppId::DnaViz => 120.0,
            AppId::Bfs => 22.0,
            AppId::Mst => 17.0,
        }
    }

    /// Last-level-cache misses per kilo-instruction. Distinguishes the
    /// memory-bound graph codes from the compute-bound kernels; the power
    /// model keys off this.
    pub fn llc_mpki(self) -> f64 {
        match self {
            AppId::Cholesky => 0.9,
            AppId::Md => 0.5,
            AppId::Pagerank => 9.5,
            AppId::MatMul => 1.4,
            AppId::DnaViz => 3.1,
            AppId::Bfs => 14.0,
            AppId::Mst => 11.0,
        }
    }

    /// Cores each invocation uses (the FaaS functions are 8-way parallel).
    pub fn cores(self) -> u32 {
        8
    }
}

impl core::fmt::Display for AppId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Measured behaviour of one app on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Wall-clock runtime of one invocation.
    pub runtime: TimeSpan,
    /// Task-attributed energy of one invocation (the share of package
    /// energy the disaggregator assigns to the task's cores).
    pub energy: Energy,
}

impl MachineProfile {
    fn new(runtime_s: f64, energy_j: f64) -> Self {
        MachineProfile {
            runtime: TimeSpan::from_secs(runtime_s),
            energy: Energy::from_joules(energy_j),
        }
    }

    /// Average attributed power over the invocation.
    pub fn avg_power(&self) -> Power {
        self.energy.average_power(self.runtime)
    }

    /// Instructions per second for an app with `giga_instructions` total.
    pub fn ips(&self, giga_instructions: f64) -> f64 {
        giga_instructions * 1e9 / self.runtime.as_secs()
    }
}

/// The full profile of one application across the testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Which application.
    pub id: AppId,
    per_machine: [MachineProfile; 4],
}

impl AppProfile {
    /// The profile of `app` (calibration data described in the module doc).
    pub fn of(app: AppId) -> AppProfile {
        // Order: Desktop, CascadeLake, IceLake, Zen3.
        let per_machine = match app {
            AppId::Cholesky => [
                MachineProfile::new(5.20, 18.3),
                MachineProfile::new(4.68, 35.8),
                MachineProfile::new(4.60, 19.8),
                MachineProfile::new(5.65, 16.8),
            ],
            AppId::Md => [
                MachineProfile::new(9.50, 33.0),
                MachineProfile::new(8.00, 60.0),
                MachineProfile::new(6.50, 38.0),
                MachineProfile::new(7.00, 25.0),
            ],
            AppId::Pagerank => [
                MachineProfile::new(7.50, 26.0),
                MachineProfile::new(6.00, 45.0),
                MachineProfile::new(5.50, 30.0),
                MachineProfile::new(6.80, 22.0),
            ],
            AppId::MatMul => [
                MachineProfile::new(4.50, 14.0),
                MachineProfile::new(3.50, 28.0),
                MachineProfile::new(3.00, 15.0),
                MachineProfile::new(3.80, 12.0),
            ],
            AppId::DnaViz => [
                MachineProfile::new(13.0, 43.0),
                MachineProfile::new(12.0, 80.0),
                MachineProfile::new(11.0, 55.0),
                MachineProfile::new(14.0, 40.0),
            ],
            AppId::Bfs => [
                MachineProfile::new(3.00, 9.5),
                MachineProfile::new(2.50, 18.0),
                MachineProfile::new(2.20, 11.0),
                MachineProfile::new(3.20, 8.5),
            ],
            AppId::Mst => [
                MachineProfile::new(2.40, 7.5),
                MachineProfile::new(2.00, 14.0),
                MachineProfile::new(1.80, 9.0),
                MachineProfile::new(2.60, 6.8),
            ],
        };
        AppProfile {
            id: app,
            per_machine,
        }
    }

    /// All seven profiles.
    pub fn all() -> Vec<AppProfile> {
        AppId::ALL.iter().map(|&a| AppProfile::of(a)).collect()
    }

    /// The profile on one testbed machine.
    pub fn on(&self, machine: TestbedMachine) -> MachineProfile {
        self.per_machine[machine.index()]
    }

    /// Instructions per second on a machine.
    pub fn ips_on(&self, machine: TestbedMachine) -> f64 {
        self.on(machine).ips(self.id.giga_instructions())
    }

    /// LLC misses per second on a machine.
    pub fn llc_misses_per_sec_on(&self, machine: TestbedMachine) -> f64 {
        self.ips_on(machine) * self.id.llc_mpki() / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_matches_table1() {
        let p = AppProfile::of(AppId::Cholesky);
        let d = p.on(TestbedMachine::Desktop);
        assert!((d.runtime.as_secs() - 5.20).abs() < 1e-12);
        assert!((d.energy.as_joules() - 18.3).abs() < 1e-12);
        let z = p.on(TestbedMachine::Zen3);
        assert!((z.energy.as_joules() - 16.8).abs() < 1e-12);
    }

    #[test]
    fn cascade_lake_always_most_energy() {
        // Figure 4's headline shape: Cascade Lake finishes fast but burns
        // the most energy on every app.
        for profile in AppProfile::all() {
            let cl = profile.on(TestbedMachine::CascadeLake).energy;
            for m in TestbedMachine::ALL {
                if m != TestbedMachine::CascadeLake {
                    assert!(
                        cl > profile.on(m).energy,
                        "{}: CL should dominate energy",
                        profile.id
                    );
                }
            }
        }
    }

    #[test]
    fn zen3_always_least_energy() {
        for profile in AppProfile::all() {
            let z = profile.on(TestbedMachine::Zen3).energy;
            for m in TestbedMachine::ALL {
                if m != TestbedMachine::Zen3 {
                    assert!(z < profile.on(m).energy, "{}", profile.id);
                }
            }
        }
    }

    #[test]
    fn counter_signatures_positive_and_distinct() {
        let chol = AppProfile::of(AppId::Cholesky);
        let bfs = AppProfile::of(AppId::Bfs);
        let m = TestbedMachine::IceLake;
        assert!(chol.ips_on(m) > 0.0);
        // Graph code misses far more than dense linear algebra.
        let chol_rate = chol.llc_misses_per_sec_on(m) / chol.ips_on(m);
        let bfs_rate = bfs.llc_misses_per_sec_on(m) / bfs.ips_on(m);
        assert!(bfs_rate > 10.0 * chol_rate);
    }

    #[test]
    fn avg_power_consistent() {
        let p = AppProfile::of(AppId::Cholesky).on(TestbedMachine::Desktop);
        assert!((p.avg_power().as_watts() - 18.3 / 5.2).abs() < 1e-9);
    }
}
