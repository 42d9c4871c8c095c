//! The latent machine-behaviour model behind the benchmark corpus.
//!
//! The paper's KNN is trained on measurements of a benchmark suite run on
//! every machine. We have no hardware, so this module plays the role of
//! the hardware: a compact parametric model of how runtime and power scale
//! across the fleet as a function of a job's *compute intensity* χ — the
//! one latent dimension the paper's counter features (instructions/s, LLC
//! misses/s) chiefly expose.
//!
//! χ ∈ [0, 1]: 1 = fully compute-bound (dense kernels), 0 = fully
//! memory-bound (pointer chasing). Machines differ in per-core speed, in
//! how much memory-bound work hurts them, and in per-core power.
//!
//! Coefficients are calibrated to the paper's qualitative findings
//! (Section 5): IC (Cascade Lake, high clocks) is the fastest per core but
//! power-hungry; FASTER (Ice Lake, wide and lower-clocked) is the most
//! energy-efficient large cluster; the Desktop is frugal but slow and
//! memory-starved; Theta (KNL) is slow enough per core that it costs the
//! most energy per unit of work despite modest power.

use green_machines::NodeSpec;
use green_units::Power;

/// Compute intensity from counter rates: misses-per-kiloinstruction mapped
/// through `χ = 1 / (1 + mpki/4)`.
///
/// Dense kernels (mpki ≈ 1) land near 0.8; irregular graph codes
/// (mpki ≈ 12+) land near 0.25.
pub fn compute_intensity(ips: f64, llc_mps: f64) -> f64 {
    if ips <= 0.0 {
        return 0.5;
    }
    let mpki = 1000.0 * llc_mps.max(0.0) / ips;
    1.0 / (1.0 + mpki / 4.0)
}

/// Cross-machine behaviour of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineBehavior {
    /// Machine name (matches the catalog's `NodeSpec::name`).
    pub name: String,
    /// Per-core speed at χ = 1, relative to an IC (Cascade Lake) core.
    pub percore_speed: f64,
    /// Fractional slowdown at χ = 0 (memory-bound work).
    pub mem_penalty: f64,
    /// Dynamic power per busy core at full compute intensity.
    pub dyn_power_per_core: Power,
    /// Idle power attributed per core (node idle / cores).
    pub idle_power_per_core: Power,
    /// Log-sd of the per-application machine interaction noise used when
    /// generating the benchmark corpus.
    pub app_noise: f64,
}

impl MachineBehavior {
    /// Looks up the calibrated behaviour for a catalog machine. Unknown
    /// machines get a heuristic derived from the spec (newer ⇒ faster,
    /// TDP-proportional power).
    pub fn for_spec(spec: &NodeSpec) -> MachineBehavior {
        let idle = spec.idle_power / spec.cores as f64;
        let (speed, mem_penalty, dyn_w) = match spec.name.as_str() {
            // IC: highest clocks in the fleet — fastest per core, and the
            // hungriest (the Runtime policy's favourite, which is what
            // drives Table 6's energy gap).
            "Institutional Cluster" | "Cascade Lake" => (1.15, 0.20, 7.2),
            // FASTER: wide, lower-clocked Ice Lake (2.2 vs IC's 3.0 GHz)
            // — slower per core but the efficiency leader the
            // Energy/Greedy-EBA policies converge on.
            "TAMU FASTER" => (0.93, 0.12, 3.2),
            // Consumer desktop: slow per SMT thread and memory-starved,
            // but frugal — energy-competitive with FASTER, and the
            // cheapest EBA option for small compute-bound jobs.
            "Desktop" => (0.80, 0.45, 5.2),
            "ALCF Theta" => (0.38, 0.50, 3.0),
            "Ice Lake" => (1.10, 0.15, 4.6),
            "Zen3" => (0.95, 0.18, 3.4),
            _ => {
                // Heuristic fallback: a 2020 core ≡ 1.0, ±5 %/year, power
                // follows the TDP headroom above idle.
                let speed = (1.0 + 0.05 * (spec.year_deployed - 2020) as f64).max(0.2);
                let dyn_w =
                    (spec.node_tdp() - spec.idle_power).as_watts().max(1.0) / spec.cores as f64;
                (speed, 0.25, dyn_w)
            }
        };
        MachineBehavior {
            name: spec.name.clone(),
            percore_speed: speed,
            mem_penalty,
            dyn_power_per_core: Power::from_watts(dyn_w),
            idle_power_per_core: idle,
            app_noise: 0.10,
        }
    }

    /// Seconds of wall-clock per unit of reference work (one IC
    /// core-second of χ = 1 work) when running work of intensity `chi`.
    pub fn runtime_factor(&self, chi: f64) -> f64 {
        let chi = chi.clamp(0.0, 1.0);
        1.0 / (self.percore_speed * (1.0 - self.mem_penalty * (1.0 - chi)))
    }

    /// Power drawn per busy core for work of intensity `chi`: idle share
    /// plus 40–100 % of dynamic power as χ rises.
    pub fn power_per_core(&self, chi: f64) -> Power {
        let chi = chi.clamp(0.0, 1.0);
        self.idle_power_per_core + self.dyn_power_per_core * (0.4 + 0.6 * chi)
    }

    /// Energy per unit of reference work per core — the efficiency metric
    /// the *Energy* policy effectively ranks machines by.
    pub fn energy_per_work(&self, chi: f64) -> f64 {
        self.runtime_factor(chi) * self.power_per_core(chi).as_watts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::simulation_fleet;

    fn fleet_behaviors() -> Vec<MachineBehavior> {
        simulation_fleet()
            .iter()
            .map(|m| MachineBehavior::for_spec(&m.spec))
            .collect()
    }

    #[test]
    fn chi_maps_mpki_sensibly() {
        // Dense kernel: 1 mpki.
        let dense = compute_intensity(3.0e9, 3.0e6);
        assert!(dense > 0.75, "{dense}");
        // Graph code: 14 mpki.
        let graph = compute_intensity(1.0e9, 14.0e6);
        assert!(graph < 0.3, "{graph}");
        assert_eq!(compute_intensity(0.0, 1.0), 0.5);
    }

    #[test]
    fn ic_fastest_per_core_for_compute() {
        let b = fleet_behaviors();
        let ic = &b[2];
        for (i, m) in b.iter().enumerate() {
            if i != 2 {
                assert!(
                    ic.runtime_factor(1.0) < m.runtime_factor(1.0),
                    "IC should out-clock {}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn faster_most_efficient_large_cluster() {
        let b = fleet_behaviors();
        let faster = &b[0];
        let ic = &b[2];
        let theta = &b[3];
        for chi in [0.2, 0.5, 0.8, 1.0] {
            assert!(faster.energy_per_work(chi) < ic.energy_per_work(chi));
            assert!(faster.energy_per_work(chi) < theta.energy_per_work(chi));
        }
    }

    #[test]
    fn theta_worst_energy_for_everything() {
        let b = fleet_behaviors();
        let theta = &b[3];
        for chi in [0.0, 0.3, 0.6, 1.0] {
            for (i, m) in b.iter().enumerate() {
                if i != 3 {
                    assert!(
                        theta.energy_per_work(chi) > m.energy_per_work(chi),
                        "Theta should be least efficient at chi={chi} vs {}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn memory_penalty_hurts_desktop_most() {
        let b = fleet_behaviors();
        let desktop = &b[1];
        let faster = &b[0];
        let slowdown_d = desktop.runtime_factor(0.0) / desktop.runtime_factor(1.0);
        let slowdown_f = faster.runtime_factor(0.0) / faster.runtime_factor(1.0);
        assert!(slowdown_d > slowdown_f);
    }

    #[test]
    fn unknown_machine_gets_heuristic() {
        let mut spec = simulation_fleet()[0].spec.clone();
        spec.name = "Mystery Cluster".into();
        spec.year_deployed = 2024;
        let b = MachineBehavior::for_spec(&spec);
        assert!(b.percore_speed > 1.0);
        assert!(b.dyn_power_per_core.as_watts() > 0.0);
    }
}
