//! Workload summary statistics.

use green_perfmodel::stats::{mean, median, quantile};

use crate::trace::Trace;

/// Descriptive statistics of a trace, for reporting and sanity checks.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total jobs (after any doubling).
    pub jobs: usize,
    /// Distinct users.
    pub users: usize,
    /// Distinct application archetypes.
    pub archetypes: usize,
    /// Fraction of jobs requesting more than 16 cores (Desktop-ineligible).
    pub over_desktop_frac: f64,
    /// Mean requested cores.
    pub mean_cores: f64,
    /// Median runtime on the reference cluster (seconds).
    pub median_runtime_s: f64,
    /// 95th-percentile runtime (seconds).
    pub p95_runtime_s: f64,
    /// Total reference-cluster energy (MWh).
    pub total_ref_energy_mwh: f64,
    /// Mean per-job reference energy (kWh).
    pub mean_ref_energy_kwh: f64,
}

impl TraceStats {
    /// Computes statistics for a trace.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut users: Vec<u32> = trace.jobs.iter().map(|j| j.user.0).collect();
        users.sort_unstable();
        users.dedup();
        let runtimes: Vec<f64> = trace.jobs.iter().map(|j| j.ref_runtime.as_secs()).collect();
        let energies: Vec<f64> = trace.jobs.iter().map(|j| j.ref_energy.as_kwh()).collect();
        let cores: Vec<f64> = trace.jobs.iter().map(|j| j.cores as f64).collect();
        let over = trace.jobs.iter().filter(|j| j.cores > 16).count();
        TraceStats {
            jobs: trace.len(),
            users: users.len(),
            archetypes: trace.archetypes.len(),
            over_desktop_frac: over as f64 / trace.len().max(1) as f64,
            mean_cores: mean(&cores),
            median_runtime_s: median(&runtimes),
            p95_runtime_s: quantile(&runtimes, 0.95),
            total_ref_energy_mwh: energies.iter().sum::<f64>() / 1_000.0,
            mean_ref_energy_kwh: mean(&energies),
        }
    }
}

impl core::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "jobs:              {}", self.jobs)?;
        writeln!(f, "users:             {}", self.users)?;
        writeln!(f, "archetypes:        {}", self.archetypes)?;
        writeln!(
            f,
            "over-Desktop frac: {:.1}%",
            self.over_desktop_frac * 100.0
        )?;
        writeln!(f, "mean cores:        {:.1}", self.mean_cores)?;
        writeln!(f, "median runtime:    {:.0} s", self.median_runtime_s)?;
        writeln!(f, "p95 runtime:       {:.0} s", self.p95_runtime_s)?;
        writeln!(f, "total ref energy:  {:.1} MWh", self.total_ref_energy_mwh)?;
        write!(f, "mean ref energy:   {:.2} kWh", self.mean_ref_energy_kwh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceConfig};
    use green_machines::simulation_fleet;
    use green_perfmodel::CrossMachinePredictor;

    #[test]
    fn stats_cover_trace() {
        let p = CrossMachinePredictor::for_fleet(&simulation_fleet(), 3);
        let trace = Trace::generate(&TraceConfig::small(2), &p);
        let stats = TraceStats::of(&trace);
        assert_eq!(stats.jobs, trace.len());
        assert!(stats.users <= 24);
        assert!(stats.median_runtime_s > 30.0);
        assert!(stats.p95_runtime_s >= stats.median_runtime_s);
        assert!(stats.total_ref_energy_mwh > 0.0);
        let display = format!("{stats}");
        assert!(display.contains("jobs:"));
    }
}
