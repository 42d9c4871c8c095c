//! Trace job records.

use green_perfmodel::JobCounters;
use green_units::{Energy, TimePoint, TimeSpan};

/// Identifies a job within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

/// Identifies a user within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// One job of the simulation workload.
///
/// `ref_runtime` and `ref_energy` are the values "measured" on the
/// reference cluster (IC); behaviour on other machines is predicted through
/// the job's counter signature by the two-stage pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Job identity (unique within the trace, including repeats).
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Application archetype index (into [`crate::trace::Trace::archetypes`]);
    /// repeats of the same app share this.
    pub archetype: u32,
    /// Requested cores.
    pub cores: u32,
    /// Submission time.
    pub arrival: TimePoint,
    /// Runtime measured on the reference cluster.
    pub ref_runtime: TimeSpan,
    /// Energy measured on the reference cluster.
    pub ref_energy: Energy,
}

impl Job {
    /// The job's counter signature, resolved through the trace's archetype
    /// table.
    pub fn counters(&self, archetypes: &[JobCounters]) -> JobCounters {
        archetypes[self.archetype as usize]
    }

    /// Core-seconds on the reference cluster.
    pub fn ref_core_seconds(&self) -> f64 {
        self.cores as f64 * self.ref_runtime.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_core_seconds() {
        let j = Job {
            id: JobId(0),
            user: UserId(0),
            archetype: 0,
            cores: 16,
            arrival: TimePoint::EPOCH,
            ref_runtime: TimeSpan::from_secs(100.0),
            ref_energy: Energy::from_kwh(0.5),
        };
        assert!((j.ref_core_seconds() - 1600.0).abs() < 1e-9);
    }
}
