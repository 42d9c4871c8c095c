//! The game's job script.
//!
//! Every participant faces the same 20 jobs in the same arrival order
//! (the paper: "the jobs were the same for all participants"), each with
//! a placebo priority. Job resource profiles are expressed through the
//! same machine-behaviour model the batch simulation uses.

/// Placebo priority label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// "Low".
    Low,
    /// "High".
    High,
    /// "Very High".
    VeryHigh,
}

impl Priority {
    /// Rank used by priority-sensitive agents (higher = more urgent).
    pub fn rank(self) -> f64 {
        match self {
            Priority::Low => 0.0,
            Priority::High => 1.0,
            Priority::VeryHigh => 2.0,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::High => "high",
            Priority::VeryHigh => "very high",
        }
    }
}

/// One job of the script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameJob {
    /// Stable id (index in the script).
    pub id: usize,
    /// Requested cores.
    pub cores: u32,
    /// Base runtime in game hours on the reference machine (IC).
    pub base_hours: f64,
    /// Compute intensity χ ∈ [0, 1] (drives cross-machine behaviour).
    pub chi: f64,
    /// Placebo priority.
    pub priority: Priority,
}

/// The fixed 20-job script. Mix of small/large, compute-/memory-bound,
/// and priorities — identical for every participant and version.
pub fn standard_script() -> Vec<GameJob> {
    use Priority::*;
    let spec: [(u32, f64, f64, Priority); 20] = [
        (8, 6.0, 0.85, Low),
        (16, 9.0, 0.55, VeryHigh),
        (32, 12.0, 0.75, Low),
        (4, 4.0, 0.30, High),
        (48, 14.0, 0.90, Low),
        (16, 7.0, 0.45, VeryHigh),
        (8, 5.0, 0.65, Low),
        (64, 16.0, 0.80, High),
        (16, 8.0, 0.25, Low),
        (32, 10.0, 0.60, VeryHigh),
        (8, 6.0, 0.95, High),
        (24, 11.0, 0.50, Low),
        (16, 9.0, 0.70, Low),
        (48, 13.0, 0.35, High),
        (4, 3.0, 0.80, VeryHigh),
        (32, 12.0, 0.55, Low),
        (16, 6.0, 0.40, High),
        (64, 15.0, 0.85, Low),
        (8, 5.0, 0.60, VeryHigh),
        (24, 10.0, 0.70, Low),
    ];
    spec.iter()
        .enumerate()
        .map(|(id, &(cores, base_hours, chi, priority))| GameJob {
            id,
            cores,
            base_hours,
            chi,
            priority,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_has_twenty_fixed_jobs() {
        let a = standard_script();
        let b = standard_script();
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
    }

    #[test]
    fn script_mixes_sizes_and_priorities() {
        let jobs = standard_script();
        assert!(jobs.iter().any(|j| j.cores <= 8));
        assert!(jobs.iter().any(|j| j.cores >= 48));
        assert!(jobs.iter().any(|j| j.priority == Priority::VeryHigh));
        assert!(jobs.iter().any(|j| j.priority == Priority::Low));
        // Desktop-eligible share is substantial but not universal.
        let small = jobs.iter().filter(|j| j.cores <= 16).count();
        assert!((8..=16).contains(&small));
    }

    #[test]
    fn priority_ranks_ordered() {
        assert!(Priority::VeryHigh.rank() > Priority::High.rank());
        assert!(Priority::High.rank() > Priority::Low.rank());
    }
}
