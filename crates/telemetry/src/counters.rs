//! Per-process hardware performance counter samples.

use green_units::{TimePoint, TimeSpan};

/// Identifies a task (function invocation / job) across the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// One per-process counter sample covering a measurement window.
///
/// Counts are totals over the window (the monitor divides by the window
/// length to get rates, mirroring `perf stat` deltas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// The task the process belongs to.
    pub task: TaskId,
    /// Window end time.
    pub t: TimePoint,
    /// Window length.
    pub window: TimeSpan,
    /// Retired instructions in the window.
    pub instructions: f64,
    /// Last-level-cache misses in the window.
    pub llc_misses: f64,
    /// Cores the task had provisioned during the window.
    pub cores: u32,
}

impl CounterSample {
    /// Instructions per second over the window.
    pub fn ips(&self) -> f64 {
        if self.window.as_secs() == 0.0 {
            0.0
        } else {
            self.instructions / self.window.as_secs()
        }
    }

    /// LLC misses per second over the window.
    pub fn llc_misses_per_sec(&self) -> f64 {
        if self.window.as_secs() == 0.0 {
            0.0
        } else {
            self.llc_misses / self.window.as_secs()
        }
    }

    /// Feature vector consumed by the power model: `[ips, llc/s]`.
    pub fn features(&self) -> [f64; 2] {
        [self.ips(), self.llc_misses_per_sec()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_window() {
        let s = CounterSample {
            task: TaskId(1),
            t: TimePoint::from_secs(2.0),
            window: TimeSpan::from_secs(2.0),
            instructions: 4.0e9,
            llc_misses: 2.0e6,
            cores: 8,
        };
        assert!((s.ips() - 2.0e9).abs() < 1.0);
        assert!((s.llc_misses_per_sec() - 1.0e6).abs() < 1e-6);
        assert_eq!(s.features(), [s.ips(), s.llc_misses_per_sec()]);
    }

    #[test]
    fn zero_window_yields_zero_rates() {
        let s = CounterSample {
            task: TaskId(1),
            t: TimePoint::EPOCH,
            window: TimeSpan::ZERO,
            instructions: 1.0e9,
            llc_misses: 1.0e6,
            cores: 1,
        };
        assert_eq!(s.ips(), 0.0);
        assert_eq!(s.llc_misses_per_sec(), 0.0);
    }
}
