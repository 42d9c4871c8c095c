//! The host record every report carries: cores, CPU model, kernel, the
//! scratch directory's filesystem, and the CPU steal share over the run.
//! With it a stolen or single-core run is never read as a regression or
//! as a scaling result.

use std::path::Path;

use green_bench::json::quote;

/// What the benchmark ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores this process may run on.
    pub cores: usize,
    /// CPU model name (`/proc/cpuinfo`).
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type of the scratch directory (`/proc/self/mounts`).
    pub scratch_fs: String,
}

impl Host {
    /// Reads the host record; fields that cannot be read are `unknown`.
    pub fn probe(scratch: &Path) -> Host {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string());
        let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu.unwrap_or_else(|| "unknown".into()),
            kernel: if kernel.is_empty() {
                "unknown".into()
            } else {
                kernel
            },
            scratch_fs: fs_type(scratch, &read("/proc/self/mounts")),
        }
    }

    /// The record as one JSON object, with the steal share of the run.
    pub fn to_json(&self, steal_share: f64) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": {}, \"kernel\": {}, \"scratch_fs\": {}, \
             \"steal_share\": {steal_share:.4}}}",
            self.cores,
            quote(&self.cpu),
            quote(&self.kernel),
            quote(&self.scratch_fs)
        )
    }
}

/// The type of the filesystem holding `path`: the longest mount point in
/// `mounts` (the `/proc/self/mounts` text) that contains it.
pub fn fs_type(path: &Path, mounts: &str) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let point = fields.nth(1)?.replace("\\040", " ");
            let kind = fields.next()?;
            path.starts_with(&point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// All states summed (guest time is already inside user time).
    pub total: u64,
    /// Time the hypervisor ran something else while this host wanted
    /// the CPU.
    pub steal: u64,
}

impl CpuTimes {
    /// Reads the `cpu` line of `/proc/stat` (zeros where unavailable).
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| text.lines().next().map(CpuTimes::parse))
            .unwrap_or_default()
    }

    /// Parses a `cpu  user nice system idle iowait irq softirq steal ...`
    /// line.
    pub fn parse(line: &str) -> CpuTimes {
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTimes {
            total: ticks.iter().sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of CPU time stolen between `self` and `later`.
    pub fn steal_share(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
