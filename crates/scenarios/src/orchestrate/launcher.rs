//! The spawn substrate: how the supervisor turns a task into a running
//! worker.
//!
//! The supervisor never touches `std::process` directly — it hands a
//! [`WorkerSpec`] to a [`Launcher`] and gets back a [`WorkerHandle`] it
//! can poll and kill. That indirection is the whole point (the
//! ride-hailing exemplar's sweep core has the same shape): the same
//! plan/supervise/steal/merge loop drives OS processes today
//! ([`ProcessLauncher`]), in-process threads for deterministic benches
//! and tests ([`ThreadLauncher`]), and ssh or container launchers
//! tomorrow without the supervisor changing.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use green_chaos::ChaosRegistry;

use crate::durable_io::invalid;
use crate::shard::{run_shard, ShardAssignment, ShardJob};
use crate::sweep::{Sweep, WorkloadPreset};
use crate::SweepRunner;

/// Everything a launcher needs to start one fragment worker. The spec
/// carries the *sweep file path* and raw preset token rather than a
/// parsed [`Sweep`], because a process worker re-parses them in its own
/// address space anyway — the spec is exactly the worker's command
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// The sweep TOML file every worker re-reads.
    pub sweep_file: PathBuf,
    /// Workload preset override token (`--preset`), if any.
    pub preset: Option<String>,
    /// Configuration-label filter (`--filter`), if any.
    pub filter: Option<String>,
    /// The assigned config-aligned cell range (`--cell-range`).
    pub cells: Range<usize>,
    /// The fragment CSV path (`--out`).
    pub csv: PathBuf,
    /// Resume from the fragment's manifest checkpoint (`--resume`).
    pub resume: bool,
    /// Rows between manifest checkpoints (`--checkpoint-every`) —
    /// also the heartbeat cadence, so the supervisor's stall threshold
    /// budgets against it.
    pub checkpoint_every: usize,
    /// Worker threads for the fragment's own cell parallelism
    /// (`--threads`; 0 = all cores).
    pub threads: usize,
    /// The failpoint spec the worker arms (`--chaos`; empty arms
    /// nothing). Each worker compiles its own registry, with fresh hit
    /// counters.
    pub chaos: String,
}

/// A running (or finished) worker the supervisor can observe.
pub trait WorkerHandle {
    /// Non-blocking liveness check: `None` while running, `Some(ok)`
    /// once exited (`ok` = clean exit). The supervisor treats the
    /// fragment *manifest* as the authoritative success signal; `ok` is
    /// the fast path and the error-message source.
    fn poll(&mut self) -> io::Result<Option<bool>>;

    /// Forcibly terminates the worker (stall recovery, work-stealing).
    /// Launchers that cannot kill return an error — and advertise it
    /// via [`Launcher::supports_kill`] so the supervisor never asks.
    fn kill(&mut self) -> io::Result<()>;

    /// A short human label for event-log details (`pid 1234`,
    /// `thread`).
    fn describe(&self) -> String;
}

/// The spawn substrate. Implementations are synchronous and cheap to
/// call from the supervisor's single-threaded poll loop.
pub trait Launcher {
    /// Starts a worker for `spec`.
    fn launch(&self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>>;

    /// Whether [`WorkerHandle::kill`] works. When false the supervisor
    /// disables stall-killing and work-stealing (retries on *exit*
    /// still work) — which also makes runs deterministic, the property
    /// the `orchestrate_mega` bench counts on.
    fn supports_kill(&self) -> bool {
        true
    }
}

/// Spawns each worker as a `scenarios <sweep> --cell-range A..B` OS
/// process — today's one-box fleet. Worker stderr is captured to
/// `<csv>.log` next to the fragment so a crash is diagnosable after the
/// fact.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The `scenarios` binary to exec (the orchestrator's own, via
    /// [`ProcessLauncher::current_exe`], unless pointed elsewhere).
    pub binary: PathBuf,
}

impl ProcessLauncher {
    /// A launcher that re-execs the current binary.
    pub fn current_exe() -> io::Result<ProcessLauncher> {
        Ok(ProcessLauncher {
            binary: std::env::current_exe()?,
        })
    }
}

/// The stderr capture path of a fragment worker: `<csv>.log`.
pub fn worker_log_path(csv: &Path) -> PathBuf {
    let mut name = csv.file_name().unwrap_or_default().to_os_string();
    name.push(".log");
    csv.with_file_name(name)
}

struct ProcessHandle {
    child: std::process::Child,
}

impl WorkerHandle for ProcessHandle {
    fn poll(&mut self) -> io::Result<Option<bool>> {
        Ok(self.child.try_wait()?.map(|status| status.success()))
    }

    fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        // Reap so the pid is gone before the supervisor inspects the
        // (now quiescent) manifest — the post-kill sidecars are the
        // authoritative state stealing arithmetic runs on.
        self.child.wait().map(|_| ())
    }

    fn describe(&self) -> String {
        format!("pid {}", self.child.id())
    }
}

impl Launcher for ProcessLauncher {
    fn launch(&self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
        let log = std::fs::File::create(worker_log_path(&spec.csv))?;
        let mut command = std::process::Command::new(&self.binary);
        command
            .arg(&spec.sweep_file)
            .arg("--cell-range")
            .arg(format!("{}..{}", spec.cells.start, spec.cells.end))
            .arg("--out")
            .arg(&spec.csv)
            .arg("--threads")
            .arg(spec.threads.to_string())
            .arg("--checkpoint-every")
            .arg(spec.checkpoint_every.to_string())
            .arg("--quiet")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(log);
        if spec.resume {
            command.arg("--resume");
        }
        if let Some(preset) = &spec.preset {
            command.arg("--preset").arg(preset);
        }
        if let Some(filter) = &spec.filter {
            command.arg("--filter").arg(filter);
        }
        if !spec.chaos.is_empty() {
            command.arg("--chaos").arg(&spec.chaos);
        }
        Ok(Box::new(ProcessHandle {
            child: command.spawn()?,
        }))
    }
}

/// Runs each worker as an in-process thread calling [`run_shard`]
/// directly — no exec, no kill — on a runner armed with the spec's
/// failpoints. The launcher for benches (`green-perf orchestrate_mega`)
/// and tests that want deterministic scheduling: without kill support
/// the supervisor's only moves are spawn and retry-on-exit, so a healthy
/// run's event log is exactly `plan, spawn×N, exit×N, merge, complete`.
#[derive(Debug, Clone, Default)]
pub struct ThreadLauncher;

struct ThreadHandle {
    join: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl WorkerHandle for ThreadHandle {
    fn poll(&mut self) -> io::Result<Option<bool>> {
        match &self.join {
            Some(join) if !join.is_finished() => Ok(None),
            Some(_) => {
                let result = self.join.take().unwrap().join();
                // A panic inside run_shard (already recorded in the
                // progress sidecar by its catch_unwind wrapper) lands
                // here as Err — a dirty exit, same as a process crash.
                Ok(Some(matches!(result, Ok(Ok(())))))
            }
            None => Ok(Some(true)),
        }
    }

    fn kill(&mut self) -> io::Result<()> {
        Err(io::Error::other("thread workers cannot be killed"))
    }

    fn describe(&self) -> String {
        "thread".into()
    }
}

impl Launcher for ThreadLauncher {
    fn launch(&self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
        let spec = spec.clone();
        let text = std::fs::read_to_string(&spec.sweep_file)?;
        let join = std::thread::Builder::new()
            .name(format!("orch-{}..{}", spec.cells.start, spec.cells.end))
            .spawn(move || -> io::Result<()> {
                let mut sweep = Sweep::from_toml_str(&text).map_err(|e| invalid(e.to_string()))?;
                if let Some(token) = &spec.preset {
                    let preset =
                        WorkloadPreset::parse(token).map_err(|e| invalid(e.to_string()))?;
                    sweep.override_preset(preset);
                }
                let chaos =
                    ChaosRegistry::from_spec(&spec.chaos).map_err(|e| invalid(e.to_string()))?;
                let job = ShardJob {
                    sweep: &sweep,
                    filter: spec.filter.as_deref(),
                    assignment: ShardAssignment::Cells(spec.cells.clone()),
                    csv: &spec.csv,
                    resume: spec.resume,
                    checkpoint_every: spec.checkpoint_every,
                    columnar: false,
                };
                let runner = SweepRunner::new(spec.threads).armed(&chaos);
                run_shard(&runner, &job, None).map(|_| ())
            })?;
        Ok(Box::new(ThreadHandle { join: Some(join) }))
    }

    fn supports_kill(&self) -> bool {
        false
    }
}
