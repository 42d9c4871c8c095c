//! The endpoint monitor: a streaming consumer that turns node-level RAPL
//! deltas into per-task attributed energy.
//!
//! Mirrors the paper's Faust-based monitor: it ingests telemetry windows,
//! periodically refits the power model between aggregate counters and
//! measured dynamic power, predicts per-task power from each task's own
//! counters, and attributes the measured dynamic energy proportionally to
//! those predictions. When a task completes, the accumulated energy is
//! emitted as a [`TaskEnergyReport`] — the `e_j` that EBA and CBA charge.

use std::collections::HashMap;

use green_units::{Energy, Power, TimePoint, TimeSpan};

use crate::counters::{CounterSample, TaskId};
use crate::power_model::{PowerModel, PowerModelFitter};
use crate::rapl::RaplReading;

/// One telemetry window shipped from an endpoint: the RAPL reading at the
/// window end plus a counter sample per running task.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    /// Window end time.
    pub t: TimePoint,
    /// Window length.
    pub window: TimeSpan,
    /// Cumulative package energy at the window end.
    pub rapl: RaplReading,
    /// Per-task counters for tasks that ran during the window.
    pub counters: Vec<CounterSample>,
}

/// The monitor's verdict on a finished task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEnergyReport {
    /// The finished task.
    pub task: TaskId,
    /// Energy attributed to the task over its lifetime.
    pub energy: Energy,
    /// Observed duration (windows seen × window length).
    pub duration: TimeSpan,
    /// Number of telemetry windows the task appeared in.
    pub windows: u32,
}

impl TaskEnergyReport {
    /// Average attributed power over the task's life.
    pub fn avg_power(&self) -> Power {
        self.energy.average_power(self.duration)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TaskAccumulator {
    energy: Energy,
    duration: TimeSpan,
    windows: u32,
}

/// Streaming per-endpoint monitor state.
#[derive(Debug)]
pub struct EndpointMonitor {
    idle_power: Power,
    fitter: PowerModelFitter,
    model: PowerModel,
    refit_every: u32,
    windows_since_fit: u32,
    last_rapl: Option<RaplReading>,
    open: HashMap<TaskId, TaskAccumulator>,
}

impl EndpointMonitor {
    /// Builds a monitor for a node with the given idle power. The model is
    /// refit every `refit_every` windows over a 512-window history.
    pub fn new(idle_power: Power, refit_every: u32) -> Self {
        EndpointMonitor {
            idle_power,
            fitter: PowerModelFitter::new(512, 1e-4),
            model: PowerModel::uninformed(),
            refit_every: refit_every.max(1),
            windows_since_fit: 0,
            last_rapl: None,
            open: HashMap::new(),
        }
    }

    /// The current fitted model (uninformed until the first refit).
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Number of tasks with open accumulators.
    pub fn open_task_count(&self) -> usize {
        self.open.len()
    }

    /// Ingests one telemetry window: updates the model and attributes the
    /// window's dynamic energy across the tasks observed in it.
    pub fn ingest(&mut self, window: &TelemetryWindow) {
        let Some(last) = self.last_rapl.replace(window.rapl) else {
            // First reading establishes the baseline; nothing to attribute.
            return;
        };
        let node_energy = window.rapl.delta_since(last);
        let node_power = node_energy.average_power(window.window);
        let dynamic_power = Power::from_watts((node_power - self.idle_power).as_watts().max(0.0));
        let dynamic_energy = dynamic_power * window.window;

        // Online model maintenance: aggregate features vs dynamic power.
        let agg = window.counters.iter().fold([0.0f64; 2], |mut acc, c| {
            let f = c.features();
            acc[0] += f[0];
            acc[1] += f[1];
            acc
        });
        self.fitter.observe(agg, dynamic_power);
        self.windows_since_fit += 1;
        if self.windows_since_fit >= self.refit_every {
            if let Some(m) = self.fitter.fit() {
                self.model = m;
            }
            self.windows_since_fit = 0;
        }

        if window.counters.is_empty() {
            return;
        }
        let shares = self.attribution_shares(&window.counters);
        for (c, share) in window.counters.iter().zip(shares) {
            let acc = self.open.entry(c.task).or_default();
            acc.energy += dynamic_energy * share;
            acc.duration += window.window;
            acc.windows += 1;
        }
    }

    /// Per-task attribution shares for one window: proportional to the
    /// model's predicted power when the model is informed, otherwise to
    /// provisioned cores.
    fn attribution_shares(&self, counters: &[CounterSample]) -> Vec<f64> {
        let raw: Vec<f64> = if self.model.is_informed() {
            counters
                .iter()
                .map(|c| self.model.predict(c.features()).as_watts())
                .collect()
        } else {
            counters.iter().map(|c| c.cores as f64).collect()
        };
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            let n = counters.len() as f64;
            vec![1.0 / n; counters.len()]
        } else {
            raw.iter().map(|p| p / total).collect()
        }
    }

    /// Closes a task's accumulator and reports its attributed energy.
    /// Returns `None` for tasks never observed.
    pub fn finish_task(&mut self, task: TaskId) -> Option<TaskEnergyReport> {
        self.open.remove(&task).map(|acc| TaskEnergyReport {
            task,
            energy: acc.energy,
            duration: acc.duration,
            windows: acc.windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{NodeSampler, RunningTask};

    fn run_tasks(
        monitor: &mut EndpointMonitor,
        sampler: &mut NodeSampler,
        tasks: &[RunningTask],
        windows: usize,
    ) {
        for _ in 0..windows {
            let w = sampler.sample_window(tasks);
            monitor.ingest(&w);
        }
    }

    fn task(id: u64, power: f64, ips: f64, llc: f64) -> RunningTask {
        RunningTask {
            task: TaskId(id),
            cores: 8,
            power: Power::from_watts(power),
            ips,
            llc_mps: llc,
        }
    }

    #[test]
    fn single_task_gets_all_dynamic_energy() {
        let idle = Power::from_watts(100.0);
        let mut sampler = NodeSampler::new(3, idle, TimeSpan::from_secs(1.0), 0.0);
        let mut monitor = EndpointMonitor::new(idle, 16);
        let t = task(1, 40.0, 2.0e9, 2.0e6);
        run_tasks(&mut monitor, &mut sampler, std::slice::from_ref(&t), 60);
        let report = monitor.finish_task(TaskId(1)).unwrap();
        // 59 attributed windows (first establishes baseline) at 40 W.
        let expect = 40.0 * 59.0;
        assert!(
            (report.energy.as_joules() - expect).abs() / expect < 0.02,
            "got {} expect {expect}",
            report.energy.as_joules()
        );
        assert_eq!(report.windows, 59);
    }

    #[test]
    fn attribution_splits_by_learned_power() {
        let idle = Power::from_watts(50.0);
        let mut sampler = NodeSampler::new(5, idle, TimeSpan::from_secs(1.0), 0.01);
        let mut monitor = EndpointMonitor::new(idle, 8);
        // Warm the model with varied single-task phases so the regression
        // can identify the coefficients.
        for i in 0..40 {
            let p = 20.0 + (i % 5) as f64 * 15.0;
            let t = task(100 + i, p, p * 5.0e7, p * 4.0e4);
            run_tasks(&mut monitor, &mut sampler, &[t], 4);
        }
        // Now two concurrent tasks: 30 W and 90 W (1:3).
        let a = task(1, 30.0, 1.5e9, 1.2e6);
        let b = task(2, 90.0, 4.5e9, 3.6e6);
        run_tasks(&mut monitor, &mut sampler, &[a, b], 50);
        let ra = monitor.finish_task(TaskId(1)).unwrap();
        let rb = monitor.finish_task(TaskId(2)).unwrap();
        let ratio = rb.energy / ra.energy;
        assert!(
            (ratio - 3.0).abs() < 0.45,
            "attribution ratio {ratio:.2}, want ≈3"
        );
        // Conservation: the two shares sum to the measured dynamic energy.
        let total = ra.energy + rb.energy;
        let expect = 120.0 * 50.0;
        assert!((total.as_joules() - expect).abs() / expect < 0.05);
    }

    #[test]
    fn uninformed_model_falls_back_to_cores() {
        let idle = Power::from_watts(10.0);
        let mut sampler = NodeSampler::new(9, idle, TimeSpan::from_secs(1.0), 0.0);
        // Huge refit interval: model never becomes informed.
        let mut monitor = EndpointMonitor::new(idle, 10_000);
        let mut a = task(1, 50.0, 1e9, 1e6);
        let mut b = task(2, 50.0, 1e9, 1e6);
        a.cores = 12;
        b.cores = 4;
        run_tasks(&mut monitor, &mut sampler, &[a, b], 20);
        let ra = monitor.finish_task(TaskId(1)).unwrap();
        let rb = monitor.finish_task(TaskId(2)).unwrap();
        let ratio = ra.energy / rb.energy;
        assert!((ratio - 3.0).abs() < 1e-6, "cores 12:4 -> 3:1, got {ratio}");
    }

    #[test]
    fn unknown_task_reports_none() {
        let mut monitor = EndpointMonitor::new(Power::from_watts(10.0), 4);
        assert!(monitor.finish_task(TaskId(404)).is_none());
    }

    #[test]
    fn idle_windows_keep_model_sane() {
        let idle = Power::from_watts(75.0);
        let mut sampler = NodeSampler::new(13, idle, TimeSpan::from_secs(1.0), 0.01);
        let mut monitor = EndpointMonitor::new(idle, 8);
        // Idle-only windows: dynamic power ≈ 0 with zero features.
        run_tasks(&mut monitor, &mut sampler, &[], 30);
        let t = task(5, 60.0, 3e9, 2e6);
        run_tasks(&mut monitor, &mut sampler, &[t], 30);
        let r = monitor.finish_task(TaskId(5)).unwrap();
        let expect = 60.0 * 30.0;
        assert!((r.energy.as_joules() - expect).abs() / expect < 0.05);
    }
}
