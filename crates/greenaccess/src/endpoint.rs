//! Endpoint executors: the Globus-Compute-Endpoint stand-ins.
//!
//! Each endpoint is a thread owning one simulated machine. It executes
//! function invocations on its own virtual clock, generating telemetry
//! windows (RAPL + per-task counters) through
//! [`green_telemetry::NodeSampler`] and publishing them to the platform
//! bus, followed by a completion marker.

use green_machines::{AppId, AppProfile, NodeSpec, TestbedMachine};
use green_telemetry::{Bus, NodeSampler, RunningTask, TaskId};
use green_units::TimeSpan;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

use crate::PlatformMessage;

/// A function invocation request.
#[derive(Debug, Clone, Copy)]
pub struct ExecuteRequest {
    /// Platform-assigned task id.
    pub task: TaskId,
    /// Which reference application to run.
    pub app: AppId,
    /// Input-size scale (multiplies runtime and instructions).
    pub scale: f64,
}

/// Handle to a running endpoint thread.
pub struct EndpointHandle {
    /// Endpoint index on the platform.
    pub index: usize,
    /// The machine this endpoint fronts.
    pub machine: TestbedMachine,
    /// The machine's specification.
    pub spec: NodeSpec,
    sender: Option<Sender<ExecuteRequest>>,
    thread: Option<JoinHandle<()>>,
}

impl EndpointHandle {
    /// Spawns the endpoint thread. Telemetry is published on the
    /// `telemetry` topic of `bus`.
    pub fn spawn(
        index: usize,
        machine: TestbedMachine,
        bus: Bus<PlatformMessage>,
        sample_interval: TimeSpan,
        noise: f64,
        seed: u64,
    ) -> EndpointHandle {
        let spec = machine.spec();
        let idle = spec.idle_power;
        let (sender, receiver) = channel::<ExecuteRequest>();
        let thread = std::thread::Builder::new()
            .name(format!("endpoint-{index}"))
            .spawn(move || {
                let mut sampler = NodeSampler::new(seed, idle, sample_interval, noise);
                while let Ok(request) = receiver.recv() {
                    execute(index, machine, &mut sampler, &bus, request, sample_interval);
                }
            })
            .expect("spawn endpoint thread");
        EndpointHandle {
            index,
            machine,
            spec,
            sender: Some(sender),
            thread: Some(thread),
        }
    }

    /// Queues an invocation. Returns false when the endpoint is down.
    pub fn execute(&self, request: ExecuteRequest) -> bool {
        self.sender
            .as_ref()
            .map(|s| s.send(request).is_ok())
            .unwrap_or(false)
    }
}

impl Drop for EndpointHandle {
    fn drop(&mut self) {
        // Closing the channel stops the thread's recv loop.
        self.sender.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs one invocation on the endpoint's virtual clock: emits one
/// telemetry window per sampling interval for the task's duration, then
/// the completion marker.
fn execute(
    index: usize,
    machine: TestbedMachine,
    sampler: &mut NodeSampler,
    bus: &Bus<PlatformMessage>,
    request: ExecuteRequest,
    interval: TimeSpan,
) {
    let profile = AppProfile::of(request.app);
    let on = profile.on(machine);
    let runtime = on.runtime * request.scale.max(0.01);
    let windows = (runtime.as_secs() / interval.as_secs()).ceil().max(1.0) as usize;
    let running = RunningTask {
        task: request.task,
        cores: request.app.cores(),
        power: on.avg_power(),
        ips: profile.ips_on(machine),
        llc_mps: profile.llc_misses_per_sec_on(machine),
    };
    for _ in 0..windows {
        let window = sampler.sample_window(std::slice::from_ref(&running));
        bus.publish(
            "telemetry",
            PlatformMessage::Telemetry {
                endpoint: index,
                window,
            },
        );
    }
    bus.publish(
        "telemetry",
        PlatformMessage::TaskDone {
            endpoint: index,
            task: request.task,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_streams_windows_then_done() {
        let bus: Bus<PlatformMessage> = Bus::new();
        let sub = bus.subscribe("telemetry");
        let endpoint = EndpointHandle::spawn(
            0,
            TestbedMachine::Desktop,
            bus.clone(),
            TimeSpan::from_secs(1.0),
            0.0,
            7,
        );
        assert!(endpoint.execute(ExecuteRequest {
            task: TaskId(42),
            app: AppId::Bfs,
            scale: 1.0,
        }));
        // BFS on Desktop runs 3.0 s → 3 windows + 1 done marker.
        let mut windows = 0;
        loop {
            match sub.recv().expect("bus alive") {
                PlatformMessage::Telemetry {
                    endpoint: e,
                    window,
                } => {
                    assert_eq!(e, 0);
                    assert_eq!(window.counters.len(), 1);
                    windows += 1;
                }
                PlatformMessage::TaskDone { task, .. } => {
                    assert_eq!(task, TaskId(42));
                    break;
                }
                other => unreachable!("{other:?}"),
            }
        }
        assert_eq!(windows, 3);
        drop(endpoint); // joins cleanly
    }

    #[test]
    fn dropped_endpoint_stops_accepting() {
        let bus: Bus<PlatformMessage> = Bus::new();
        let mut endpoint = EndpointHandle::spawn(
            1,
            TestbedMachine::Zen3,
            bus,
            TimeSpan::from_secs(1.0),
            0.0,
            8,
        );
        endpoint.sender.take();
        assert!(!endpoint.execute(ExecuteRequest {
            task: TaskId(1),
            app: AppId::Mst,
            scale: 1.0,
        }));
    }
}
