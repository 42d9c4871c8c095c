//! Telemetry substrate: simulated RAPL energy counters, per-process
//! hardware performance counters, a topic bus, and the power-model
//! disaggregation pipeline that turns node-level energy into per-task
//! attributed energy.
//!
//! The paper's green-ACCESS endpoints poll the RAPL interface and hardware
//! counters, stream both through Kafka, and a Faust-based monitor
//! "periodically fit\[s\] a power model between performance counters and
//! measured energy", aggregating per-process estimates into task energy.
//! This crate reproduces that pipeline end to end:
//!
//! * [`sampler`] plays the role of the hardware: given the tasks running on
//!   a node it emits RAPL readings (with the real counter's 32-bit µJ wrap)
//!   and per-process counter samples, with measurement noise;
//! * [`bus`] is the in-process Kafka stand-in (`std::sync::mpsc`
//!   channels, topics);
//! * [`power_model`] fits `power ≈ w·[ips, llc_misses/s] + intercept` by
//!   ridge-regularized least squares;
//! * [`monitor`] is the streaming consumer: it ingests windows, maintains
//!   the model online, disaggregates node energy across tasks and emits
//!   [`TaskEnergyReport`]s when tasks finish.

pub mod bus;
pub mod counters;
pub mod linalg;
pub mod monitor;
pub mod power_model;
pub mod rapl;
pub mod sampler;

pub use bus::{Bus, Subscription};
pub use counters::{CounterSample, TaskId};
pub use monitor::{EndpointMonitor, TaskEnergyReport, TelemetryWindow};
pub use power_model::{PowerModel, PowerModelFitter};
pub use rapl::{RaplReading, RaplSimulator};
pub use sampler::{NodeSampler, RunningTask};
