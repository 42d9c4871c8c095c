//! Discrete-event multi-cluster batch simulator (Section 5).
//!
//! Replays the 142,380-job workload against the Table 5 fleet under a
//! user machine-selection policy and an accounting method:
//!
//! * each job is routed to one machine at submission by the
//!   [`Policy`] (no migration — once started, a job stays
//!   put even as carbon intensities change, exactly as the paper assumes);
//! * each cluster schedules FCFS with EASY-style backfilling at the
//!   allocation-slice granularity, under the paper's constraint that a
//!   user runs at most one job per cluster at a time;
//! * the per-user "Desktop" is modelled as one private 16-core node per
//!   user (the per-cluster user constraint makes this equivalent to a
//!   shared pool of private nodes);
//! * completed jobs are priced under all five accounting methods and the
//!   carbon ledger (operational + attributed embodied), feeding
//!   Figures 5–7 and Table 6.
//!
//! [`experiment`] wraps the simulator into the paper's three scenarios
//! (EBA, CBA, low-carbon CBA) and computes the fixed-allocation work
//! comparisons. The hot path is built for sweep scale: [`SimArena`]
//! owns every growable buffer so repeated cells allocate almost
//! nothing, the event queue reads arrivals straight from the trace and
//! keeps only pending finishes and re-arrivals in a heap, and cluster
//! queues are per-user sub-queues behind a ready-user index (provably
//! the flat scan's decisions).
//!
//! A run is an event loop, which places and schedules every job, then an
//! attribution pass, which prices each completion. Each arrival builds
//! only the quote fields its policy reads ([`Policy::reads`]), from
//! machine constants resolved once per run. A policy that reads no
//! charge therefore schedules alike under every accounting method and
//! grid, and [`Scenario::run_all`] simulates such a schedule once and
//! attributes it under each scenario that runs the policy: the paper's
//! 18 policy runs take 12 simulated schedules, bit-identical to 18
//! independent runs. `run_all` hands each run to the caller's fold as
//! soon as it is attributed, so a caller that keeps only what its
//! figures read never holds every run's outcome records at once.
//!
//! # Example
//!
//! Simulate one cell — a small generated trace, the Table 5 fleet, the
//! Greedy policy under Energy-Based Accounting — and read the run's
//! aggregate metrics:
//!
//! ```
//! use green_batchsim::{intensity_for, PlacementTable, Policy, SimArena, SimConfig, Simulator};
//! use green_machines::simulation_fleet;
//! use green_obs::NoopRecorder;
//! use green_perfmodel::CrossMachinePredictor;
//! use green_workload::{Trace, TraceConfig};
//!
//! let fleet = simulation_fleet();
//! let predictor = CrossMachinePredictor::for_fleet(&fleet, 7);
//! let trace = Trace::generate(&TraceConfig::small(7), &predictor);
//! let table = PlacementTable::build(&trace, &fleet, &predictor);
//! let intensity = intensity_for(&fleet, 7);
//!
//! let config = SimConfig::new(Policy::Greedy, green_accounting::MethodKind::eba(), 24);
//! let simulator = Simulator::new(&trace, &fleet, &table, &intensity, config);
//! let metrics = simulator.run(&mut SimArena::new(), &NoopRecorder);
//! // Every job either completed on some machine or was rejected.
//! assert_eq!(metrics.outcomes.len() + metrics.rejected, trace.jobs.len());
//! assert!(metrics.total_energy_mwh() > 0.0);
//! assert!(metrics.attributed_carbon_kg() > metrics.operational_carbon_kg());
//! ```

pub mod arena;
pub mod cluster;
pub mod event;
pub mod experiment;
pub mod market;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod simulator;

pub use arena::SimArena;
pub use experiment::{intensity_for, run_cell_in_obs, Scenario, ScenarioResults};
pub use market::{MarketAgent, MarketInputs, PriceTable};
pub use metrics::{JobOutcome, RunMetrics};
pub use policy::Policy;
pub use profile::PlacementTable;
pub use simulator::{SimConfig, Simulator, MAX_SHIFT_BUDGET_HOURS};
