//! Experiment drivers and rendering for the paper's tables and figures.
//!
//! Every table and figure in the evaluation has a driver here that
//! produces its rows; the `repro` binary prints them, and [`claims`]
//! checks the paper's results against them.

pub mod args;
pub mod claims;
pub mod experiments;
pub mod export;
pub mod json;
pub mod perf;
pub mod render;

pub use experiments::simulation::{SimArtifacts, SimScale};
pub use perf::{peak_rss_mb, reset_peak_rss, Comparison, Host, PerfBench, PerfReport};
