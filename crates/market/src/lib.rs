//! green-market: a carbon-credit market with dynamic pricing and an
//! adaptive-user incentive loop.
//!
//! The paper's core claim is that carbon-aware accounting *changes user
//! behavior* (Sections 3.1 and 5.3, and the Figure 6 exchange-rate
//! mechanism). This crate closes that incentive loop around the batch
//! simulator, in four layers:
//!
//! 1. **[`pricing`]** — a dynamic pricing engine compiling
//!    carbon-intensity traces into posted hourly price schedules
//!    ([`PriceSpec`], [`price_table`]): carbon-indexed multipliers and
//!    time-of-use discounts, precomputed for the whole simulated year.
//! 2. **[`desk`]** — the exchange desk ([`ExchangeDesk`], empirical
//!    cross-method rates) and per-period credit banking with a cap and
//!    decay ([`CreditBank`]), plus the hold/settle step ([`settle`])
//!    built on the provider's [`Ledger`](green_accounting::Ledger) and
//!    its `debit_up_to`.
//! 3. **[`agents`]** — adaptive agent populations seeded from the user
//!    study's behavioral profiles ([`market_population`],
//!    [`implied_elasticity`]), consumed by the simulator's `Adaptive`
//!    policy as `green_batchsim::MarketInputs`.
//! 4. **[`replay`]** — settlement of a finished simulation run at
//!    posted prices, with savings banked: [`settle_run`] replays the
//!    run through a `Ledger`, the way the platform settles live
//!    invocations, and [`SettleBook`] settles the same run to the same
//!    bits on a dense per-user book — the kernel `green-scenarios` runs
//!    per market cell when it sweeps the elasticity / price-schedule /
//!    banking axes.
//!
//! # Example
//!
//! Compile a carbon-indexed posted-price schedule, sample an elastic
//! agent population, and settle a job against the provider's ledger:
//!
//! ```
//! use green_accounting::Ledger;
//! use green_carbon::HourlyTrace;
//! use green_market::{market_population, price_table, settle, PriceSpec};
//! use green_units::{Credits, TimePoint};
//!
//! // A two-day intensity trace: clean half-days alternate with dirty.
//! let hours = (0..48).map(|h| if h % 24 < 12 { 150.0 } else { 400.0 });
//! let trace = HourlyTrace::new(hours.collect());
//! let prices = price_table(&[trace], PriceSpec::parse("carbon:0.5").unwrap());
//! // Carbon-indexed pricing posts cheaper multipliers in clean hours.
//! let clean = prices.multiplier_at(0, TimePoint::from_hours(3.0));
//! let dirty = prices.multiplier_at(0, TimePoint::from_hours(15.0));
//! assert!(clean < dirty);
//!
//! // Agents seeded from the user study's behavioral profiles.
//! let agents = market_population(16, 7, 1.0);
//! assert_eq!(agents.len(), 16);
//! assert!(agents.iter().any(|a| a.elasticity > 0.0));
//!
//! // Admission holds 30 credits; the job's posted price comes to 120,
//! // so settlement releases the hold and collects the 100 granted.
//! let (hold, price, at) = (Credits::new(30.0), Credits::new(120.0), TimePoint::EPOCH);
//! let mut ledger = Ledger::new();
//! ledger.grant("alice", Credits::new(100.0));
//! ledger.debit("alice", hold, at, "hold job-1").unwrap();
//! let (charged, shortfall) = settle(&mut ledger, "alice", hold, price, at, "job-1");
//! assert_eq!((charged.value(), shortfall.value()), (100.0, 20.0));
//! assert!(!ledger.can_afford("alice", Credits::new(0.1)));
//! ```

pub mod agents;
pub mod desk;
pub mod pricing;
pub mod replay;

pub use agents::{implied_elasticity, market_population};
pub use desk::{settle, CreditBank, ExchangeDesk};
pub use pricing::{price_table, PriceSpec};
pub use replay::{settle_run, MarketRun, SettleBook};
