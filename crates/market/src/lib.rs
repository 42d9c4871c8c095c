//! green-market: a sharded carbon-credit market with dynamic pricing and
//! an adaptive-user incentive loop.
//!
//! The paper's core claim is that carbon-aware accounting *changes user
//! behavior* (Sections 3.1 and 5.3, and the Figure 6 exchange-rate
//! mechanism). This crate closes that incentive loop around the batch
//! simulator, in four layers:
//!
//! 1. **[`store`]** — a sharded, concurrent credit ledger
//!    ([`ShardedLedger`]) behind the
//!    [`CreditStore`](green_accounting::CreditStore) trait, so it is a
//!    drop-in replacement for the single-lock
//!    [`Ledger`](green_accounting::Ledger) wherever credits are held
//!    and settled.
//! 2. **[`pricing`]** — a dynamic pricing engine compiling
//!    carbon-intensity traces into posted hourly price schedules
//!    ([`PriceSpec`], [`price_table`]): carbon-indexed multipliers and
//!    time-of-use discounts, precomputed for the whole simulated year.
//! 3. **[`desk`]** — the exchange desk ([`ExchangeDesk`], empirical
//!    cross-method rates) and per-period credit banking with a cap and
//!    decay ([`CreditBank`]), plus hold/settle plumbing built on
//!    `debit_up_to`.
//! 4. **[`agents`]** — adaptive agent populations seeded from the user
//!    study's behavioral profiles ([`market_population`],
//!    [`implied_elasticity`]), consumed by the simulator's `Adaptive`
//!    policy as `green_batchsim::MarketInputs`.
//!
//! [`replay::settle_run`] ties the layers together: a finished
//! simulation run is settled through any `CreditStore` at posted prices,
//! with savings banked. [`SettleBook`] settles the same run to the same
//! bits on a dense per-user book, without a ledger — the kernel
//! `green-scenarios` runs per market cell when it sweeps the
//! elasticity / price-schedule / banking axes.
//!
//! # Example
//!
//! Compile a carbon-indexed posted-price schedule, sample an elastic
//! agent population, and hold credits in the sharded concurrent ledger:
//!
//! ```
//! use green_accounting::CreditStore;
//! use green_carbon::HourlyTrace;
//! use green_market::{market_population, price_table, PriceSpec, ShardedLedger};
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
//! // The sharded ledger behind the same trait as the single-lock one.
//! let ledger = ShardedLedger::new(4);
//! ledger.grant("alice", Credits::new(100.0));
//! ledger
//!     .debit("alice", Credits::new(30.0), TimePoint::from_hours(1.0), "job-1")
//!     .unwrap();
//! assert!(ledger.can_afford("alice", Credits::new(70.0)));
//! assert!(!ledger.can_afford("alice", Credits::new(70.1)));
//! ```

pub mod agents;
pub mod desk;
pub mod pricing;
pub mod replay;
pub mod store;

pub use agents::{implied_elasticity, market_population};
pub use desk::{settle, CreditBank, ExchangeDesk};
pub use pricing::{price_table, PriceSpec};
pub use replay::{settle_run, MarketRun, SettleBook};
pub use store::ShardedLedger;
