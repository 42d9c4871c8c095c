//! Market inputs to a simulation run: posted prices and agent elasticity.
//!
//! The market itself (pricing engine, ledger, banking) lives in
//! `green-market`; this module only defines the *simulator-facing* shapes
//! so the simulator can consume posted prices without depending on the
//! market crate. A [`PriceTable`] is a precomputed year of hourly price
//! multipliers per machine; [`MarketAgent`]s give each simulated user a
//! price elasticity and a deadline slack the temporal-shifting loop works
//! within.

use green_units::{wrap_hour, TimePoint};
use std::sync::Arc;

/// Hourly posted-price multipliers, one series per fleet machine
/// (index-aligned). A multiplier of 1.0 is the method's base charge;
/// lookups use the enclosing hour and wrap, exactly like
/// `green_carbon::HourlyTrace`.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTable {
    per_machine: Vec<Vec<f64>>,
}

impl PriceTable {
    /// Builds a table from per-machine hourly multiplier series. Panics
    /// on an empty series or non-positive multipliers — a schedule with
    /// holes is a configuration error.
    pub fn new(per_machine: Vec<Vec<f64>>) -> PriceTable {
        for series in &per_machine {
            assert!(!series.is_empty(), "price series must be non-empty");
            assert!(
                series.iter().all(|m| m.is_finite() && *m > 0.0),
                "price multipliers must be finite and positive"
            );
        }
        PriceTable { per_machine }
    }

    /// A flat table (every multiplier 1.0) for `machines` machines.
    pub fn flat(machines: usize) -> PriceTable {
        PriceTable {
            per_machine: vec![vec![1.0]; machines],
        }
    }

    /// Number of machines priced.
    pub fn machine_count(&self) -> usize {
        self.per_machine.len()
    }

    /// The posted multiplier for `machine` at time `at` (wrapping hourly
    /// step lookup; 1.0 for machines beyond the table).
    pub fn multiplier_at(&self, machine: usize, at: TimePoint) -> f64 {
        self.multiplier_at_hour(machine, at.hour_index())
    }

    /// The posted multiplier for `machine` in the hour with index `hour`
    /// (see [`TimePoint::hour_index`]) — the same hour key
    /// `HourlyTrace::intensity_at_hour` reads, so one index serves both.
    #[inline]
    pub fn multiplier_at_hour(&self, machine: usize, hour: usize) -> f64 {
        match self.per_machine.get(machine) {
            Some(series) => series[wrap_hour(hour, series.len())],
            None => 1.0,
        }
    }

    /// The raw multiplier series of one machine.
    pub fn series(&self, machine: usize) -> &[f64] {
        &self.per_machine[machine]
    }
}

/// One simulated user's market posture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketAgent {
    /// Price elasticity: how readily the user re-times or re-places work
    /// in response to posted prices. `0.0` ignores prices entirely; the
    /// required relative saving to shift scales as `1 / elasticity`.
    pub elasticity: f64,
    /// Deadline slack: the longest submission delay (whole hours) the
    /// user tolerates when chasing a cheaper posted price.
    pub slack_hours: u32,
}

impl MarketAgent {
    /// An agent that never shifts.
    pub const INELASTIC: MarketAgent = MarketAgent {
        elasticity: 0.0,
        slack_hours: 0,
    };
}

/// Everything the simulator needs to close the incentive loop for one
/// run: posted prices, the agent population, and global shifting bounds.
///
/// The heavy members are `Arc`-shared: a compiled year of prices and an
/// agent population are built once per distinct configuration and handed
/// to every simulation cell that uses them by reference count, never by
/// deep copy.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketInputs {
    /// Posted price multipliers per machine.
    pub prices: Arc<PriceTable>,
    /// Agent postures, indexed by user id (wrapping).
    pub agents: Arc<Vec<MarketAgent>>,
    /// Hard cap on any agent's submission delay, in whole hours.
    pub max_delay_hours: u32,
    /// Base relative saving required before an agent shifts; the
    /// effective threshold for an agent is `shift_threshold /
    /// elasticity`, capped at 0.5 (even the least elastic shifter moves
    /// for a halved posted price).
    pub shift_threshold: f64,
}

impl MarketInputs {
    /// Inputs with flat prices and an inelastic population — the
    /// identity market. Nobody shifts and every multiplier is 1.0;
    /// note that attaching *any* market re-anchors cost quotes at the
    /// expected start hour, so only time-invariant decision methods
    /// (runtime/energy/peak/EBA) are guaranteed bit-identical outcomes
    /// to a market-free run (asserted for EBA in the simulator tests).
    pub fn identity(machines: usize) -> MarketInputs {
        MarketInputs {
            prices: Arc::new(PriceTable::flat(machines)),
            agents: Arc::new(vec![MarketAgent::INELASTIC]),
            max_delay_hours: 0,
            shift_threshold: 0.02,
        }
    }

    /// The posture of `user` (wrapping over the population).
    pub fn agent(&self, user: u32) -> MarketAgent {
        if self.agents.is_empty() {
            return MarketAgent::INELASTIC;
        }
        self.agents[user as usize % self.agents.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_wraps_hourly() {
        let table = PriceTable::new(vec![vec![1.0, 2.0, 3.0]]);
        assert_eq!(table.multiplier_at(0, TimePoint::from_secs(0.0)), 1.0);
        assert_eq!(table.multiplier_at(0, TimePoint::from_secs(3_599.0)), 1.0);
        assert_eq!(table.multiplier_at(0, TimePoint::from_secs(3_600.0)), 2.0);
        assert_eq!(
            table.multiplier_at(0, TimePoint::from_secs(3.0 * 3_600.0)),
            1.0,
            "beyond the series the table wraps"
        );
        // Machines beyond the table price flat.
        assert_eq!(table.multiplier_at(9, TimePoint::EPOCH), 1.0);
    }

    #[test]
    fn agents_wrap_over_population() {
        let inputs = MarketInputs {
            prices: Arc::new(PriceTable::flat(1)),
            agents: Arc::new(vec![
                MarketAgent {
                    elasticity: 1.0,
                    slack_hours: 4,
                },
                MarketAgent {
                    elasticity: 2.0,
                    slack_hours: 8,
                },
            ]),
            max_delay_hours: 24,
            shift_threshold: 0.02,
        };
        assert_eq!(inputs.agent(0).slack_hours, 4);
        assert_eq!(inputs.agent(3).slack_hours, 8);
        assert_eq!(MarketInputs::identity(2).agent(7), MarketAgent::INELASTIC);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_multipliers_rejected() {
        PriceTable::new(vec![vec![1.0, 0.0]]);
    }
}
