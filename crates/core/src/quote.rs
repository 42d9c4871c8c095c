//! Per-machine price quotes.
//!
//! green-ACCESS's prediction endpoint answers "what would this function
//! cost on each machine I can reach?". A [`QuoteSet`] is that answer: one
//! priced context per machine, with comparison helpers matching how the
//! paper's tables are read.

use green_machines::MachineId;
use green_units::Credits;

use crate::context::ChargeContext;
use crate::methods::MethodKind;
use crate::normalize::normalize_min;

/// One machine's quoted price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineQuote {
    /// The quoted machine.
    pub machine: MachineId,
    /// The context the quote priced (predicted energy/duration there).
    pub context: ChargeContext,
    /// The quoted charge.
    pub price: Credits,
}

/// Quotes for one job across machines under one accounting method.
#[derive(Debug, Clone, PartialEq)]
pub struct QuoteSet {
    /// The pricing method.
    pub method: MethodKind,
    /// One quote per candidate machine.
    pub quotes: Vec<MachineQuote>,
}

impl QuoteSet {
    /// Prices `contexts` (machine, predicted context) under `method`.
    pub fn price(method: MethodKind, contexts: &[(MachineId, ChargeContext)]) -> QuoteSet {
        QuoteSet {
            method,
            quotes: contexts
                .iter()
                .map(|(machine, ctx)| MachineQuote {
                    machine: *machine,
                    context: *ctx,
                    price: method.charge(ctx),
                })
                .collect(),
        }
    }

    /// The cheapest quote, if any.
    pub fn cheapest(&self) -> Option<&MachineQuote> {
        self.quotes
            .iter()
            .min_by(|a, b| a.price.value().total_cmp(&b.price.value()))
    }

    /// Prices normalized so the cheapest machine reads 1.0 (table form).
    pub fn normalized(&self) -> Vec<(MachineId, f64)> {
        let costs: Vec<f64> = self.quotes.iter().map(|q| q.price.value()).collect();
        self.quotes
            .iter()
            .map(|q| q.machine)
            .zip(normalize_min(&costs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_units::{Energy, Power, TimeSpan};

    fn contexts() -> Vec<(MachineId, ChargeContext)> {
        vec![
            (
                MachineId(0),
                ChargeContext::new(Energy::from_joules(100.0), TimeSpan::from_secs(10.0))
                    .with_cores(4)
                    .with_provisioned(Power::from_watts(40.0), 1.0),
            ),
            (
                MachineId(1),
                ChargeContext::new(Energy::from_joules(50.0), TimeSpan::from_secs(20.0))
                    .with_cores(4)
                    .with_provisioned(Power::from_watts(40.0), 1.0),
            ),
        ]
    }

    #[test]
    fn cheapest_by_method() {
        let quotes = QuoteSet::price(MethodKind::Energy, &contexts());
        assert_eq!(quotes.cheapest().unwrap().machine, MachineId(1));
        let quotes = QuoteSet::price(MethodKind::Runtime, &contexts());
        assert_eq!(quotes.cheapest().unwrap().machine, MachineId(0));
    }

    #[test]
    fn normalized_minimum_is_one() {
        let quotes = QuoteSet::price(MethodKind::eba(), &contexts());
        let normalized = quotes.normalized();
        let min = normalized
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
    }
}
