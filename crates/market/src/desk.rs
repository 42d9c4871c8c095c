//! The exchange desk and credit banking.
//!
//! The desk generalizes the paper's Figure 6 mechanism: rates between
//! every pair of accounting methods are estimated empirically from a
//! reference workload sample ([`ExchangeRate::estimate`]), and balances
//! convert through them. [`CreditBank`] adds per-period banking: savings
//! earned by running in cheap hours carry over — up to a cap, decaying
//! each period — so an incentive today is worth something tomorrow but
//! not forever (the cap and decay stop hoarding from neutralizing the
//! price signal).

use std::collections::BTreeMap;

use green_accounting::{ChargeContext, CreditStore, ExchangeRate, MethodKind};
use green_units::{Credits, TimePoint};

/// A table of empirical exchange rates between accounting methods.
#[derive(Debug, Clone)]
pub struct ExchangeDesk {
    rates: Vec<ExchangeRate>,
}

impl ExchangeDesk {
    /// Estimates rates for every ordered pair of `methods` over a
    /// reference sample. Pairs the sample cannot price (zero totals)
    /// are omitted and convert to `None`.
    pub fn from_sample(sample: &[ChargeContext], methods: &[MethodKind]) -> ExchangeDesk {
        let mut rates = Vec::new();
        for &from in methods {
            for &to in methods {
                if from == to {
                    continue;
                }
                if let Some(rate) = ExchangeRate::estimate(from, to, sample) {
                    rates.push(rate);
                }
            }
        }
        ExchangeDesk { rates }
    }

    /// The rate from one method to another (1.0 for identity).
    pub fn rate(&self, from: MethodKind, to: MethodKind) -> Option<f64> {
        if from == to {
            return Some(1.0);
        }
        self.rates
            .iter()
            .find(|r| r.from == from && r.to == to)
            .map(|r| r.rate)
    }

    /// Converts an amount of `from`-credits into `to`-credits.
    pub fn convert(&self, from: MethodKind, to: MethodKind, amount: Credits) -> Option<Credits> {
        self.rate(from, to).map(|rate| amount * rate)
    }

    /// Number of method pairs the desk can convert between.
    pub fn pair_count(&self) -> usize {
        self.rates.len()
    }
}

/// Per-account banked credits with a cap and per-period decay.
///
/// Deterministic by construction: balances live in a `BTreeMap`, so
/// iteration (decay, totals) is ordered by owner.
#[derive(Debug, Clone)]
pub struct CreditBank {
    cap: f64,
    decay: f64,
    balances: BTreeMap<String, f64>,
}

impl CreditBank {
    /// A bank where each account holds at most `cap` credits and unspent
    /// balances shrink by `decay` (a fraction in `[0, 1]`) at every
    /// [`end_period`](CreditBank::end_period).
    pub fn new(cap: f64, decay: f64) -> CreditBank {
        assert!(cap >= 0.0, "banking cap must be non-negative");
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0, 1]");
        CreditBank {
            cap,
            decay,
            balances: BTreeMap::new(),
        }
    }

    /// Deposits savings; returns the amount actually banked after the
    /// cap clamp (zero once the account is full).
    pub fn deposit(&mut self, owner: &str, amount: f64) -> f64 {
        if amount <= 0.0 || self.cap <= 0.0 {
            return 0.0;
        }
        let balance = self.balances.entry(owner.to_string()).or_insert(0.0);
        let banked = amount.min(self.cap - *balance).max(0.0);
        *balance += banked;
        banked
    }

    /// Withdraws up to `amount`; returns the amount actually withdrawn.
    pub fn withdraw(&mut self, owner: &str, amount: f64) -> f64 {
        let Some(balance) = self.balances.get_mut(owner) else {
            return 0.0;
        };
        let taken = amount.max(0.0).min(*balance);
        *balance -= taken;
        taken
    }

    /// Closes a banking period: every balance decays.
    pub fn end_period(&mut self) {
        for balance in self.balances.values_mut() {
            *balance *= 1.0 - self.decay;
        }
    }

    /// One account's banked balance.
    pub fn balance(&self, owner: &str) -> f64 {
        self.balances.get(owner).copied().unwrap_or(0.0)
    }

    /// Total banked across all accounts; +0.0 for an empty bank.
    pub fn total(&self) -> f64 {
        // Folded from +0.0: `f64`'s `Sum` starts at −0.0, which an empty
        // bank would report (and a CSV print as `-0.000000`). Balances
        // are never −0.0, so a non-empty total keeps its bits.
        self.balances.values().fold(0.0, |total, b| total + b)
    }
}

/// Settles a completed job against a store: the admission `hold` is
/// released in full and the measured `actual` collected with
/// [`CreditStore::debit_up_to`] — the provider takes what is left rather
/// than un-running the job. Returns `(charged, shortfall)`.
pub fn settle(
    store: &dyn CreditStore,
    owner: &str,
    hold: Credits,
    actual: Credits,
    at: TimePoint,
    label: &str,
) -> (Credits, Credits) {
    let _ = store.refund(owner, hold, at, &format!("release {label}"));
    let charged = store
        .debit_up_to(owner, actual, at, &format!("settle {label}"))
        .unwrap_or(Credits::ZERO);
    (charged, (actual - charged).max(Credits::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_units::{Energy, Power, TimeSpan};

    fn sample() -> Vec<ChargeContext> {
        (1..=8)
            .map(|i| {
                ChargeContext::new(
                    Energy::from_joules(250.0 * i as f64),
                    TimeSpan::from_secs(60.0 * i as f64),
                )
                .with_cores(4)
                .with_provisioned(Power::from_watts(80.0), 0.4)
            })
            .collect()
    }

    #[test]
    fn desk_round_trips_and_identity() {
        let desk = ExchangeDesk::from_sample(
            &sample(),
            &[MethodKind::Runtime, MethodKind::Energy, MethodKind::eba()],
        );
        assert_eq!(desk.pair_count(), 6);
        assert_eq!(
            desk.rate(MethodKind::Runtime, MethodKind::Runtime),
            Some(1.0)
        );
        let ab = desk.rate(MethodKind::Runtime, MethodKind::Energy).unwrap();
        let ba = desk.rate(MethodKind::Energy, MethodKind::Runtime).unwrap();
        assert!((ab * ba - 1.0).abs() < 1e-9);
        let converted = desk
            .convert(MethodKind::Runtime, MethodKind::Energy, Credits::new(10.0))
            .unwrap();
        assert!((converted.value() - 10.0 * ab).abs() < 1e-12);
    }

    #[test]
    fn unpriceable_pairs_convert_to_none() {
        // Zero-energy sample: Energy cannot be priced as a target or
        // source, so no pair involving it survives.
        let sample: Vec<ChargeContext> = (1..=4)
            .map(|i| {
                ChargeContext::new(
                    Energy::from_joules(0.0),
                    TimeSpan::from_secs(10.0 * i as f64),
                )
                .with_cores(2)
            })
            .collect();
        let desk = ExchangeDesk::from_sample(&sample, &[MethodKind::Runtime, MethodKind::Energy]);
        assert_eq!(desk.rate(MethodKind::Runtime, MethodKind::Energy), None);
        assert_eq!(
            desk.convert(MethodKind::Energy, MethodKind::Runtime, Credits::new(5.0)),
            None
        );
    }

    #[test]
    fn bank_caps_and_decays() {
        let mut bank = CreditBank::new(100.0, 0.5);
        assert_eq!(bank.deposit("u", 80.0), 80.0);
        assert_eq!(bank.deposit("u", 80.0), 20.0, "cap clamps the deposit");
        assert_eq!(bank.deposit("u", 1.0), 0.0);
        bank.end_period();
        assert!((bank.balance("u") - 50.0).abs() < 1e-12);
        assert!((bank.withdraw("u", 70.0) - 50.0).abs() < 1e-12);
        assert_eq!(bank.withdraw("stranger", 1.0), 0.0);
        assert_eq!(CreditBank::new(0.0, 0.0).deposit("u", 5.0), 0.0);
        assert_eq!(
            CreditBank::new(0.0, 0.0).total().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn settle_refunds_hold_and_collects_what_is_left() {
        let store = green_accounting::LockedLedger::new();
        store.grant("u", Credits::new(100.0));
        store
            .debit("u", Credits::new(40.0), TimePoint::EPOCH, "hold j")
            .unwrap();
        // Actual cost exceeds the whole grant: collect the 100 available.
        let (charged, shortfall) = settle(
            &store,
            "u",
            Credits::new(40.0),
            Credits::new(130.0),
            TimePoint::EPOCH,
            "j",
        );
        assert!((charged.value() - 100.0).abs() < 1e-9);
        assert!((shortfall.value() - 30.0).abs() < 1e-9);
        assert!((store.balance("u").unwrap().value()).abs() < 1e-9);
    }
}
