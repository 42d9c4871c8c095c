//! Market settlement of a simulated run: the ledger on the hot path.
//!
//! [`settle_run`] replays a run's [`JobOutcome`]s through a
//! [`CreditStore`] at posted prices, the way the platform settles live
//! invocations: an admission hold at the arrival-hour price, a release +
//! `debit_up_to` settlement at the start-hour price, and banking of any
//! off-peak savings (with the bank's cap and daily decay). The function
//! is backend-agnostic — feeding the same run through the single-lock
//! and sharded stores must produce identical snapshots, which the
//! determinism suite asserts.
//!
//! [`SettleBook`] is the settlement kernel sweeps run per market cell:
//! the same operation stream on a dense per-user book, with no owner
//! names, labels or transaction log. It returns exactly the bits
//! [`settle_run`] returns, which `tests/settle_book.rs` checks against
//! both store backends.

use std::io::Write as _;

use green_accounting::CreditStore;
use green_batchsim::{JobOutcome, PriceTable};
use green_units::{Credits, TimePoint};

use crate::desk::{settle, CreditBank};

/// Aggregate result of settling one run through the market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketRun {
    /// Credits collected at posted prices.
    pub posted_spent: f64,
    /// What the same jobs would have cost without the market (base
    /// method charges).
    pub raw_spent: f64,
    /// Credits left banked after the final period's decay.
    pub banked: f64,
    /// Posted charges the users' balances could not cover.
    pub shortfall: f64,
}

impl MarketRun {
    /// The result of settling a run with no outcomes.
    const EMPTY: MarketRun = MarketRun {
        posted_spent: 0.0,
        raw_spent: 0.0,
        banked: 0.0,
        shortfall: 0.0,
    };
}

/// Settles every outcome of a run through `store` at posted prices.
///
/// Users are granted equal budgets sized `budget_factor` × the mean
/// posted demand, so heavy users genuinely exhaust their allocation and
/// exercise the `debit_up_to` clamp. Savings relative to the base charge
/// are banked per user; the bank closes a period at every simulated-day
/// boundary. Outcomes are processed in completion order (ties broken by
/// job id), so the operation stream — and therefore the final store
/// snapshot — is a pure function of the run.
pub fn settle_run(
    outcomes: &[JobOutcome],
    method_index: usize,
    prices: &PriceTable,
    store: &dyn CreditStore,
    bank: &mut CreditBank,
    budget_factor: f64,
) -> MarketRun {
    let mut order: Vec<&JobOutcome> = outcomes.iter().collect();
    order.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.job.cmp(&b.job)));

    let posted = |o: &JobOutcome, at_s: f64| -> f64 {
        o.charges[method_index]
            * prices.multiplier_at(o.machine as usize, TimePoint::from_secs(at_s))
    };

    // Equal per-user budgets from total posted demand at start prices.
    let mut users: Vec<u32> = order.iter().map(|o| o.user).collect();
    users.sort_unstable();
    users.dedup();
    if users.is_empty() {
        return MarketRun::EMPTY;
    }
    // Summed in completion order: the fold order (and therefore the
    // rounding) must match the settlement loop's view of the run.
    let total_posted: f64 = order.iter().map(|o| posted(o, o.start_s)).sum();
    let budget = Credits::new(budget_factor * total_posted / users.len() as f64);
    for user in &users {
        store.grant(&format!("u{user}"), budget);
    }

    let mut raw_spent = 0.0;
    let mut shortfall = 0.0;
    let mut day = 0u64;
    for o in order {
        // Close banking periods up to this completion's day.
        let completed_day = (o.end_s / 86_400.0).floor().max(0.0) as u64;
        while day < completed_day {
            bank.end_period();
            day += 1;
        }

        let owner = format!("u{}", o.user);
        let label = format!("job-{}", o.job);
        let raw = o.charges[method_index];
        let hold = Credits::new(posted(o, o.arrival_s));
        let actual = Credits::new(posted(o, o.start_s));
        let at = TimePoint::from_secs(o.end_s);

        // Admission: hold what the arrival-hour quote says, capped by the
        // balance (the simulator already admitted the job; the market
        // collects, it does not un-run work).
        let held = store
            .debit_up_to(&owner, hold, at, &format!("hold {label}"))
            .unwrap_or(Credits::ZERO);
        let (_, short) = settle(store, &owner, held, actual, at, &label);
        raw_spent += raw;
        shortfall += short.value();

        // Off-peak savings are banked, up to the cap — priced as the gap
        // between the base charge and the *posted* price, and only for
        // users who actually paid in full. An exhausted balance is
        // insolvency, not savings.
        let saving = raw - actual.value();
        if saving > 0.0 && short.value() <= 0.0 {
            bank.deposit(&owner, saving);
        }
    }
    bank.end_period();

    MarketRun {
        posted_spent: store.total_spent().value(),
        raw_spent,
        banked: bank.total(),
        shortfall,
    }
}

/// A dense settlement book: [`settle_run`] through a fresh store and a
/// fresh [`CreditBank`], on plain columns indexed by user slot.
///
/// A user's slot is its position among the run's sorted distinct user
/// ids. Each slot has the store account's `spent` and the bank's
/// balance; every account is granted the same budget once. Every
/// operation repeats the store's clamps, operand order and float
/// operations, so [`settle`](SettleBook::settle) returns the same
/// [`MarketRun`] bits:
///
/// - each job runs `debit_up_to(hold)`, `refund(held)` and
///   `debit_up_to(actual)`; the hold is taken and released even though
///   they cancel, because `spent + h − h` need not equal `spent`;
/// - a negative amount is rejected and changes nothing, as the stores
///   reject it;
/// - the stores sum accounts in owner-name order (`"u10"` before
///   `"u2"`), and so does the book;
/// - the bank total is folded from +0.0, as `CreditBank::total` is, so
///   a slot the bank would hold no entry for, whose balance stays
///   +0.0, adds nothing.
///
/// A sweep worker keeps one book for its lifetime; after the first cell
/// a settlement allocates nothing.
#[derive(Debug, Default)]
pub struct SettleBook {
    /// Outcome indices in completion order.
    order: Vec<u32>,
    /// Distinct user ids, sorted: user `users[s]` owns slot `s`.
    users: Vec<u32>,
    /// Slots in owner-name order, the order the stores sum in.
    by_owner: Vec<u32>,
    /// The per-slot columns.
    slots: Slots,
}

/// The store's accounts and the bank's balances, one entry per slot.
#[derive(Debug, Default)]
struct Slots {
    /// Credits granted to every account.
    granted: f64,
    /// Credits spent.
    spent: Vec<f64>,
    /// Banked savings.
    banked: Vec<f64>,
    /// Ledger operations applied.
    txns: usize,
}

impl Slots {
    /// Opens `slots` accounts, each granted `budget`, with empty bank
    /// balances.
    fn open(&mut self, slots: usize, budget: f64) {
        // A grant adds to an account that opens at zero.
        self.granted = 0.0 + budget;
        self.spent.clear();
        self.banked.clear();
        self.spent.resize(slots, 0.0);
        self.banked.resize(slots, 0.0);
        self.txns = 0;
    }

    /// `CreditStore::debit_up_to`: charges as much of `amount` as the
    /// balance allows and returns the charge.
    fn debit_up_to(&mut self, slot: usize, amount: f64) -> Option<f64> {
        if amount < 0.0 {
            return None;
        }
        let spent = self.spent[slot];
        let charge = amount.min((self.granted - spent).max(0.0));
        self.spent[slot] = spent + charge;
        self.txns += 1;
        Some(charge)
    }

    /// `CreditStore::refund`: returns up to the outstanding spend.
    fn refund(&mut self, slot: usize, amount: f64) {
        if amount < 0.0 {
            return;
        }
        let spent = self.spent[slot];
        self.spent[slot] = spent - amount.min(spent.max(0.0));
        self.txns += 1;
    }

    /// `CreditBank::deposit` of a positive saving under a positive cap.
    fn deposit(&mut self, slot: usize, saving: f64, cap: f64) {
        let balance = &mut self.banked[slot];
        *balance += saving.min(cap - *balance).max(0.0);
    }

    /// `CreditBank::end_period`: every balance decays. A slot nothing
    /// was deposited to stays at +0.0.
    fn end_period(&mut self, keep: f64) {
        self.banked.iter_mut().for_each(|b| *b *= keep);
    }
}

/// Orders user ids the way their `u{user}` owner names compare as
/// strings: the decimal digits left-aligned in a big-endian integer and
/// zero-padded, so a name that is a prefix of another sorts first.
fn owner_key(user: u32) -> u128 {
    let mut name = [0u8; 16];
    // A u32 has at most ten digits, so the write always fits.
    let _ = write!(&mut name[..], "{user}");
    u128::from_be_bytes(name)
}

impl SettleBook {
    /// An empty book; its columns grow to the first run's sizes and stay.
    pub fn new() -> SettleBook {
        SettleBook::default()
    }

    /// Settles every outcome of a run at posted prices — the result
    /// [`settle_run`] returns through an empty store and a
    /// `CreditBank::new(banking_cap, bank_decay)`, bit for bit.
    ///
    /// Panics, as `CreditBank::new` does, when the cap is negative or
    /// the decay lies outside `[0, 1]`.
    pub fn settle(
        &mut self,
        outcomes: &[JobOutcome],
        method_index: usize,
        prices: &PriceTable,
        budget_factor: f64,
        banking_cap: f64,
        bank_decay: f64,
    ) -> MarketRun {
        assert!(banking_cap >= 0.0, "banking cap must be non-negative");
        assert!((0.0..=1.0).contains(&bank_decay), "decay must be in [0, 1]");
        debug_assert!(outcomes.len() < u32::MAX as usize);
        self.order.clear();
        self.order.extend(0..outcomes.len() as u32);
        self.order.sort_by(|&a, &b| {
            let (a, b) = (&outcomes[a as usize], &outcomes[b as usize]);
            a.end_s.total_cmp(&b.end_s).then(a.job.cmp(&b.job))
        });
        let posted = |o: &JobOutcome, at_s: f64| -> f64 {
            o.charges[method_index]
                * prices.multiplier_at(o.machine as usize, TimePoint::from_secs(at_s))
        };
        self.users.clear();
        self.users.extend(outcomes.iter().map(|o| o.user));
        self.users.sort_unstable();
        self.users.dedup();
        let total_posted: f64 = self
            .order
            .iter()
            .map(|&i| {
                let o = &outcomes[i as usize];
                posted(o, o.start_s)
            })
            .sum();
        let users = &self.users;
        self.slots.open(
            users.len(),
            budget_factor * total_posted / users.len() as f64,
        );
        self.by_owner.clear();
        if users.is_empty() {
            return MarketRun::EMPTY;
        }
        self.by_owner.extend(0..users.len() as u32);
        self.by_owner
            .sort_unstable_by_key(|&s| owner_key(users[s as usize]));

        let keep = 1.0 - bank_decay;
        let slots = &mut self.slots;
        let mut raw_spent = 0.0;
        let mut shortfall = 0.0;
        let mut day = 0u64;
        for &i in &self.order {
            let o = &outcomes[i as usize];
            let completed_day = (o.end_s / 86_400.0).floor().max(0.0) as u64;
            while day < completed_day {
                slots.end_period(keep);
                day += 1;
            }

            let slot = users
                .binary_search(&o.user)
                .expect("every outcome's user has a slot");
            let raw = o.charges[method_index];
            let hold = posted(o, o.arrival_s);
            let actual = posted(o, o.start_s);
            let held = slots.debit_up_to(slot, hold).unwrap_or(0.0);
            slots.refund(slot, held);
            let charged = slots.debit_up_to(slot, actual).unwrap_or(0.0);
            let short = (actual - charged).max(0.0);
            raw_spent += raw;
            shortfall += short;

            let saving = raw - actual;
            if saving > 0.0 && short <= 0.0 && banking_cap > 0.0 {
                slots.deposit(slot, saving, banking_cap);
            }
        }
        slots.end_period(keep);

        MarketRun {
            posted_spent: self.by_owner.iter().map(|&s| slots.spent[s as usize]).sum(),
            raw_spent,
            banked: self
                .by_owner
                .iter()
                .fold(0.0, |total, &s| total + slots.banked[s as usize]),
            shortfall,
        }
    }

    /// Ledger operations the last settlement applied, counted as a
    /// [`CreditStore`] records them: three per job, less any rejected
    /// negative amount.
    pub fn transaction_count(&self) -> usize {
        self.slots.txns
    }

    /// A user's spent credits after the last settlement, or `None` when
    /// the run had no outcome of theirs.
    pub fn spent(&self, user: u32) -> Option<f64> {
        let slot = self.users.binary_search(&user).ok()?;
        Some(self.slots.spent[slot])
    }

    /// A user's banked balance after the last settlement (0 when nothing
    /// was banked).
    pub fn banked(&self, user: u32) -> f64 {
        self.users
            .binary_search(&user)
            .map_or(0.0, |slot| self.slots.banked[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardedLedger;
    use green_accounting::LockedLedger;

    fn outcome(
        job: u32,
        user: u32,
        machine: u32,
        arrival_h: f64,
        start_h: f64,
        cost: f64,
    ) -> JobOutcome {
        JobOutcome {
            job,
            user,
            machine,
            cores: 4,
            arrival_s: arrival_h * 3600.0,
            start_s: start_h * 3600.0,
            end_s: start_h * 3600.0 + 1800.0,
            energy_kwh: 1.0,
            charges: [cost; 5],
            op_carbon_g: 10.0,
            attributed_g: 12.0,
            work_core_hours: 2.0,
        }
    }

    fn run() -> Vec<JobOutcome> {
        // Hour 0 is expensive (×2), hour 1 cheap (×0.5).
        vec![
            outcome(0, 0, 0, 0.0, 0.0, 100.0), // pays 200 posted
            outcome(1, 1, 0, 0.0, 1.0, 100.0), // shifted: pays 50, saves 50
            outcome(2, 0, 0, 1.0, 1.0, 60.0),  // cheap hour: pays 30, saves 30
        ]
    }

    fn prices() -> PriceTable {
        PriceTable::new(vec![vec![2.0, 0.5]])
    }

    #[test]
    fn settles_at_posted_prices_and_banks_savings() {
        let store = LockedLedger::new();
        let mut bank = CreditBank::new(1_000.0, 0.0);
        let result = settle_run(&run(), 0, &prices(), &store, &mut bank, 2.0);
        assert!((result.raw_spent - 260.0).abs() < 1e-9);
        assert!((result.posted_spent - 280.0).abs() < 1e-9);
        assert!(
            (result.shortfall).abs() < 1e-9,
            "generous budgets: no shortfall"
        );
        // u1 banks 50, u0 banks 30 (job 2) and nothing on job 0.
        assert!((result.banked - 80.0).abs() < 1e-9);
        assert!((bank.balance("u1") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budgets_clamp_via_debit_up_to() {
        let store = LockedLedger::new();
        let mut bank = CreditBank::new(0.0, 0.0);
        // budget_factor 0.5: per-user budget 70, total 140 < 280 posted.
        let result = settle_run(&run(), 0, &prices(), &store, &mut bank, 0.5);
        assert!(result.shortfall > 0.0);
        assert!((result.posted_spent + result.shortfall - 280.0).abs() < 1e-9);
    }

    #[test]
    fn backends_settle_identically() {
        let locked = LockedLedger::new();
        let sharded = ShardedLedger::new(8);
        let mut bank_a = CreditBank::new(100.0, 0.1);
        let mut bank_b = CreditBank::new(100.0, 0.1);
        let a = settle_run(&run(), 0, &prices(), &locked, &mut bank_a, 1.2);
        let b = settle_run(&run(), 0, &prices(), &sharded, &mut bank_b, 1.2);
        assert_eq!(a, b);
        assert_eq!(locked.snapshot(), sharded.snapshot());
        assert_eq!(locked.transactions(), sharded.transactions());
    }
}
