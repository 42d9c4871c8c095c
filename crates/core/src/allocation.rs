//! Fungible allocation accounts and the provider-side transaction ledger.
//!
//! An allocation is a grant of credits redeemable on any machine the user
//! can access (Section 3.1); the accounting method defines the credit
//! unit. The ledger enforces non-negative balances (admission control) and
//! keeps an auditable transaction history.

use green_units::{Credits, TimePoint};
use std::collections::HashMap;

/// Errors surfaced by allocation operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationError {
    /// The account does not exist.
    UnknownAccount(String),
    /// The debit would overdraw the account.
    InsufficientCredits {
        /// Account that was charged.
        account: String,
        /// Credits requested.
        requested: Credits,
        /// Credits available.
        available: Credits,
    },
    /// Negative amounts are rejected outright.
    NegativeAmount(f64),
}

impl core::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocationError::UnknownAccount(a) => write!(f, "unknown account `{a}`"),
            AllocationError::InsufficientCredits {
                account,
                requested,
                available,
            } => write!(
                f,
                "account `{account}` has {available} but {requested} were requested"
            ),
            AllocationError::NegativeAmount(v) => write!(f, "negative amount {v}"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// One account's allocation state.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Account owner.
    pub owner: String,
    /// Credits granted in total.
    pub granted: Credits,
    /// Credits spent so far.
    pub spent: Credits,
}

impl Allocation {
    /// Remaining balance.
    pub fn remaining(&self) -> Credits {
        self.granted - self.spent
    }

    /// True when `amount` fits in the remaining balance.
    pub fn can_afford(&self, amount: Credits) -> bool {
        amount.value() <= self.remaining().value() + 1e-9
    }

    /// Fraction of the grant already consumed, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.granted.value() <= 0.0 {
            1.0
        } else {
            (self.spent / self.granted).clamp(0.0, 1.0)
        }
    }
}

/// A ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Charged account.
    pub account: String,
    /// Amount (positive = debit, negative = refund).
    pub amount: Credits,
    /// Virtual time of the charge.
    pub at: TimePoint,
    /// Free-form label (job id, machine…).
    pub label: String,
}

/// The provider's book of accounts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    accounts: HashMap<String, Allocation>,
    transactions: Vec<Transaction>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Opens (or tops up) an account.
    ///
    /// Granting to an existing owner **accumulates**: the amount is added
    /// to the prior `granted` total and the spend history is untouched. A
    /// grant never replaces or resets an account — renewals stack on top
    /// of whatever the user already holds, exactly like an allocation
    /// extension at a real center.
    pub fn grant(&mut self, owner: &str, amount: Credits) {
        let acct = self
            .accounts
            .entry(owner.to_string())
            .or_insert_with(|| Allocation {
                owner: owner.to_string(),
                granted: Credits::ZERO,
                spent: Credits::ZERO,
            });
        acct.granted += amount;
    }

    /// Looks up an account.
    pub fn account(&self, owner: &str) -> Option<&Allocation> {
        self.accounts.get(owner)
    }

    /// Iterates over every account (arbitrary order).
    pub fn accounts(&self) -> impl Iterator<Item = &Allocation> {
        self.accounts.values()
    }

    /// True when the account can afford `amount` (admission control).
    pub fn can_afford(&self, owner: &str, amount: Credits) -> bool {
        self.accounts
            .get(owner)
            .map(|a| a.can_afford(amount))
            .unwrap_or(false)
    }

    /// Debits an account; rejects overdrafts and negative amounts.
    pub fn debit(
        &mut self,
        owner: &str,
        amount: Credits,
        at: TimePoint,
        label: impl Into<String>,
    ) -> Result<(), AllocationError> {
        if amount.value() < 0.0 {
            return Err(AllocationError::NegativeAmount(amount.value()));
        }
        let acct = self
            .accounts
            .get_mut(owner)
            .ok_or_else(|| AllocationError::UnknownAccount(owner.to_string()))?;
        if !acct.can_afford(amount) {
            return Err(AllocationError::InsufficientCredits {
                account: owner.to_string(),
                requested: amount,
                available: acct.remaining(),
            });
        }
        acct.spent += amount;
        self.transactions.push(Transaction {
            account: owner.to_string(),
            amount,
            at,
            label: label.into(),
        });
        Ok(())
    }

    /// Refunds a previous charge (e.g. an over-estimated admission hold)
    /// and returns the amount actually refunded.
    ///
    /// A refund can never push `spent` below zero; when `amount` exceeds
    /// the outstanding spend, only the outstanding part is refunded and
    /// recorded. Recording the clamped amount (not the requested one)
    /// keeps the ledger conservative: for every account, `spent` equals
    /// the net sum of its transaction amounts.
    pub fn refund(
        &mut self,
        owner: &str,
        amount: Credits,
        at: TimePoint,
        label: impl Into<String>,
    ) -> Result<Credits, AllocationError> {
        if amount.value() < 0.0 {
            return Err(AllocationError::NegativeAmount(amount.value()));
        }
        let acct = self
            .accounts
            .get_mut(owner)
            .ok_or_else(|| AllocationError::UnknownAccount(owner.to_string()))?;
        let refunded = amount.min(acct.spent.max(Credits::ZERO));
        acct.spent -= refunded;
        self.transactions.push(Transaction {
            account: owner.to_string(),
            amount: -refunded,
            at,
            label: label.into(),
        });
        Ok(refunded)
    }

    /// Debits as much of `amount` as the balance allows and returns the
    /// amount actually charged. Used to settle a completed job whose
    /// measured cost exceeded the admission hold: the provider collects
    /// what is left rather than un-running the job.
    ///
    /// It never fails for lack of credits: an account with nothing left
    /// (a negative grant, or one overdrawn within `can_afford`'s
    /// tolerance) is charged zero, and the zero charge is recorded.
    pub fn debit_up_to(
        &mut self,
        owner: &str,
        amount: Credits,
        at: TimePoint,
        label: impl Into<String>,
    ) -> Result<Credits, AllocationError> {
        if amount.value() < 0.0 {
            return Err(AllocationError::NegativeAmount(amount.value()));
        }
        let acct = self
            .accounts
            .get_mut(owner)
            .ok_or_else(|| AllocationError::UnknownAccount(owner.to_string()))?;
        let charge = amount.min(acct.remaining().max(Credits::ZERO));
        acct.spent += charge;
        self.transactions.push(Transaction {
            account: owner.to_string(),
            amount: charge,
            at,
            label: label.into(),
        });
        Ok(charge)
    }

    /// Full transaction history, in order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Total credits spent across all accounts.
    ///
    /// Summed in owner order, not map order: float addition is not
    /// associative, and `HashMap` iteration order changes per process —
    /// a fixed order makes the total a pure function of the operations
    /// applied, so replaying a stream gives the same bits in any process.
    pub fn total_spent(&self) -> Credits {
        let mut accounts: Vec<&Allocation> = self.accounts.values().collect();
        accounts.sort_by(|a, b| a.owner.cmp(&b.owner));
        accounts.iter().map(|a| a.spent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_debit_refund_cycle() {
        let mut ledger = Ledger::new();
        ledger.grant("alice", Credits::new(100.0));
        assert!(ledger.can_afford("alice", Credits::new(60.0)));
        ledger
            .debit("alice", Credits::new(60.0), TimePoint::EPOCH, "job-1")
            .unwrap();
        assert!((ledger.account("alice").unwrap().remaining().value() - 40.0).abs() < 1e-9);
        ledger
            .refund(
                "alice",
                Credits::new(10.0),
                TimePoint::EPOCH,
                "job-1 refund",
            )
            .unwrap();
        assert!((ledger.account("alice").unwrap().remaining().value() - 50.0).abs() < 1e-9);
        assert_eq!(ledger.transactions().len(), 2);
    }

    #[test]
    fn overdraft_rejected() {
        let mut ledger = Ledger::new();
        ledger.grant("bob", Credits::new(10.0));
        let err = ledger
            .debit("bob", Credits::new(11.0), TimePoint::EPOCH, "big job")
            .unwrap_err();
        assert!(matches!(err, AllocationError::InsufficientCredits { .. }));
        // Balance untouched after the failed debit.
        assert!((ledger.account("bob").unwrap().remaining().value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_account_and_negative_amounts() {
        let mut ledger = Ledger::new();
        assert!(matches!(
            ledger.debit("ghost", Credits::new(1.0), TimePoint::EPOCH, "x"),
            Err(AllocationError::UnknownAccount(_))
        ));
        ledger.grant("carol", Credits::new(5.0));
        assert!(matches!(
            ledger.debit("carol", Credits::new(-1.0), TimePoint::EPOCH, "x"),
            Err(AllocationError::NegativeAmount(_))
        ));
        assert!(!ledger.can_afford("ghost", Credits::new(0.1)));
    }

    #[test]
    fn utilization_tracks_spending() {
        let mut ledger = Ledger::new();
        ledger.grant("dave", Credits::new(200.0));
        ledger
            .debit("dave", Credits::new(50.0), TimePoint::EPOCH, "j")
            .unwrap();
        let acct = ledger.account("dave").unwrap();
        assert!((acct.utilization() - 0.25).abs() < 1e-12);
        assert!((ledger.total_spent().value() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn refund_never_goes_negative() {
        let mut ledger = Ledger::new();
        ledger.grant("erin", Credits::new(10.0));
        let refunded = ledger
            .refund("erin", Credits::new(5.0), TimePoint::EPOCH, "oops")
            .unwrap();
        assert!((ledger.account("erin").unwrap().spent.value()).abs() < 1e-12);
        // Nothing was outstanding, so nothing was refunded — and the
        // recorded transaction says so.
        assert!(refunded.value().abs() < 1e-12);
        assert!(ledger.transactions()[0].amount.value().abs() < 1e-12);
    }

    #[test]
    fn grant_on_existing_owner_accumulates() {
        let mut ledger = Ledger::new();
        ledger.grant("frank", Credits::new(100.0));
        ledger
            .debit("frank", Credits::new(30.0), TimePoint::EPOCH, "j1")
            .unwrap();
        // A renewal tops up the same account: granted stacks, spent stays.
        ledger.grant("frank", Credits::new(50.0));
        let acct = ledger.account("frank").unwrap();
        assert!((acct.granted.value() - 150.0).abs() < 1e-12);
        assert!((acct.spent.value() - 30.0).abs() < 1e-12);
        assert!((acct.remaining().value() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn hold_release_settle_clamps_to_the_balance() {
        let mut ledger = Ledger::new();
        ledger.grant("alice", Credits::new(100.0));
        assert!(ledger.can_afford("alice", Credits::new(100.0)));
        ledger
            .debit("alice", Credits::new(60.0), TimePoint::EPOCH, "hold j1")
            .unwrap();
        let refunded = ledger
            .refund("alice", Credits::new(60.0), TimePoint::EPOCH, "release j1")
            .unwrap();
        assert!((refunded.value() - 60.0).abs() < 1e-12);
        // The settlement asks for more than the grant: it takes all 100.
        let charged = ledger
            .debit_up_to("alice", Credits::new(150.0), TimePoint::EPOCH, "settle j1")
            .unwrap();
        assert!((charged.value() - 100.0).abs() < 1e-12);
        assert!((ledger.total_spent().value() - 100.0).abs() < 1e-12);
        assert_eq!(ledger.transactions().len(), 3);
        assert!(ledger.account("alice").unwrap().remaining().value().abs() < 1e-12);
    }

    #[test]
    fn debit_up_to_charges_nothing_when_nothing_is_left() {
        let mut ledger = Ledger::new();
        ledger.grant("hana", Credits::new(-5.0));
        let charged = ledger
            .debit_up_to("hana", Credits::new(3.0), TimePoint::EPOCH, "settle")
            .unwrap();
        assert_eq!(charged.value().to_bits(), 0.0f64.to_bits());
        assert_eq!(ledger.account("hana").unwrap().spent.value(), 0.0);
        assert_eq!(
            ledger.transactions().len(),
            1,
            "the zero charge is recorded"
        );
    }

    #[test]
    fn refund_is_clamped_to_outstanding_spend() {
        let mut ledger = Ledger::new();
        ledger.grant("gail", Credits::new(100.0));
        ledger
            .debit("gail", Credits::new(20.0), TimePoint::EPOCH, "hold")
            .unwrap();
        let refunded = ledger
            .refund("gail", Credits::new(35.0), TimePoint::EPOCH, "release")
            .unwrap();
        assert!((refunded.value() - 20.0).abs() < 1e-12);
        // Conservation: spent equals the net sum of transaction amounts.
        let net: f64 = ledger.transactions().iter().map(|t| t.amount.value()).sum();
        assert!((ledger.account("gail").unwrap().spent.value() - net).abs() < 1e-12);
    }
}
