//! The settlement kernel against its oracle: [`SettleBook::settle`] must
//! return exactly what [`settle_run`] returns through a [`Ledger`] —
//! every `MarketRun` field, every account's `spent` and every bank
//! balance compared by `to_bits()` — over random runs built to reach
//! each rule the kernel has to repeat:
//!
//! - sparse user ids whose owner names sort apart from their numbers
//!   (`"u10"` before `"u2"`), so a numeric-order sum rounds differently;
//! - ties on `end_s`, negative and hour-aligned times, runs spanning
//!   many days;
//! - zero and negative charges (a negative amount is rejected);
//! - budget factors down to 0, so balances run dry and `debit_up_to`
//!   clamps;
//! - caps of 0 (nothing is ever banked) and 1e9, decays of 0 and 1;
//! - one-entry price series and machines past the price table;
//! - empty runs.

use green_accounting::Ledger;
use green_batchsim::{JobOutcome, PriceTable};
use green_market::{settle_run, CreditBank, MarketRun, SettleBook};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// User-id pools: dense ids, and sparse ones whose owner names sort
/// apart from their numeric order.
const USER_POOLS: [&[u32]; 3] = [
    &[0, 1, 2, 3, 4, 5, 6, 7],
    &[2, 10, 100, 1000],
    &[1, 2, 9, 10, 11, 20, 100, 101, 999, 1000, 4_000_000_000],
];

const BUDGET_FACTORS: [f64; 4] = [0.0, 0.3, 1.25, 4.0];
const CAPS: [f64; 3] = [0.0, 40.0, 1e9];
const DECAYS: [f64; 3] = [0.0, 0.05, 1.0];

/// Machines the price table covers; outcomes also land on one past it.
const PRICED_MACHINES: u32 = 3;

/// A price table whose series lengths include a one-entry series.
fn prices(rng: &mut StdRng) -> PriceTable {
    PriceTable::new(
        (0..PRICED_MACHINES)
            .map(|_| {
                let hours = [1, 5, 24, 200][rng.gen_range(0..4usize)];
                (0..hours).map(|_| rng.gen_range(0.2..3.0)).collect()
            })
            .collect(),
    )
}

/// One charge: mostly positive, sometimes zero, now and then negative.
fn charge(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -rng.gen_range(0.5..50.0),
        2 => rng.gen_range(1e3..1e6),
        _ => rng.gen_range(0.0..200.0),
    }
}

/// A random run of `jobs` outcomes over `days` simulated days.
fn run(rng: &mut StdRng, jobs: usize, users: &[u32], days: f64) -> Vec<JobOutcome> {
    let horizon_h = (days * 24.0) as i64;
    (0..jobs)
        .map(|_| {
            // Hour-aligned times (ties on end_s) or arbitrary ones, both
            // reaching back before the epoch.
            let aligned = rng.gen_bool(0.5);
            let arrival_s = if aligned {
                rng.gen_range(-48..horizon_h) as f64 * 3600.0
            } else {
                rng.gen_range(-2.0 * 86_400.0..days * 86_400.0)
            };
            let start_s = arrival_s
                + if aligned {
                    rng.gen_range(0..30) as f64 * 3600.0
                } else {
                    rng.gen_range(0.0..30.0 * 3600.0)
                };
            let end_s = if aligned {
                start_s + rng.gen_range(0..4) as f64 * 3600.0
            } else {
                start_s + rng.gen_range(0.0..20.0 * 3600.0)
            };
            JobOutcome {
                job: rng.gen_range(0..(2 * jobs as u32).max(1)),
                user: users[rng.gen_range(0..users.len())],
                machine: rng.gen_range(0..PRICED_MACHINES + 1),
                cores: 4,
                arrival_s,
                start_s,
                end_s,
                energy_kwh: 1.0,
                charges: [
                    charge(rng),
                    charge(rng),
                    charge(rng),
                    charge(rng),
                    charge(rng),
                ],
                op_carbon_g: 1.0,
                attributed_g: 1.0,
                work_core_hours: 1.0,
            }
        })
        .collect()
}

fn bits(run: &MarketRun) -> [u64; 4] {
    [
        run.posted_spent.to_bits(),
        run.raw_spent.to_bits(),
        run.banked.to_bits(),
        run.shortfall.to_bits(),
    ]
}

/// Settles `outcomes` through a ledger and on `book`, and checks the
/// book against the ledger replay bit for bit.
fn check(
    book: &mut SettleBook,
    outcomes: &[JobOutcome],
    method: usize,
    prices: &PriceTable,
    (factor, cap, decay): (f64, f64, f64),
) {
    let kernel = book.settle(outcomes, method, prices, factor, cap, decay);
    let mut ledger = Ledger::new();
    let mut bank = CreditBank::new(cap, decay);
    let oracle = settle_run(outcomes, method, prices, &mut ledger, &mut bank, factor);
    assert_eq!(
        bits(&kernel),
        bits(&oracle),
        "kernel {kernel:?} vs ledger replay {oracle:?}"
    );
    for account in ledger.accounts() {
        let user: u32 = account.owner[1..].parse().expect("u{user} owner name");
        let spent = book.spent(user).expect("every account has a slot");
        assert_eq!(
            spent.to_bits(),
            account.spent.value().to_bits(),
            "spent of {}",
            account.owner
        );
        assert_eq!(
            book.banked(user).to_bits(),
            bank.balance(&account.owner).to_bits(),
            "bank balance of {}",
            account.owner
        );
    }
    let mut users: Vec<u32> = outcomes.iter().map(|o| o.user).collect();
    users.sort_unstable();
    users.dedup();
    assert_eq!(ledger.accounts().count(), users.len());
    // The ledger records every accepted operation.
    assert_eq!(book.transaction_count(), ledger.transactions().len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Each case settles two runs on one book, so the second also checks
    /// that a reused book starts from nothing.
    #[test]
    fn settle_book_matches_the_ledger_replay(
        seed in 0u64..u64::MAX,
        jobs in 0usize..60,
        pool in 0usize..USER_POOLS.len(),
        days in prop_oneof![Just(1.0f64), Just(3.0f64), Just(45.0f64)],
        method in 0usize..5,
        factor in 0usize..BUDGET_FACTORS.len(),
        cap in 0usize..CAPS.len(),
        decay in 0usize..DECAYS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let prices = prices(&mut rng);
        let bank = (BUDGET_FACTORS[factor], CAPS[cap], DECAYS[decay]);
        let mut book = SettleBook::new();
        for jobs in [jobs, rng.gen_range(0..40)] {
            let outcomes = run(&mut rng, jobs, USER_POOLS[pool], days);
            check(&mut book, &outcomes, method, &prices, bank);
        }
    }
}
