//! Pins the exact bits of every market cell's settlement.
//!
//! The CSV rounds `posted_credits_mean` and `banked_credits_mean` to six
//! decimals, so a change to the settlement arithmetic — a different
//! summation order, a dropped hold/release pair, a bank total over the
//! wrong accounts — can leave every CSV golden intact. This battery
//! records `SweepWorld::run_cell_in`'s `posted_credits` and
//! `banked_credits` as raw `f64` bits for every cell of an
//! `incentives.toml`-shaped grid (Adaptive × CBA at 0.25 volume,
//! elasticities {0, 2}, carbon-indexed and time-of-use schedules,
//! banking caps {0, 100}, four replicate seeds) at the `tiny` and
//! `quick` presets.
//!
//! Regenerate (only when an *intentional* settlement change is being
//! made) with:
//!
//! ```text
//! SETTLEMENT_GOLDEN_REGEN=1 cargo test -p green-scenarios --test settlement_golden -- --test-threads=1
//! ```

use green_market::PriceSpec;
use green_scenarios::{
    cell_label, CellScratch, MethodSpec, PolicySpec, Sweep, SweepCaches, SweepWorld, WorkloadPreset,
};

const FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/settlement_golden.txt"
);

fn incentives_grid(preset: WorkloadPreset) -> Sweep {
    let mut sweep = Sweep::new("settlement-golden");
    sweep.override_preset(preset);
    sweep.policies = vec![PolicySpec::Adaptive];
    sweep.methods = vec![MethodSpec::Cba];
    sweep.workload_scales = vec![0.25];
    sweep.elasticities = vec![0.0, 2.0];
    sweep.price_schedules = vec![
        PriceSpec::parse("carbon:1.5").unwrap(),
        PriceSpec::parse("tou:0.25").unwrap(),
    ];
    sweep.banking_caps = vec![0.0, 100.0];
    sweep.seeds = vec![1, 2, 3, 4];
    sweep
}

/// One fixture line per market cell:
/// `<block> <label> seed=<n> posted=<bits> banked=<bits>`.
fn settle_bits(block: &str, preset: WorkloadPreset) -> String {
    let sweep = incentives_grid(preset);
    let cells = sweep.expand();
    let world = SweepWorld::build(&sweep);
    let caches = SweepCaches::build(&world, &cells, 2);
    let mut lines = String::new();
    for cell in &cells {
        assert!(cell.spec.market_active());
        let metrics = world.run_cell_in(&cell.spec, &caches, &mut CellScratch::new());
        lines.push_str(&format!(
            "{block} {} seed={} posted={:016x} banked={:016x}\n",
            cell_label(&cell.spec),
            cell.spec.seed,
            metrics.posted_credits.to_bits(),
            metrics.banked_credits.to_bits(),
        ));
    }
    lines
}

/// Compares one block of the fixture (the lines starting `<block> `)
/// with the current bits, or rewrites that block under
/// `SETTLEMENT_GOLDEN_REGEN`.
fn check_block(block: &str, preset: WorkloadPreset) {
    let current = settle_bits(block, preset);
    let prefix = format!("{block} ");
    let existing = std::fs::read_to_string(FIXTURES).unwrap_or_default();
    if std::env::var_os("SETTLEMENT_GOLDEN_REGEN").is_some() {
        let mut text: String = existing
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .map(|l| format!("{l}\n"))
            .collect();
        text.push_str(&current);
        std::fs::create_dir_all(std::path::Path::new(FIXTURES).parent().unwrap()).unwrap();
        std::fs::write(FIXTURES, text).unwrap();
        eprintln!("settlement_golden: regenerated `{block}`");
        return;
    }
    let expected: String = existing
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        !expected.is_empty(),
        "no golden rows for `{block}` in {FIXTURES} — run with SETTLEMENT_GOLDEN_REGEN=1"
    );
    assert_eq!(
        current, expected,
        "`{block}` settlement bits diverged from the golden fixture"
    );
}

#[test]
fn tiny_market_cells_settle_to_golden_bits() {
    check_block("tiny", WorkloadPreset::Tiny);
}

#[test]
fn quick_market_cells_settle_to_golden_bits() {
    check_block("quick", WorkloadPreset::Quick);
}
