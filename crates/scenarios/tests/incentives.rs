//! The paper's incentive claim, closed in simulation: under posted
//! carbon-indexed prices, a price-elastic population attributes less
//! carbon than an identical population that ignores prices — and pays
//! less, banks its savings, and waits longer (time traded for carbon).

use green_market::PriceSpec;
use green_scenarios::{MethodSpec, PolicySpec, Sweep, SweepRunner};

#[test]
fn elastic_populations_attribute_less_carbon() {
    let mut sweep = Sweep::new("incentive-assert");
    sweep.policies = vec![PolicySpec::Adaptive];
    sweep.methods = vec![MethodSpec::Cba];
    // Slack capacity on purpose: on a saturated fleet jobs run
    // back-to-back whatever their submission hour, and re-timing cannot
    // change aggregate carbon.
    sweep.workload_scales = vec![0.25];
    sweep.elasticities = vec![0.0, 2.0];
    sweep.price_schedules = vec![PriceSpec::parse("carbon:1.5").unwrap()];
    sweep.banking_caps = vec![100.0];
    sweep.seeds = vec![1, 2];

    let results = SweepRunner::new(0).run(&sweep).unwrap();
    assert_eq!(results.cells.len(), 2);
    let rigid = &results.cells[0];
    let elastic = &results.cells[1];
    assert_eq!(rigid.spec.elasticity, 0.0);
    assert_eq!(elastic.spec.elasticity, 2.0);

    assert!(
        elastic.attr_carbon_kg.mean < rigid.attr_carbon_kg.mean,
        "elastic population should attribute less carbon: {:.2} vs {:.2} kg",
        elastic.attr_carbon_kg.mean,
        rigid.attr_carbon_kg.mean
    );
    assert!(
        elastic.posted_credits.mean < rigid.posted_credits.mean,
        "chasing cheap hours should lower posted spend"
    );
    assert!(
        elastic.banked_credits.mean > 0.0,
        "off-peak savings should land in the bank"
    );
    assert!(
        elastic.mean_wait_h.mean > rigid.mean_wait_h.mean,
        "shifting trades queue time for carbon"
    );
    // The control cell pays posted prices too (same schedule), just
    // never reacts — so the posted column is populated for both.
    assert!(rigid.posted_credits.mean > 0.0);
}
