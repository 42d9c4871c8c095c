//! The generated inputs are a pure function of the seed.

use green_perfbench::inputs::{analyst_session, market_toml, survey_toml};
use green_scenarios::Sweep;

#[test]
fn the_same_seed_always_generates_the_same_sweep() {
    for generate in [market_toml, survey_toml] {
        for seed in [0, 1, 42, u64::MAX] {
            let (a, b) = (generate(seed), generate(seed));
            assert_eq!(a, b);
            let (a, b) = (
                Sweep::from_toml_str(&a).expect("generated sweep parses"),
                Sweep::from_toml_str(&b).expect("generated sweep parses"),
            );
            assert_eq!(a, b);
            assert_eq!(
                a.expand_range(0..a.seeds.len()),
                b.expand_range(0..b.seeds.len())
            );
        }
        assert_ne!(generate(1), generate(2), "another seed, another sweep");
    }
}

#[test]
fn sweeps_have_the_documented_shape() {
    let market = Sweep::from_toml_str(&market_toml(5)).unwrap();
    assert_eq!(market.cell_count(), 64);
    assert_eq!(market.config_count(), 8);

    let survey = Sweep::from_toml_str(&survey_toml(5)).unwrap();
    assert_eq!(survey.cell_count(), 160_000);
    assert_eq!(survey.config_count(), 40_000);
}

#[test]
fn the_analyst_session_is_fixed() {
    let session = analyst_session();
    assert_eq!(session, analyst_session());
    assert_eq!(session.len(), 16);
    assert_eq!(session.iter().filter(|q| q.filter.is_some()).count(), 1);
}
