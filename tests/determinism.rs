//! Seed determinism across every stochastic component: identical seeds
//! reproduce identical artifacts, different seeds differ.

use green_carbon::GridRegion;
use green_machines::simulation_fleet;
use green_perfmodel::{CrossMachinePredictor, GaussianMixture, JobCounters};
use green_survey::{synthesize, SurveyMarginals};
use green_userstudy::{Study, StudyConfig};
use green_workload::{Trace, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn grid_traces() {
    for region in GridRegion::ALL {
        assert_eq!(region.trace(9, 60), region.trace(9, 60));
        assert_ne!(region.trace(9, 60), region.trace(10, 60));
    }
}

#[test]
fn predictor_and_trace() {
    let p1 = CrossMachinePredictor::for_fleet(&simulation_fleet(), 77);
    let p2 = CrossMachinePredictor::for_fleet(&simulation_fleet(), 77);
    let probe = JobCounters::from_rates(2.0e9, 3.0e6);
    assert_eq!(p1.predict(&probe), p2.predict(&probe));

    let t1 = Trace::generate(&TraceConfig::small(5), &p1);
    let t2 = Trace::generate(&TraceConfig::small(5), &p2);
    assert_eq!(t1, t2);
}

#[test]
fn gmm_fit() {
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            vec![
                (i % 2) as f64 * 8.0 + rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ]
        })
        .collect();
    assert_eq!(
        GaussianMixture::fit(&data, 2, 33, 100),
        GaussianMixture::fit(&data, 2, 33, 100)
    );
}

#[test]
fn survey_synthesis() {
    let m = SurveyMarginals::paper();
    assert_eq!(synthesize(&m, 4), synthesize(&m, 4));
    assert_ne!(synthesize(&m, 4), synthesize(&m, 5));
}

#[test]
fn user_study() {
    let config = StudyConfig {
        participants: 12,
        seed: 6,
        min_plays: 1,
        max_plays: 2,
    };
    assert_eq!(Study::run(config), Study::run(config));
}
