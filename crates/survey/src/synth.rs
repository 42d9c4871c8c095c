//! Individual-level synthesis consistent with the published aggregates.
//!
//! The released data is aggregate-only; downstream code (and the figure
//! regeneration) wants respondent records. The synthesizer deals
//! attributes out of exact count pools — every marginal in
//! [`crate::marginals::SurveyMarginals`] is reproduced *exactly*, with a
//! seeded shuffle deciding only which anonymous respondent carries which
//! answer. Documented cross-question structure (the 39 % of energy
//! reducers unaware of their use) is honoured during dealing.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::marginals::SurveyMarginals;
use crate::questions::{
    CareerStage, DecisionFactor, Importance, MetricAwareness, Region, SustainabilityMetric,
};

/// One synthesized respondent.
#[derive(Debug, Clone, PartialEq)]
pub struct Respondent {
    /// Anonymous id.
    pub id: usize,
    /// Reported location.
    pub region: Region,
    /// Reported career stage.
    pub career: CareerStage,
    /// In the ≥90 %-completion analysis set.
    pub completed: bool,
    /// Aware of node-hour consumption.
    pub aware_node_hours: bool,
    /// Took steps to reduce node-hours.
    pub reduce_node_hours: bool,
    /// Concerned about finishing within the allocation.
    pub concerned_allocation: bool,
    /// Aware of energy consumption.
    pub aware_energy: bool,
    /// Took steps to reduce energy.
    pub reduce_energy: bool,
    /// Figure 1 answers, aligned with [`SustainabilityMetric::ALL`].
    pub metric_awareness: [MetricAwareness; 4],
    /// Figure 2 answers, aligned with [`DecisionFactor::ALL`]; `None`
    /// when the respondent skipped the question block.
    pub factor_importance: [Option<Importance>; 8],
}

/// Deals `count` `true`s into a boolean pool of size `n`, shuffled.
fn deal_bools(n: usize, count: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut pool = vec![false; n];
    for slot in pool.iter_mut().take(count.min(n)) {
        *slot = true;
    }
    pool.shuffle(rng);
    pool
}

/// Synthesizes the full respondent set from the aggregates.
pub fn synthesize(marginals: &SurveyMarginals, seed: u64) -> Vec<Respondent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = marginals.responses;
    let completed = marginals.completed;

    // Region pool over all responses.
    let mut regions = Vec::with_capacity(n);
    let region_kinds = [
        Region::Europe,
        Region::NorthAmerica,
        Region::Oceania,
        Region::China,
        Region::Undisclosed,
    ];
    for (kind, &count) in region_kinds.iter().zip(&marginals.regions) {
        regions.extend(std::iter::repeat_n(*kind, count));
    }
    regions.shuffle(&mut rng);

    // Career pool (remainder unreported).
    let mut careers = Vec::with_capacity(n);
    let career_kinds = [
        CareerStage::GradStudent,
        CareerStage::EarlyCareer,
        CareerStage::Senior,
    ];
    for (kind, &count) in career_kinds.iter().zip(&marginals.careers) {
        careers.extend(std::iter::repeat_n(*kind, count));
    }
    careers.resize(n, CareerStage::Unreported);
    careers.shuffle(&mut rng);

    // Per-question pools over the completion set.
    let aware_nh = deal_bools(completed, marginals.aware_node_hours, &mut rng);
    let reduce_nh = deal_bools(completed, marginals.reduce_node_hours, &mut rng);
    let concerned = deal_bools(completed, marginals.concerned_allocation, &mut rng);

    // Energy questions carry documented structure: 39 % of reducers are
    // NOT aware of their use. Deal reducers first, then awareness inside/
    // outside that group.
    let reduce_e = deal_bools(completed, marginals.reduce_energy, &mut rng);
    let unaware_reducers =
        (marginals.reduce_energy as f64 * marginals.reduce_energy_unaware_pct).round() as usize;
    let aware_reducers = marginals.reduce_energy - unaware_reducers;
    let aware_nonreducers = marginals.aware_energy.saturating_sub(aware_reducers);
    let mut aware_in_reducers = deal_bools(marginals.reduce_energy, aware_reducers, &mut rng);
    let mut aware_in_rest = deal_bools(
        completed - marginals.reduce_energy,
        aware_nonreducers,
        &mut rng,
    );

    // Figure 1 pools.
    let mut metric_pools: Vec<Vec<MetricAwareness>> = marginals
        .fig1
        .iter()
        .map(|(_, [yes, no, na])| {
            let mut pool = Vec::with_capacity(completed);
            pool.extend(std::iter::repeat_n(MetricAwareness::Yes, *yes));
            pool.extend(std::iter::repeat_n(MetricAwareness::No, *no));
            pool.extend(std::iter::repeat_n(MetricAwareness::NotApplicable, *na));
            pool.shuffle(&mut rng);
            pool
        })
        .collect();

    // Figure 2 pools (answered by a subset; pad with None).
    let mut factor_pools: Vec<Vec<Option<Importance>>> = marginals
        .fig2
        .iter()
        .map(|(_, [not, some, very])| {
            let mut pool = Vec::with_capacity(completed);
            pool.extend(std::iter::repeat_n(Some(Importance::NotImportant), *not));
            pool.extend(std::iter::repeat_n(Some(Importance::Somewhat), *some));
            pool.extend(std::iter::repeat_n(Some(Importance::VeryImportant), *very));
            pool.resize(completed, None);
            pool.shuffle(&mut rng);
            pool
        })
        .collect();

    let mut respondents = Vec::with_capacity(n);
    let mut reducer_idx = 0usize;
    let mut rest_idx = 0usize;
    for id in 0..n {
        let is_completed = id < completed;
        let (aware_energy, reduce_energy) = if is_completed {
            let reduces = reduce_e[id];
            let aware = if reduces {
                let a = aware_in_reducers[reducer_idx];
                reducer_idx += 1;
                a
            } else {
                let a = aware_in_rest[rest_idx];
                rest_idx += 1;
                a
            };
            (aware, reduces)
        } else {
            (false, false)
        };
        respondents.push(Respondent {
            id,
            region: regions[id],
            career: careers[id],
            completed: is_completed,
            aware_node_hours: is_completed && aware_nh[id],
            reduce_node_hours: is_completed && reduce_nh[id],
            concerned_allocation: is_completed && concerned[id],
            aware_energy,
            reduce_energy,
            metric_awareness: if is_completed {
                [
                    metric_pools[0][id],
                    metric_pools[1][id],
                    metric_pools[2][id],
                    metric_pools[3][id],
                ]
            } else {
                [MetricAwareness::NotApplicable; 4]
            },
            factor_importance: if is_completed {
                [
                    factor_pools[0][id],
                    factor_pools[1][id],
                    factor_pools[2][id],
                    factor_pools[3][id],
                    factor_pools[4][id],
                    factor_pools[5][id],
                    factor_pools[6][id],
                    factor_pools[7][id],
                ]
            } else {
                [None; 8]
            },
        });
    }
    // The "id < completed" convention would leak ordering; shuffle the
    // final set and re-number.
    respondents.shuffle(&mut rng);
    for (i, r) in respondents.iter_mut().enumerate() {
        r.id = i;
    }
    // Keep the borrow checker honest about the unused pool tails.
    debug_assert!(aware_in_reducers.len() >= reducer_idx);
    debug_assert!(aware_in_rest.len() >= rest_idx);
    aware_in_reducers.clear();
    aware_in_rest.clear();
    for pool in &mut metric_pools {
        pool.clear();
    }
    for pool in &mut factor_pools {
        pool.clear();
    }
    respondents
}

/// Convenience: counts of one factor's answers among completed
/// respondents, `[not, somewhat, very]`.
pub fn factor_counts(respondents: &[Respondent], factor: DecisionFactor) -> [usize; 3] {
    let idx = DecisionFactor::ALL
        .iter()
        .position(|f| *f == factor)
        .expect("factor known");
    let mut counts = [0usize; 3];
    for r in respondents.iter().filter(|r| r.completed) {
        if let Some(imp) = r.factor_importance[idx] {
            let i = Importance::ALL.iter().position(|x| *x == imp).unwrap();
            counts[i] += 1;
        }
    }
    counts
}

/// Convenience: counts of one metric's answers, `[yes, no, n/a]`.
pub fn metric_counts(respondents: &[Respondent], metric: SustainabilityMetric) -> [usize; 3] {
    let idx = SustainabilityMetric::ALL
        .iter()
        .position(|m| *m == metric)
        .expect("metric known");
    let mut counts = [0usize; 3];
    for r in respondents.iter().filter(|r| r.completed) {
        match r.metric_awareness[idx] {
            MetricAwareness::Yes => counts[0] += 1,
            MetricAwareness::No => counts[1] += 1,
            MetricAwareness::NotApplicable => counts[2] += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_reproduces_exact_marginals() {
        let m = SurveyMarginals::paper();
        let r = synthesize(&m, 11);
        assert_eq!(r.len(), 316);
        assert_eq!(r.iter().filter(|x| x.completed).count(), 192);
        assert_eq!(
            r.iter().filter(|x| x.aware_node_hours).count(),
            m.aware_node_hours
        );
        assert_eq!(r.iter().filter(|x| x.aware_energy).count(), m.aware_energy);
        assert_eq!(
            r.iter().filter(|x| x.reduce_energy).count(),
            m.reduce_energy
        );
        assert_eq!(r.iter().filter(|x| x.region == Region::Europe).count(), 166);
        for (metric, expect) in m.fig1 {
            assert_eq!(metric_counts(&r, metric), expect, "{}", metric.label());
        }
        for (factor, expect) in m.fig2 {
            assert_eq!(factor_counts(&r, factor), expect, "{}", factor.label());
        }
    }

    #[test]
    fn energy_reducer_awareness_structure() {
        let m = SurveyMarginals::paper();
        let r = synthesize(&m, 3);
        let reducers: Vec<_> = r.iter().filter(|x| x.reduce_energy).collect();
        let unaware = reducers.iter().filter(|x| !x.aware_energy).count();
        let share = unaware as f64 / reducers.len() as f64;
        assert!(
            (share - 0.39).abs() < 0.02,
            "39% of reducers unaware, got {share:.2}"
        );
    }

    #[test]
    fn different_seeds_shuffle_but_preserve_counts() {
        let m = SurveyMarginals::paper();
        let a = synthesize(&m, 1);
        let b = synthesize(&m, 2);
        assert_ne!(a, b);
        assert_eq!(
            a.iter().filter(|x| x.aware_energy).count(),
            b.iter().filter(|x| x.aware_energy).count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let m = SurveyMarginals::paper();
        assert_eq!(synthesize(&m, 42), synthesize(&m, 42));
    }
}
