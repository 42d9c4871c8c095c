//! Regeneration of Figures 1 and 2 from respondent-level data.

use crate::questions::{DecisionFactor, SustainabilityMetric};
use crate::synth::{factor_counts, metric_counts, Respondent};

/// One bar group of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Row {
    /// The metric.
    pub metric: SustainabilityMetric,
    /// "Yes" responses.
    pub yes: usize,
    /// "No" responses.
    pub no: usize,
    /// "Not applicable" responses.
    pub not_applicable: usize,
}

/// One bar group of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Row {
    /// The machine-choice factor.
    pub factor: DecisionFactor,
    /// "1 (Not important)".
    pub not_important: usize,
    /// "2".
    pub somewhat: usize,
    /// "3 (Very important)".
    pub very_important: usize,
}

/// Figure 1: awareness of sustainability metrics.
pub fn figure1(respondents: &[Respondent]) -> Vec<Figure1Row> {
    SustainabilityMetric::ALL
        .iter()
        .map(|&metric| {
            let [yes, no, not_applicable] = metric_counts(respondents, metric);
            Figure1Row {
                metric,
                yes,
                no,
                not_applicable,
            }
        })
        .collect()
}

/// Figure 2: importance of factors when choosing where to run.
pub fn figure2(respondents: &[Respondent]) -> Vec<Figure2Row> {
    DecisionFactor::ALL
        .iter()
        .map(|&factor| {
            let [not_important, somewhat, very_important] = factor_counts(respondents, factor);
            Figure2Row {
                factor,
                not_important,
                somewhat,
                very_important,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marginals::SurveyMarginals;
    use crate::synth::synthesize;

    #[test]
    fn figures_match_marginals() {
        let m = SurveyMarginals::paper();
        let r = synthesize(&m, 7);
        let f1 = figure1(&r);
        assert_eq!(f1.len(), 4);
        for (row, (metric, counts)) in f1.iter().zip(&m.fig1) {
            assert_eq!(row.metric, *metric);
            assert_eq!([row.yes, row.no, row.not_applicable], *counts);
        }
        let f2 = figure2(&r);
        assert_eq!(f2.len(), 8);
        for (row, (factor, counts)) in f2.iter().zip(&m.fig2) {
            assert_eq!(row.factor, *factor);
            assert_eq!(
                [row.not_important, row.somewhat, row.very_important],
                *counts
            );
        }
    }

    #[test]
    fn figure2_shows_energy_last() {
        let m = SurveyMarginals::paper();
        let r = synthesize(&m, 7);
        let f2 = figure2(&r);
        let energy = f2
            .iter()
            .find(|row| row.factor == DecisionFactor::Energy)
            .unwrap();
        for row in &f2 {
            if row.factor != DecisionFactor::Energy {
                assert!(row.very_important > energy.very_important);
            }
        }
    }
}
