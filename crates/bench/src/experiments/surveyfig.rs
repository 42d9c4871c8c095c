//! Figures 1 and 2: the survey aggregates.

use green_survey::{figure1, figure2, synthesize, Figure1Row, Figure2Row, SurveyMarginals};

/// Regenerates both figures from a synthesized respondent set.
pub fn figures(seed: u64) -> (Vec<Figure1Row>, Vec<Figure2Row>) {
    let marginals = SurveyMarginals::paper();
    let respondents = synthesize(&marginals, seed);
    (figure1(&respondents), figure2(&respondents))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published counts are claims rows (`claims::figure2`).
    #[test]
    fn figures_regenerate_published_aggregates() {
        let (f1, f2) = figures(7);
        assert_eq!(f1.len(), 4);
        assert_eq!(f2.len(), 8);
    }
}
