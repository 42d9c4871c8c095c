//! The paper's published aggregate results, encoded as data.
//!
//! Counts quoted directly in Section 2.2 are exact; per-bar counts the
//! paper only shows graphically (Figures 1 and 2) are read off the
//! figures and constrained by the quoted anchors (e.g. exactly 36
//! respondents know their machine's Green500 standing; 25 rate energy
//! efficiency very important; 83 rate performance very important).

use crate::questions::{DecisionFactor, SustainabilityMetric};

/// Everything Section 2.2 reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyMarginals {
    /// Total responses received.
    pub responses: usize,
    /// Respondents completing ≥90 % of the survey (the analysis set).
    pub completed: usize,
    /// Respondents answering the node-hour usage questions (the paper's
    /// quoted percentages imply ≈203 answered: 148 aware = 73 %).
    pub answered_node_questions: usize,
    /// Respondents answering the energy questions (51 aware = 27 %
    /// implies ≈189).
    pub answered_energy_questions: usize,
    /// Location counts: Europe, North America, Oceania, China,
    /// undisclosed.
    pub regions: [usize; 5],
    /// Career-stage counts: grad students, early career, senior
    /// (the remainder of `responses` is unreported).
    pub careers: [usize; 3],
    /// Aware of how many node-hours their jobs consume.
    pub aware_node_hours: usize,
    /// Took steps to reduce node-hours.
    pub reduce_node_hours: usize,
    /// Very or mildly concerned about finishing within their allocation.
    pub concerned_allocation: usize,
    /// Aware of their workloads' energy consumption.
    pub aware_energy: usize,
    /// Took steps to reduce energy use.
    pub reduce_energy: usize,
    /// Of those reducing energy, the share unaware of their consumption
    /// (the paper: 39 %).
    pub reduce_energy_unaware_pct: f64,
    /// Know the Green500 list exists.
    pub know_green500: usize,
    /// Know carbon intensity as a concept.
    pub know_carbon_intensity: usize,
    /// Figure 1 bars: per metric, `[yes, no, not-applicable]` counts.
    pub fig1: [(SustainabilityMetric, [usize; 3]); 4],
    /// Figure 2 bars: per factor, `[not important, somewhat, very]`.
    pub fig2: [(DecisionFactor, [usize; 3]); 8],
}

impl SurveyMarginals {
    /// The paper's numbers.
    pub fn paper() -> SurveyMarginals {
        use DecisionFactor as F;
        use SustainabilityMetric as M;
        SurveyMarginals {
            responses: 316,
            completed: 192,
            answered_node_questions: 203,
            answered_energy_questions: 189,
            regions: [166, 104, 4, 4, 38],
            careers: [73, 97, 99],
            aware_node_hours: 148,
            reduce_node_hours: 142,
            concerned_allocation: 166,
            aware_energy: 51,
            reduce_energy: 54,
            reduce_energy_unaware_pct: 0.39,
            know_green500: 94,
            know_carbon_intensity: 55,
            // [yes, no, n/a] per metric; the Green500 "yes" anchor (36) is
            // quoted in the text, the rest read off Figure 1.
            fig1: [
                (M::Green500, [36, 132, 24]),
                (M::SpecSert, [10, 136, 46]),
                (M::CarbonIntensity, [21, 139, 32]),
                (M::Pue, [18, 138, 36]),
            ],
            // [not, somewhat, very] per factor; anchors: performance very
            // = 83 (46 %), energy very = 25 (12 %).
            fig2: [
                (F::Hardware, [17, 62, 101]),
                (F::Queue, [24, 80, 76]),
                (F::Performance, [20, 77, 83]),
                (F::Funding, [45, 60, 75]),
                (F::Software, [35, 81, 64]),
                (F::EaseOfUse, [35, 89, 56]),
                (F::Experience, [36, 94, 50]),
                (F::Energy, [92, 63, 25]),
            ],
        }
    }

    /// Share of respondents aware of their energy use (the paper: 27 %).
    pub fn aware_energy_share(&self) -> f64 {
        self.aware_energy as f64 / self.answered_energy_questions as f64
    }

    /// Share aware of node-hour use (the paper: 73 %).
    pub fn aware_node_hours_share(&self) -> f64 {
        self.aware_node_hours as f64 / self.answered_node_questions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_percentages_hold() {
        let m = SurveyMarginals::paper();
        assert!((m.aware_node_hours_share() - 0.73).abs() < 0.015);
        assert!((m.aware_energy_share() - 0.27).abs() < 0.015);
        // 70% took steps to reduce node-hours; 30% energy.
        assert!(
            (m.reduce_node_hours as f64 / m.answered_node_questions as f64 - 0.70).abs() < 0.02
        );
        assert!((m.reduce_energy as f64 / m.answered_energy_questions as f64 - 0.30).abs() < 0.02);
        // >80% concerned about finishing within allocation.
        assert!(m.concerned_allocation as f64 / m.answered_node_questions as f64 > 0.80);
    }

    #[test]
    fn region_counts_sum_to_responses() {
        let m = SurveyMarginals::paper();
        assert_eq!(m.regions.iter().sum::<usize>(), m.responses);
    }

    #[test]
    fn figure_rows_sum_to_completed() {
        let m = SurveyMarginals::paper();
        for (metric, counts) in &m.fig1 {
            assert_eq!(
                counts.iter().sum::<usize>(),
                m.completed,
                "{}",
                metric.label()
            );
        }
        for (factor, counts) in &m.fig2 {
            assert_eq!(
                counts.iter().sum::<usize>(),
                180,
                "{} (Figure 2 answered by 180)",
                factor.label()
            );
        }
    }

    #[test]
    fn energy_least_important_factor() {
        let m = SurveyMarginals::paper();
        let energy_very = m
            .fig2
            .iter()
            .find(|(f, _)| *f == DecisionFactor::Energy)
            .unwrap()
            .1[2];
        for (factor, counts) in &m.fig2 {
            if *factor != DecisionFactor::Energy {
                assert!(
                    counts[2] > energy_very,
                    "{} should outrank energy",
                    factor.label()
                );
            }
        }
    }

    #[test]
    fn green500_awareness_anchor() {
        let m = SurveyMarginals::paper();
        let g = m
            .fig1
            .iter()
            .find(|(f, _)| *f == SustainabilityMetric::Green500)
            .unwrap()
            .1;
        // 36 of the 94 who know the list also know their machine's rank.
        assert_eq!(g[0], 36);
        assert!(g[0] < m.know_green500);
    }
}
