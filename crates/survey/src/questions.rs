//! The survey's question vocabulary.

/// Respondent location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// Oceania.
    Oceania,
    /// China.
    China,
    /// Declined to share.
    Undisclosed,
}

/// Respondent career stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CareerStage {
    /// Graduate student.
    GradStudent,
    /// Early-career researcher/engineer.
    EarlyCareer,
    /// Senior researcher/engineer.
    Senior,
    /// Not reported.
    Unreported,
}

/// The sustainability metrics of Figure 1 ("are you aware of how the HPC
/// resources you use perform on the following metrics?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SustainabilityMetric {
    /// The Green500 ranking.
    Green500,
    /// SPEC Server Efficiency Rating Tool.
    SpecSert,
    /// Grid carbon intensity at the facility.
    CarbonIntensity,
    /// Power usage effectiveness of the facility.
    Pue,
}

impl SustainabilityMetric {
    /// Figure 1's metric order.
    pub const ALL: [SustainabilityMetric; 4] = [
        SustainabilityMetric::Green500,
        SustainabilityMetric::SpecSert,
        SustainabilityMetric::CarbonIntensity,
        SustainabilityMetric::Pue,
    ];

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            SustainabilityMetric::Green500 => "Green500",
            SustainabilityMetric::SpecSert => "SPEC SERT",
            SustainabilityMetric::CarbonIntensity => "Carbon Intensity",
            SustainabilityMetric::Pue => "PUE",
        }
    }
}

/// Answer to the Figure 1 question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricAwareness {
    /// Knows how their machines perform on the metric.
    Yes,
    /// Does not.
    No,
    /// Considers the metric inapplicable to them.
    NotApplicable,
}

/// The machine-choice factors of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionFactor {
    /// Hardware availability (accelerators, memory).
    Hardware,
    /// Queue waiting times.
    Queue,
    /// Machine performance.
    Performance,
    /// Funding / allocation availability.
    Funding,
    /// Software environment.
    Software,
    /// Ease of use.
    EaseOfUse,
    /// Prior experience with the machine.
    Experience,
    /// Energy efficiency.
    Energy,
}

impl DecisionFactor {
    /// Figure 2's factor order.
    pub const ALL: [DecisionFactor; 8] = [
        DecisionFactor::Hardware,
        DecisionFactor::Queue,
        DecisionFactor::Performance,
        DecisionFactor::Funding,
        DecisionFactor::Software,
        DecisionFactor::EaseOfUse,
        DecisionFactor::Experience,
        DecisionFactor::Energy,
    ];

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            DecisionFactor::Hardware => "Hardware",
            DecisionFactor::Queue => "Queue",
            DecisionFactor::Performance => "Performance",
            DecisionFactor::Funding => "Funding",
            DecisionFactor::Software => "Software",
            DecisionFactor::EaseOfUse => "Ease of Use",
            DecisionFactor::Experience => "Experience",
            DecisionFactor::Energy => "Energy",
        }
    }
}

/// Three-point importance scale of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Importance {
    /// "1 (Not Important)".
    NotImportant,
    /// "2".
    Somewhat,
    /// "3 (Very Important)".
    VeryImportant,
}

impl Importance {
    /// Scale order.
    pub const ALL: [Importance; 3] = [
        Importance::NotImportant,
        Importance::Somewhat,
        Importance::VeryImportant,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_sizes() {
        assert_eq!(SustainabilityMetric::ALL.len(), 4);
        assert_eq!(DecisionFactor::ALL.len(), 8);
        assert_eq!(Importance::ALL.len(), 3);
        assert_eq!(DecisionFactor::Energy.label(), "Energy");
    }
}
