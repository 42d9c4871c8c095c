//! Figures 9 and 10: the user-study analysis.

use green_userstudy::{Study, StudyAnalysis, StudyConfig};

/// Runs the study at the paper's population size and analyzes it.
pub fn run_full() -> (Study, StudyAnalysis) {
    let study = Study::run(StudyConfig::default());
    let analysis = StudyAnalysis::of(&study);
    (study, analysis)
}

/// Runs a reduced study (for smoke tests).
pub fn run_small(participants: usize, seed: u64) -> (Study, StudyAnalysis) {
    let study = Study::run(StudyConfig {
        participants,
        seed,
        min_plays: 1,
        max_plays: 3,
    });
    let analysis = StudyAnalysis::of(&study);
    (study, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The effects are claims rows (`claims::figure9`).
    #[test]
    fn full_study_shows_paper_effects() {
        let (study, _) = run_full();
        assert!(study.records.len() > 100);
    }
}
