//! Analysis of the study: Figures 9a–9c and 10.

use green_perfmodel::stats::{mean, pearson, welch_t_test};

use crate::game::{Game, Version};
use crate::study::Study;

/// Aggregates for one treatment arm (one bar of Figure 9a/9b).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionSummary {
    /// The arm.
    pub version: Version,
    /// Retained instances.
    pub instances: usize,
    /// Mean total energy per play (kWh).
    pub mean_energy_kwh: f64,
    /// Mean jobs completed per play.
    pub mean_jobs: f64,
}

/// The full analysis bundle.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::type_complexity)]
pub struct StudyAnalysis {
    /// Per-arm aggregates (Figures 9a and 9b).
    pub summaries: Vec<VersionSummary>,
    /// Welch test p-value, V3 vs V1 energy (the paper: p ≈ 0.00).
    pub p_v3_vs_v1: f64,
    /// Welch test p-value, V2 vs V1 energy (the paper: not significant).
    pub p_v2_vs_v1: f64,
    /// Figure 9c: (jobs completed, mean energy) points per arm.
    pub energy_by_jobs: Vec<(Version, Vec<(usize, f64)>)>,
    /// Figure 10: per arm, (mean job energy, run probability) points and
    /// the correlation between them.
    pub run_probability: Vec<(Version, Vec<(f64, f64)>, f64)>,
}

impl StudyAnalysis {
    /// Analyzes a study.
    pub fn of(study: &Study) -> StudyAnalysis {
        let energies =
            |v: Version| -> Vec<f64> { study.arm(v).iter().map(|r| r.energy_kwh).collect() };

        let summaries = Version::ALL
            .iter()
            .map(|&version| {
                let records = study.arm(version);
                VersionSummary {
                    version,
                    instances: records.len(),
                    mean_energy_kwh: mean(
                        &records.iter().map(|r| r.energy_kwh).collect::<Vec<_>>(),
                    ),
                    mean_jobs: mean(
                        &records
                            .iter()
                            .map(|r| r.jobs_completed as f64)
                            .collect::<Vec<_>>(),
                    ),
                }
            })
            .collect();

        let (_, p_v3_vs_v1) = welch_t_test(&energies(Version::V3), &energies(Version::V1));
        let (_, p_v2_vs_v1) = welch_t_test(&energies(Version::V2), &energies(Version::V1));

        // Figure 9c: stratify energy by jobs completed.
        let energy_by_jobs = Version::ALL
            .iter()
            .map(|&version| {
                let records = study.arm(version);
                let max_jobs = records.iter().map(|r| r.jobs_completed).max().unwrap_or(0);
                let mut points = Vec::new();
                for j in 1..=max_jobs {
                    let bucket: Vec<f64> = records
                        .iter()
                        .filter(|r| r.jobs_completed == j)
                        .map(|r| r.energy_kwh)
                        .collect();
                    if !bucket.is_empty() {
                        points.push((j, mean(&bucket)));
                    }
                }
                (version, points)
            })
            .collect();

        // Figure 10: P(run job i) vs mean energy of job i, per arm.
        let run_probability = Version::ALL
            .iter()
            .map(|&version| {
                let records = study.arm(version);
                let mut points = Vec::new();
                for job in 0..20 {
                    let saw = records.iter().filter(|r| r.saw[job]).count();
                    if saw == 0 {
                        continue;
                    }
                    let ran = records.iter().filter(|r| r.ran[job]).count();
                    let prob = ran as f64 / saw as f64;
                    points.push((job_mean_energy(job), prob));
                }
                let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
                let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
                (version, points, pearson(&xs, &ys))
            })
            .collect();

        StudyAnalysis {
            summaries,
            p_v3_vs_v1,
            p_v2_vs_v1,
            energy_by_jobs,
            run_probability,
        }
    }

    /// The arm summary.
    pub fn summary(&self, version: Version) -> &VersionSummary {
        self.summaries
            .iter()
            .find(|s| s.version == version)
            .expect("all arms summarized")
    }
}

/// Mean energy of one script job across eligible machines (the x-axis of
/// Figure 10). Computed from the script's ground truth via a probe game.
fn job_mean_energy(job: usize) -> f64 {
    let energies: Vec<f64> = probe_views(job).into_iter().flatten().collect();
    mean(&energies)
}

/// Extracts per-machine energies for any script job by replaying a probe
/// game (scheduling visible jobs round-robin) until the job is revealed.
fn probe_views(job: usize) -> Vec<Option<f64>> {
    let mut game = Game::new(Version::V2);
    let mut machine = 0;
    while !game.visible_jobs().iter().any(|j| j.id == job) {
        let visible = game.visible_jobs();
        let Some(candidate) = visible.first().map(|j| j.id) else {
            break;
        };
        let mut placed = false;
        for offset in 0..4 {
            let m = (machine + offset) % 4;
            if game.schedule(candidate, m).is_ok() {
                machine = (m + 1) % 4;
                placed = true;
                break;
            }
        }
        if !placed {
            game.advance();
        }
        if game.is_over() {
            break;
        }
    }
    match game.views(job) {
        Ok(views) => views
            .into_iter()
            .map(|v| v.eligible.then_some(v.energy_kwh.unwrap_or(0.0)))
            .collect(),
        Err(_) => vec![None; 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn study() -> Study {
        Study::run(StudyConfig {
            participants: 60,
            seed: 7,
            min_plays: 1,
            max_plays: 3,
        })
    }

    /// The paper's headline: V3 uses significantly less energy; V2 is
    /// indistinguishable from V1.
    #[test]
    fn v3_cuts_energy_v2_does_not() {
        let analysis = StudyAnalysis::of(&study());
        let v1 = analysis.summary(Version::V1).mean_energy_kwh;
        let v2 = analysis.summary(Version::V2).mean_energy_kwh;
        let v3 = analysis.summary(Version::V3).mean_energy_kwh;
        assert!(
            v3 < v1 * 0.85,
            "V3 should use ≥15% less energy: V1 {v1:.1} vs V3 {v3:.1}"
        );
        assert!((v2 - v1).abs() / v1 < 0.15, "V2 ≈ V1: {v1:.1} vs {v2:.1}");
        assert!(analysis.p_v3_vs_v1 < 0.01, "p = {}", analysis.p_v3_vs_v1);
        assert!(analysis.p_v2_vs_v1 > 0.05, "p = {}", analysis.p_v2_vs_v1);
    }

    /// Figure 9b: V3 completes fewer jobs.
    #[test]
    fn v3_completes_fewer_jobs() {
        let analysis = StudyAnalysis::of(&study());
        let v1 = analysis.summary(Version::V1).mean_jobs;
        let v3 = analysis.summary(Version::V3).mean_jobs;
        assert!(v3 < v1, "V1 {v1:.1} vs V3 {v3:.1}");
    }

    /// Figure 9c: conditioning on jobs completed, V3 still uses less.
    #[test]
    fn v3_less_energy_at_same_job_count() {
        let analysis = StudyAnalysis::of(&study());
        let find = |v: Version| {
            analysis
                .energy_by_jobs
                .iter()
                .find(|(ver, _)| *ver == v)
                .map(|(_, pts)| pts.clone())
                .unwrap()
        };
        let v1 = find(Version::V1);
        let v3 = find(Version::V3);
        // Compare buckets present in both arms with enough support.
        let mut compared = 0;
        let mut v3_lower = 0;
        for (jobs, e1) in &v1 {
            if let Some((_, e3)) = v3.iter().find(|(j, _)| j == jobs) {
                compared += 1;
                if e3 < e1 {
                    v3_lower += 1;
                }
            }
        }
        assert!(compared >= 3, "need overlapping buckets");
        assert!(
            v3_lower * 3 >= compared * 2,
            "V3 should be lower in ≥2/3 of buckets: {v3_lower}/{compared}"
        );
    }

    /// Figure 10: job energy does not predict whether a job is run.
    #[test]
    fn energy_uncorrelated_with_run_probability() {
        let analysis = StudyAnalysis::of(&study());
        for (version, points, r) in &analysis.run_probability {
            assert!(points.len() >= 10, "{version}: {} points", points.len());
            assert!(
                r.abs() < 0.45,
                "{version}: |r| = {:.2} should be weak",
                r.abs()
            );
        }
    }
}
