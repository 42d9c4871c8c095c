//! Behavioral agents: the simulated participants.
//!
//! Each agent is a noisy cost/time/priority optimizer. None of them has
//! any intrinsic energy preference — the study's finding that displaying
//! energy (V2) changes nothing is a property of the *population*, and the
//! V3 effect emerges purely from the changed price signal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::game::{Game, GameError};

/// One participant's decision parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProfile {
    /// Weight on (normalized) cost in machine choice.
    pub cost_sensitivity: f64,
    /// Weight on (normalized) completion time in machine choice.
    pub time_sensitivity: f64,
    /// Weight on the placebo priority in job choice.
    pub priority_focus: f64,
    /// Scale of the Gumbel choice noise.
    pub noise: f64,
    /// Probability of hammering "Advance" instead of scheduling even when
    /// a machine is free (hesitation / exploration).
    pub hesitation: f64,
}

impl AgentProfile {
    /// Draws a heterogeneous population of `n` agents.
    ///
    /// Sensitivities follow the survey's findings: users care most about
    /// finishing within their allocation (cost) and performance (time),
    /// with broad individual spread.
    pub fn population(n: usize, seed: u64) -> Vec<AgentProfile> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| AgentProfile {
                // Cost dominates: the survey found finishing within the
                // allocation is users' top concern, well ahead of speed.
                cost_sensitivity: 1.4 + 1.6 * rng.gen_range(0.0..1.0f64),
                time_sensitivity: 0.25 + 0.7 * rng.gen_range(0.0..1.0f64),
                priority_focus: 0.3 + 1.2 * rng.gen_range(0.0..1.0f64),
                noise: 0.10 + 0.25 * rng.gen_range(0.0..1.0f64),
                hesitation: 0.05 + 0.15 * rng.gen_range(0.0..1.0f64),
            })
            .collect()
    }

    /// Plays one full game, mutating it to completion. Deterministic for
    /// a given `(profile, seed)` pair.
    pub fn play(&self, game: &mut Game, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Safety valve well above any legitimate game length.
        let mut steps = 0;
        while !game.is_over() && steps < 10_000 {
            steps += 1;
            if !game.any_machine_free() || rng.gen_range(0.0..1.0) < self.hesitation {
                game.advance();
                continue;
            }
            // Players drag several jobs between clicks of "Advance": try a
            // few placements before letting time pass.
            let mut placed_any = false;
            for _ in 0..3 {
                if !game.any_machine_free() || game.is_over() {
                    break;
                }
                if self.try_schedule(game, &mut rng).is_ok() {
                    placed_any = true;
                } else {
                    break;
                }
            }
            if !placed_any {
                game.advance();
            } else {
                // Let the scheduled work make progress.
                game.advance();
            }
        }
    }

    /// Picks a job (priority-weighted) and a machine (cost/time logit)
    /// and schedules it.
    fn try_schedule(&self, game: &mut Game, rng: &mut StdRng) -> Result<(), GameError> {
        let visible = game.visible_jobs();
        if visible.is_empty() {
            return Err(GameError::UnknownJob);
        }
        // Job choice: softmax over priority rank.
        let weights: Vec<f64> = visible
            .iter()
            .map(|j| (self.priority_focus * j.priority.rank()).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        let mut job = visible[visible.len() - 1].id;
        for (j, w) in visible.iter().zip(&weights) {
            if draw < *w {
                job = j.id;
                break;
            }
            draw -= w;
        }

        // Machine choice: utility = -γ·cost − τ·time + Gumbel noise over
        // *affordable, eligible, free* machines. A busy favourite means
        // waiting, not settling for whatever box happens to be idle.
        let views = game.views(job)?;
        let affordable: Vec<_> = views
            .iter()
            .filter(|v| {
                v.eligible && v.cost <= game.allocation_left() && game.machine_free(v.machine)
            })
            .collect();
        if affordable.is_empty() {
            return Err(GameError::CannotAfford);
        }
        // Frugality: the benchmark price is the cheapest *eligible*
        // machine, busy or not. Paying much over it burns allocation that
        // later jobs will need, so machines beyond the agent's tolerance
        // are not worth scheduling on — better to wait an hour.
        let global_min_cost = views
            .iter()
            .filter(|v| v.eligible)
            .map(|v| v.cost)
            .fold(f64::MAX, f64::min)
            .max(1e-9);
        let tolerance = 1.0 + 0.55 / self.cost_sensitivity;
        let affordable: Vec<_> = affordable
            .into_iter()
            .filter(|v| v.cost <= tolerance * global_min_cost)
            .collect();
        if affordable.is_empty() {
            return Err(GameError::CannotAfford);
        }

        // Normalize by the best option, not the mean — a single outlier
        // (Theta's 3× runtimes) must not wash out the differences among
        // the machines actually under consideration.
        let min_cost = affordable
            .iter()
            .map(|v| v.cost)
            .fold(f64::MAX, f64::min)
            .max(1e-9);
        let min_time = affordable
            .iter()
            .map(|v| v.hours)
            .fold(f64::MAX, f64::min)
            .max(1e-9);
        let mut choices: Vec<(usize, f64)> = affordable
            .iter()
            .map(|v| {
                let u = -self.cost_sensitivity * v.cost / min_cost
                    - self.time_sensitivity * v.hours / min_time
                    + self.noise * gumbel(rng);
                (v.machine, u)
            })
            .collect();
        choices.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (machine, _) in choices {
            match game.schedule(job, machine) {
                Ok(()) => return Ok(()),
                Err(GameError::AlreadyScheduled) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(GameError::AlreadyScheduled)
    }
}

fn gumbel(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -(-u.ln()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Version;

    #[test]
    fn population_is_heterogeneous_and_deterministic() {
        let a = AgentProfile::population(50, 9);
        let b = AgentProfile::population(50, 9);
        assert_eq!(a, b);
        let min = a
            .iter()
            .map(|p| p.cost_sensitivity)
            .fold(f64::MAX, f64::min);
        let max = a
            .iter()
            .map(|p| p.cost_sensitivity)
            .fold(f64::MIN, f64::max);
        assert!(max - min > 0.5, "population should vary");
    }

    #[test]
    fn agents_complete_games() {
        let profile = AgentProfile::population(1, 3)[0];
        for version in Version::ALL {
            let mut game = Game::new(version);
            profile.play(&mut game, 11);
            assert!(game.is_over());
            assert!(
                !game.completed_jobs().is_empty(),
                "{version}: agent should finish at least one job"
            );
        }
    }

    #[test]
    fn play_is_deterministic() {
        let profile = AgentProfile::population(1, 3)[0];
        let run = || {
            let mut game = Game::new(Version::V3);
            profile.play(&mut game, 42);
            (game.completed_jobs().to_vec(), game.energy_used_kwh())
        };
        assert_eq!(run(), run());
    }
}
