//! Trace generation.

use green_perfmodel::{CrossMachinePredictor, JobCounters};
use green_units::{TimePoint, TimeSpan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::job::{Job, JobId, UserId};

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of distinct users.
    pub users: u32,
    /// Unique jobs before doubling (the paper: 71,190).
    pub unique_jobs: u32,
    /// Window over which arrivals are spread.
    pub duration: TimeSpan,
    /// Walltime cap applied to runtimes.
    pub max_runtime: TimeSpan,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// The paper-scale configuration: 71,190 unique jobs (doubled later to
    /// 142,380) over a 60-day window.
    pub fn paper_scale(seed: u64) -> Self {
        TraceConfig {
            users: 250,
            unique_jobs: 71_190,
            duration: TimeSpan::from_days(60.0),
            max_runtime: TimeSpan::from_hours(48.0),
            seed,
        }
    }

    /// A reduced configuration for tests and examples.
    pub fn small(seed: u64) -> Self {
        TraceConfig {
            users: 24,
            unique_jobs: 1_500,
            duration: TimeSpan::from_days(4.0),
            max_runtime: TimeSpan::from_hours(12.0),
            seed,
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Jobs ordered by arrival time.
    pub jobs: Vec<Job>,
    /// Counter signatures per application archetype.
    pub archetypes: Vec<JobCounters>,
}

/// Requested-core distribution: (cores, weight). Sums of the ≤16 entries
/// leave ≈17 % of jobs too large for the Desktop, matching the paper.
const CORE_WEIGHTS: [(u32, f64); 10] = [
    (1, 0.12),
    (2, 0.10),
    (4, 0.14),
    (8, 0.25),
    (16, 0.22),
    (32, 0.05),
    (64, 0.05),
    (128, 0.04),
    (256, 0.02),
    (512, 0.01),
];

impl Trace {
    /// Generates a trace. The predictor supplies stage-one counter
    /// sampling and the reference machine's ground-truth power behaviour.
    pub fn generate(config: &TraceConfig, predictor: &CrossMachinePredictor) -> Trace {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let ref_behavior = &predictor.machines()[predictor.reference()];

        // Heavy-tailed jobs-per-user allocation (Zipf-ish weights).
        let user_weights: Vec<f64> = (1..=config.users)
            .map(|r| 1.0 / (r as f64).powf(0.8))
            .collect();
        let weight_total: f64 = user_weights.iter().sum();

        // Each user owns 1–6 app archetypes; each archetype fixes the
        // counter signature, requested cores and a base runtime.
        struct Archetype {
            user: UserId,
            counters: JobCounters,
            cores: u32,
            base_runtime: f64,
        }
        let mut archetypes: Vec<Archetype> = Vec::new();
        let mut user_archetypes: Vec<Vec<u32>> = Vec::with_capacity(config.users as usize);
        for u in 0..config.users {
            let n_apps = rng.gen_range(1..=6);
            let mut mine = Vec::with_capacity(n_apps);
            for _ in 0..n_apps {
                let counters = predictor.sample_counters(&mut rng);
                let cores = draw_cores(&mut rng);
                // Log-normal base runtime, median 6 h, wide tail — the
                // Patel clusters' jobs are multi-hour, which is what puts
                // the workload's total energy at Table 6's MWh scale.
                let base_runtime = 21_600.0 * lognormal(&mut rng, 1.1);
                mine.push(archetypes.len() as u32);
                archetypes.push(Archetype {
                    user: UserId(u),
                    counters,
                    cores,
                    base_runtime,
                });
            }
            user_archetypes.push(mine);
        }

        // Spread jobs over users, then archetypes, then time.
        let mut jobs = Vec::with_capacity(config.unique_jobs as usize);
        for id in 0..config.unique_jobs {
            // Pick the user by weight.
            let mut draw = rng.gen_range(0.0..weight_total);
            let mut user = config.users - 1;
            for (u, w) in user_weights.iter().enumerate() {
                if draw < *w {
                    user = u as u32;
                    break;
                }
                draw -= w;
            }
            let arch_id = user_archetypes[user as usize]
                [rng.gen_range(0..user_archetypes[user as usize].len())];
            let arch = &archetypes[arch_id as usize];

            let arrival = diurnal_arrival(&mut rng, config.duration);
            let runtime = (arch.base_runtime * lognormal(&mut rng, 0.25))
                .clamp(300.0, config.max_runtime.as_secs());
            let runtime = TimeSpan::from_secs(runtime);

            // "Measured" energy on the reference cluster: ground-truth
            // power at the job's intensity, with metering noise.
            let chi = arch.counters.chi();
            let power = ref_behavior.power_per_core(chi) * arch.cores as f64;
            let energy = power * runtime * lognormal(&mut rng, 0.08);

            jobs.push(Job {
                id: JobId(id),
                user: arch.user,
                archetype: arch_id,
                cores: arch.cores,
                arrival,
                ref_runtime: runtime,
                ref_energy: energy,
            });
        }
        jobs.sort_by(|a, b| {
            a.arrival
                .as_secs()
                .total_cmp(&b.arrival.as_secs())
                .then(a.id.0.cmp(&b.id.0))
        });

        Trace {
            jobs,
            archetypes: archetypes.into_iter().map(|a| a.counters).collect(),
        }
    }

    /// Repeats every execution once (the paper's doubling to 142,380
    /// jobs). The repeat arrives immediately after the original.
    pub fn doubled(&self) -> Trace {
        let mut jobs = Vec::with_capacity(self.jobs.len() * 2);
        let base = self.jobs.len() as u32;
        for job in &self.jobs {
            jobs.push(*job);
            let mut repeat = *job;
            repeat.id = JobId(job.id.0 + base);
            repeat.arrival = job.arrival + TimeSpan::from_secs(1.0);
            jobs.push(repeat);
        }
        jobs.sort_by(|a, b| {
            a.arrival
                .as_secs()
                .total_cmp(&b.arrival.as_secs())
                .then(a.id.0.cmp(&b.id.0))
        });
        Trace {
            jobs,
            archetypes: self.archetypes.clone(),
        }
    }

    /// Scales the workload volume by `factor`, deterministically.
    ///
    /// * `factor < 1` thins the trace by systematic sampling over the
    ///   arrival-ordered jobs (every trace keeps the same *shape*: user
    ///   mix, diurnal arrivals, core distribution are preserved in
    ///   expectation);
    /// * `factor > 1` replays the trace: each whole multiple appends a
    ///   full copy, the fractional remainder a systematic sample. Copies
    ///   get fresh ids and a small seeded arrival jitter so they do not
    ///   tie-break identically with their originals.
    ///
    /// Archetypes are shared untouched, so placement tables built against
    /// the original trace remain valid for every scaled variant — the
    /// property the sweep engine's shared-state runner relies on.
    pub fn scaled(&self, factor: f64, seed: u64) -> Trace {
        assert!(
            factor.is_finite() && factor > 0.0,
            "workload scale must be positive, got {factor}"
        );
        let n = self.jobs.len();
        let target = ((n as f64) * factor).round().max(1.0) as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce0_a91a_73c0_ffee);
        let mut jobs: Vec<Job> = Vec::with_capacity(target);

        // Whole copies first (the original keeps its ids).
        let copies = target / n;
        let remainder = target % n;
        for c in 0..copies {
            for job in &self.jobs {
                let mut j = *job;
                if c > 0 {
                    j.id = JobId(job.id.0 + (c as u32) * n as u32);
                    j.arrival += TimeSpan::from_secs(rng.gen_range(1.0..60.0));
                }
                jobs.push(j);
            }
        }
        // Fractional remainder via systematic sampling (evenly spread).
        if remainder > 0 {
            let stride = n as f64 / remainder as f64;
            for k in 0..remainder {
                let idx = ((k as f64 + 0.5) * stride) as usize % n;
                let mut j = self.jobs[idx];
                if copies > 0 {
                    j.id = JobId(j.id.0 + (copies as u32) * n as u32);
                    j.arrival += TimeSpan::from_secs(rng.gen_range(1.0..60.0));
                }
                jobs.push(j);
            }
        }
        jobs.sort_by(|a, b| {
            a.arrival
                .as_secs()
                .total_cmp(&b.arrival.as_secs())
                .then(a.id.0.cmp(&b.id.0))
        });
        Trace {
            jobs,
            archetypes: self.archetypes.clone(),
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

fn draw_cores(rng: &mut StdRng) -> u32 {
    let total: f64 = CORE_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0.0..total);
    for (cores, w) in CORE_WEIGHTS {
        if draw < w {
            return cores;
        }
        draw -= w;
    }
    CORE_WEIGHTS[CORE_WEIGHTS.len() - 1].0
}

/// Arrival times follow a diurnal submission pattern: heavier during work
/// hours, lighter overnight.
fn diurnal_arrival(rng: &mut StdRng, duration: TimeSpan) -> TimePoint {
    loop {
        let t = rng.gen_range(0.0..duration.as_secs());
        let hour = (t / 3600.0) % 24.0;
        // Acceptance weight: 1.0 during 9–18h, 0.35 overnight, ramps
        // between.
        let w = match hour {
            h if (9.0..18.0).contains(&h) => 1.0,
            h if (6.0..9.0).contains(&h) => 0.35 + 0.65 * (h - 6.0) / 3.0,
            h if (18.0..23.0).contains(&h) => 1.0 - 0.65 * (h - 18.0) / 5.0,
            _ => 0.35,
        };
        if rng.gen_range(0.0..1.0) < w {
            return TimePoint::from_secs(t);
        }
    }
}

fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
    (sigma * z - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::simulation_fleet;

    fn predictor() -> CrossMachinePredictor {
        CrossMachinePredictor::for_fleet(&simulation_fleet(), 7)
    }

    #[test]
    fn generates_requested_job_count() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(1), &p);
        assert_eq!(trace.len(), 1_500);
        assert!(!trace.is_empty());
    }

    #[test]
    fn doubling_duplicates_every_job() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(1), &p);
        let doubled = trace.doubled();
        assert_eq!(doubled.len(), 3_000);
        // Repeats share archetype/cores with originals.
        let orig = &trace.jobs[0];
        let twin = doubled
            .jobs
            .iter()
            .find(|j| j.id.0 == orig.id.0 + 1_500)
            .unwrap();
        assert_eq!(twin.archetype, orig.archetype);
        assert_eq!(twin.cores, orig.cores);
    }

    #[test]
    fn about_17_percent_exceed_desktop() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(7), &p);
        let big = trace.jobs.iter().filter(|j| j.cores > 16).count() as f64;
        let frac = big / trace.len() as f64;
        assert!(
            (0.10..0.25).contains(&frac),
            "fraction over 16 cores: {frac:.3}"
        );
    }

    #[test]
    fn arrivals_sorted_within_window() {
        let p = predictor();
        let config = TraceConfig::small(5);
        let trace = Trace::generate(&config, &p);
        assert!(trace.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace
            .jobs
            .iter()
            .all(|j| j.arrival.as_secs() < config.duration.as_secs()));
    }

    #[test]
    fn same_archetype_same_counters() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(7), &p);
        let j = &trace.jobs[10];
        let twin = trace
            .jobs
            .iter()
            .find(|o| o.archetype == j.archetype && o.id != j.id)
            .expect("archetypes repeat");
        assert_eq!(
            j.counters(&trace.archetypes).features(),
            twin.counters(&trace.archetypes).features()
        );
        assert_eq!(j.cores, twin.cores);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = predictor();
        let a = Trace::generate(&TraceConfig::small(11), &p);
        let b = Trace::generate(&TraceConfig::small(11), &p);
        assert_eq!(a, b);
        let c = Trace::generate(&TraceConfig::small(12), &p);
        assert_ne!(a, c);
    }

    #[test]
    fn scaling_hits_target_counts_and_keeps_archetypes() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(19), &p);
        let half = trace.scaled(0.5, 1);
        assert_eq!(half.len(), 750);
        assert_eq!(half.archetypes.len(), trace.archetypes.len());
        // Thinned jobs are a subset of the originals.
        for j in &half.jobs {
            assert!(trace.jobs.iter().any(|o| o.id == j.id));
        }
        let double = trace.scaled(2.0, 1);
        assert_eq!(double.len(), 3_000);
        // Copies carry fresh ids above the original range.
        assert!(double.jobs.iter().any(|j| j.id.0 >= 1_500));
        // Arrivals stay sorted in every variant.
        for t in [&half, &double] {
            assert!(t.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }
    }

    #[test]
    fn scaling_is_deterministic_and_identity_at_one() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(23), &p);
        assert_eq!(trace.scaled(1.0, 9), trace);
        assert_eq!(trace.scaled(1.7, 9), trace.scaled(1.7, 9));
    }

    #[test]
    fn energies_positive_and_plausible() {
        let p = predictor();
        let trace = Trace::generate(&TraceConfig::small(13), &p);
        for j in &trace.jobs {
            let e = j.ref_energy.as_kwh();
            assert!(e > 0.0 && e < 1_000.0, "job energy {e} kWh");
        }
        // Average should be kWh-scale (Table 6: ~2-4 kWh/job overall).
        let avg: f64 = trace
            .jobs
            .iter()
            .map(|j| j.ref_energy.as_kwh())
            .sum::<f64>()
            / trace.len() as f64;
        assert!((0.5..20.0).contains(&avg), "avg {avg}");
    }
}
