//! Simulated RAPL (Running Average Power Limit) energy counters.
//!
//! Real RAPL exposes a cumulative energy counter in micro-joules that wraps
//! at 32 bits (≈4.3 kJ — minutes at node power). The simulator reproduces
//! both the cumulative semantics and the wrap so consumers must handle it
//! the way production monitors do.

use green_units::{Energy, Power, TimePoint, TimeSpan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The wrap modulus of the RAPL energy counter: 2^32 µJ.
pub const RAPL_WRAP_UJ: u64 = 1 << 32;

/// A cumulative package-energy reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaplReading {
    /// Cumulative energy in µJ, modulo [`RAPL_WRAP_UJ`].
    pub cumulative_uj: u64,
}

impl RaplReading {
    /// Energy consumed since `earlier`, assuming at most one wrap. This is
    /// the standard RAPL delta idiom.
    pub fn delta_since(self, earlier: RaplReading) -> Energy {
        let delta_uj = if self.cumulative_uj >= earlier.cumulative_uj {
            self.cumulative_uj - earlier.cumulative_uj
        } else {
            RAPL_WRAP_UJ - earlier.cumulative_uj + self.cumulative_uj
        };
        Energy::from_joules(delta_uj as f64 / 1.0e6)
    }
}

/// Simulates the package-energy counter of one node.
///
/// Driven by `advance(power, span)`: the simulator integrates the supplied
/// power over the span, adds multiplicative measurement noise, and advances
/// the wrapped counter.
#[derive(Debug, Clone)]
pub struct RaplSimulator {
    counter_uj: u64,
    noise_rel: f64,
    rng: StdRng,
    last_t: TimePoint,
}

impl RaplSimulator {
    /// Builds a simulator with `noise_rel` relative (1-sigma) measurement
    /// noise. RAPL is accurate to a few percent; 0.01 is typical.
    pub fn new(seed: u64, noise_rel: f64) -> Self {
        RaplSimulator {
            counter_uj: 0,
            noise_rel,
            rng: StdRng::seed_from_u64(seed),
            last_t: TimePoint::EPOCH,
        }
    }

    /// Integrates `power` over `span` and returns the new reading at
    /// `self.last_t + span`.
    pub fn advance(&mut self, power: Power, span: TimeSpan) -> RaplReading {
        let noise: f64 = 1.0 + self.noise_rel * self.gauss();
        let energy_uj = (power * span).as_joules() * 1.0e6 * noise.max(0.0);
        self.counter_uj = (self.counter_uj + energy_uj.max(0.0) as u64) % RAPL_WRAP_UJ;
        self.last_t += span;
        RaplReading {
            cumulative_uj: self.counter_uj,
        }
    }

    /// Current virtual time of the counter.
    pub fn now(&self) -> TimePoint {
        self.last_t
    }

    /// The current reading without advancing.
    pub fn reading(&self) -> RaplReading {
        RaplReading {
            cumulative_uj: self.counter_uj,
        }
    }

    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_without_wrap() {
        let a = RaplReading {
            cumulative_uj: 1_000_000,
        };
        let b = RaplReading {
            cumulative_uj: 3_500_000,
        };
        assert!((b.delta_since(a).as_joules() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn delta_across_wrap() {
        let a = RaplReading {
            cumulative_uj: RAPL_WRAP_UJ - 500_000,
        };
        let b = RaplReading {
            cumulative_uj: 500_000,
        };
        assert!((b.delta_since(a).as_joules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simulator_integrates_power() {
        let mut sim = RaplSimulator::new(7, 0.0);
        let start = sim.reading();
        let r = sim.advance(Power::from_watts(100.0), TimeSpan::from_secs(10.0));
        assert!((r.delta_since(start).as_joules() - 1000.0).abs() < 1e-3);
        assert!((sim.now().as_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn simulator_wraps_eventually() {
        let mut sim = RaplSimulator::new(7, 0.0);
        let mut wrapped = false;
        let mut prev = sim.reading();
        // 4.3 kJ wrap: 150 W × 20 s = 3 kJ windows stay below the modulus
        // (the delta idiom only tolerates a single wrap) but wrap the
        // counter every other window.
        for _ in 0..1000 {
            let r = sim.advance(Power::from_watts(150.0), TimeSpan::from_secs(20.0));
            if r.cumulative_uj < prev.cumulative_uj {
                wrapped = true;
                // The delta idiom recovers the true 3 kJ window across the
                // wrap.
                assert!((r.delta_since(prev).as_joules() - 3000.0).abs() < 10.0);
            }
            prev = r;
        }
        assert!(wrapped, "counter should wrap in a long run");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = RaplSimulator::new(9, 0.05);
        let mut b = RaplSimulator::new(9, 0.05);
        for _ in 0..10 {
            let ra = a.advance(Power::from_watts(200.0), TimeSpan::from_secs(1.0));
            let rb = b.advance(Power::from_watts(200.0), TimeSpan::from_secs(1.0));
            assert_eq!(ra, rb);
        }
    }
}
