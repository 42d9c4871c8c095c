//! Carbon-intensity sources: `I_f(t)` in gCO2e/kWh as a function of time.

use green_units::{wrap_hour, CarbonIntensity, TimePoint, TimeSpan, SECS_PER_HOUR};

/// Anything that can report the grid carbon intensity at a point in virtual
/// time. The paper retrieves hourly data "assuming the simulation starts in
/// January 2023"; here the epoch of the virtual clock plays that role.
pub trait IntensitySource: Send + Sync {
    /// Intensity at time `t`.
    fn intensity_at(&self, t: TimePoint) -> CarbonIntensity;

    /// Average intensity over `[from, to]`, sampled hourly (inclusive of the
    /// starting hour). Falls back to the point value for degenerate ranges.
    fn mean_intensity(&self, from: TimePoint, to: TimePoint) -> CarbonIntensity {
        if to <= from {
            return self.intensity_at(from);
        }
        let hours = ((to - from).as_hours().ceil() as usize).max(1);
        let mut acc = 0.0;
        for h in 0..=hours {
            let t = from + TimeSpan::from_hours(h as f64);
            acc += self.intensity_at(t.min(to)).as_g_per_kwh();
        }
        CarbonIntensity::from_g_per_kwh(acc / (hours + 1) as f64)
    }
}

/// A flat intensity, e.g. the 53 gCO2e/kWh average the paper uses for the
/// GPU experiments (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantIntensity(pub CarbonIntensity);

impl ConstantIntensity {
    /// Builds a constant source from gCO2e/kWh.
    pub fn new(g_per_kwh: f64) -> Self {
        ConstantIntensity(CarbonIntensity::from_g_per_kwh(g_per_kwh))
    }
}

impl IntensitySource for ConstantIntensity {
    fn intensity_at(&self, _t: TimePoint) -> CarbonIntensity {
        self.0
    }
}

/// An hourly-resolution intensity trace starting at the simulation epoch.
///
/// Lookups use the value of the enclosing hour (step interpolation, matching
/// how grid APIs publish data). Times beyond the trace wrap around, so a
/// one-year trace can serve an arbitrarily long simulation.
///
/// Construction precomputes the cumulative prefix sum of the hourly
/// values, so any window average or integral — the quantity per-job
/// carbon attribution needs for every single job — is an O(1) lookup
/// instead of an O(window) loop.
#[derive(Debug, Clone, PartialEq)]
pub struct HourlyTrace {
    values: Vec<f64>,
    /// `cumulative[i]` = sum of `values[..i]` (so `cumulative[0] == 0.0`
    /// and `cumulative[len]` is the trace total), accumulated left to
    /// right — the same order a naive loop sums in.
    cumulative: Vec<f64>,
}

impl HourlyTrace {
    /// Builds a trace from hourly gCO2e/kWh values. Panics on an empty
    /// vector or non-finite values — a trace with holes is a configuration
    /// error, not a runtime condition.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "hourly trace must be non-empty");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "hourly trace values must be finite and non-negative"
        );
        let mut cumulative = Vec::with_capacity(values.len() + 1);
        let mut acc = 0.0;
        cumulative.push(acc);
        for v in &values {
            acc += v;
            cumulative.push(acc);
        }
        HourlyTrace { values, cumulative }
    }

    /// Number of hourly samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the trace has no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw hourly values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The cumulative prefix sums: `cumulative()[i]` is the sum of the
    /// first `i` hourly values (`len + 1` entries, first `0.0`).
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Sum of every hourly value (the last prefix entry) — O(1), and
    /// bit-identical to summing `values()` left to right.
    pub fn total(&self) -> f64 {
        *self.cumulative.last().expect("non-empty by construction")
    }

    /// Sum of `values[k % len]` over the *unwrapped* hour indices
    /// `0..x`: whole cycles contribute the trace total, the remainder is
    /// one prefix lookup. O(1) for any window length.
    fn unwrapped_prefix(&self, x: u64) -> f64 {
        let n = self.values.len() as u64;
        (x / n) as f64 * self.total() + self.cumulative[(x % n) as usize]
    }

    /// The intensity of the hour with index `hour` (see
    /// [`TimePoint::hour_index`]), wrapping past the end of the trace. A
    /// caller reading several hourly series at one moment computes the
    /// hour once.
    #[inline]
    pub fn intensity_at_hour(&self, hour: usize) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.values[wrap_hour(hour, self.values.len())])
    }

    /// Arithmetic mean of the trace — O(1) via the prefix total.
    pub fn mean(&self) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.total() / self.values.len() as f64)
    }

    /// Time-weighted mean intensity over `[from, to]` under the trace's
    /// step interpolation: `∫ I(t) dt / (to − from)`, with the two
    /// fractional edge hours weighted by their actual overlap. This is
    /// the Equation-(2) quantity per-job attribution wants — the grid
    /// carbon a job's execution window actually spans — and it is O(1)
    /// however long the job ran.
    pub fn window_mean(&self, from: TimePoint, to: TimePoint) -> CarbonIntensity {
        let from_s = from.as_secs().max(0.0);
        let to_s = to.as_secs().max(0.0);
        if to_s <= from_s {
            return self.intensity_at(from);
        }
        let n = self.values.len() as u64;
        let a = from_s / SECS_PER_HOUR;
        let b = to_s / SECS_PER_HOUR;
        let (a0, b0) = (a.floor(), b.floor());
        let head = self.values[(a0 as u64 % n) as usize];
        if a0 == b0 {
            return CarbonIntensity::from_g_per_kwh(head);
        }
        // Head fraction + whole hours (prefix difference) + tail fraction.
        let whole = self.unwrapped_prefix(b0 as u64) - self.unwrapped_prefix(a0 as u64 + 1);
        let tail = self.values[(b0 as u64 % n) as usize];
        let integral = (a0 + 1.0 - a) * head + whole + (b - b0) * tail;
        CarbonIntensity::from_g_per_kwh(integral / (b - a))
    }

    /// Minimum hourly value.
    pub fn min(&self) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.values.iter().cloned().fold(f64::MAX, f64::min))
    }

    /// Maximum hourly value.
    pub fn max(&self) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.values.iter().cloned().fold(f64::MIN, f64::max))
    }

    /// The 24 values of day `day` (wrapping), for Figure 7b-style plots.
    pub fn day_profile(&self, day: usize) -> Vec<f64> {
        (0..24)
            .map(|h| self.values[(day * 24 + h) % self.values.len()])
            .collect()
    }

    /// A deterministically perturbed copy: every hourly value is scaled by
    /// `scale` and, when `jitter_sd > 0`, multiplied by a mean-one
    /// log-normal factor with the given sigma — the knob sensitivity
    /// sweeps turn to ask "what if this grid were X% dirtier/cleaner, or
    /// noisier than the recorded year?".
    pub fn perturbed(&self, scale: f64, jitter_sd: f64, seed: u64) -> HourlyTrace {
        assert!(
            scale.is_finite() && scale > 0.0,
            "intensity scale must be positive, got {scale}"
        );
        assert!(
            jitter_sd.is_finite() && jitter_sd >= 0.0,
            "intensity jitter must be non-negative, got {jitter_sd}"
        );
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9bd1_e7a7_0e2d_4c55);
        let values = self
            .values
            .iter()
            .map(|v| {
                let jitter = if jitter_sd > 0.0 {
                    // Mean-one log-normal multiplier via Box–Muller.
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
                    (jitter_sd * z - jitter_sd * jitter_sd / 2.0).exp()
                } else {
                    1.0
                };
                v * scale * jitter
            })
            .collect();
        HourlyTrace::new(values)
    }
}

impl IntensitySource for HourlyTrace {
    fn intensity_at(&self, t: TimePoint) -> CarbonIntensity {
        self.intensity_at_hour(t.hour_index())
    }

    /// O(1) override of the trait's per-hour sampling loop: the samples
    /// at `from + 0h, from + 1h, …` land on consecutive wrapped hour
    /// indices, so their sum is a prefix difference plus the final
    /// clamped-at-`to` sample. Matches the naive loop bit for bit
    /// whenever the per-sample floating-point steps are exact (integer
    /// traces, dyadic-hour windows — asserted by the
    /// `prefix_sum_equivalence` property tests), and to within rounding
    /// noise otherwise.
    fn mean_intensity(&self, from: TimePoint, to: TimePoint) -> CarbonIntensity {
        if to <= from {
            return self.intensity_at(from);
        }
        let hours = ((to - from).as_hours().ceil() as usize).max(1);
        if from.as_secs() < 0.0 {
            // Degenerate pre-epoch windows clamp every sample; keep the
            // reference loop for this never-hot case.
            let mut acc = 0.0;
            for h in 0..=hours {
                let t = from + TimeSpan::from_hours(h as f64);
                acc += self.intensity_at(t.min(to)).as_g_per_kwh();
            }
            return CarbonIntensity::from_g_per_kwh(acc / (hours + 1) as f64);
        }
        let n = self.values.len() as u64;
        let h0 = (from.as_secs() / SECS_PER_HOUR) as u64;
        let last = self.values[((to.as_secs() / SECS_PER_HOUR) as u64 % n) as usize];
        let acc = self.unwrapped_prefix(h0 + hours as u64) - self.unwrapped_prefix(h0) + last;
        CarbonIntensity::from_g_per_kwh(acc / (hours + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_source_is_flat() {
        let s = ConstantIntensity::new(53.0);
        assert_eq!(s.intensity_at(TimePoint::EPOCH).as_g_per_kwh(), 53.0);
        assert_eq!(
            s.intensity_at(TimePoint::from_hours(1e6)).as_g_per_kwh(),
            53.0
        );
        assert_eq!(
            s.mean_intensity(TimePoint::EPOCH, TimePoint::from_hours(48.0))
                .as_g_per_kwh(),
            53.0
        );
    }

    #[test]
    fn perturbation_scales_and_is_deterministic() {
        let t = HourlyTrace::new(vec![100.0; 24 * 30]);
        let scaled = t.perturbed(1.5, 0.0, 7);
        assert!(scaled.values().iter().all(|v| (*v - 150.0).abs() < 1e-12));
        let noisy_a = t.perturbed(1.0, 0.2, 7);
        let noisy_b = t.perturbed(1.0, 0.2, 7);
        assert_eq!(noisy_a, noisy_b);
        assert_ne!(noisy_a, t.perturbed(1.0, 0.2, 8));
        // Mean-one jitter keeps the average near the original.
        let mean = noisy_a.mean().as_g_per_kwh();
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
        // Values stay non-negative (HourlyTrace::new asserts it too).
        assert!(noisy_a.values().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn hourly_trace_steps_and_wraps() {
        let t = HourlyTrace::new(vec![100.0, 200.0, 300.0]);
        assert_eq!(
            t.intensity_at(TimePoint::from_hours(0.5)).as_g_per_kwh(),
            100.0
        );
        assert_eq!(
            t.intensity_at(TimePoint::from_hours(1.0)).as_g_per_kwh(),
            200.0
        );
        assert_eq!(
            t.intensity_at(TimePoint::from_hours(2.9)).as_g_per_kwh(),
            300.0
        );
        // Wraps after 3 hours.
        assert_eq!(
            t.intensity_at(TimePoint::from_hours(3.2)).as_g_per_kwh(),
            100.0
        );
        assert!((t.mean().as_g_per_kwh() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn mean_intensity_averages_range() {
        let t = HourlyTrace::new(vec![100.0, 300.0]);
        let m = t.mean_intensity(TimePoint::EPOCH, TimePoint::from_hours(1.0));
        assert!((m.as_g_per_kwh() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn day_profile_has_24_entries() {
        let t = HourlyTrace::new((0..48).map(|h| h as f64).collect());
        let d1 = t.day_profile(1);
        assert_eq!(d1.len(), 24);
        assert_eq!(d1[0], 24.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_rejected() {
        let _ = HourlyTrace::new(vec![]);
    }

    #[test]
    fn negative_time_clamps() {
        let t = HourlyTrace::new(vec![10.0, 20.0]);
        assert_eq!(
            t.intensity_at(TimePoint::from_secs(-5.0)).as_g_per_kwh(),
            10.0
        );
    }
}
