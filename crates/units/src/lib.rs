//! Strongly-typed physical and accounting quantities for the green-credits
//! workspace.
//!
//! Every quantity is a thin `f64` newtype with arithmetic closed over the
//! correct dimensions: multiplying a [`Power`] by a [`TimeSpan`] yields an
//! [`Energy`]; multiplying an [`Energy`] by a [`CarbonIntensity`] yields a
//! [`CarbonMass`]; and so on. The accounting methods in `green-accounting`
//! are written entirely against these types, which rules out the
//! joules-vs-kilowatt-hours and grams-vs-kilograms slips that plague energy
//! accounting code.
//!
//! # Example
//!
//! ```
//! use green_units::{Power, TimeSpan, CarbonIntensity};
//!
//! let power = Power::from_watts(205.0);
//! let duration = TimeSpan::from_hours(2.0);
//! let energy = power * duration;
//! assert!((energy.as_kwh() - 0.41).abs() < 1e-12);
//!
//! let grid = CarbonIntensity::from_g_per_kwh(389.0);
//! let footprint = energy * grid;
//! assert!((footprint.as_grams() - 159.49).abs() < 1e-9);
//! ```

mod carbon;
mod credits;
mod energy;
mod power;
mod time;
mod work;

pub use carbon::{CarbonIntensity, CarbonMass, CarbonRate};
pub use credits::Credits;
pub use energy::Energy;
pub use power::Power;
pub use time::{
    wrap_hour, TimePoint, TimeSpan, HOURS_PER_YEAR, SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_YEAR,
};
pub use work::CoreHours;

/// An unsigned key that orders as [`f64::total_cmp`] orders: negative
/// values have every bit flipped, the others only the sign bit. Sorting
/// by it, packed beside a unique tie-break, gives a stable sort's order
/// from an unstable sort.
#[inline]
pub fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Implements the ring-ish operations every scalar quantity supports:
/// addition/subtraction with itself, scaling by `f64`, dividing two
/// quantities into a dimensionless ratio, ordering helpers, iterator sums
/// and display.
macro_rules! impl_quantity {
    ($ty:ident, $unit:expr) => {
        impl $ty {
            /// The zero quantity.
            pub const ZERO: $ty = $ty(0.0);

            /// Returns the raw scalar in the quantity's canonical unit.
            #[inline]
            pub fn raw(self) -> f64 {
                self.0
            }

            /// True when the underlying scalar is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $ty {
                $ty(self.0.abs())
            }

            /// The smaller of two quantities.
            #[inline]
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// The larger of two quantities.
            #[inline]
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }

            /// Clamps to the inclusive range `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: $ty, hi: $ty) -> $ty {
                $ty(self.0.clamp(lo.0, hi.0))
            }

            /// Linear interpolation: `self + t * (other - self)`.
            #[inline]
            pub fn lerp(self, other: $ty, t: f64) -> $ty {
                $ty(self.0 + t * (other.0 - self.0))
            }
        }

        impl core::ops::Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$ty> for f64 {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl core::ops::Div<$ty> for $ty {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a $ty>>(iter: I) -> $ty {
                $ty(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $ty {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

pub(crate) use impl_quantity;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(100.0) * TimeSpan::from_secs(60.0);
        assert!((e.as_joules() - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn energy_carbon_roundtrip() {
        let e = Energy::from_kwh(2.0);
        let i = CarbonIntensity::from_g_per_kwh(450.0);
        let c = e * i;
        assert!((c.as_grams() - 900.0).abs() < 1e-9);
        assert!((c.as_kg() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn display_formats_with_units() {
        assert_eq!(format!("{:.1}", Energy::from_joules(12.34)), "12.3 J");
        assert_eq!(format!("{:.0}", Power::from_watts(205.0)), "205 W");
    }

    #[test]
    fn ratios_are_dimensionless() {
        let r = Energy::from_joules(30.0) / Energy::from_joules(10.0);
        assert!((r - 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_clamp_lerp() {
        let a = Credits::new(1.0);
        let b = Credits::new(3.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Credits::new(5.0).clamp(a, b), b);
        assert_eq!(a.lerp(b, 0.5), Credits::new(2.0));
    }

    #[test]
    fn total_order_key_orders_as_total_cmp() {
        let values = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} against {b}"
                );
            }
        }
    }
}
