//! Allocation credits: the fungible currency a provider grants to users.
//!
//! Under *Runtime* accounting one credit is worth one core-second; under
//! *EBA* one joule-equivalent; under *CBA* one gram of CO2e. The unit is
//! deliberately opaque — the accounting method defines its meaning — which is
//! exactly the property that makes allocations fungible across machines.

use crate::impl_quantity;

/// An amount of allocation credit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Credits(pub(crate) f64);

impl Credits {
    /// Builds a credit amount.
    #[inline]
    pub fn new(v: f64) -> Self {
        Credits(v)
    }

    /// The scalar value of this amount.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when the amount is negative (overdraft).
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }
}

impl_quantity!(Credits, "credits");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_sign() {
        let a = Credits::new(10.0);
        let b = Credits::new(4.0);
        assert_eq!((a - b).value(), 6.0);
        assert!((b - a).is_negative());
        let total: Credits = [a, b].iter().sum();
        assert_eq!(total.value(), 14.0);
    }
}
