//! Core-hours: the paper's machine-neutral measure of completed work.
//!
//! Figure 5a/6/7a report "work" as the average number of core-hours a job
//! requires across all machines, which weights large and long jobs more
//! heavily without favouring any single machine.

use crate::{impl_quantity, TimeSpan};

/// An amount of computational work, in core-hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CoreHours(pub(crate) f64);

impl CoreHours {
    /// Builds from a raw core-hour count.
    #[inline]
    pub fn new(ch: f64) -> Self {
        CoreHours(ch)
    }

    /// Work done by `cores` cores busy for `span`.
    #[inline]
    pub fn from_cores_span(cores: u32, span: TimeSpan) -> Self {
        CoreHours(cores as f64 * span.as_hours())
    }

    /// The raw core-hour count.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// This work in millions of core-hours (the unit of Figure 5a).
    #[inline]
    pub fn as_millions(self) -> f64 {
        self.0 / 1.0e6
    }
}

impl_quantity!(CoreHours, "core-h");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_times_span() {
        let w = CoreHours::from_cores_span(48, TimeSpan::from_hours(2.0));
        assert!((w.value() - 96.0).abs() < 1e-12);
        assert!((CoreHours::new(2.5e6).as_millions() - 2.5).abs() < 1e-12);
    }
}
