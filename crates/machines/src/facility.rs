//! Facilities: where a machine lives determines its grid and cooling
//! overhead.

use green_carbon::GridRegion;

/// A hosting facility.
#[derive(Debug, Clone, PartialEq)]
pub struct Facility {
    /// Human-readable site name.
    pub name: String,
    /// The electricity-grid region supplying the site.
    pub region: GridRegion,
    /// Power usage effectiveness: facility power / IT power. Multiplying
    /// measured IT energy by the PUE accounts for cooling and distribution
    /// losses (Section 3.2).
    pub pue: f64,
}

impl Facility {
    /// Builds a facility.
    pub fn new(name: impl Into<String>, region: GridRegion, pue: f64) -> Self {
        assert!(pue >= 1.0, "PUE is ≥ 1 by definition, got {pue}");
        Facility {
            name: name.into(),
            region,
            pue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds() {
        let f = Facility::new("ALCF", GridRegion::UsIllinois, 1.25);
        assert_eq!(f.region, GridRegion::UsIllinois);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn rejects_sub_unity_pue() {
        let _ = Facility::new("bad", GridRegion::UsTexas, 0.9);
    }
}
