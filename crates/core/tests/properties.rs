//! Property tests for the accounting methods.

use green_accounting::{ChargeContext, MethodKind};
use green_units::{CarbonIntensity, CarbonRate, Energy, Power, TimeSpan};
use proptest::prelude::*;

fn arb_context() -> impl Strategy<Value = ChargeContext> {
    (
        0.0..1.0e7f64,  // energy J
        0.1..1.0e5f64,  // duration s
        1u32..1024,     // cores
        0.0..2000.0f64, // provisioned TDP W
        0.0..1.0f64,    // share
        1.0..5000.0f64, // peak per core
        0.0..1500.0f64, // intensity g/kWh
        0.0..500.0f64,  // carbon rate g/h
    )
        .prop_map(|(e, d, cores, tdp, share, peak, intensity, rate)| {
            ChargeContext::new(Energy::from_joules(e), TimeSpan::from_secs(d))
                .with_cores(cores)
                .with_provisioned(Power::from_watts(tdp), share)
                .with_peak(peak)
                .with_carbon(
                    CarbonIntensity::from_g_per_kwh(intensity),
                    CarbonRate::from_g_per_hour(rate),
                )
        })
}

proptest! {
    /// Eq. 1 always lands between the measured energy and the potential
    /// (TDP) energy — it is their average.
    #[test]
    fn eba_between_energy_and_potential(ctx in arb_context()) {
        let eba = MethodKind::eba().charge(&ctx).value();
        let e = ctx.energy.as_joules();
        let potential = ctx.provisioned_tdp.as_watts() * ctx.duration.as_secs();
        let lo = e.min(potential);
        let hi = e.max(potential);
        prop_assert!(eba >= lo / 2.0 + lo / 2.0 - 1e-6);
        prop_assert!(eba >= lo - 1e-6 * hi.max(1.0));
        prop_assert!(eba <= hi + 1e-6 * hi.max(1.0));
    }

    /// All five methods are non-negative.
    #[test]
    fn charges_non_negative(ctx in arb_context()) {
        for kind in MethodKind::ALL {
            prop_assert!(kind.charge(&ctx).value() >= 0.0, "{kind}");
        }
    }

    /// More energy never costs less, for every method.
    #[test]
    fn monotone_in_energy(ctx in arb_context(), extra in 0.0..1.0e6f64) {
        let mut more = ctx;
        more.energy = ctx.energy + Energy::from_joules(extra);
        for kind in MethodKind::ALL {
            prop_assert!(
                kind.charge(&more).value() >= kind.charge(&ctx).value() - 1e-9,
                "{kind}"
            );
        }
    }

    /// Longer occupancy never costs less, for every method.
    #[test]
    fn monotone_in_duration(ctx in arb_context(), extra in 0.0..1.0e4f64) {
        let mut longer = ctx;
        longer.duration = ctx.duration + TimeSpan::from_secs(extra);
        for kind in MethodKind::ALL {
            prop_assert!(
                kind.charge(&longer).value() >= kind.charge(&ctx).value() - 1e-9,
                "{kind}"
            );
        }
    }

    /// CBA is monotone in grid intensity and embodied rate.
    #[test]
    fn cba_monotone_in_carbon_terms(ctx in arb_context(), di in 0.0..500.0f64, dr in 0.0..100.0f64) {
        let base = MethodKind::Cba.charge(&ctx).value();
        let mut dirtier = ctx;
        dirtier.carbon_intensity = ctx.carbon_intensity + CarbonIntensity::from_g_per_kwh(di);
        prop_assert!(MethodKind::Cba.charge(&dirtier).value() >= base - 1e-9);
        let mut newer = ctx;
        newer.carbon_rate = ctx.carbon_rate + CarbonRate::from_g_per_hour(dr);
        prop_assert!(MethodKind::Cba.charge(&newer).value() >= base - 1e-9);
    }

    /// EBA with β = 0 is exactly half the Energy charge (PUE = 1 here).
    #[test]
    fn eba_beta_zero_degenerates(ctx in arb_context()) {
        let eba0 = MethodKind::Eba { beta: 0.0 }.charge(&ctx).value();
        let energy = MethodKind::Energy.charge(&ctx).value();
        prop_assert!((eba0 - energy / 2.0).abs() <= energy.max(1.0) * 1e-12);
    }

    /// Scaling energy and duration together scales Runtime/Energy/EBA
    /// linearly (they are degree-1 homogeneous in the job).
    #[test]
    fn linear_methods_are_homogeneous(ctx in arb_context(), k in 0.1..10.0f64) {
        let mut scaled = ctx;
        scaled.energy = ctx.energy * k;
        scaled.duration = ctx.duration * k;
        for kind in [MethodKind::Runtime, MethodKind::Energy, MethodKind::eba()] {
            let a = kind.charge(&ctx).value();
            let b = kind.charge(&scaled).value();
            prop_assert!((b - k * a).abs() <= (k * a).abs() * 1e-9 + 1e-9, "{kind}");
        }
    }

    /// The affine decomposition reproduces `charge` bit for bit, for
    /// every method, at any finite intensity — including zero, the
    /// context's own, and one far past any real grid — with PUE and the
    /// EBA weight varied too.
    #[test]
    fn affine_decomposition_is_bit_exact(
        ctx in arb_context(),
        pue in 1.0..2.0f64,
        beta in 0.0..2.0f64,
        intensity in prop_oneof![Just(0.0f64), 0.0..1500.0f64, 1.0e3..1.0e9f64],
    ) {
        let mut ctx = ctx.with_pue(pue);
        let methods = MethodKind::ALL.into_iter().chain([MethodKind::Eba { beta }]);
        for kind in methods {
            let affine = kind.affine(&ctx);
            for at in [ctx.carbon_intensity, CarbonIntensity::from_g_per_kwh(intensity)] {
                ctx.carbon_intensity = at;
                prop_assert_eq!(
                    affine.at(at).to_bits(),
                    kind.charge(&ctx).value().to_bits(),
                    "{} at {} g/kWh", kind, at.as_g_per_kwh()
                );
            }
        }
    }
}
