//! Integration checks: the accounting methods, fed the calibrated machine
//! catalog and Cholesky profiles, reproduce the qualitative shape of
//! Tables 1 and 4. (`repro` regenerates the full tables and checks the
//! paper's claims about them; these tests pin the orderings at the
//! accounting layer, so a calibration regression fails fast.)

use green_accounting::{ChargeContext, MethodKind};
use green_carbon::GridRegion;
use green_carbon::{DepreciationSchedule, DoubleDecliningBalance, LinearDepreciation};
use green_machines::{AppId, AppProfile, TestbedMachine, TESTBED_YEAR};

/// Builds the Table 1 charge context for Cholesky on one testbed machine.
fn cholesky_context(machine: TestbedMachine) -> ChargeContext {
    let spec = machine.spec();
    let profile = AppProfile::of(AppId::Cholesky).on(machine);
    let cores = AppId::Cholesky.cores();
    let intensity = GridRegion::UsMidwest.trace(7, 30).mean();
    ChargeContext::new(profile.energy, profile.runtime)
        .with_cores(cores)
        .with_provisioned(spec.slice_tdp(cores), spec.provisioned_share(cores))
        .with_peak(spec.cpu.peak_per_thread)
        .with_carbon(intensity, spec.carbon_rate(TESTBED_YEAR))
}

fn costs(kind: MethodKind) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (i, m) in TestbedMachine::ALL.iter().enumerate() {
        out[i] = kind.charge(&cholesky_context(*m)).value();
    }
    out
}

// Index map: 0 Desktop, 1 Cascade Lake, 2 Ice Lake, 3 Zen3.

#[test]
fn table1_eba_shape() {
    let c = costs(MethodKind::eba());
    // Desktop cheapest; Zen3 slightly above Desktop despite lowest energy
    // (the TDP/time term); Cascade Lake most expensive at roughly 2×.
    assert!(c[0] < c[3] && c[3] < c[1], "{c:?}");
    assert!(c[0] < c[2] && c[2] < c[1], "{c:?}");
    let cl_ratio = c[1] / c[0];
    assert!((1.6..2.2).contains(&cl_ratio), "CL/Desktop = {cl_ratio:.2}");
    let zen_ratio = c[3] / c[0];
    assert!(
        (1.0..1.35).contains(&zen_ratio),
        "Zen3/Desktop = {zen_ratio:.2}"
    );
}

#[test]
fn table1_cba_shape() {
    let c = costs(MethodKind::Cba);
    // Desktop cheapest; Cascade Lake most expensive; the new Zen3 pays
    // more embodied carbon than its energy advantage saves.
    assert!(c[0] < c[2], "Desktop < Ice Lake: {c:?}");
    assert!(c[0] < c[3], "Desktop < Zen3: {c:?}");
    assert!(c[1] > c[2], "Cascade Lake > Ice Lake: {c:?}");
    assert!(
        c[3] > c[0] * 1.05,
        "embodied carbon must penalize Zen3: {c:?}"
    );
}

#[test]
fn table1_peak_inverts_efficiency() {
    let c = costs(MethodKind::Peak);
    // The Peak baseline makes the most energy-hungry machine (Cascade
    // Lake) the cheapest — the paper's core criticism.
    assert!(c[1] < c[0] && c[1] < c[3], "{c:?}");
    let energy = costs(MethodKind::Energy);
    let cheapest_peak = (0..4).min_by(|&a, &b| c[a].total_cmp(&c[b])).unwrap();
    let most_energy = (0..4)
        .max_by(|&a, &b| energy[a].total_cmp(&energy[b]))
        .unwrap();
    assert_eq!(
        cheapest_peak, most_energy,
        "Peak rewards exactly the machine Energy punishes"
    );
}

#[test]
fn table1_runtime_prefers_fast_inefficient_nodes() {
    let c = costs(MethodKind::Runtime);
    // Runtime charges favour Ice Lake / Cascade Lake (fastest wall-clock).
    assert!(c[2] < c[0] && c[1] < c[3], "{c:?}");
}

#[test]
fn table4_depreciation_crossover() {
    // Accelerated charges less than linear for old machines, more for new
    // ones (Table 4's Desktop/CL vs Zen3 contrast).
    let ddb = DoubleDecliningBalance::standard();
    let lin = LinearDepreciation::standard();
    for machine in TestbedMachine::ALL {
        let spec = machine.spec();
        let total = spec.embodied_carbon();
        let age = spec.age_years(TESTBED_YEAR);
        let accel = ddb.hourly_rate(total, age).as_g_per_hour();
        let linear = lin.hourly_rate(total, age).as_g_per_hour();
        match machine {
            TestbedMachine::Zen3 => assert!(
                accel > linear,
                "{machine}: new machine should pay more under accel"
            ),
            TestbedMachine::IceLake => {
                // Age 2 of 5: accelerated (0.4·0.36 = 0.144) < linear (0.2).
                assert!(accel < linear, "{machine}");
            }
            _ => assert!(
                accel < linear,
                "{machine}: old machines pay less under accel"
            ),
        }
    }
}
