//! The prediction service: expected runtime/energy/cost per machine.
//!
//! The paper's frontend exposes "a prediction service that provides
//! estimates of the energy consumption of their jobs". Estimates come from
//! the reference application profiles (the platform's own history of past
//! invocations); a deployment would interpose the KNN predictor here the
//! same way the simulator does.

use green_accounting::{ChargeContext, MethodKind};
use green_machines::{AppId, AppProfile, NodeSpec, TestbedMachine, TESTBED_YEAR};
use green_units::{CarbonIntensity, Credits, Energy, TimeSpan};

/// A predicted execution on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Machine index in the platform's endpoint list.
    pub machine: usize,
    /// Expected runtime.
    pub runtime: TimeSpan,
    /// Expected energy.
    pub energy: Energy,
    /// Expected charge under the platform's accounting method.
    pub cost: Credits,
}

/// Per-machine predictions for the testbed.
#[derive(Debug, Clone)]
pub struct PredictionService {
    machines: Vec<(TestbedMachine, NodeSpec)>,
    intensities: Vec<CarbonIntensity>,
    method: MethodKind,
}

impl PredictionService {
    /// Builds the service for the four testbed machines under `method`.
    /// `intensities` must be index-aligned with [`TestbedMachine::ALL`].
    pub fn new(method: MethodKind, intensities: Vec<CarbonIntensity>) -> Self {
        let machines = TestbedMachine::ALL.iter().map(|&m| (m, m.spec())).collect();
        PredictionService {
            machines,
            intensities,
            method,
        }
    }

    /// The accounting method quotes are priced under.
    pub fn method(&self) -> MethodKind {
        self.method
    }

    /// Number of machines covered.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The charge context a `scale`-sized invocation of `app` is expected
    /// to produce on machine `index`.
    pub fn expected_context(&self, app: AppId, scale: f64, index: usize) -> ChargeContext {
        let (machine, spec) = &self.machines[index];
        let profile = AppProfile::of(app).on(*machine);
        let cores = app.cores();
        ChargeContext::new(profile.energy * scale, profile.runtime * scale)
            .with_cores(cores)
            .with_provisioned(spec.slice_tdp(cores), spec.provisioned_share(cores))
            .with_peak(spec.cpu.peak_per_thread)
            .with_carbon(self.intensities[index], spec.carbon_rate(TESTBED_YEAR))
            .with_pue(spec.facility.pue)
    }

    /// Predicts one machine.
    pub fn predict(&self, app: AppId, scale: f64, index: usize) -> Prediction {
        let ctx = self.expected_context(app, scale, index);
        Prediction {
            machine: index,
            runtime: ctx.duration,
            energy: ctx.energy,
            cost: self.method.charge(&ctx),
        }
    }

    /// Predicts every machine, in endpoint order.
    pub fn predict_all(&self, app: AppId, scale: f64) -> Vec<Prediction> {
        (0..self.machines.len())
            .map(|i| self.predict(app, scale, i))
            .collect()
    }

    /// The machine with the lowest predicted cost — the router's
    /// "seamlessly guide users to more efficient machines" default.
    pub fn cheapest(&self, app: AppId, scale: f64) -> Prediction {
        self.predict_all(app, scale)
            .into_iter()
            .min_by(|a, b| a.cost.value().total_cmp(&b.cost.value()))
            .expect("testbed is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(method: MethodKind) -> PredictionService {
        let intensities = vec![CarbonIntensity::from_g_per_kwh(454.0); 4];
        PredictionService::new(method, intensities)
    }

    #[test]
    fn eba_routes_cholesky_to_desktop() {
        let s = service(MethodKind::eba());
        let best = s.cheapest(AppId::Cholesky, 1.0);
        assert_eq!(best.machine, TestbedMachine::Desktop.index());
    }

    #[test]
    fn peak_routes_cholesky_to_cascade_lake() {
        let s = service(MethodKind::Peak);
        let best = s.cheapest(AppId::Cholesky, 1.0);
        assert_eq!(best.machine, TestbedMachine::CascadeLake.index());
    }

    #[test]
    fn energy_routes_to_zen3() {
        let s = service(MethodKind::Energy);
        let best = s.cheapest(AppId::Cholesky, 1.0);
        assert_eq!(best.machine, TestbedMachine::Zen3.index());
    }

    #[test]
    fn scale_multiplies_runtime_and_energy() {
        let s = service(MethodKind::eba());
        let small = s.predict(AppId::MatMul, 1.0, 0);
        let big = s.predict(AppId::MatMul, 3.0, 0);
        assert!((big.runtime.as_secs() / small.runtime.as_secs() - 3.0).abs() < 1e-9);
        assert!((big.energy.as_joules() / small.energy.as_joules() - 3.0).abs() < 1e-9);
    }
}
