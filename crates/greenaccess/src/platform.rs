//! The green-ACCESS frontend: router, admission control, accounting
//! engine, and the wiring of endpoints, bus and monitor.

use std::collections::HashMap;

use green_accounting::{Allocation, Ledger, MethodKind};
use green_carbon::{attribute_job, GridRegion};
use green_machines::{AppId, TestbedMachine};
use green_telemetry::{Bus, Subscription, TaskEnergyReport, TaskId};
use green_units::Credits;
use green_units::{CarbonIntensity, TimePoint, TimeSpan};

use crate::auth::{AccessControl, Token};
use crate::endpoint::{EndpointHandle, ExecuteRequest};
use crate::error::PlatformError;
use crate::monitor::MonitorHandle;
use crate::predict::PredictionService;
use crate::receipts::Receipt;
use crate::PlatformMessage;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The accounting method in force (the experiments run the platform
    /// once per method).
    pub method: MethodKind,
    /// Seed for the endpoints' telemetry simulators.
    pub seed: u64,
    /// Telemetry sampling interval.
    pub sample_interval: TimeSpan,
    /// Relative telemetry noise (RAPL + counters).
    pub telemetry_noise: f64,
    /// Monitor power-model refit interval, in windows.
    pub refit_every: u32,
    /// Admission hold as a multiple of the quoted cost.
    pub admission_margin: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            method: MethodKind::eba(),
            seed: 7,
            sample_interval: TimeSpan::from_secs(0.5),
            telemetry_noise: 0.01,
            refit_every: 8,
            admission_margin: 1.25,
        }
    }
}

/// Where to run an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Pin to a specific machine.
    On(TestbedMachine),
    /// Let the router pick the machine with the lowest quoted cost.
    Cheapest,
}

/// The assembled platform.
pub struct GreenAccess {
    config: PlatformConfig,
    endpoints: Vec<EndpointHandle>,
    // Dropped after the endpoints: field order matters for Drop.
    _monitor: MonitorHandle,
    reports: Subscription<PlatformMessage>,
    pending: HashMap<TaskId, TaskEnergyReport>,
    auth: AccessControl,
    ledger: Ledger,
    predictor: PredictionService,
    next_task: u64,
    clock_s: f64,
}

impl GreenAccess {
    /// Boots the platform: four testbed endpoints, the telemetry bus and
    /// the monitor thread.
    pub fn new(config: PlatformConfig) -> GreenAccess {
        let bus: Bus<PlatformMessage> = Bus::new();
        // The monitor must subscribe before any endpoint publishes.
        let idle_powers = TestbedMachine::ALL
            .iter()
            .map(|m| m.spec().idle_power)
            .collect();
        let reports = bus.subscribe("reports");
        let monitor = MonitorHandle::spawn(bus.clone(), idle_powers, config.refit_every);
        let endpoints: Vec<EndpointHandle> = TestbedMachine::ALL
            .iter()
            .enumerate()
            .map(|(i, &machine)| {
                EndpointHandle::spawn(
                    i,
                    machine,
                    bus.clone(),
                    config.sample_interval,
                    config.telemetry_noise,
                    config.seed.wrapping_add(i as u64 * 0x9E37_79B9),
                )
            })
            .collect();
        let intensities: Vec<CarbonIntensity> = TestbedMachine::ALL
            .iter()
            .map(|m| {
                let region: GridRegion = m.spec().facility.region;
                CarbonIntensity::from_g_per_kwh(region.target_mean())
            })
            .collect();
        let predictor = PredictionService::new(config.method, intensities);
        GreenAccess {
            config,
            endpoints,
            _monitor: monitor,
            reports,
            pending: HashMap::new(),
            auth: AccessControl::new(),
            ledger: Ledger::new(),
            predictor,
            next_task: 0,
            clock_s: 0.0,
        }
    }

    /// The accounting method in force.
    pub fn method(&self) -> MethodKind {
        self.config.method
    }

    /// Registers a user with an initial allocation; returns their token.
    pub fn register_user(&mut self, name: &str, grant: Credits) -> Token {
        self.ledger.grant(name, grant);
        self.auth.register(name)
    }

    /// Remaining balance of a user.
    pub fn balance(&self, user: &str) -> Option<Credits> {
        self.ledger.account(user).map(Allocation::remaining)
    }

    /// The provider-side ledger (read-only).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The prediction service (for quoting without invoking).
    pub fn predictions(&self) -> &PredictionService {
        &self.predictor
    }

    /// Invokes `app` at input scale `scale` for the token's user.
    ///
    /// Full lifecycle: authenticate → quote → admission hold → execute on
    /// the endpoint → monitor-attributed energy report → settle → receipt.
    pub fn invoke(
        &mut self,
        token: &Token,
        app: AppId,
        scale: f64,
        placement: Placement,
    ) -> Result<Receipt, PlatformError> {
        let user = self
            .auth
            .authorize(token)
            .ok_or(PlatformError::Unauthorized)?
            .to_string();

        let machine_index = match placement {
            Placement::On(m) => m.index(),
            Placement::Cheapest => self.predictor.cheapest(app, scale).machine,
        };
        if machine_index >= self.endpoints.len() {
            return Err(PlatformError::UnknownMachine(machine_index));
        }
        let prediction = self.predictor.predict(app, scale, machine_index);
        let hold = prediction.cost * self.config.admission_margin;
        if !self.ledger.can_afford(&user, hold) {
            return Err(PlatformError::AdmissionDenied {
                hold: hold.value(),
                available: self.balance(&user).unwrap_or(Credits::ZERO).value(),
            });
        }

        let task = TaskId(self.next_task);
        self.next_task += 1;
        let now = TimePoint::from_secs(self.clock_s);
        self.ledger
            .debit(&user, hold, now, format!("hold {task}"))?;

        if !self.endpoints[machine_index].execute(ExecuteRequest { task, app, scale }) {
            // Roll the hold back; the endpoint is gone.
            self.ledger
                .refund(&user, hold, now, format!("rollback {task}"))?;
            return Err(PlatformError::EndpointDown(machine_index));
        }

        let report = self.await_report(task, machine_index)?;
        self.clock_s += report.duration.as_secs();
        let settled_at = TimePoint::from_secs(self.clock_s);

        // Price the measured context: predicted context with measured
        // energy and duration substituted in.
        let mut ctx = self.predictor.expected_context(app, scale, machine_index);
        ctx.energy = report.energy;
        ctx.duration = report.duration;
        let actual = self.config.method.charge(&ctx);

        self.ledger
            .refund(&user, hold, settled_at, format!("release {task}"))?;
        let charged =
            self.ledger
                .debit_up_to(&user, actual, settled_at, format!("settle {task}"))?;

        let footprint = attribute_job(
            ctx.facility_energy(),
            ctx.carbon_intensity,
            ctx.duration,
            ctx.carbon_rate,
            ctx.provisioned_share,
        );
        Ok(Receipt {
            task,
            user,
            machine: TestbedMachine::ALL[machine_index],
            app,
            scale,
            predicted_cost: prediction.cost,
            hold,
            charged,
            energy: report.energy,
            duration: report.duration,
            footprint,
            method: self.config.method,
        })
    }

    /// Waits for the monitor's report on `task`, stashing any reports for
    /// other (concurrent) tasks.
    fn await_report(
        &mut self,
        task: TaskId,
        machine_index: usize,
    ) -> Result<TaskEnergyReport, PlatformError> {
        if let Some(report) = self.pending.remove(&task) {
            return Ok(report);
        }
        loop {
            match self.reports.recv() {
                Some(PlatformMessage::Report { report, .. }) => {
                    if report.task == task {
                        return Ok(report);
                    }
                    self.pending.insert(report.task, report);
                }
                Some(_) => {}
                None => return Err(PlatformError::EndpointDown(machine_index)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(method: MethodKind) -> GreenAccess {
        GreenAccess::new(PlatformConfig {
            method,
            ..PlatformConfig::default()
        })
    }

    #[test]
    fn end_to_end_invocation_settles_ledger() {
        let mut ga = platform(MethodKind::eba());
        let token = ga.register_user("alice", Credits::new(1.0e6));
        let receipt = ga
            .invoke(
                &token,
                AppId::Cholesky,
                1.0,
                Placement::On(TestbedMachine::Desktop),
            )
            .unwrap();
        // Desktop Cholesky: ≈18.3 J over ≈5.2 s (one RAPL window of slack).
        assert!(
            (receipt.energy.as_joules() - 18.3).abs() < 4.0,
            "energy {:.1}",
            receipt.energy.as_joules()
        );
        assert!((receipt.duration.as_secs() - 5.2).abs() < 1.0);
        // EBA ≈ (18.3 + 5.2·65)/2 ≈ 178 J-credits.
        assert!(
            (receipt.charged.value() - 178.0).abs() < 25.0,
            "charged {:.1}",
            receipt.charged.value()
        );
        // The ledger holds exactly the settled charge.
        let spent = 1.0e6 - ga.balance("alice").unwrap().value();
        assert!((spent - receipt.charged.value()).abs() < 1e-6);
        assert!(receipt.quote_accuracy() > 0.8 && receipt.quote_accuracy() < 1.2);
    }

    #[test]
    fn cheapest_placement_follows_method() {
        let mut ga = platform(MethodKind::eba());
        let token = ga.register_user("bob", Credits::new(1.0e9));
        let r = ga
            .invoke(&token, AppId::Cholesky, 1.0, Placement::Cheapest)
            .unwrap();
        assert_eq!(r.machine, TestbedMachine::Desktop);

        let mut ga = platform(MethodKind::Peak);
        let token = ga.register_user("bob", Credits::new(1.0e9));
        let r = ga
            .invoke(&token, AppId::Cholesky, 1.0, Placement::Cheapest)
            .unwrap();
        assert_eq!(r.machine, TestbedMachine::CascadeLake);
    }

    #[test]
    fn unauthorized_token_rejected() {
        let mut ga = platform(MethodKind::eba());
        let err = ga
            .invoke(
                &Token("forged".into()),
                AppId::Bfs,
                1.0,
                Placement::Cheapest,
            )
            .unwrap_err();
        assert_eq!(err, PlatformError::Unauthorized);
    }

    #[test]
    fn admission_denied_without_funds() {
        let mut ga = platform(MethodKind::eba());
        let token = ga.register_user("pauper", Credits::new(1.0));
        let err = ga
            .invoke(&token, AppId::DnaViz, 1.0, Placement::Cheapest)
            .unwrap_err();
        assert!(matches!(err, PlatformError::AdmissionDenied { .. }));
        // The failed admission never touched the balance.
        assert!((ga.balance("pauper").unwrap().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_invocations_accumulate_charges() {
        let mut ga = platform(MethodKind::Cba);
        let token = ga.register_user("carol", Credits::new(1.0e3));
        let mut total = 0.0;
        for _ in 0..3 {
            let r = ga
                .invoke(&token, AppId::Mst, 1.0, Placement::Cheapest)
                .unwrap();
            total += r.charged.value();
            assert!(r.footprint.total().as_grams() > 0.0);
        }
        let spent = 1.0e3 - ga.balance("carol").unwrap().value();
        assert!((spent - total).abs() < 1e-9);
        assert_eq!(ga.ledger().transactions().len(), 9); // 3 × (hold, release, settle)
    }

    #[test]
    fn concurrent_endpoints_do_not_cross_reports() {
        // Fire on two machines back to back; both settle with the right
        // app profile despite interleaved telemetry.
        let mut ga = platform(MethodKind::Energy);
        let token = ga.register_user("dave", Credits::new(1.0e9));
        let r1 = ga
            .invoke(
                &token,
                AppId::MatMul,
                1.0,
                Placement::On(TestbedMachine::Zen3),
            )
            .unwrap();
        let r2 = ga
            .invoke(
                &token,
                AppId::Pagerank,
                1.0,
                Placement::On(TestbedMachine::IceLake),
            )
            .unwrap();
        assert!((r1.energy.as_joules() - 12.0).abs() < 4.0, "{r1}");
        assert!((r2.energy.as_joules() - 30.0).abs() < 6.0, "{r2}");
    }
}
