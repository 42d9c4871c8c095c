//! Table 4: operational carbon vs. linear vs. accelerated embodied
//! attribution, and Table 5: the simulation fleet catalog.

use green_carbon::{DepreciationSchedule, DoubleDecliningBalance, GridRegion, LinearDepreciation};
use green_machines::{simulation_fleet, AppId, AppProfile, TestbedMachine, SIM_YEAR, TESTBED_YEAR};

/// One Table 4 row (all values in mgCO2e for one Cholesky invocation).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Machine.
    pub machine: TestbedMachine,
    /// Machine age (years).
    pub age: u32,
    /// Operational carbon (mg).
    pub operational_mg: f64,
    /// Embodied under linear depreciation (mg).
    pub linear_mg: f64,
    /// Embodied under accelerated depreciation (mg).
    pub accelerated_mg: f64,
}

/// Regenerates Table 4.
pub fn table4() -> Vec<Table4Row> {
    let intensity = GridRegion::UsMidwest.trace(7, 30).mean();
    let ddb = DoubleDecliningBalance::standard();
    let lin = LinearDepreciation::standard();
    TestbedMachine::ALL
        .iter()
        .map(|&machine| {
            let spec = machine.spec();
            let profile = AppProfile::of(AppId::Cholesky).on(machine);
            let cores = AppId::Cholesky.cores();
            let share = spec.provisioned_share(cores);
            let age = spec.age_years(TESTBED_YEAR);
            let total = spec.embodied_carbon();
            let hours = profile.runtime.as_hours();
            let operational = (profile.energy * intensity).as_milligrams();
            let linear = lin.hourly_rate(total, age).as_g_per_hour() * hours * share * 1_000.0;
            let accelerated = ddb.hourly_rate(total, age).as_g_per_hour() * hours * share * 1_000.0;
            Table4Row {
                machine,
                age,
                operational_mg: operational,
                linear_mg: linear,
                accelerated_mg: accelerated,
            }
        })
        .collect()
}

/// One Table 5 row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Machine name.
    pub name: String,
    /// Deployment year.
    pub year: i32,
    /// CPU model.
    pub cpu: String,
    /// Cores per node.
    pub cores: u32,
    /// CPU TDP per socket (W).
    pub tdp_w: f64,
    /// Idle power (W).
    pub idle_w: f64,
    /// Carbon rate at the simulation start (gCO2e/h).
    pub carbon_rate: f64,
    /// Yearly-average grid intensity (gCO2e/kWh).
    pub avg_intensity: f64,
}

/// Regenerates Table 5 from the catalog.
pub fn table5() -> Vec<Table5Row> {
    simulation_fleet()
        .into_iter()
        .map(|m| Table5Row {
            name: m.spec.name.clone(),
            year: m.spec.year_deployed,
            cpu: m.spec.cpu.name.clone(),
            cores: m.spec.cores,
            tdp_w: m.spec.cpu.tdp_per_socket.as_watts(),
            idle_w: m.spec.idle_power.as_watts(),
            carbon_rate: m.spec.carbon_rate(SIM_YEAR).as_g_per_hour(),
            avg_intensity: m.spec.facility.region.target_mean(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;

    /// Accelerated depreciation charges the old machines less and the
    /// newest more; Cascade Lake emits the most: the Table 4 rows.
    #[test]
    fn table4_crossover_shape() {
        let rows = claims::table4(&table4());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|c| c.holds), "{}", claims::render(&rows));
    }

    /// The four fleet carbon rates within 1 % of the paper's: the Table 5
    /// rows.
    #[test]
    fn table5_rates_match() {
        let rows = claims::table5(&table5());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|c| c.holds), "{}", claims::render(&rows));
    }
}
