//! Tables 2 and 3: the GPU node catalog and the tiled-Cholesky runs.

use green_accounting::normalize_min;
use green_machines::{gpu_nodes, GpuNode};
use green_taskgraph::{run_cholesky, CholeskyOutcome};

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// GPU generation.
    pub gpu: String,
    /// Deployment year.
    pub year: i32,
    /// Manufacturer GFlop/s per device.
    pub gflops: f64,
    /// Device TDP (W).
    pub tdp_w: f64,
    /// Devices on the node.
    pub count: u32,
    /// Carbon rate at the 2023 snapshot (gCO2e/h).
    pub carbon_rate: f64,
}

/// Regenerates Table 2 from the catalog.
pub fn table2() -> Vec<Table2Row> {
    gpu_nodes()
        .into_iter()
        .map(|node: GpuNode| Table2Row {
            gpu: node.gpu.name.clone(),
            year: node.gpu.year,
            gflops: node.gpu.gflops,
            tdp_w: node.gpu.tdp.as_watts(),
            count: node.count,
            carbon_rate: node.carbon_rate(2023).as_g_per_hour(),
        })
        .collect()
}

/// One Table 3 row: measured run + normalized costs.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Raw simulation outcome.
    pub outcome: CholeskyOutcome,
    /// Normalized EBA (cheapest = 1.0).
    pub eba: f64,
    /// Normalized CBA.
    pub cba: f64,
    /// Normalized Peak/Perf.
    pub perf: f64,
}

/// Runs the 42 GB Cholesky on every configuration and normalizes the
/// cost columns as the paper does.
pub fn table3() -> Vec<Table3Row> {
    let outcomes: Vec<CholeskyOutcome> = gpu_nodes().into_iter().map(run_cholesky).collect();
    let eba = normalize_min(&outcomes.iter().map(|o| o.eba).collect::<Vec<_>>());
    let cba = normalize_min(&outcomes.iter().map(|o| o.cba).collect::<Vec<_>>());
    let perf = normalize_min(&outcomes.iter().map(|o| o.perf).collect::<Vec<_>>());
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| Table3Row {
            outcome,
            eba: eba[i],
            cba: cba[i],
            perf: perf[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;

    /// The paper's rates are claims rows (`claims::table2`).
    #[test]
    fn table2_matches_paper_rates() {
        assert_eq!(table2().len(), 10);
    }

    /// Two P100s cheapest under EBA and CBA, one under Perf: the Table 3
    /// rows.
    #[test]
    fn table3_p100_pair_cheapest() {
        let rows = claims::table3(&table3());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|c| c.holds), "{}", claims::render(&rows));
    }
}
