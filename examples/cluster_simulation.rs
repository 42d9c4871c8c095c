//! Batch-simulation walkthrough: replay a reduced HPC workload against
//! the Table 5 fleet under every machine-selection policy and compare
//! work completed, energy and carbon (Figures 5–6 at example scale).
//!
//! ```text
//! cargo run --release --example cluster_simulation
//! ```

use green_batchsim::metrics::cost;
use green_batchsim::{PlacementTable, Scenario};
use green_machines::simulation_fleet;
use green_perfmodel::CrossMachinePredictor;
use green_workload::{Trace, TraceConfig, TraceStats};

fn main() {
    // 1. Train the two-stage predictor (GMM + KNN) on the synthetic
    //    benchmark campaign.
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, 42);

    // 2. Synthesize the workload and extrapolate it to every machine.
    let trace = Trace::generate(&TraceConfig::small(42), &predictor).doubled();
    println!("workload:\n{}\n", TraceStats::of(&trace));
    let table = PlacementTable::build(&trace, &fleet, &predictor);

    // 3. Run the EBA scenario: all eight policies in parallel.
    let scenario = Scenario::eba(42, 24);
    let results = scenario.run(&trace, &table);

    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "policy", "work (kch)", "energy MWh", "carbon kg", "makespan h"
    );
    let allocation_work = results.work_with_fixed_allocation(cost::EBA);
    for run in &results.runs {
        let work = allocation_work
            .iter()
            .find(|(n, _)| *n == run.policy)
            .map(|(_, w)| *w)
            .unwrap_or(0.0);
        println!(
            "{:<22} {:>12.1} {:>12.2} {:>12.0} {:>10.0}",
            run.policy,
            work / 1.0e3,
            run.total_energy_mwh(),
            run.attributed_carbon_kg(),
            run.makespan_hours(),
        );
    }

    let greedy = results.run("Greedy").expect("greedy run");
    let eft = results.run("EFT").expect("eft run");
    println!(
        "\nGreedy used {:.0}% of EFT's energy while completing {:.0}% more work \
         within the same allocation — the paper's Section 5.4 headline.",
        100.0 * greedy.total_energy_mwh() / eft.total_energy_mwh(),
        100.0
            * (allocation_work[0].1
                / allocation_work
                    .iter()
                    .find(|(n, _)| n == "EFT")
                    .map(|(_, w)| *w)
                    .unwrap()
                - 1.0),
    );
}
