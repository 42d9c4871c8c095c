//! Inputs generated from the `--seed` argument. The program under test
//! only ever sees what these functions produce: sweep TOML text, and
//! the seeds `repro` substitutes for its fixed ones. The same seed
//! always yields the same bytes.
//!
//! In the sweeps the seed draws the Monte-Carlo axis — the replicate
//! seeds, hence every cell's intensity realization — while the workload
//! trace keeps the example files' seed, so the amount of work per run
//! does not swing with the seed.

use green_scenarios::AnalyzeQuery;

/// SplitMix64 finalizer: a well-mixed 64-bit function of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `stream`-th value derived from `seed`, small enough for any TOML
/// integer field.
fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream)) % 1_000_000_007
}

fn seed_list(seed: u64, n: u64) -> String {
    (0..n)
        .map(|i| derive(seed, i).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The workload seed of `examples/sweeps/incentives.toml` and
/// `mega_grid.toml`.
const WORKLOAD_SEED: u64 = 31;

/// Replicate seeds of the `market` grid.
pub const MARKET_REPLICATES: u64 = 8;

/// The `market` sweep: the incentive loop of
/// `examples/sweeps/incentives.toml` at the paper preset — adaptive
/// policy, CBA, four elasticities × two posted price schedules × one
/// banking cap × eight replicate seeds at volume 0.25, so 64 cells.
pub fn market_toml(seed: u64) -> String {
    format!(
        "name = \"perfbench-market\"\n\
         \n\
         [workload]\n\
         preset = \"paper\"\n\
         seed = {WORKLOAD_SEED}\n\
         \n\
         [grid]\n\
         policies = [\"adaptive\"]\n\
         methods = [\"cba\"]\n\
         workload_scales = [0.25]\n\
         elasticities = [0.0, 0.5, 1.0, 2.0]\n\
         price_schedules = [\"carbon:1.500\", \"tou:0.250\"]\n\
         banking_caps = [100.0]\n\
         seeds = [{replicates}]\n",
        replicates = seed_list(seed, MARKET_REPLICATES),
    )
}

/// The `survey` sweep: a micro-preset grid shaped like
/// `examples/sweeps/mega_grid.toml` — 5 policies × 5 methods × 5 years
/// × 5 populations × 4 backfill depths × 8 intensity scales × 2 volumes
/// × 4 replicate seeds = 160,000 cells in 40,000 rows.
pub fn survey_toml(seed: u64) -> String {
    format!(
        "name = \"perfbench-survey\"\n\
         \n\
         [workload]\n\
         preset = \"micro\"\n\
         seed = {WORKLOAD_SEED}\n\
         \n\
         [grid]\n\
         policies = [\"greedy\", \"energy\", \"eft\", \"runtime\", \"mixed\"]\n\
         methods = [\"runtime\", \"energy\", \"peak\", \"eba\", \"cba\"]\n\
         sim_years = [2021, 2022, 2023, 2024, 2025]\n\
         users = [4, 6, 8, 10, 12]\n\
         backfill_depths = [0, 4, 16, 64]\n\
         intensity_scales = [0.6, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6, 2.0]\n\
         workload_scales = [0.5, 1.0]\n\
         seeds = [{replicates}]\n",
        replicates = seed_list(seed, 4),
    )
}

/// The fixed analyst session `survey` runs over its fragments: group-bys
/// of one to three axes, metric subsets, and one filter.
pub fn analyst_session() -> Vec<AnalyzeQuery> {
    const SESSION: [(&str, Option<&str>, Option<&str>); 16] = [
        ("policy,method", None, None),
        (
            "sim_year",
            Some("attr_carbon_kg_mean,op_carbon_kg_mean"),
            None,
        ),
        ("users", Some("mean_wait_h_mean,utilization_mean"), None),
        (
            "backfill_depth",
            Some("mean_wait_h_mean,makespan_h_mean"),
            None,
        ),
        (
            "intensity_scale",
            Some("attr_carbon_kg_mean,credits_mean"),
            None,
        ),
        (
            "workload_scale,policy",
            Some("energy_mwh_mean,work_core_h_mean"),
            None,
        ),
        ("method,sim_year", Some("credits_mean"), None),
        ("policy,users", Some("completed_mean,rejected_mean"), None),
        ("fleet,method", Some("energy_mwh_mean,credits_mean"), None),
        (
            "policy,backfill_depth,workload_scale",
            Some("mean_wait_h_mean"),
            None,
        ),
        ("method", None, Some("/2023/")),
        (
            "policy,method,sim_year",
            Some("attr_carbon_kg_mean,credits_mean,energy_mwh_mean"),
            None,
        ),
        (
            "sim_year,users",
            Some("utilization_mean,mean_wait_h_mean"),
            None,
        ),
        (
            "backfill_depth,method",
            Some("credits_mean,completed_mean"),
            None,
        ),
        (
            "intensity_scale,sim_year",
            Some("attr_carbon_kg_mean"),
            None,
        ),
        (
            "policy",
            Some("energy_mwh_mean,attr_carbon_kg_mean,credits_mean,makespan_h_mean"),
            None,
        ),
    ];
    SESSION
        .iter()
        .map(|&(group_by, metrics, filter)| {
            AnalyzeQuery::new(Some(group_by), metrics, filter.map(str::to_string))
                .expect("the session names valid columns")
        })
        .collect()
}
