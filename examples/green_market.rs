//! green-market, end to end: posted price schedule → agent shifting →
//! credits banked.
//!
//! Builds a small simulated world, compiles a carbon-indexed posted
//! price schedule from each machine's grid trace, runs the same
//! population twice — once rigid, once price-elastic — and settles both
//! runs through the provider's credit ledger with banking. Run it:
//!
//! ```text
//! cargo run --release --example green_market
//! ```

use green_accounting::Ledger;
use green_batchsim::{
    intensity_for, MarketInputs, PlacementTable, Policy, RunMetrics, SimArena, SimConfig, Simulator,
};
use green_carbon::HourlyTrace;
use green_machines::simulation_fleet;
use green_market::{
    market_population, price_table, settle_run, CreditBank, ExchangeDesk, PriceSpec,
};
use green_obs::NoopRecorder;
use green_perfmodel::CrossMachinePredictor;
use green_units::TimeSpan;
use green_workload::{Trace, TraceConfig};

fn main() {
    let users = 24;
    let seed = 31;

    // 1. A small, *uncongested* world: temporal shifting needs slack.
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, seed);
    let trace = Trace::generate(
        &TraceConfig {
            users,
            unique_jobs: 300,
            duration: TimeSpan::from_days(8.0),
            max_runtime: TimeSpan::from_hours(12.0),
            seed,
        },
        &predictor,
    );
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    let intensity: Vec<HourlyTrace> = intensity_for(&fleet, seed);

    // 2. The pricing engine: carbon-indexed posted prices, one series
    //    per machine, precompiled from the grid traces.
    let schedule = PriceSpec::parse("carbon:1.5").expect("valid schedule");
    let prices = std::sync::Arc::new(price_table(&intensity, schedule));
    println!(
        "posted schedule `{}` over {} machines",
        schedule.label(),
        prices.machine_count()
    );

    // 3. The same simulated population, rigid vs price-elastic.
    let run_with = |elasticity: f64| -> RunMetrics {
        let config = SimConfig::new(Policy::Adaptive, green_accounting::MethodKind::Cba, users)
            .with_market(MarketInputs {
                prices: std::sync::Arc::clone(&prices),
                agents: std::sync::Arc::new(market_population(users as usize, seed, elasticity)),
                max_delay_hours: 24,
                shift_threshold: 0.1,
            });
        Simulator::new(&trace, &fleet, &table, &intensity, config)
            .run(&mut SimArena::new(), &NoopRecorder)
    };
    let rigid = run_with(0.0);
    let elastic = run_with(2.0);

    // 4. Settle both runs through the ledger, banking savings.
    let report = |name: &str, metrics: &RunMetrics| -> f64 {
        let mut ledger = Ledger::new();
        let mut bank = CreditBank::new(100.0, 0.05);
        let cba = green_batchsim::metrics::cost::CBA;
        let run = settle_run(
            &metrics.outcomes,
            cba,
            &prices,
            &mut ledger,
            &mut bank,
            1.25,
        );
        println!(
            "{name:>8}: attributed {:>7.1} kg CO2e | posted spend {:>10.0} | banked {:>6.0} | mean wait {:>5.1} h | {} txns",
            metrics.attributed_carbon_kg(),
            run.posted_spent,
            run.banked,
            metrics.mean_wait_hours(),
            ledger.transactions().len(),
        );
        metrics.attributed_carbon_kg()
    };
    let carbon_rigid = report("rigid", &rigid);
    let carbon_elastic = report("elastic", &elastic);
    println!(
        "incentive effect: {:.1} kg CO2e avoided ({:.1} %) purely from behavior change",
        carbon_rigid - carbon_elastic,
        100.0 * (carbon_rigid - carbon_elastic) / carbon_rigid,
    );

    // 5. The exchange desk prices credits under another method
    //    (Figure 6's mechanism): what is one CBA credit worth in
    //    core-time credits, over a reference window of completed jobs?
    let spec = &fleet[0].spec;
    let sample: Vec<green_accounting::ChargeContext> = rigid
        .outcomes
        .iter()
        .take(64)
        .map(|o| {
            green_accounting::ChargeContext::new(
                green_units::Energy::from_kwh(o.energy_kwh),
                TimeSpan::from_secs(o.end_s - o.start_s),
            )
            .with_cores(o.cores)
            .with_carbon(intensity[o.machine as usize].mean(), spec.carbon_rate(2023))
            .with_pue(spec.facility.pue)
        })
        .collect();
    let desk = ExchangeDesk::from_sample(
        &sample,
        &[
            green_accounting::MethodKind::Cba,
            green_accounting::MethodKind::Runtime,
        ],
    );
    if let Some(rate) = desk.rate(
        green_accounting::MethodKind::Cba,
        green_accounting::MethodKind::Runtime,
    ) {
        println!(
            "exchange desk: 1 CBA credit ≈ {rate:.3} runtime credits over the reference sample"
        );
    }
}
