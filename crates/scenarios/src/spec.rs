//! Scenario cell specifications: the policy/method/fleet/knob tuple that
//! fully determines one simulation run.

use green_accounting::MethodKind;
use green_batchsim::metrics::cost;
use green_batchsim::{Policy, MAX_SHIFT_BUDGET_HOURS};
use green_market::PriceSpec;

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// A machine-selection policy, in sweep-file spelling.
///
/// `fixed:<machine>` pins every job to one fleet machine (sub-fleet
/// index); `greedy-shift:<hours>` is Greedy plus carbon-aware temporal
/// shifting with the given delay budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Minimize quoted cost under the cell's accounting method.
    Greedy,
    /// Minimize predicted energy.
    Energy,
    /// Cheapest unless another machine halves completion time.
    Mixed,
    /// Earliest finish time.
    Eft,
    /// Minimize runtime.
    Runtime,
    /// Always one machine (index into the cell's fleet subset).
    Fixed(usize),
    /// Greedy + temporal shifting up to this many hours.
    GreedyShift(u32),
    /// Market policy: cheapest *posted* price, with per-agent elastic
    /// temporal shifting (the `elasticity` / `price_schedule` axes give
    /// it teeth).
    Adaptive,
}

impl PolicySpec {
    /// Parses a sweep-file policy token.
    pub fn parse(token: &str) -> Result<PolicySpec, SpecError> {
        let t = token.trim().to_ascii_lowercase();
        if let Some(rest) = t.strip_prefix("fixed:") {
            let idx = rest
                .parse::<usize>()
                .map_err(|_| SpecError(format!("bad fixed policy index in `{token}`")))?;
            return Ok(PolicySpec::Fixed(idx));
        }
        if let Some(rest) = t.strip_prefix("greedy-shift:") {
            let hours = rest
                .parse::<u32>()
                .map_err(|_| SpecError(format!("bad shift budget in `{token}`")))?;
            if hours == 0 {
                return Err(SpecError(format!("shift budget must be ≥ 1 in `{token}`")));
            }
            if hours > MAX_SHIFT_BUDGET_HOURS {
                return Err(SpecError(format!(
                    "shift budget must be ≤ {MAX_SHIFT_BUDGET_HOURS} h (one year) in `{token}`"
                )));
            }
            return Ok(PolicySpec::GreedyShift(hours));
        }
        match t.as_str() {
            "greedy" => Ok(PolicySpec::Greedy),
            "energy" => Ok(PolicySpec::Energy),
            "mixed" => Ok(PolicySpec::Mixed),
            "eft" => Ok(PolicySpec::Eft),
            "runtime" => Ok(PolicySpec::Runtime),
            "adaptive" => Ok(PolicySpec::Adaptive),
            _ => Err(SpecError(format!(
                "unknown policy `{token}` (expected greedy|energy|mixed|eft|runtime|adaptive|fixed:<i>|greedy-shift:<h>)"
            ))),
        }
    }

    /// The batchsim policy this spec selects.
    pub fn to_policy(self) -> Policy {
        match self {
            PolicySpec::Greedy => Policy::Greedy,
            PolicySpec::Energy => Policy::Energy,
            PolicySpec::Mixed => Policy::Mixed,
            PolicySpec::Eft => Policy::Eft,
            PolicySpec::Runtime => Policy::Runtime,
            PolicySpec::Fixed(i) => Policy::Fixed(i),
            PolicySpec::GreedyShift(h) => Policy::GreedyShift { max_delay_hours: h },
            PolicySpec::Adaptive => Policy::Adaptive,
        }
    }

    /// Stable label used in CSV/table output.
    pub fn label(self) -> String {
        match self {
            PolicySpec::Greedy => "greedy".into(),
            PolicySpec::Energy => "energy".into(),
            PolicySpec::Mixed => "mixed".into(),
            PolicySpec::Eft => "eft".into(),
            PolicySpec::Runtime => "runtime".into(),
            PolicySpec::Fixed(i) => format!("fixed:{i}"),
            PolicySpec::GreedyShift(h) => format!("greedy-shift:{h}"),
            PolicySpec::Adaptive => "adaptive".into(),
        }
    }
}

/// An accounting method, in sweep-file spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSpec {
    /// Core-time.
    Runtime,
    /// Measured energy.
    Energy,
    /// Core-time × peak score.
    Peak,
    /// Energy-Based Accounting (β = 1).
    Eba,
    /// Carbon-Based Accounting.
    Cba,
}

impl MethodSpec {
    /// Parses a sweep-file method token.
    pub fn parse(token: &str) -> Result<MethodSpec, SpecError> {
        match token.trim().to_ascii_lowercase().as_str() {
            "runtime" => Ok(MethodSpec::Runtime),
            "energy" => Ok(MethodSpec::Energy),
            "peak" => Ok(MethodSpec::Peak),
            "eba" => Ok(MethodSpec::Eba),
            "cba" => Ok(MethodSpec::Cba),
            _ => Err(SpecError(format!(
                "unknown method `{token}` (expected runtime|energy|peak|eba|cba)"
            ))),
        }
    }

    /// The accounting method this spec selects.
    pub fn to_method(self) -> MethodKind {
        match self {
            MethodSpec::Runtime => MethodKind::Runtime,
            MethodSpec::Energy => MethodKind::Energy,
            MethodSpec::Peak => MethodKind::Peak,
            MethodSpec::Eba => MethodKind::eba(),
            MethodSpec::Cba => MethodKind::Cba,
        }
    }

    /// Index into `JobOutcome::charges` for this method.
    pub fn cost_index(self) -> usize {
        match self {
            MethodSpec::Runtime => cost::RUNTIME,
            MethodSpec::Energy => cost::ENERGY,
            MethodSpec::Peak => cost::PEAK,
            MethodSpec::Eba => cost::EBA,
            MethodSpec::Cba => cost::CBA,
        }
    }

    /// Stable label used in CSV/table output.
    pub fn label(self) -> &'static str {
        match self {
            MethodSpec::Runtime => "runtime",
            MethodSpec::Energy => "energy",
            MethodSpec::Peak => "peak",
            MethodSpec::Eba => "eba",
            MethodSpec::Cba => "cba",
        }
    }
}

/// Resolves a sweep-file fleet token to a Table 5 fleet index.
///
/// Accepts the canonical names, short aliases, or a plain index.
pub fn fleet_index(token: &str) -> Result<usize, SpecError> {
    let t = token.trim().to_ascii_lowercase();
    if let Ok(i) = t.parse::<usize>() {
        if i < 4 {
            return Ok(i);
        }
        return Err(SpecError(format!("fleet index {i} out of range (0..=3)")));
    }
    match t.as_str() {
        "faster" | "tamu faster" => Ok(0),
        "desktop" => Ok(1),
        "ic" | "institutional cluster" => Ok(2),
        "theta" | "alcf theta" => Ok(3),
        _ => Err(SpecError(format!(
            "unknown fleet machine `{token}` (expected faster|desktop|ic|theta or 0..=3)"
        ))),
    }
}

/// One fully-resolved sweep cell: everything a single simulation run
/// needs beyond the shared workload state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Machine-selection policy.
    pub policy: PolicySpec,
    /// Accounting method (drives cost-aware policies and the credits
    /// column).
    pub method: MethodSpec,
    /// Fleet subset: indices into the Table 5 fleet, in simulation order.
    pub fleet: Vec<usize>,
    /// Simulation start year (fixes machine ages → embodied rates).
    pub sim_year: i32,
    /// Simulated user population: sizes both the submitting population
    /// of the generated trace and the per-user Desktop pool.
    pub users: u32,
    /// Backfill scan depth (0 = pure FCFS).
    pub backfill_depth: usize,
    /// Workload volume multiplier (1.0 = the configured trace).
    pub workload_scale: f64,
    /// Grid-intensity multiplier (1.0 = the recorded synthetic year).
    pub intensity_scale: f64,
    /// Log-normal sigma of per-hour intensity jitter (0 = none).
    pub intensity_jitter: f64,
    /// Mean price elasticity of the agent population (0 = rigid users;
    /// only meaningful with the `adaptive` policy).
    pub elasticity: f64,
    /// Posted-price schedule compiled against the cell's intensity
    /// realization.
    pub price_schedule: PriceSpec,
    /// Per-user banked-savings cap, in the cell method's credits
    /// (0 = banking disabled).
    pub banking_cap: f64,
    /// Monte-Carlo replicate seed (drives the intensity realization).
    pub seed: u64,
}

impl ScenarioSpec {
    /// A spec with the paper's defaults for everything but policy and
    /// method; chain the `with_*` builders to deviate.
    pub fn new(policy: PolicySpec, method: MethodSpec) -> ScenarioSpec {
        ScenarioSpec {
            policy,
            method,
            fleet: vec![0, 1, 2, 3],
            sim_year: green_machines::SIM_YEAR,
            users: 250,
            backfill_depth: green_batchsim::cluster::DEFAULT_BACKFILL_DEPTH,
            workload_scale: 1.0,
            intensity_scale: 1.0,
            intensity_jitter: 0.0,
            elasticity: 0.0,
            price_schedule: PriceSpec::Flat,
            banking_cap: 0.0,
            seed: 0,
        }
    }

    /// Sets the fleet subset (Table 5 indices).
    pub fn with_fleet(mut self, fleet: Vec<usize>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Sets the simulation start year.
    pub fn with_sim_year(mut self, year: i32) -> Self {
        self.sim_year = year;
        self
    }

    /// Sets the user population.
    pub fn with_users(mut self, users: u32) -> Self {
        self.users = users;
        self
    }

    /// Sets the backfill depth.
    pub fn with_backfill_depth(mut self, depth: usize) -> Self {
        self.backfill_depth = depth;
        self
    }

    /// Sets the workload volume multiplier.
    pub fn with_workload_scale(mut self, scale: f64) -> Self {
        self.workload_scale = scale;
        self
    }

    /// Sets the intensity multiplier and jitter.
    pub fn with_intensity(mut self, scale: f64, jitter: f64) -> Self {
        self.intensity_scale = scale;
        self.intensity_jitter = jitter;
        self
    }

    /// Sets the market axes: population elasticity, posted-price
    /// schedule, and the banked-savings cap.
    pub fn with_market(mut self, elasticity: f64, schedule: PriceSpec, banking_cap: f64) -> Self {
        self.elasticity = elasticity;
        self.price_schedule = schedule;
        self.banking_cap = banking_cap;
        self
    }

    /// Sets the replicate seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when this cell needs market machinery somewhere (simulation
    /// inputs and/or posted-price settlement).
    pub fn market_active(&self) -> bool {
        self.policy == PolicySpec::Adaptive
            || !self.price_schedule.is_flat()
            || self.elasticity > 0.0
            || self.banking_cap > 0.0
    }

    /// True when the market must be wired into the *simulation* itself
    /// (posted quotes and agent shifting). Deliberately narrower than
    /// [`market_active`](ScenarioSpec::market_active): settlement-only
    /// knobs like the banking cap must not perturb placements or
    /// timings — a `banking_caps` axis would otherwise be confounded by
    /// quote re-anchoring.
    pub fn market_drives_decisions(&self) -> bool {
        self.policy == PolicySpec::Adaptive || !self.price_schedule.is_flat()
    }

    /// The label columns identifying this cell (seed excluded — the
    /// replicate axis is aggregated over).
    pub fn config_label(&self) -> Vec<String> {
        vec![
            self.policy.label(),
            self.method.label().to_string(),
            self.fleet
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            self.sim_year.to_string(),
            self.users.to_string(),
            self.backfill_depth.to_string(),
            format!("{:.3}", self.workload_scale),
            format!("{:.3}", self.intensity_scale),
            format!("{:.2}", self.elasticity),
            self.price_schedule.label(),
            format!("{:.1}", self.banking_cap),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tokens_roundtrip() {
        for (token, spec) in [
            ("greedy", PolicySpec::Greedy),
            ("Energy", PolicySpec::Energy),
            ("mixed", PolicySpec::Mixed),
            ("EFT", PolicySpec::Eft),
            ("runtime", PolicySpec::Runtime),
            ("fixed:2", PolicySpec::Fixed(2)),
            ("greedy-shift:24", PolicySpec::GreedyShift(24)),
        ] {
            assert_eq!(PolicySpec::parse(token).unwrap(), spec);
        }
        assert!(PolicySpec::parse("cheapest").is_err());
        assert!(PolicySpec::parse("fixed:x").is_err());
        assert!(PolicySpec::parse("greedy-shift:0").is_err());
    }

    #[test]
    fn shift_budget_is_at_most_one_year() {
        assert_eq!(
            PolicySpec::parse("greedy-shift:8760").unwrap(),
            PolicySpec::GreedyShift(8_760)
        );
        for token in ["greedy-shift:8761", "greedy-shift:4294967295"] {
            let err = PolicySpec::parse(token).unwrap_err();
            assert!(err.0.contains("8760"), "{token}: {err}");
        }
    }

    #[test]
    fn method_tokens_and_cost_indices() {
        assert_eq!(MethodSpec::parse("EBA").unwrap(), MethodSpec::Eba);
        assert_eq!(MethodSpec::Eba.cost_index(), cost::EBA);
        assert_eq!(MethodSpec::Cba.cost_index(), cost::CBA);
        assert!(MethodSpec::parse("joules").is_err());
    }

    #[test]
    fn fleet_tokens() {
        assert_eq!(fleet_index("faster").unwrap(), 0);
        assert_eq!(fleet_index("Desktop").unwrap(), 1);
        assert_eq!(fleet_index("IC").unwrap(), 2);
        assert_eq!(fleet_index("theta").unwrap(), 3);
        assert_eq!(fleet_index("2").unwrap(), 2);
        assert!(fleet_index("5").is_err());
        assert!(fleet_index("frontier").is_err());
    }

    #[test]
    fn adaptive_and_market_axes() {
        assert_eq!(PolicySpec::parse("Adaptive").unwrap(), PolicySpec::Adaptive);
        assert_eq!(PolicySpec::Adaptive.label(), "adaptive");
        let spec = ScenarioSpec::new(PolicySpec::Greedy, MethodSpec::Cba);
        assert!(!spec.market_active(), "defaults are market-free");
        let spec = spec.with_market(1.5, PriceSpec::parse("carbon:0.5").unwrap(), 50.0);
        assert!(spec.market_active());
        let label = spec.config_label();
        assert_eq!(&label[8..], ["1.50", "carbon:0.500", "50.0"]);
        // The adaptive policy alone activates the market too.
        assert!(ScenarioSpec::new(PolicySpec::Adaptive, MethodSpec::Cba).market_active());
    }

    #[test]
    fn builder_defaults_match_paper() {
        let spec = ScenarioSpec::new(PolicySpec::Greedy, MethodSpec::Eba);
        assert_eq!(spec.fleet, vec![0, 1, 2, 3]);
        assert_eq!(spec.sim_year, 2023);
        assert_eq!(spec.users, 250);
        assert_eq!(spec.workload_scale, 1.0);
        let spec = spec.with_users(24).with_intensity(1.5, 0.1).with_seed(7);
        assert_eq!(spec.users, 24);
        assert_eq!(spec.intensity_scale, 1.5);
        assert_eq!(spec.seed, 7);
    }
}
