//! The sweep grammar: Cartesian parameter grids × Monte-Carlo replicates.

use crate::spec::{fleet_index, MethodSpec, PolicySpec, ScenarioSpec, SpecError};
use crate::toml::{self, Value};
use green_market::PriceSpec;
use green_units::TimeSpan;
use green_workload::TraceConfig;

/// Workload presets mirroring `green_bench::SimScale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// ~100 jobs — sub-millisecond cells, the preset for survey-scale
    /// (10⁵–10⁶-cell) grids where the grid itself is the workload.
    Micro,
    /// ~3,000 jobs (after doubling) — CI-sized.
    Tiny,
    /// ~12,000 jobs — seconds per cell in release builds.
    Quick,
    /// The paper's 142,380-job workload.
    Paper,
}

impl WorkloadPreset {
    /// Parses a preset token (`micro`, `tiny`/`small`, `quick`,
    /// `paper`/`full`) — the grammar both sweep files and the
    /// `scenarios --preset` flag use.
    pub fn parse(token: &str) -> Result<Self, SpecError> {
        match token.trim().to_ascii_lowercase().as_str() {
            "micro" => Ok(WorkloadPreset::Micro),
            "tiny" | "small" => Ok(WorkloadPreset::Tiny),
            "quick" => Ok(WorkloadPreset::Quick),
            "paper" | "full" => Ok(WorkloadPreset::Paper),
            _ => Err(SpecError(format!(
                "unknown workload preset `{token}` (expected micro|tiny|quick|paper)"
            ))),
        }
    }
}

/// The shared workload every cell replays.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Scale preset.
    pub preset: WorkloadPreset,
    /// Base trace seed (shared by every cell; the Monte-Carlo axis is the
    /// per-cell intensity realization, not the workload).
    pub seed: u64,
    /// Whether to apply the paper's each-execution-repeats doubling.
    pub doubled: bool,
}

impl WorkloadConfig {
    /// The trace configuration this workload resolves to.
    pub fn trace_config(&self) -> TraceConfig {
        match self.preset {
            WorkloadPreset::Micro => TraceConfig {
                users: 8,
                unique_jobs: 60,
                duration: TimeSpan::from_days(2.0),
                max_runtime: TimeSpan::from_hours(8.0),
                seed: self.seed,
            },
            WorkloadPreset::Tiny => TraceConfig::small(self.seed),
            WorkloadPreset::Quick => TraceConfig {
                users: 60,
                unique_jobs: 6_000,
                duration: TimeSpan::from_days(14.0),
                max_runtime: TimeSpan::from_hours(48.0),
                seed: self.seed,
            },
            WorkloadPreset::Paper => TraceConfig::paper_scale(self.seed),
        }
    }

    /// The largest workload scale whose jobs `Trace::scaled` can number.
    /// Copy `c` of the base trace's `n` jobs takes ids from `c·n`, so a
    /// scaled trace of `t` jobs has ids below `t + n`, which must fit a
    /// `u32`.
    fn max_scale(&self) -> f64 {
        let copies = if self.doubled { 2.0 } else { 1.0 };
        let n = f64::from(self.trace_config().unique_jobs) * copies;
        (u32::MAX as f64 + 1.0 - n) / n
    }

    /// Default user population for the preset (used when the grid does not
    /// sweep `users`).
    pub fn default_users(&self) -> u32 {
        match self.preset {
            WorkloadPreset::Micro => 8,
            WorkloadPreset::Tiny => 24,
            WorkloadPreset::Quick => 60,
            WorkloadPreset::Paper => 250,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            preset: WorkloadPreset::Tiny,
            seed: 31,
            doubled: false,
        }
    }
}

/// The largest `intensity_jitter` a sweep accepts. The log-normal
/// factor is bounded for every sigma (see [`max_intensity_scale`]), but
/// past ~2e307 its exponent `σ·z − σ²/2` becomes `inf − inf`; at a
/// sigma of 10 the `σ·z` term alone already moves an hour by up to e^85.
const MAX_INTENSITY_JITTER: f64 = 10.0;

/// Hours in one realized intensity trace: a year per machine.
const TRACE_HOURS: f64 = 8_760.0;

/// The largest intensity scale a sweep accepts at jitter `sigma`.
///
/// A realized hour is `base × scale × factor`. The factor
/// `exp(σ·z − σ²/2)` draws `z` by Box–Muller from `u1 ≥ f64::EPSILON`,
/// so `z ≤ √(−2 ln ε)` and the factor is at most `exp(σ·z_max − σ²/2)`
/// (never more than 2^52). A non-negative trace's hours sum to its mean
/// × 8,760, and the largest region mean in the fleet is 502 g/kWh. The
/// bound keeps that total, times the scale and the largest factor,
/// within half of `f64::MAX`, so every hour and the trace's prefix sums
/// stay finite.
fn max_intensity_scale(sigma: f64) -> f64 {
    let z_max = (-2.0 * f64::EPSILON.ln()).sqrt();
    let factor = (sigma * z_max - sigma * sigma / 2.0).exp();
    let mean = green_machines::simulation_fleet()
        .iter()
        .map(|m| m.spec.facility.region.target_mean())
        .fold(0.0, f64::max);
    f64::MAX / 2.0 / (mean * TRACE_HOURS * factor)
}

/// One expanded cell: a grid configuration plus one replicate seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in expansion order (stable across runs and thread
    /// counts).
    pub index: usize,
    /// Which grid configuration this cell replicates (`index /
    /// seeds.len()`).
    pub config: usize,
    /// The fully-resolved parameters.
    pub spec: ScenarioSpec,
}

/// A declarative sweep: every axis is a list, cells are the Cartesian
/// product, and each cell is replicated once per Monte-Carlo seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Sweep name (report/file labelling only).
    pub name: String,
    /// The shared workload.
    pub workload: WorkloadConfig,
    /// Policy axis.
    pub policies: Vec<PolicySpec>,
    /// Accounting-method axis.
    pub methods: Vec<MethodSpec>,
    /// Fleet-subset axis (each entry is a set of Table 5 indices).
    pub fleets: Vec<Vec<usize>>,
    /// Simulation-year axis.
    pub sim_years: Vec<i32>,
    /// User-population axis.
    pub users: Vec<u32>,
    /// Backfill-depth axis.
    pub backfill_depths: Vec<usize>,
    /// Workload-volume axis.
    pub workload_scales: Vec<f64>,
    /// Intensity-multiplier axis.
    pub intensity_scales: Vec<f64>,
    /// Per-hour intensity jitter sigma (applies to every cell).
    pub intensity_jitter: f64,
    /// Population-elasticity axis (market incentive loop).
    pub elasticities: Vec<f64>,
    /// Posted-price-schedule axis.
    pub price_schedules: Vec<PriceSpec>,
    /// Banked-savings-cap axis.
    pub banking_caps: Vec<f64>,
    /// Monte-Carlo replicate seeds.
    pub seeds: Vec<u64>,
    /// True when the sweep file pinned `grid.users` explicitly — a
    /// pinned axis survives [`override_preset`](Sweep::override_preset)
    /// even when its value happens to equal the preset default.
    pub users_pinned: bool,
}

impl Sweep {
    /// A single-cell sweep (Greedy × EBA), every axis a singleton — the
    /// starting point for builder-style construction.
    pub fn new(name: impl Into<String>) -> Sweep {
        let workload = WorkloadConfig::default();
        let users = workload.default_users();
        Sweep {
            name: name.into(),
            workload,
            policies: vec![PolicySpec::Greedy],
            methods: vec![MethodSpec::Eba],
            fleets: vec![vec![0, 1, 2, 3]],
            sim_years: vec![green_machines::SIM_YEAR],
            users: vec![users],
            backfill_depths: vec![green_batchsim::cluster::DEFAULT_BACKFILL_DEPTH],
            workload_scales: vec![1.0],
            intensity_scales: vec![1.0],
            intensity_jitter: 0.0,
            elasticities: vec![0.0],
            price_schedules: vec![PriceSpec::Flat],
            banking_caps: vec![0.0],
            seeds: vec![1],
            users_pinned: false,
        }
    }

    /// Re-targets the sweep at another workload preset — the
    /// `scenarios --preset` override, so any sweep file can be rerun at
    /// paper scale (or shrunk to `tiny` for a smoke pass) without
    /// editing it. The default user population follows the new preset;
    /// an explicit `grid.users` axis is preserved, even when its value
    /// happens to equal the old preset's default.
    pub fn override_preset(&mut self, preset: WorkloadPreset) {
        self.workload.preset = preset;
        if !self.users_pinned {
            self.users = vec![self.workload.default_users()];
        }
    }

    /// Number of grid configurations (cells before replication).
    pub fn config_count(&self) -> usize {
        self.policies.len()
            * self.methods.len()
            * self.fleets.len()
            * self.sim_years.len()
            * self.users.len()
            * self.backfill_depths.len()
            * self.workload_scales.len()
            * self.intensity_scales.len()
            * self.elasticities.len()
            * self.price_schedules.len()
            * self.banking_caps.len()
    }

    /// Total cell count: configurations × replicate seeds.
    pub fn cell_count(&self) -> usize {
        self.config_count() * self.seeds.len()
    }

    /// Validates axis contents (non-empty, sane ranges).
    pub fn validate(&self) -> Result<(), SpecError> {
        let axes: [(&str, usize); 12] = [
            ("policies", self.policies.len()),
            ("methods", self.methods.len()),
            ("fleets", self.fleets.len()),
            ("sim_years", self.sim_years.len()),
            ("users", self.users.len()),
            ("backfill_depths", self.backfill_depths.len()),
            ("workload_scales", self.workload_scales.len()),
            ("intensity_scales", self.intensity_scales.len()),
            ("elasticities", self.elasticities.len()),
            ("price_schedules", self.price_schedules.len()),
            ("banking_caps", self.banking_caps.len()),
            ("seeds", self.seeds.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(SpecError(format!("axis `{name}` is empty")));
            }
        }
        for fleet in &self.fleets {
            if fleet.is_empty() {
                return Err(SpecError("a fleet subset is empty".into()));
            }
            if fleet.iter().any(|i| *i >= 4) {
                return Err(SpecError("fleet subset index out of range".into()));
            }
            for policy in &self.policies {
                if let PolicySpec::Fixed(i) = policy {
                    if *i >= fleet.len() {
                        return Err(SpecError(format!(
                            "fixed policy index {i} exceeds fleet subset of {} machines",
                            fleet.len()
                        )));
                    }
                }
            }
        }
        let max = self.workload.max_scale();
        if let Some(s) = self
            .workload_scales
            .iter()
            .find(|s| !(**s > 0.0 && **s <= max))
        {
            return Err(SpecError(format!(
                "workload scales must be positive and at most {max:.3e}, past which scaled \
                 job ids overflow u32; got {s:?}"
            )));
        }
        let sigma = self.intensity_jitter;
        if !(0.0..=MAX_INTENSITY_JITTER).contains(&sigma) {
            return Err(SpecError(format!(
                "intensity jitter must be in [0, {MAX_INTENSITY_JITTER}]; got {sigma:?}"
            )));
        }
        let max = max_intensity_scale(sigma);
        if let Some(s) = self
            .intensity_scales
            .iter()
            .find(|s| !(**s > 0.0 && **s <= max))
        {
            return Err(SpecError(format!(
                "intensity scales must be positive and at most {max:.3e} at jitter {sigma:?}, \
                 past which a realized trace is not finite; got {s:?}"
            )));
        }
        if self.elasticities.iter().any(|e| *e < 0.0 || !e.is_finite()) {
            return Err(SpecError(
                "elasticities must be finite and non-negative".into(),
            ));
        }
        if self.banking_caps.iter().any(|c| *c < 0.0 || !c.is_finite()) {
            return Err(SpecError(
                "banking caps must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Expands the grid into cells, replicate seeds innermost. Expansion
    /// order is the determinism anchor: runners may execute cells in any
    /// order but must report them in this one.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        let replicates = self.seeds.len();
        for policy in &self.policies {
            for method in &self.methods {
                for fleet in &self.fleets {
                    for &sim_year in &self.sim_years {
                        for &users in &self.users {
                            for &backfill in &self.backfill_depths {
                                for &wscale in &self.workload_scales {
                                    for &iscale in &self.intensity_scales {
                                        for &elasticity in &self.elasticities {
                                            for &schedule in &self.price_schedules {
                                                for &cap in &self.banking_caps {
                                                    for &seed in &self.seeds {
                                                        let index = cells.len();
                                                        cells.push(Cell {
                                                            index,
                                                            config: index / replicates,
                                                            spec: ScenarioSpec::new(
                                                                *policy, *method,
                                                            )
                                                            .with_fleet(fleet.clone())
                                                            .with_sim_year(sim_year)
                                                            .with_users(users)
                                                            .with_backfill_depth(backfill)
                                                            .with_workload_scale(wscale)
                                                            .with_intensity(
                                                                iscale,
                                                                self.intensity_jitter,
                                                            )
                                                            .with_market(elasticity, schedule, cap)
                                                            .with_seed(seed),
                                                        });
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The cell at `index` of the expansion order, decoded directly from
    /// the mixed-radix digit string of the axes — O(1), no grid
    /// materialization. Bit-identical to `expand()[index]`, which
    /// `tests/sweep_properties.rs` pins over random grids: this is what
    /// lets a shard worker of a million-cell sweep build only its own
    /// cell range.
    ///
    /// # Panics
    ///
    /// Panics when `index >= cell_count()`.
    pub fn cell_at(&self, index: usize) -> Cell {
        assert!(
            index < self.cell_count(),
            "cell index {index} out of range (grid has {} cells)",
            self.cell_count()
        );
        // Decode innermost axis first — the mirror image of `expand`'s
        // loop nesting (seeds innermost, policies outermost).
        let mut i = index;
        let mut digit = |len: usize| -> usize {
            let d = i % len;
            i /= len;
            d
        };
        let seed = self.seeds[digit(self.seeds.len())];
        let cap = self.banking_caps[digit(self.banking_caps.len())];
        let schedule = self.price_schedules[digit(self.price_schedules.len())];
        let elasticity = self.elasticities[digit(self.elasticities.len())];
        let iscale = self.intensity_scales[digit(self.intensity_scales.len())];
        let wscale = self.workload_scales[digit(self.workload_scales.len())];
        let backfill = self.backfill_depths[digit(self.backfill_depths.len())];
        let users = self.users[digit(self.users.len())];
        let sim_year = self.sim_years[digit(self.sim_years.len())];
        let fleet = &self.fleets[digit(self.fleets.len())];
        let method = self.methods[digit(self.methods.len())];
        let policy = self.policies[digit(self.policies.len())];
        debug_assert_eq!(i, 0, "index fully consumed");
        Cell {
            index,
            config: index / self.seeds.len(),
            spec: ScenarioSpec::new(policy, method)
                .with_fleet(fleet.clone())
                .with_sim_year(sim_year)
                .with_users(users)
                .with_backfill_depth(backfill)
                .with_workload_scale(wscale)
                .with_intensity(iscale, self.intensity_jitter)
                .with_market(elasticity, schedule, cap)
                .with_seed(seed),
        }
    }

    /// Expands only the cells in `range` (expansion-order indices,
    /// half-open) — the shard worker's entry point. Memory and time are
    /// O(range length) regardless of the grid's total size.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past `cell_count()`.
    pub fn expand_range(&self, range: core::ops::Range<usize>) -> Vec<Cell> {
        range.map(|i| self.cell_at(i)).collect()
    }

    /// Parses a sweep from TOML text. See the repository README and
    /// `examples/sweeps/` for the format.
    ///
    /// Unknown sections and keys are rejected rather than ignored — a
    /// typo'd axis name must not silently drop the axis from an
    /// hours-long run.
    pub fn from_toml_str(input: &str) -> Result<Sweep, SpecError> {
        let doc = toml::parse(input).map_err(|e| SpecError(e.to_string()))?;
        reject_unknown(&doc)?;
        let root = &doc[""];
        let mut sweep = Sweep::new(
            root.get("name")
                .and_then(Value::as_str)
                .unwrap_or("unnamed-sweep"),
        );

        if let Some(workload) = doc.get("workload") {
            if let Some(v) = workload.get("preset") {
                let token = v
                    .as_str()
                    .ok_or_else(|| SpecError("workload.preset must be a string".into()))?;
                sweep.workload.preset = WorkloadPreset::parse(token)?;
            }
            if let Some(v) = workload.get("seed") {
                sweep.workload.seed = to_u64(int_value(v, "workload.seed")?, "workload.seed")?;
            }
            if let Some(v) = workload.get("doubled") {
                sweep.workload.doubled = v
                    .as_bool()
                    .ok_or_else(|| SpecError("workload.doubled must be a boolean".into()))?;
            }
            // Re-derive the preset-dependent default population unless the
            // grid overrides it below.
            sweep.users = vec![sweep.workload.default_users()];
        }

        let Some(grid) = doc.get("grid") else {
            sweep.validate()?;
            return Ok(sweep);
        };

        if let Some(v) = grid.get("policies") {
            sweep.policies = str_items(v, "grid.policies")?
                .iter()
                .map(|s| PolicySpec::parse(s))
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("methods") {
            sweep.methods = str_items(v, "grid.methods")?
                .iter()
                .map(|s| MethodSpec::parse(s))
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("fleets") {
            sweep.fleets = parse_fleets(v)?;
        }
        if let Some(v) = grid.get("sim_years") {
            sweep.sim_years = int_items(v, "grid.sim_years")?
                .into_iter()
                .map(|i| {
                    i32::try_from(i)
                        .map_err(|_| SpecError(format!("grid.sim_years: {i} out of range")))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("users") {
            sweep.users_pinned = true;
            sweep.users = int_items(v, "grid.users")?
                .into_iter()
                .map(|i| {
                    u32::try_from(i)
                        .ok()
                        .filter(|u| *u > 0)
                        .ok_or_else(|| SpecError(format!("grid.users: {i} must be a positive u32")))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("backfill_depths") {
            sweep.backfill_depths = int_items(v, "grid.backfill_depths")?
                .into_iter()
                .map(|i| {
                    usize::try_from(i).map_err(|_| {
                        SpecError(format!("grid.backfill_depths: {i} must be non-negative"))
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("workload_scales") {
            sweep.workload_scales = float_items(v, "grid.workload_scales")?;
        }
        if let Some(v) = grid.get("intensity_scales") {
            sweep.intensity_scales = float_items(v, "grid.intensity_scales")?;
        }
        if let Some(v) = grid.get("intensity_jitter") {
            sweep.intensity_jitter = v
                .as_float()
                .ok_or_else(|| SpecError("grid.intensity_jitter must be a number".into()))?;
        }
        if let Some(v) = grid.get("elasticities") {
            sweep.elasticities = float_items(v, "grid.elasticities")?;
        }
        if let Some(v) = grid.get("price_schedules") {
            sweep.price_schedules = str_items(v, "grid.price_schedules")?
                .iter()
                .map(|s| PriceSpec::parse(s).map_err(SpecError))
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = grid.get("banking_caps") {
            sweep.banking_caps = float_items(v, "grid.banking_caps")?;
        }
        if let Some(v) = grid.get("seeds") {
            sweep.seeds = int_items(v, "grid.seeds")?
                .into_iter()
                .map(|i| to_u64(i, "grid.seeds"))
                .collect::<Result<_, _>>()?;
        }
        sweep.validate()?;
        Ok(sweep)
    }
}

fn int_value(v: &Value, what: &str) -> Result<i64, SpecError> {
    v.as_int()
        .ok_or_else(|| SpecError(format!("{what} must be an integer")))
}

fn to_u64(i: i64, what: &str) -> Result<u64, SpecError> {
    u64::try_from(i).map_err(|_| SpecError(format!("{what}: {i} must be non-negative")))
}

/// The sections and keys `from_toml_str` understands.
const KNOWN: [(&str, &[&str]); 3] = [
    ("", &["name"]),
    ("workload", &["preset", "seed", "doubled"]),
    (
        "grid",
        &[
            "policies",
            "methods",
            "fleets",
            "sim_years",
            "users",
            "backfill_depths",
            "workload_scales",
            "intensity_scales",
            "intensity_jitter",
            "elasticities",
            "price_schedules",
            "banking_caps",
            "seeds",
        ],
    ),
];

fn reject_unknown(doc: &crate::toml::Document) -> Result<(), SpecError> {
    for (section, table) in doc {
        let Some((_, keys)) = KNOWN.iter().find(|(name, _)| name == section) else {
            return Err(SpecError(format!(
                "unknown section `[{section}]` (expected [workload] or [grid])"
            )));
        };
        for key in table.keys() {
            if !keys.contains(&key.as_str()) {
                let at = if section.is_empty() {
                    key.clone()
                } else {
                    format!("{section}.{key}")
                };
                return Err(SpecError(format!(
                    "unknown key `{at}` (valid keys here: {})",
                    keys.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn str_items(v: &Value, what: &str) -> Result<Vec<String>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| SpecError(format!("{what} must be an array")))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| SpecError(format!("{what} must contain strings")))
        })
        .collect()
}

fn int_items(v: &Value, what: &str) -> Result<Vec<i64>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| SpecError(format!("{what} must be an array")))?;
    items
        .iter()
        .map(|item| {
            item.as_int()
                .ok_or_else(|| SpecError(format!("{what} must contain integers")))
        })
        .collect()
}

fn float_items(v: &Value, what: &str) -> Result<Vec<f64>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| SpecError(format!("{what} must be an array")))?;
    items
        .iter()
        .map(|item| {
            item.as_float()
                .ok_or_else(|| SpecError(format!("{what} must contain numbers")))
        })
        .collect()
}

/// `fleets` entries are `"all"` or arrays of machine tokens.
fn parse_fleets(v: &Value) -> Result<Vec<Vec<usize>>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| SpecError("grid.fleets must be an array".into()))?;
    items
        .iter()
        .map(|item| match item {
            Value::Str(s) if s.eq_ignore_ascii_case("all") => Ok(vec![0, 1, 2, 3]),
            Value::Array(tokens) => tokens
                .iter()
                .map(|t| match t {
                    Value::Str(s) => fleet_index(s),
                    Value::Int(i) if (0..4).contains(i) => Ok(*i as usize),
                    _ => Err(SpecError("bad fleet machine token".into())),
                })
                .collect(),
            _ => Err(SpecError(
                "grid.fleets entries must be \"all\" or arrays of machines".into(),
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
name = "sensitivity"

[workload]
preset = "tiny"
seed = 31
doubled = false

[grid]
policies = ["greedy", "energy", "eft"]
methods = ["eba", "cba"]
users = [24, 48]
seeds = [1, 2, 3]
"#;

    #[test]
    fn toml_roundtrip_and_counts() {
        let sweep = Sweep::from_toml_str(SPEC).unwrap();
        assert_eq!(sweep.name, "sensitivity");
        assert_eq!(sweep.config_count(), 3 * 2 * 2);
        assert_eq!(sweep.cell_count(), 3 * 2 * 2 * 3);
        let cells = sweep.expand();
        assert_eq!(cells.len(), 36);
        // Seeds are innermost; config index advances every |seeds| cells.
        assert_eq!(cells[0].spec.seed, 1);
        assert_eq!(cells[1].spec.seed, 2);
        assert_eq!(cells[2].spec.seed, 3);
        assert_eq!(cells[0].config, 0);
        assert_eq!(cells[3].config, 1);
        // Every cell is unique.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            for other in &cells[i + 1..] {
                assert_ne!(c.spec, other.spec);
            }
        }
    }

    #[test]
    fn fleets_parse_all_and_subsets() {
        let sweep = Sweep::from_toml_str(
            r#"
[grid]
fleets = ["all", ["faster", "ic"], [1, 3]]
"#,
        )
        .unwrap();
        assert_eq!(sweep.fleets, vec![vec![0, 1, 2, 3], vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut sweep = Sweep::new("bad");
        sweep.seeds.clear();
        assert!(sweep.validate().is_err());

        let mut sweep = Sweep::new("bad");
        sweep.policies = vec![PolicySpec::Fixed(2)];
        sweep.fleets = vec![vec![0, 1]];
        assert!(sweep.validate().is_err());

        assert!(Sweep::from_toml_str("[grid]\npolicies = [\"warp\"]").is_err());
        assert!(Sweep::from_toml_str("[workload]\npreset = \"huge\"").is_err());
    }

    #[test]
    fn non_finite_scales_and_jitter_are_rejected() {
        for (key, value, message) in [
            ("workload_scales", "[nan]", "workload scales"),
            ("workload_scales", "[inf]", "workload scales"),
            ("intensity_scales", "[nan]", "intensity scales"),
            ("intensity_scales", "[inf]", "intensity scales"),
            ("intensity_jitter", "nan", "intensity jitter"),
            ("intensity_jitter", "inf", "intensity jitter"),
            // Finite, but past what a job id or a realized trace holds.
            ("workload_scales", "[1e300]", "at most 2.863e6, past which"),
            (
                "intensity_scales",
                "[1e307]",
                "at most 2.044e301 at jitter 0.0",
            ),
            ("intensity_jitter", "1e308", "in [0, 10]; got 1e308"),
        ] {
            let toml = format!("[grid]\n{key} = {value}");
            let e = Sweep::from_toml_str(&toml).unwrap_err();
            assert!(e.0.contains(message), "{toml}: {e}");
        }
    }

    #[test]
    fn largest_accepted_intensity_corner_realizes_finite_traces() {
        let fleet = green_machines::simulation_fleet();
        for sigma in [0.0, MAX_INTENSITY_JITTER] {
            let scale = max_intensity_scale(sigma);
            let mut sweep = Sweep::new("corner");
            sweep.intensity_jitter = sigma;
            sweep.intensity_scales = vec![scale];
            assert!(sweep.validate().is_ok(), "sigma {sigma}: scale {scale}");
            sweep.intensity_scales = vec![scale * (1.0 + 1e-9)];
            assert!(sweep.validate().is_err(), "sigma {sigma}: past the bound");
            for seed in [1, 2, 3] {
                // Realized as `SweepCaches` realizes a cell's traces.
                for trace in green_batchsim::intensity_for(&fleet, seed) {
                    let realized = trace.perturbed(scale, sigma, seed);
                    assert!(realized.values().iter().all(|v| v.is_finite()));
                    assert!(realized.cumulative().iter().all(|v| v.is_finite()));
                }
            }
        }
    }

    #[test]
    fn workload_scales_stop_where_job_ids_overflow() {
        let mut sweep = Sweep::new("ids");
        sweep.workload.doubled = true;
        let base = 2 * u64::from(sweep.workload.trace_config().unique_jobs);
        let max = sweep.workload.max_scale();
        // The largest id a scaled trace can assign is below target + base.
        assert!((base as f64 * max).round() as u64 + base <= 1 << 32);
        sweep.workload_scales = vec![max];
        assert!(sweep.validate().is_ok());
        sweep.workload_scales = vec![max * (1.0 + 1e-9)];
        assert!(sweep.validate().is_err());
    }

    #[test]
    fn typos_and_bad_values_are_rejected_not_ignored() {
        // A singular/plural typo must not silently drop the axis.
        let e = Sweep::from_toml_str("[grid]\nintensity_scale = [1.0, 1.5]").unwrap_err();
        assert!(e.0.contains("unknown key `grid.intensity_scale`"), "{e}");
        let e = Sweep::from_toml_str("[grids]\npolicies = [\"greedy\"]").unwrap_err();
        assert!(e.0.contains("unknown section"), "{e}");
        let e = Sweep::from_toml_str("title = \"x\"").unwrap_err();
        assert!(e.0.contains("unknown key `title`"), "{e}");
        // Negative integers must error instead of wrapping.
        assert!(Sweep::from_toml_str("[grid]\nusers = [-5]").is_err());
        assert!(Sweep::from_toml_str("[grid]\nseeds = [-1]").is_err());
        assert!(Sweep::from_toml_str("[grid]\nbackfill_depths = [-2]").is_err());
    }

    #[test]
    fn market_axes_parse_and_expand() {
        let sweep = Sweep::from_toml_str(
            r#"
[grid]
policies = ["adaptive"]
methods = ["cba"]
elasticities = [0.0, 1.0]
price_schedules = ["flat", "carbon:0.5"]
banking_caps = [0.0, 25.0]
"#,
        )
        .unwrap();
        assert_eq!(sweep.config_count(), 8);
        let cells = sweep.expand();
        assert_eq!(cells[0].spec.elasticity, 0.0);
        assert_eq!(cells[0].spec.price_schedule, PriceSpec::Flat);
        let last = &cells.last().unwrap().spec;
        assert_eq!(last.elasticity, 1.0);
        assert_eq!(last.price_schedule.label(), "carbon:0.500");
        assert_eq!(last.banking_cap, 25.0);
        assert!(last.market_active());

        assert!(Sweep::from_toml_str("[grid]\nelasticities = [-1.0]").is_err());
        assert!(Sweep::from_toml_str("[grid]\nbanking_caps = [-5.0]").is_err());
        assert!(Sweep::from_toml_str("[grid]\nprice_schedules = [\"surge\"]").is_err());
    }

    #[test]
    fn defaults_give_single_cell() {
        let sweep = Sweep::from_toml_str("name = \"minimal\"").unwrap();
        assert_eq!(sweep.cell_count(), 1);
        assert_eq!(sweep.expand()[0].spec.users, 24);
    }

    #[test]
    fn preset_sets_default_population() {
        let sweep = Sweep::from_toml_str("[workload]\npreset = \"quick\"").unwrap();
        assert_eq!(sweep.users, vec![60]);
    }

    #[test]
    fn override_preset_follows_defaults_but_keeps_pinned_users() {
        // Default population follows the preset override.
        let mut sweep = Sweep::from_toml_str("[workload]\npreset = \"tiny\"").unwrap();
        assert_eq!(sweep.users, vec![24]);
        sweep.override_preset(WorkloadPreset::Paper);
        assert_eq!(sweep.workload.preset, WorkloadPreset::Paper);
        assert_eq!(sweep.users, vec![250]);

        // An explicitly pinned axis survives — even when its value
        // happens to equal the old preset's default.
        let mut sweep =
            Sweep::from_toml_str("[workload]\npreset = \"tiny\"\n[grid]\nusers = [24]").unwrap();
        sweep.override_preset(WorkloadPreset::Paper);
        assert_eq!(sweep.users, vec![24], "pinned users must not be replaced");

        let mut sweep = Sweep::from_toml_str("[grid]\nusers = [24, 96]").unwrap();
        sweep.override_preset(WorkloadPreset::Quick);
        assert_eq!(sweep.users, vec![24, 96]);
    }
}
