//! The parallel sweep runner.
//!
//! Expensive state is built **once** and `Arc`-shared across worker
//! threads and cells:
//!
//! * the base [`Trace`] (plus one scaled variant per distinct
//!   `workload_scale`),
//! * one projected [`PlacementTable`] + sub-fleet per distinct fleet
//!   subset ([`FleetSlice`]),
//! * one hourly-intensity realization per distinct
//!   `(fleet, seed, scale, jitter)` — cells that differ only in policy,
//!   method, elasticity, schedule or cap reuse the same realization,
//! * one compiled posted-price table per distinct
//!   `(realization, schedule)`, and one agent population per distinct
//!   `(users, elasticity)`.
//!
//! The run's own workers build them before the first cell, claiming
//! tasks by index: the world chain (predictor, traces, placement
//! tables) first, as it is the longest, and the caches beside it.
//!
//! Workers claim cell indices from an atomic counter and report results
//! keyed by index to one row sink, which commits each configuration's
//! aggregate row in expansion order — to a CSV writer or to memory. The
//! output is a pure function of the sweep spec: **thread count cannot
//! change a single byte** of it, which `tests/determinism.rs` asserts,
//! and both committers match a naive serial fold of the grid, which
//! `tests/streaming_golden.rs` asserts.

use std::collections::HashMap;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use green_batchsim::{
    intensity_for, run_cell_in_obs, MarketInputs, PlacementTable, PriceTable, RunMetrics, SimArena,
    SimConfig,
};
use green_carbon::HourlyTrace;
use green_chaos::{probe, torn_crash, Chaos, Failpoint, NoopChaos};
use green_machines::{simulation_fleet, FleetMachine};
use green_market::{market_population, price_table, PriceSpec, SettleBook};
use green_obs::{Counter, NoopRecorder, Phase, Recorder, SpanKind, Stopwatch};
use green_perfmodel::CrossMachinePredictor;
use green_pool::claim_each;
use green_workload::Trace;

use crate::agg::{CellSummary, SweepResults, CSV_HEADERS};
use crate::reorder::{ClaimWindow, ReorderBuffer};
use crate::shard::ShardAssignment;
use crate::spec::ScenarioSpec;
use crate::sweep::{Cell, Sweep};

/// Scalar metrics extracted from one simulation run (one cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Jobs completed.
    pub completed: usize,
    /// Jobs no machine could take.
    pub rejected: usize,
    /// Total energy, MWh.
    pub energy_mwh: f64,
    /// Operational carbon, kgCO2e.
    pub op_carbon_kg: f64,
    /// Attributed carbon, kgCO2e.
    pub attr_carbon_kg: f64,
    /// Total charge under the cell's accounting method.
    pub credits: f64,
    /// Mean queue wait, hours.
    pub mean_wait_h: f64,
    /// Makespan, hours.
    pub makespan_h: f64,
    /// Machine-neutral work, core-hours.
    pub work_core_h: f64,
    /// Busy core-time over fleet capacity × makespan.
    pub utilization: f64,
    /// Credits collected at posted market prices (0 when the cell has no
    /// market).
    pub posted_credits: f64,
    /// Credits banked from off-peak savings after cap and decay.
    pub banked_credits: f64,
    /// Simulator events processed (deterministic work counter; not
    /// aggregated into the CSV).
    pub events: usize,
    /// Scheduler release-list entries examined by backfill reservations
    /// (deterministic work counter; not aggregated into the CSV).
    pub release_work: u64,
}

impl CellMetrics {
    /// Extracts the scalar summary from a run. `capacity_cores` is the
    /// total core count of the simulated fleet subset (Desktop pool
    /// already multiplied by the user population).
    pub fn of(metrics: &RunMetrics, spec: &ScenarioSpec, capacity_cores: f64) -> CellMetrics {
        let busy_core_s: f64 = metrics
            .outcomes
            .iter()
            .map(|o| (o.end_s - o.start_s) * o.cores as f64)
            .sum();
        let makespan_h = metrics.makespan_hours();
        let utilization = if makespan_h > 0.0 && capacity_cores > 0.0 {
            busy_core_s / 3600.0 / (capacity_cores * makespan_h)
        } else {
            0.0
        };
        let totals = metrics.totals();
        CellMetrics {
            completed: metrics.outcomes.len(),
            rejected: metrics.rejected,
            energy_mwh: totals.energy_mwh(),
            op_carbon_kg: totals.operational_carbon_kg(),
            attr_carbon_kg: totals.attributed_carbon_kg(),
            credits: totals.charges[spec.method.cost_index()],
            mean_wait_h: metrics.mean_wait_hours(),
            makespan_h,
            work_core_h: totals.work_core_hours,
            utilization,
            posted_credits: 0.0,
            banked_credits: 0.0,
            events: metrics.events,
            release_work: metrics.release_work,
        }
    }
}

/// One fleet subset's shared simulation inputs: the Table 5 indices, the
/// materialized sub-fleet, and the projected placement table.
pub struct FleetSlice {
    /// Indices into the full Table 5 fleet.
    pub indices: Vec<usize>,
    /// The materialized sub-fleet, in subset order.
    pub machines: Vec<FleetMachine>,
    /// The placement table projected onto the subset.
    pub table: PlacementTable,
}

/// The shared artifacts of one simulated user population: its trace
/// variants (one per workload scale) and fleet slices (one per fleet
/// subset). The submitting population changes the trace itself — who
/// owns which application archetypes — so each distinct `users` value
/// gets its own world slice.
pub struct PopulationWorld {
    /// The user-population size this slice models.
    pub users: u32,
    /// Trace variants: `(workload_scale, trace)`, deduplicated and
    /// `Arc`-shared with every cell that replays them.
    pub traces: Vec<(f64, Arc<Trace>)>,
    /// The full-fleet placement table for this population's archetypes.
    pub table: PlacementTable,
    /// One shared slice per distinct fleet subset.
    pub fleets: Vec<Arc<FleetSlice>>,
}

/// Shared, immutable sweep state — built once, borrowed by every worker.
pub struct SweepWorld {
    /// The Table 5 fleet (full).
    pub fleet: Vec<FleetMachine>,
    /// One slice per distinct `users` axis value.
    pub populations: Vec<PopulationWorld>,
    /// Seed for the market agent population (the workload seed, so the
    /// same simulated people submit the jobs and react to prices).
    pub agent_seed: u64,
}

impl SweepWorld {
    /// Builds every shared artifact a sweep needs.
    pub fn build(sweep: &Sweep) -> SweepWorld {
        let fleet = simulation_fleet();
        let populations = build_populations(sweep, &fleet);
        SweepWorld {
            fleet,
            populations,
            agent_seed: sweep.workload.seed,
        }
    }

    fn population_for(&self, users: u32) -> &PopulationWorld {
        self.populations
            .iter()
            .find(|p| p.users == users)
            .expect("population prepared at build time")
    }

    /// Runs one cell against the shared state and caches, borrowing all
    /// simulation and settlement buffers from `scratch` — sweep workers
    /// hold one scratch each, so steady-state cell execution (market
    /// cells included) allocates (almost) nothing.
    pub fn run_cell_in(
        &self,
        spec: &ScenarioSpec,
        caches: &SweepCaches,
        scratch: &mut CellScratch,
    ) -> CellMetrics {
        self.run_cell_in_obs(spec, caches, scratch, &NoopRecorder)
    }

    /// [`run_cell_in`](SweepWorld::run_cell_in) with an observability
    /// recorder. Beyond the simulator's own phases/counters this books
    /// market settlement wall time to the `settle` phase, the
    /// settlement counters (`jobs_settled`, `ledger_txns`), and the
    /// cell's shared-cache hit count (each lookup served by
    /// [`SweepCaches`] instead of rebuilt).
    /// Results are bit-identical regardless of the recorder.
    pub fn run_cell_in_obs<R: Recorder>(
        &self,
        spec: &ScenarioSpec,
        caches: &SweepCaches,
        scratch: &mut CellScratch,
        obs: &R,
    ) -> CellMetrics {
        let population = self.population_for(spec.users);
        let trace = &population
            .traces
            .iter()
            .find(|(s, _)| *s == spec.workload_scale)
            .expect("scale prepared at build time")
            .1;
        let slice = population
            .fleets
            .iter()
            .find(|f| f.indices.as_slice() == spec.fleet.as_slice())
            .expect("fleet subset prepared at build time");
        // The replicate's intensity realization and (when the cell is a
        // market cell) its compiled posted prices: shared artifacts,
        // never re-derived per cell.
        let intensity = caches.realization(spec);
        let prices = spec.market_active().then(|| caches.prices(spec));
        let config = SimConfig {
            policy: spec.policy.to_policy(),
            decision_method: spec.method.to_method(),
            sim_year: spec.sim_year,
            users: spec.users,
            backfill_depth: spec.backfill_depth,
            // Only when the market actually drives decisions —
            // settlement-only cells must simulate identically to their
            // no-market counterparts.
            market: spec.market_drives_decisions().then(|| MarketInputs {
                prices: Arc::clone(prices.as_ref().expect("prices exist when market is active")),
                agents: caches.agents(spec),
                max_delay_hours: MAX_DELAY_HOURS,
                shift_threshold: SHIFT_THRESHOLD,
            }),
        };
        let metrics = run_cell_in_obs(
            trace,
            &slice.machines,
            &slice.table,
            &intensity,
            config,
            &mut scratch.arena,
            obs,
        );
        let capacity: f64 = slice
            .machines
            .iter()
            .map(|m| {
                if m.per_user {
                    m.spec.cores as f64 * spec.users as f64
                } else {
                    m.spec.cores as f64 * m.nodes as f64
                }
            })
            .sum();
        let mut cell = CellMetrics::of(&metrics, spec, capacity);
        if let Some(prices) = &prices {
            // Settle the run on the worker's dense book: the store
            // replay's operation stream and result bits, with banking of
            // off-peak savings, and no ledger built per cell.
            let settle_watch = Stopwatch::<R>::start();
            let run = scratch.book.settle(
                &metrics.outcomes,
                spec.method.cost_index(),
                prices,
                BUDGET_FACTOR,
                spec.banking_cap,
                BANK_DECAY,
            );
            cell.posted_credits = run.posted_spent;
            cell.banked_credits = run.banked;
            if R::ENABLED {
                obs.phase_ns(Phase::Settle, settle_watch.elapsed_ns());
                obs.add(Counter::JobsSettled, metrics.outcomes.len() as u64);
                obs.add(Counter::LedgerTxns, scratch.book.transaction_count() as u64);
            }
        }
        if R::ENABLED {
            obs.add(Counter::CellsRun, 1);
            // Lookups this cell served from the shared caches instead of
            // rebuilding: its intensity realization, plus the compiled
            // price table and agent population on market cells.
            let hits = 1 + spec.market_active() as u64 + spec.market_drives_decisions() as u64;
            obs.add(Counter::CacheHits, hits);
        }
        // Hand the outcome storage back so the next cell reuses it.
        scratch.arena.recycle(metrics);
        cell
    }
}

/// The world chain of a sweep: the cross-machine predictor, then each
/// distinct `users` population's trace variants, placement table and
/// fleet slices.
fn build_populations(sweep: &Sweep, fleet: &[FleetMachine]) -> Vec<PopulationWorld> {
    let predictor = CrossMachinePredictor::for_fleet(fleet, sweep.workload.seed);

    let mut populations: Vec<PopulationWorld> = Vec::new();
    for &users in &sweep.users {
        if populations.iter().any(|p| p.users == users) {
            continue;
        }
        // The users axis varies the *submitting population*: same
        // total demand (unique_jobs fixed by the preset), spread over
        // `users` people — which also resizes the per-user Desktop
        // pool through SimConfig.users below.
        let mut config = sweep.workload.trace_config();
        config.users = users;
        let base = Trace::generate(&config, &predictor);
        let base = if sweep.workload.doubled {
            base.doubled()
        } else {
            base
        };
        let table = PlacementTable::build(&base, fleet, &predictor);
        let base = Arc::new(base);

        let mut traces: Vec<(f64, Arc<Trace>)> = Vec::new();
        for &scale in &sweep.workload_scales {
            if traces.iter().any(|(s, _)| *s == scale) {
                continue;
            }
            let trace = if scale == 1.0 {
                Arc::clone(&base)
            } else {
                Arc::new(base.scaled(scale, sweep.workload.seed))
            };
            traces.push((scale, trace));
        }

        let mut fleets: Vec<Arc<FleetSlice>> = Vec::new();
        for subset in &sweep.fleets {
            if fleets.iter().any(|f| &f.indices == subset) {
                continue;
            }
            fleets.push(Arc::new(FleetSlice {
                indices: subset.clone(),
                machines: subset.iter().map(|&i| fleet[i].clone()).collect(),
                table: table.project(subset),
            }));
        }

        populations.push(PopulationWorld {
            users,
            traces,
            table,
            fleets,
        });
    }
    populations
}

/// Per-worker reusable cell-execution state: the simulator arena plus
/// the dense settlement book market cells settle on. One lives on each
/// sweep worker's stack for the worker's lifetime, so after its first
/// cell a worker's steady state allocates nothing for settlement, and
/// (almost) nothing for simulation.
pub struct CellScratch {
    /// The simulator's growable buffers.
    pub arena: SimArena,
    /// Market settlement's per-user columns and completion order.
    book: SettleBook,
}

impl CellScratch {
    /// An empty scratch; buffers grow to the first cell's sizes and stay.
    pub fn new() -> CellScratch {
        CellScratch {
            arena: SimArena::new(),
            book: SettleBook::new(),
        }
    }
}

impl Default for CellScratch {
    fn default() -> Self {
        CellScratch::new()
    }
}

/// Key of one hourly-intensity realization: the fleet subset plus the
/// replicate seed and perturbation knobs (floats keyed by their bits —
/// axis values compare exactly, never arithmetically).
type RealizationKey = (Vec<usize>, u64, u64, u64);

/// One hourly-intensity trace per machine of a fleet subset.
type Realization = Arc<Vec<HourlyTrace>>;

fn realization_key(spec: &ScenarioSpec) -> RealizationKey {
    (
        spec.fleet.clone(),
        spec.seed,
        spec.intensity_scale.to_bits(),
        spec.intensity_jitter.to_bits(),
    )
}

/// Derived per-cell artifacts, deduplicated across the whole grid and
/// `Arc`-shared with every cell that needs them. Built in a parallel
/// prepass over the distinct keys the expanded cells reach, so workers
/// only ever read.
pub struct SweepCaches {
    realizations: HashMap<RealizationKey, Realization>,
    prices: HashMap<(RealizationKey, PriceSpec), Arc<PriceTable>>,
    agents: HashMap<(u32, u64), Arc<Vec<green_batchsim::MarketAgent>>>,
}

impl SweepCaches {
    /// Builds the realization / price-table / agent caches for `cells`
    /// on `threads` workers that claim tasks by index: each distinct
    /// realization with the price tables compiled from it, then each
    /// agent population. [`SweepRunner`] runs the same tasks beside the
    /// world build instead; the caches read only `world`'s fleet and
    /// agent seed.
    pub fn build(world: &SweepWorld, cells: &[Cell], threads: usize) -> SweepCaches {
        let tasks = CacheTasks::plan(&world.fleet, world.agent_seed, cells);
        claim_each(threads, tasks.len(), |(), task| tasks.run(task));
        tasks.finish()
    }

    /// The shared intensity realization of a cell.
    pub fn realization(&self, spec: &ScenarioSpec) -> Arc<Vec<HourlyTrace>> {
        Arc::clone(
            self.realizations
                .get(&realization_key(spec))
                .expect("realization prepared in the cache prepass"),
        )
    }

    /// The shared compiled price table of a market cell.
    pub fn prices(&self, spec: &ScenarioSpec) -> Arc<PriceTable> {
        Arc::clone(
            self.prices
                .get(&(realization_key(spec), spec.price_schedule))
                .expect("price table prepared in the cache prepass"),
        )
    }

    /// The shared agent population of a market cell.
    pub fn agents(&self, spec: &ScenarioSpec) -> Arc<Vec<green_batchsim::MarketAgent>> {
        Arc::clone(
            self.agents
                .get(&(spec.users, spec.elasticity.to_bits()))
                .expect("agent population prepared in the cache prepass"),
        )
    }

    /// Number of distinct intensity realizations built.
    pub fn realization_count(&self) -> usize {
        self.realizations.len()
    }

    /// Number of distinct compiled price tables built.
    pub fn price_table_count(&self) -> usize {
        self.prices.len()
    }

    /// Number of distinct agent populations built.
    pub fn agent_population_count(&self) -> usize {
        self.agents.len()
    }

    /// Total distinct artifacts the prepass had to build — the sweep's
    /// cache *misses* (every per-cell lookup afterwards is a hit).
    pub fn artifact_count(&self) -> usize {
        self.realizations.len() + self.prices.len() + self.agents.len()
    }
}

/// The cache artifacts a set of cells reaches, deduplicated in
/// first-seen order, as claim-loop tasks: one per realization key (the
/// realization, then every price table compiled from it), then one per
/// agent population. Each task fills its own slot.
struct CacheTasks<'w> {
    fleet: &'w [FleetMachine],
    agent_seed: u64,
    /// Each realization key with the price schedules its market cells
    /// post.
    keys: Vec<(RealizationKey, Vec<PriceSpec>)>,
    agent_keys: Vec<(u32, u64)>,
    realizations: Vec<OnceLock<(Realization, Vec<Arc<PriceTable>>)>>,
    agents: Vec<OnceLock<Arc<Vec<green_batchsim::MarketAgent>>>>,
}

impl<'w> CacheTasks<'w> {
    fn plan(fleet: &'w [FleetMachine], agent_seed: u64, cells: &[Cell]) -> CacheTasks<'w> {
        let mut keys: Vec<(RealizationKey, Vec<PriceSpec>)> = Vec::new();
        let mut agent_keys: Vec<(u32, u64)> = Vec::new();
        for cell in cells {
            let spec = &cell.spec;
            let key = realization_key(spec);
            let at = match keys.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    keys.push((key, Vec::new()));
                    keys.len() - 1
                }
            };
            let schedules = &mut keys[at].1;
            if spec.market_active() && !schedules.contains(&spec.price_schedule) {
                schedules.push(spec.price_schedule);
            }
            let akey = (spec.users, spec.elasticity.to_bits());
            if spec.market_drives_decisions() && !agent_keys.contains(&akey) {
                agent_keys.push(akey);
            }
        }
        CacheTasks {
            fleet,
            agent_seed,
            realizations: keys.iter().map(|_| OnceLock::new()).collect(),
            agents: agent_keys.iter().map(|_| OnceLock::new()).collect(),
            keys,
            agent_keys,
        }
    }

    fn len(&self) -> usize {
        self.keys.len() + self.agent_keys.len()
    }

    /// Builds the artifacts of task `task`. Each task is claimed once,
    /// so its slot is empty until now.
    fn run(&self, task: usize) {
        match self.keys.get(task) {
            Some((key, schedules)) => {
                let realization = realize(self.fleet, key);
                let tables = schedules
                    .iter()
                    .map(|&schedule| Arc::new(price_table(&realization, schedule)))
                    .collect();
                let _ = self.realizations[task].set((realization, tables));
            }
            None => {
                let at = task - self.keys.len();
                let (users, elasticity_bits) = self.agent_keys[at];
                let population = market_population(
                    users as usize,
                    self.agent_seed,
                    f64::from_bits(elasticity_bits),
                );
                let _ = self.agents[at].set(Arc::new(population));
            }
        }
    }

    /// The caches, once every task has run.
    fn finish(self) -> SweepCaches {
        let mut caches = SweepCaches {
            realizations: HashMap::new(),
            prices: HashMap::new(),
            agents: HashMap::new(),
        };
        for ((key, schedules), slot) in self.keys.into_iter().zip(self.realizations) {
            let (realization, tables) = slot.into_inner().expect("every realization built");
            for (schedule, table) in schedules.into_iter().zip(tables) {
                caches.prices.insert((key.clone(), schedule), table);
            }
            caches.realizations.insert(key, realization);
        }
        for (key, slot) in self.agent_keys.into_iter().zip(self.agents) {
            let population = slot.into_inner().expect("every agent population built");
            caches.agents.insert(key, population);
        }
        caches
    }
}

/// The hourly-intensity realization of `key` over the Table 5 `fleet`.
fn realize(fleet: &[FleetMachine], key: &RealizationKey) -> Realization {
    let (fleet_indices, seed, scale_bits, jitter_bits) = key;
    let machines: Vec<FleetMachine> = fleet_indices.iter().map(|&i| fleet[i].clone()).collect();
    let scale = f64::from_bits(*scale_bits);
    let jitter = f64::from_bits(*jitter_bits);
    let realization = intensity_for(&machines, *seed)
        .into_iter()
        .enumerate()
        .map(|(m, t)| {
            if scale == 1.0 && jitter == 0.0 {
                t
            } else {
                t.perturbed(
                    scale,
                    jitter,
                    seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            }
        })
        .collect();
    Arc::new(realization)
}

/// Deterministic work counters of one sweep execution — what the perf
/// suite trends and the CI bench gate compares, instead of noisy wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Cells executed.
    pub cells: usize,
    /// Simulator events processed, summed over cells.
    pub events: u64,
    /// Scheduler release-list entries examined by backfill reservations,
    /// summed over cells.
    pub release_work: u64,
    /// Distinct intensity realizations derived (shared across cells).
    pub realizations: usize,
    /// Distinct posted-price tables compiled.
    pub price_tables: usize,
    /// Distinct agent populations sampled.
    pub agent_populations: usize,
}

/// Daily decay applied to banked savings in market cells.
const BANK_DECAY: f64 = 0.05;

/// Market-wide cap on any agent's submission delay.
const MAX_DELAY_HOURS: u32 = 24;

/// Base relative saving required before an agent shifts; an agent's
/// effective threshold is this over their elasticity, so the
/// `elasticities` axis genuinely grades how much of the population
/// responds (at 0.10, unit-elastic users need a 10 % posted saving).
const SHIFT_THRESHOLD: f64 = 0.10;

/// Per-user budget headroom over the mean posted demand in market
/// settlement (1.25 = 25 % slack; heavy users still hit the
/// `debit_up_to` clamp).
const BUDGET_FACTOR: f64 = 1.25;

/// Progress callback: `(cells_done, cells_total)` after each cell. It
/// may borrow the caller's state for `'a`.
pub type ProgressFn<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The `/`-joined label a `--filter` substring is matched against.
pub fn cell_label(spec: &ScenarioSpec) -> String {
    spec.config_label().join("/")
}

/// The distinct values of one cell attribute, in first-seen order.
fn dedup_by<T: PartialEq>(cells: &[Cell], f: impl Fn(&Cell) -> T) -> Vec<T> {
    let mut values: Vec<T> = Vec::new();
    for cell in cells {
        let value = f(cell);
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

fn invalid_input(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

/// A sweep resolved for one run: validated, filtered, and ready to hand
/// out the cells of an assignment. The runner, the shard worker and
/// `scenarios --list` all turn `(sweep, filter, assignment)` into cells
/// here, so they accept and refuse exactly the same ranges.
pub struct Grid<'s> {
    sweep: &'s Sweep,
    /// The filtered expansion. `None` (no filter) indexes the raw
    /// expansion order, so a range materializes only its own cells.
    filtered: Option<Vec<Cell>>,
}

impl<'s> Grid<'s> {
    /// Validates `sweep` and keeps the configurations whose label
    /// contains `filter` (case-sensitive substring; `None` or empty
    /// keeps everything). Matching configurations keep their full
    /// replicate sets and expansion order; a filter re-indexes the grid,
    /// so ranges address the filtered order.
    pub fn new(sweep: &'s Sweep, filter: Option<&str>) -> io::Result<Grid<'s>> {
        sweep
            .validate()
            .map_err(|e| invalid_input(format!("invalid sweep `{}`: {e}", sweep.name)))?;
        let filtered = filter.filter(|f| !f.is_empty()).map(|f| {
            sweep
                .expand()
                .into_iter()
                .filter(|c| cell_label(&c.spec).contains(f))
                .collect()
        });
        Ok(Grid { sweep, filtered })
    }

    /// Replicates per configuration.
    pub(crate) fn replicates(&self) -> usize {
        self.sweep.seeds.len()
    }

    /// Cells of the (filtered) grid.
    pub(crate) fn cell_count(&self) -> usize {
        self.filtered
            .as_ref()
            .map_or_else(|| self.sweep.cell_count(), Vec::len)
    }

    /// The cells `assignment` owns, in (filtered) expansion order; each
    /// keeps its raw expansion index. An explicit range must lie inside
    /// the grid and be aligned to replicate groups: a configuration's
    /// CSV row aggregates all its replicates, so they must never
    /// straddle two workers.
    pub fn cells(self, assignment: &ShardAssignment) -> io::Result<Vec<Cell>> {
        let range = self.range(assignment)?;
        Ok(self.into_cells(range))
    }

    /// The cell range `assignment` owns (see [`cells`](Grid::cells)).
    pub(crate) fn range(&self, assignment: &ShardAssignment) -> io::Result<Range<usize>> {
        let (cells, replicates) = (self.cell_count(), self.replicates());
        let range = match assignment {
            ShardAssignment::Shard(shard) => {
                return Ok(shard.cell_range(cells / replicates, replicates))
            }
            ShardAssignment::Whole => return Ok(0..cells),
            ShardAssignment::Cells(range) => range.clone(),
        };
        if range.start > range.end || range.end > cells {
            return Err(invalid_input(format!(
                "cell range {}..{} outside the grid's {cells} cells",
                range.start, range.end
            )));
        }
        if !range.start.is_multiple_of(replicates) || !range.end.is_multiple_of(replicates) {
            return Err(invalid_input(format!(
                "cell range {}..{} is not aligned to replicate groups of {replicates} \
                 (configuration boundaries fall on multiples of the seed count)",
                range.start, range.end
            )));
        }
        Ok(range)
    }

    /// The cells of a checked `range` of the (filtered) expansion order.
    pub(crate) fn into_cells(self, range: Range<usize>) -> Vec<Cell> {
        match self.filtered {
            Some(mut cells) => {
                cells.truncate(range.end);
                cells.drain(..range.start);
                cells
            }
            None => self.sweep.expand_range(range),
        }
    }
}

/// What a streamed sweep run reports once every row is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Grid configurations written (CSV rows).
    pub configs: usize,
    /// Cells executed (configs × replicates).
    pub cells: usize,
    /// Deterministic work counters of the run.
    pub stats: RunStats,
}

/// The parallel sweep driver: the one execution path every sweep takes.
///
/// The runner carries the run's observability recorder and
/// failure-injection handle. [`recording`](SweepRunner::recording) and
/// [`armed`](SweepRunner::armed) set them; the defaults
/// ([`NoopRecorder`], [`NoopChaos`]) compile every probe out. A
/// recording runner books world/cache construction to the `prepare`
/// phase and per-cell spans plus the full phase/counter taxonomy (see
/// [`SweepWorld::run_cell_in_obs`]); CSV output also books row
/// rendering to the `csv` phase and counts `rows_flushed`. Output is
/// bit-identical regardless of either handle, unless a failpoint fires.
pub struct SweepRunner<'a, R: Recorder = NoopRecorder, C: Chaos = NoopChaos> {
    threads: usize,
    pub(crate) obs: &'a R,
    pub(crate) chaos: &'a C,
}

impl Default for SweepRunner<'static> {
    fn default() -> Self {
        SweepRunner::new(0)
    }
}

impl SweepRunner<'static> {
    /// A runner fanning out over `threads` workers (`0` = one per
    /// available core).
    pub fn new(threads: usize) -> SweepRunner<'static> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        SweepRunner {
            threads,
            obs: &NoopRecorder,
            chaos: &NoopChaos,
        }
    }
}

impl<'a, R: Recorder, C: Chaos> SweepRunner<'a, R, C> {
    /// The worker count this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This runner, recording into `obs`.
    pub fn recording<'b, R2: Recorder>(&self, obs: &'b R2) -> SweepRunner<'b, R2, C>
    where
        'a: 'b,
    {
        SweepRunner {
            threads: self.threads,
            obs,
            chaos: self.chaos,
        }
    }

    /// This runner, with `chaos` armed on every durable write: CSV row
    /// commits (`parallel_commit`) and, in [`crate::run_shard`], fragment
    /// rows, checkpoints and the columnar sidecar.
    pub fn armed<'b, C2: Chaos>(&self, chaos: &'b C2) -> SweepRunner<'b, R, C2>
    where
        'a: 'b,
    {
        SweepRunner {
            threads: self.threads,
            obs: self.obs,
            chaos,
        }
    }

    /// Runs the sweep end to end: build shared world, execute every cell,
    /// aggregate replicates. Results are in expansion order regardless of
    /// scheduling. Fails with `InvalidInput` on an invalid sweep
    /// ([`Sweep::validate`]).
    pub fn run(&self, sweep: &Sweep) -> io::Result<SweepResults> {
        self.run_collect(sweep, None, None)
            .map(|(results, _)| results)
    }

    /// Runs the grid configurations whose label (the `/`-joined
    /// [`ScenarioSpec::config_label`]) contains `filter` — the
    /// iterate-on-one-axis workflow of `scenarios --filter`; `None`
    /// runs everything — and collects their rows in memory, with the
    /// run's deterministic work counters. Fails with `InvalidInput` on
    /// an invalid sweep.
    pub fn run_collect(
        &self,
        sweep: &Sweep,
        filter: Option<&str>,
        progress: Option<&ProgressFn<'_>>,
    ) -> io::Result<(SweepResults, RunStats)> {
        let cells = Grid::new(sweep, filter)?.cells(&ShardAssignment::Whole)?;
        let mut rows = Vec::new();
        let summary = self.stream(sweep, &cells, progress, &mut rows)?;
        let results = SweepResults {
            name: sweep.name.clone(),
            replicates: sweep.seeds.len(),
            cells: rows,
        };
        Ok((results, summary.stats))
    }

    /// Runs the cells of `range` of the (filtered) expansion order
    /// (`None`: all of them), streaming aggregate CSV rows to `out` as
    /// each configuration's replicates complete, in expansion order. The
    /// range must be aligned to replicate groups and inside the grid.
    /// World build, caches and memory are proportional to the range, not
    /// the grid: the sink holds only in-flight configurations. With
    /// `write_header = false` the header row is left to the caller.
    ///
    /// The rows streamed for `range` are byte-identical to the
    /// corresponding slice of a full single-process run, and a full run
    /// writes exactly [`SweepResults::to_csv_string`] of
    /// [`run_collect`](SweepRunner::run_collect) — the guarantees
    /// `scenarios merge` builds on (`tests/shard_golden.rs`).
    pub fn run_streamed_range<W: Write + Send>(
        &self,
        sweep: &Sweep,
        filter: Option<&str>,
        range: Option<Range<usize>>,
        write_header: bool,
        progress: Option<&ProgressFn<'_>>,
        out: &mut W,
    ) -> io::Result<StreamSummary> {
        let assignment = range.map_or(ShardAssignment::Whole, ShardAssignment::Cells);
        let cells = Grid::new(sweep, filter)?.cells(&assignment)?;
        // Write *and flush* the header before any cell runs: a consumer
        // tailing the stream (or a test asserting liveness) must see the
        // first bytes immediately, not after the writer's buffer fills
        // with row data.
        if write_header {
            out.write_all(green_bench::export::csv_line(&CSV_HEADERS).as_bytes())?;
            out.flush()?;
        }
        self.stream_csv(sweep, &cells, progress, out)
    }

    /// Streams already-resolved `cells` to `out` as CSV rows, header
    /// excluded: the shard worker's execution primitive.
    pub(crate) fn stream_csv<W: Write + Send>(
        &self,
        sweep: &Sweep,
        cells: &[Cell],
        progress: Option<&ProgressFn<'_>>,
        out: &mut W,
    ) -> io::Result<StreamSummary> {
        let mut rows = CsvRows {
            out,
            obs: self.obs,
            chaos: self.chaos,
        };
        self.stream(sweep, cells, progress, &mut rows)
    }

    /// The engine: builds the shared world and caches for exactly
    /// `cells`, executes them, and commits each configuration's row to
    /// `committer` in expansion order.
    fn stream<K: Committer + Send>(
        &self,
        sweep: &Sweep,
        cells: &[Cell],
        progress: Option<&ProgressFn<'_>>,
        committer: &mut K,
    ) -> io::Result<StreamSummary> {
        let replicates = sweep.seeds.len();
        let prepare_watch = Stopwatch::<R>::start();
        let (world, caches) = self.prepare_cells(sweep, cells);
        if R::ENABLED {
            self.obs
                .phase_ns(Phase::Prepare, prepare_watch.elapsed_ns());
            self.obs
                .add(Counter::CacheMisses, caches.artifact_count() as u64);
        }
        let sink = Mutex::new(RowSink {
            replicates,
            cells,
            pending: HashMap::new(),
            reorder: ReorderBuffer::new(),
            committer,
            error: None,
            events: 0,
            release_work: 0,
        });
        self.execute(
            &world,
            &caches,
            cells,
            self.claim_window(replicates),
            progress,
            &sink,
        );
        let sink = sink.into_inner().expect("sink lock");
        if let Some(e) = sink.error {
            return Err(e);
        }
        debug_assert!(sink.pending.is_empty(), "incomplete configuration groups");
        debug_assert!(sink.reorder.is_empty(), "rows parked past the end");
        Ok(StreamSummary {
            configs: sink.reorder.committed(),
            cells: cells.len(),
            stats: RunStats {
                cells: cells.len(),
                events: sink.events,
                release_work: sink.release_work,
                realizations: caches.realization_count(),
                price_tables: caches.price_table_count(),
                agent_populations: caches.agent_population_count(),
            },
        })
    }

    /// Builds the shared world + caches for exactly `cells` — the
    /// filtered, range-restricted set that will actually run. The point
    /// of `--filter` (and of shard ranges) is that a narrow run must not
    /// pay for every population/scale/fleet of the full grid; the
    /// retained variants are bit-identical to the ones the full sweep
    /// would build (same seeds, same dedup).
    fn prepare_cells(&self, sweep: &Sweep, cells: &[Cell]) -> (SweepWorld, SweepCaches) {
        let mut needed = sweep.clone();
        needed.users = dedup_by(cells, |c| c.spec.users);
        needed.workload_scales = dedup_by(cells, |c| c.spec.workload_scale);
        needed.fleets = dedup_by(cells, |c| c.spec.fleet.clone());
        let fleet = simulation_fleet();
        let agent_seed = needed.workload.seed;
        let caches = CacheTasks::plan(&fleet, agent_seed, cells);
        // Task 0 is the world chain (predictor, traces, placement
        // table), the longest; no cache task reads it, so the other
        // workers build the caches meanwhile.
        let populations = OnceLock::new();
        claim_each(self.threads, 1 + caches.len(), |(), task| match task {
            0 => {
                let _ = populations.set(build_populations(&needed, &fleet));
            }
            task => caches.run(task - 1),
        });
        let caches = caches.finish();
        let world = SweepWorld {
            fleet,
            populations: populations.into_inner().expect("world built"),
            agent_seed,
        };
        (world, caches)
    }

    /// How far past the contiguously-offered prefix workers may claim:
    /// enough slack that nobody idles behind a slow cell (a few cells
    /// per worker, whole replicate groups at a time), small enough that
    /// the reorder buffer's memory stays a constant factor of the
    /// worker count rather than growing with the grid.
    fn claim_window(&self, replicates: usize) -> usize {
        (self.threads * 4 * replicates.max(1)).max(64)
    }

    /// Executes every cell, fanning out across workers; results are
    /// offered to `sink` keyed by expansion index (any thread, any
    /// order, but never more than `window` indices past the oldest
    /// unoffered one). Each cell records one `cell` span on the
    /// recorder.
    fn execute<K: Committer + Send>(
        &self,
        world: &SweepWorld,
        caches: &SweepCaches,
        cells: &[Cell],
        window: usize,
        progress: Option<&ProgressFn<'_>>,
        sink: &Mutex<RowSink<'_, K>>,
    ) {
        let n = cells.len();
        let done = AtomicUsize::new(0);
        let claims = ClaimWindow::new(window);
        // One scratch per worker, built on its thread: every cell the
        // worker claims reuses the same simulation and settlement
        // buffers.
        claim_each(self.threads, n, |scratch: &mut CellScratch, i| {
            // Throttle: stay within the reorder window of the slowest
            // outstanding cell.
            claims.admit(i);
            // Mark `i` offered even if the sink dies (an injected crash
            // mid-commit): the claimants blocked behind it must run into
            // the failure, not wait on it forever.
            let offered = claims.completing(i);
            let cell_watch = Stopwatch::<R>::start();
            let metrics = world.run_cell_in_obs(&cells[i].spec, caches, scratch, self.obs);
            if R::ENABLED {
                self.obs.span_ns(SpanKind::Cell, cell_watch.elapsed_ns());
            }
            sink.lock().expect("sink lock").offer(i, metrics);
            drop(offered);
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(cb) = progress {
                cb(finished, n);
            }
        });
    }
}

/// Where the row sink hands each configuration's aggregate row, in
/// expansion order.
trait Committer {
    fn commit(&mut self, row: CellSummary) -> io::Result<()>;
}

/// The in-memory committer behind [`SweepRunner::run_collect`]. Nothing
/// is rendered or flushed, so it books no `csv` phase and no
/// `rows_flushed`.
impl Committer for Vec<CellSummary> {
    fn commit(&mut self, row: CellSummary) -> io::Result<()> {
        self.push(row);
        Ok(())
    }
}

/// The CSV committer: renders each row and writes it to `out`, booking
/// the time to the `csv` phase and one `rows_flushed` per row.
///
/// The write is the `parallel_commit` failpoint: rows commit under the
/// sink lock in strict configuration order, so `hit:N` targets the Nth
/// row of the output deterministically — on one worker or sixteen.
struct CsvRows<'w, W, R, C> {
    out: &'w mut W,
    obs: &'w R,
    chaos: &'w C,
}

impl<W: Write, R: Recorder, C: Chaos> Committer for CsvRows<'_, W, R, C> {
    fn commit(&mut self, row: CellSummary) -> io::Result<()> {
        let watch = Stopwatch::<R>::start();
        let line = green_bench::export::csv_line(&row.csv_row());
        if let Some(bytes) = probe(self.chaos, Failpoint::ParallelCommit)? {
            // Torn commit: the row's prefix reaches the writer (and
            // through it the fragment on disk), then the worker dies —
            // the resume path must truncate it.
            let bytes = bytes.min(line.len());
            let _ = self.out.write_all(&line.as_bytes()[..bytes]);
            let _ = self.out.flush();
            torn_crash(Failpoint::ParallelCommit, bytes);
        }
        self.out.write_all(line.as_bytes())?;
        if R::ENABLED {
            self.obs.phase_ns(Phase::Csv, watch.elapsed_ns());
            self.obs.add(Counter::RowsFlushed, 1);
        }
        Ok(())
    }
}

/// The row sink: collects a configuration's replicates as workers
/// finish them (any order), aggregates each completed group, and hands
/// the rows to its committer strictly in expansion order through a
/// [`ReorderBuffer`]. Memory held is the in-flight groups plus any
/// completed-but-out-of-order rows — bounded by the runner's
/// [`ClaimWindow`], not the grid. The first commit error stops further
/// commits and fails the run.
struct RowSink<'c, K> {
    replicates: usize,
    cells: &'c [Cell],
    /// Partially-filled configuration groups, keyed by config index.
    pending: HashMap<usize, Vec<Option<CellMetrics>>>,
    /// Aggregated groups committing in config order.
    reorder: ReorderBuffer<CellSummary>,
    committer: &'c mut K,
    error: Option<io::Error>,
    /// Simulator events, summed over offered cells.
    events: u64,
    /// Backfill release-list work, summed over offered cells.
    release_work: u64,
}

impl<K: Committer> RowSink<'_, K> {
    fn offer(&mut self, index: usize, metrics: CellMetrics) {
        self.events += metrics.events as u64;
        self.release_work += metrics.release_work;
        let config = index / self.replicates;
        let group = self
            .pending
            .entry(config)
            .or_insert_with(|| vec![None; self.replicates]);
        group[index % self.replicates] = Some(metrics);
        if group.iter().any(Option::is_none) {
            return;
        }
        let group = self.pending.remove(&config).expect("group exists");
        let chunk: Vec<CellMetrics> = group.into_iter().map(|m| m.expect("full group")).collect();
        let summary = CellSummary::of(&self.cells[config * self.replicates].spec, &chunk);
        let Self {
            reorder,
            committer,
            error,
            ..
        } = self;
        reorder.offer(config, summary, |_, row| {
            if error.is_none() {
                if let Err(e) = committer.commit(row) {
                    *error = Some(e);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MethodSpec, PolicySpec};

    fn tiny_sweep() -> Sweep {
        let mut sweep = Sweep::new("runner-test");
        sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Eft];
        sweep.methods = vec![MethodSpec::Eba];
        sweep.seeds = vec![1, 2];
        sweep
    }

    #[test]
    fn shared_world_dedupes_variants() {
        let mut sweep = tiny_sweep();
        sweep.workload_scales = vec![1.0, 0.5, 1.0];
        sweep.fleets = vec![vec![0, 1, 2, 3], vec![0, 2], vec![0, 2]];
        sweep.users = vec![24, 48, 24];
        let world = SweepWorld::build(&sweep);
        assert_eq!(world.fleet.len(), 4);
        assert_eq!(world.populations.len(), 2);
        for population in &world.populations {
            assert_eq!(population.traces.len(), 2);
            assert_eq!(population.fleets.len(), 2);
            assert_eq!(population.table.machine_count(), 4);
        }
    }

    #[test]
    fn caches_dedupe_realizations_and_prices() {
        let mut sweep = tiny_sweep();
        // 2 policies × 1 method × 2 schedules × 2 seeds = 8 cells, but
        // only 2 distinct realizations (the seeds) and 4 price tables
        // (realization × schedule); one agent population (users ×
        // elasticity is a singleton).
        sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Adaptive];
        sweep.price_schedules = vec![
            PriceSpec::parse("carbon:0.5").unwrap(),
            PriceSpec::parse("tou:0.25").unwrap(),
        ];
        sweep.elasticities = vec![1.0];
        let cells = sweep.expand();
        assert_eq!(cells.len(), 8);
        let world = SweepWorld::build(&sweep);
        let caches = SweepCaches::build(&world, &cells, 2);
        assert_eq!(caches.realization_count(), 2);
        assert_eq!(caches.price_table_count(), 4);
        assert_eq!(caches.agent_population_count(), 1);
        // Cells sharing a seed share the realization allocation itself.
        let a = caches.realization(&cells[0].spec);
        let b = caches.realization(&cells[4].spec);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn users_axis_varies_the_submitting_population() {
        let mut sweep = tiny_sweep();
        sweep.policies = vec![PolicySpec::Greedy];
        sweep.methods = vec![MethodSpec::Eba];
        sweep.users = vec![24, 96];
        sweep.seeds = vec![1];
        let results = SweepRunner::new(0).run(&sweep).unwrap();
        assert_eq!(results.cells.len(), 2);
        let (small, large) = (&results.cells[0], &results.cells[1]);
        assert_eq!(small.spec.users, 24);
        assert_eq!(large.spec.users, 96);
        // Different populations submit genuinely different workloads:
        // the same demand spread over 4x the users changes energy,
        // credits and waits, not just the utilization denominator.
        assert_ne!(small.energy_mwh.mean, large.energy_mwh.mean);
        assert_ne!(small.credits.mean, large.credits.mean);
    }

    #[test]
    fn runner_aggregates_in_expansion_order() {
        let sweep = tiny_sweep();
        let results = SweepRunner::new(2).run(&sweep).unwrap();
        assert_eq!(results.cells.len(), 2);
        assert_eq!(results.replicates, 2);
        assert_eq!(results.cells[0].spec.policy, PolicySpec::Greedy);
        assert_eq!(results.cells[1].spec.policy, PolicySpec::Eft);
        for cell in &results.cells {
            assert_eq!(cell.completed.n, 2);
            assert!(cell.completed.mean > 0.0);
            assert!(cell.energy_mwh.mean > 0.0);
            assert!(cell.credits.mean > 0.0);
            assert!(cell.utilization.mean > 0.0 && cell.utilization.mean <= 1.0);
        }
    }

    #[test]
    fn filtered_runs_match_the_full_sweep() {
        let sweep = tiny_sweep();
        let full = SweepRunner::new(1).run(&sweep).unwrap();
        // Filtering to one policy reproduces that configuration's
        // aggregate bit for bit (the narrowed world builds the same
        // shared artifacts).
        let (filtered, _) = SweepRunner::new(1)
            .run_collect(&sweep, Some("eft/"), None)
            .unwrap();
        assert_eq!(filtered.cells.len(), 1);
        assert_eq!(filtered.cells[0], full.cells[1]);
        // A filter that matches nothing runs nothing.
        let (none, _) = SweepRunner::new(1)
            .run_collect(&sweep, Some("no-such-cell"), None)
            .unwrap();
        assert!(none.cells.is_empty());
    }

    #[test]
    fn run_collect_reports_work_counters() {
        let sweep = tiny_sweep();
        let (results, stats) = SweepRunner::new(2).run_collect(&sweep, None, None).unwrap();
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.realizations, 2, "one per replicate seed");
        assert_eq!(stats.price_tables, 0, "no market axes");
        assert_eq!(stats.agent_populations, 0);
        // Every completed job contributes an arrival and a finish.
        let completed: f64 = results.cells.iter().map(|c| c.completed.mean * 2.0).sum();
        assert!(stats.events as f64 >= completed);
    }

    #[test]
    fn banking_axis_does_not_perturb_the_simulation() {
        // The banking cap is settlement-only: a greedy/flat-price cell
        // with banking enabled must place, time, and charge every job
        // exactly like its no-market twin — only the settlement columns
        // may differ.
        let mut sweep = tiny_sweep();
        sweep.policies = vec![PolicySpec::Greedy];
        sweep.methods = vec![MethodSpec::Cba];
        sweep.seeds = vec![1];
        sweep.banking_caps = vec![0.0, 50.0];
        let results = SweepRunner::new(1).run(&sweep).unwrap();
        let (off, on) = (&results.cells[0], &results.cells[1]);
        assert_eq!(off.energy_mwh, on.energy_mwh);
        assert_eq!(off.attr_carbon_kg, on.attr_carbon_kg);
        assert_eq!(off.mean_wait_h, on.mean_wait_h);
        assert_eq!(off.credits, on.credits);
        assert_eq!(off.posted_credits.mean, 0.0, "no market, no settlement");
        assert!(on.posted_credits.mean > 0.0, "banking cell settles");
        assert_eq!(on.banked_credits.mean, 0.0, "flat prices bank nothing");
        // An empty bank totals +0.0, as a cell without a market does.
        assert!(!results.to_csv_string().contains("-0.000000"));
    }

    #[test]
    fn replicate_seeds_actually_vary_outcomes() {
        let mut sweep = tiny_sweep();
        sweep.policies = vec![PolicySpec::Greedy];
        // CBA quotes depend on the intensity realization, so replicate
        // seeds must produce spread.
        sweep.methods = vec![MethodSpec::Cba];
        sweep.seeds = vec![1, 2, 3];
        let results = SweepRunner::new(0).run(&sweep).unwrap();
        let cell = &results.cells[0];
        assert!(cell.credits.stddev > 0.0, "replicates should differ");
        assert!(cell.credits.ci95 > 0.0);
    }

    #[test]
    fn progress_reports_each_finished_count_once() {
        let mut sweep = tiny_sweep();
        sweep.seeds = vec![1, 2, 3];
        let n = sweep.cell_count();
        for threads in [1, 2, 8] {
            let reports = Mutex::new(Vec::new());
            let progress = |done: usize, total: usize| reports.lock().unwrap().push((done, total));
            SweepRunner::new(threads)
                .run_collect(&sweep, None, Some(&progress))
                .unwrap();
            let mut reports = reports.into_inner().unwrap();
            reports.sort_unstable();
            let expected: Vec<(usize, usize)> = (1..=n).map(|done| (done, n)).collect();
            assert_eq!(reports, expected, "{threads} threads");
        }
    }

    #[test]
    fn streamed_rows_match_the_in_memory_csv() {
        let sweep = tiny_sweep();
        let in_memory = SweepRunner::new(1).run(&sweep).unwrap().to_csv_string();
        for threads in [1, 4] {
            let mut streamed = Vec::new();
            let summary = SweepRunner::new(threads)
                .run_streamed_range(&sweep, None, None, true, None, &mut streamed)
                .expect("stream to a Vec cannot fail");
            assert_eq!(summary.configs, 2);
            assert_eq!(summary.cells, 4);
            assert_eq!(String::from_utf8(streamed).unwrap(), in_memory);
        }
    }
}
