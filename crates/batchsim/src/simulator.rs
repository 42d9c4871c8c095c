//! The discrete-event simulation loop.

use green_accounting::{AffineCharge, ChargeContext, MethodKind};
use green_carbon::HourlyTrace;
use green_machines::FleetMachine;
use green_obs::{Counter, Phase, Recorder, Stopwatch};
use green_units::{wrap_hour, CarbonIntensity, CarbonRate, Energy, Power, TimePoint, TimeSpan};
use green_workload::{Job, Trace};
use std::ops::Range;

use crate::arena::{DelayScratch, FinishLog, SimArena};
use crate::cluster::{Cluster, QueuedJob};
use crate::event::{EventKind, EventQueue};
use crate::market::MarketInputs;
use crate::metrics::{JobOutcome, RunMetrics};
use crate::policy::{MachineOption, Policy, Reads};
use crate::profile::PlacementTable;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The user's machine-selection policy.
    pub policy: Policy,
    /// The accounting method driving cost-aware policies (Greedy/Mixed)
    /// and the `charges` the allocation experiment consumes.
    pub decision_method: MethodKind,
    /// Simulation start year (fixes machine ages → carbon rates).
    pub sim_year: i32,
    /// Number of simulated users owning a private Desktop.
    pub users: u32,
    /// Backfill scan depth for every cluster (`0` = pure FCFS); see
    /// [`crate::cluster::DEFAULT_BACKFILL_DEPTH`].
    pub backfill_depth: usize,
    /// Posted prices and agent elasticities (`None` = no market: every
    /// quote is the raw method charge and nobody shifts for price).
    pub market: Option<MarketInputs>,
}

impl SimConfig {
    /// Standard configuration for a policy/method pair.
    pub fn new(policy: Policy, decision_method: MethodKind, users: u32) -> SimConfig {
        SimConfig {
            policy,
            decision_method,
            sim_year: 2023,
            users,
            backfill_depth: crate::cluster::DEFAULT_BACKFILL_DEPTH,
            market: None,
        }
    }

    /// Attaches market inputs (posted prices + agent elasticities).
    pub fn with_market(mut self, market: MarketInputs) -> SimConfig {
        self.market = Some(market);
        self
    }
}

/// One machine's constants for one run: what the quote basis and the
/// attribution pass read from its spec, resolved once per run instead of
/// once per arrival and outcome.
#[derive(Debug, Clone, Copy)]
struct MachineRow {
    /// Allocation slice, in cores.
    slice: u32,
    /// Thermal design power of one core.
    tdp_per_core: Power,
    /// Cores per node.
    cores: u32,
    /// Peak-performance score per thread (Peak accounting).
    peak_per_thread: f64,
    /// Embodied-carbon rate at the run's year.
    carbon_rate: CarbonRate,
    /// Facility power usage effectiveness.
    pue: f64,
}

/// The per-run machine table: one [`MachineRow`] per fleet machine,
/// index-aligned with the fleet.
#[derive(Debug, Clone)]
pub(crate) struct MachineTable {
    rows: Vec<MachineRow>,
}

impl MachineTable {
    /// Resolves every machine's constants at `sim_year`.
    pub(crate) fn new(fleet: &[FleetMachine], sim_year: i32) -> MachineTable {
        MachineTable {
            rows: fleet
                .iter()
                .map(|m| MachineRow {
                    slice: m.spec.slice_cores,
                    tdp_per_core: m.spec.tdp_per_core(),
                    cores: m.spec.cores,
                    peak_per_thread: m.spec.cpu.peak_per_thread,
                    carbon_rate: m.spec.carbon_rate(sim_year),
                    pue: m.spec.facility.pue,
                })
                .collect(),
        }
    }

    /// Provisioned cores of a job on a machine: request rounded up to the
    /// allocation slice (not capped per node — multi-node jobs hold
    /// multiple slices).
    pub(crate) fn provisioned(&self, machine: usize, cores: u32) -> u32 {
        let slice = self.rows[machine].slice;
        cores.max(1).div_ceil(slice) * slice
    }

    /// The accounting context of `job` on `machine` holding `provisioned`
    /// cores, with every term but the grid intensity (left at zero).
    pub(crate) fn charge_basis(
        &self,
        table: &PlacementTable,
        machine: usize,
        job: &Job,
        provisioned: u32,
    ) -> ChargeContext {
        let row = &self.rows[machine];
        ChargeContext::new(table.energy(job, machine), table.runtime(job, machine))
            .with_cores(job.cores)
            .with_provisioned(
                row.tdp_per_core * provisioned as f64,
                provisioned as f64 / row.cores as f64,
            )
            .with_peak(row.peak_per_thread)
            .with_carbon(CarbonIntensity::ZERO, row.carbon_rate)
            .with_pue(row.pue)
    }
}

/// One arrival's view of one machine: the decision method's charge with
/// the grid intensity left open, plus the provisioned slice and queue
/// estimate. Built once per (arrival, machine) at the top of the arrival
/// arm; the delay search, the policy's options and the submission all
/// read it, so a quote costs one hour index, one affine charge and one
/// multiplier. Only the fields the run's policy reads are filled
/// ([`Policy::reads`]); the others stay zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuoteBasis {
    /// Request rounded up to the machine's allocation slice.
    provisioned: u32,
    /// Predicted runtime on the machine.
    runtime: TimeSpan,
    /// Predicted energy on the machine.
    energy: Energy,
    /// Estimated queue wait at the arrival.
    est_wait: TimeSpan,
    /// The decision method's charge as a function of the intensity.
    charge: AffineCharge,
}

/// What a run's event loop leaves for its attribution pass, beside the
/// completion log it stages in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduleCounters {
    rejected: usize,
    events: usize,
    release_work: u64,
}

/// The longest delay budget a run accepts, in hours: one year. Every
/// intensity realization and price table repeats after a year, so a
/// longer window would only re-quote hours it already quoted, and the
/// delay search holds one buffer entry per hour of the budget.
pub const MAX_SHIFT_BUDGET_HOURS: u32 = 8_760;

/// A configured simulator, borrowing the immutable experiment state.
pub struct Simulator<'a> {
    trace: &'a Trace,
    fleet: &'a [FleetMachine],
    table: &'a PlacementTable,
    intensity: &'a [HourlyTrace],
    config: SimConfig,
    /// The fleet's constants at the run's year.
    machines: MachineTable,
    /// The option fields the policy reads; `wait` also when a market
    /// quotes the cost at the expected start.
    reads: Reads,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `intensity` is one trace per fleet machine,
    /// index-aligned.
    ///
    /// # Panics
    ///
    /// When `intensity` or `table` does not cover the fleet, or when a
    /// delay budget (`Policy::GreedyShift`'s `max_delay_hours` or
    /// `MarketInputs::max_delay_hours`) exceeds
    /// [`MAX_SHIFT_BUDGET_HOURS`].
    pub fn new(
        trace: &'a Trace,
        fleet: &'a [FleetMachine],
        table: &'a PlacementTable,
        intensity: &'a [HourlyTrace],
        config: SimConfig,
    ) -> Self {
        assert_eq!(fleet.len(), intensity.len());
        assert_eq!(fleet.len(), table.machine_count());
        let bounded = |field: &str, hours: u32| {
            assert!(
                hours <= MAX_SHIFT_BUDGET_HOURS,
                "{field} is {hours} h, above the {MAX_SHIFT_BUDGET_HOURS} h limit"
            );
        };
        if let Policy::GreedyShift { max_delay_hours } = config.policy {
            bounded("Policy::GreedyShift max_delay_hours", max_delay_hours);
        }
        if let Some(market) = &config.market {
            bounded("MarketInputs::max_delay_hours", market.max_delay_hours);
        }
        let mut reads = config.policy.reads();
        reads.wait |= reads.cost && config.market.is_some();
        Simulator {
            trace,
            fleet,
            table,
            intensity,
            machines: MachineTable::new(fleet, config.sim_year),
            reads,
            config,
        }
    }

    /// The machines whose options the policy reads: `Fixed`'s one (none
    /// when its index is past the fleet), else the whole fleet.
    fn candidates(&self) -> Range<usize> {
        let n = self.fleet.len();
        match self.reads.only {
            Some(i) => i.min(n)..(i + 1).min(n),
            None => 0..n,
        }
    }

    /// One arrival's view of one machine, built once per arrival: every
    /// quote, option and submission of that arrival reads it. It holds
    /// the provisioned slice and runtime, the charge and its energy when
    /// the policy reads the cost, the energy alone when it reads only
    /// that, and the queue estimate when it reads the wait.
    fn quote_basis(
        &self,
        clusters: &[Cluster],
        machine: usize,
        job: &Job,
        now: TimePoint,
    ) -> QuoteBasis {
        let provisioned = self.machines.provisioned(machine, job.cores);
        let est_wait = if self.reads.wait {
            clusters[machine].estimated_wait(provisioned, job.user, now)
        } else {
            TimeSpan::ZERO
        };
        if self.reads.cost {
            let ctx = self
                .machines
                .charge_basis(self.table, machine, job, provisioned);
            return QuoteBasis {
                provisioned,
                runtime: ctx.duration,
                energy: ctx.energy,
                est_wait,
                charge: self.config.decision_method.affine(&ctx),
            };
        }
        QuoteBasis {
            provisioned,
            runtime: self.table.runtime(job, machine),
            energy: if self.reads.energy {
                self.table.energy(job, machine)
            } else {
                Energy::ZERO
            },
            est_wait,
            charge: AffineCharge {
                per_intensity: 0.0,
                fixed: 0.0,
            },
        }
    }

    /// The posted price of an arrival on `machine` at `at`: the method
    /// charge at the hour's grid intensity times the hour's posted
    /// multiplier (none without a market). One hour index serves both
    /// series. Bit-identical to the per-call quote it replaced
    /// (`charge_context` → `MethodKind::charge` →
    /// `PriceTable::multiplier_at`), which the tests keep as its oracle.
    #[inline]
    fn quote(&self, machine: usize, basis: &QuoteBasis, at: TimePoint) -> f64 {
        let hour = at.hour_index();
        let charge = basis
            .charge
            .at(self.intensity[machine].intensity_at_hour(hour));
        match &self.config.market {
            Some(market) => charge * market.prices.multiplier_at_hour(machine, hour),
            None => charge,
        }
    }

    /// Builds the policy's view of one machine for one job. `cost` is the
    /// *posted* price — when a market is active, cost-aware policies see
    /// (and react to) the schedule's multipliers, not the raw charge,
    /// and the quote is read at the machine's *expected start* (now +
    /// estimated queue wait): what a job will actually pay and emit is
    /// set by the hour it starts drawing power, not the hour it was
    /// submitted. A policy that reads no cost gets zero, unquoted.
    fn option(
        &self,
        clusters: &[Cluster],
        machine: usize,
        basis: &QuoteBasis,
        now: TimePoint,
    ) -> MachineOption {
        let cost = match (self.reads.cost, &self.config.market) {
            (false, _) => 0.0,
            (true, Some(_)) => self.quote(machine, basis, now + basis.est_wait),
            (true, None) => self.quote(machine, basis, now),
        };
        MachineOption {
            machine,
            eligible: clusters[machine].eligible(basis.provisioned),
            runtime: basis.runtime,
            energy: basis.energy,
            cost,
            est_wait: basis.est_wait,
        }
    }

    /// The delay window (whole hours) and required relative saving of an
    /// adaptive agent — bounded by the agent's slack and the market-wide
    /// cap, with the saving shrinking as elasticity grows — or `None`
    /// when the agent never shifts.
    fn adaptive_search(&self, job: &Job) -> Option<(u32, f64)> {
        let market = self.config.market.as_ref()?;
        let agent = market.agent(job.user.0);
        if agent.elasticity <= 0.0 {
            return None;
        }
        let window = agent.slack_hours.min(market.max_delay_hours);
        Some((window, (market.shift_threshold / agent.elasticity).min(0.5)))
    }

    /// For GreedyShift and Adaptive: the delay (whole hours, `1..=window`)
    /// that minimizes the cheapest posted machine quote, or `None` when no
    /// delayed quote beats the immediate one by at least
    /// `required_saving` (a fraction of the immediate cost).
    ///
    /// Adaptive quotes each machine at its *expected start*: delaying
    /// submission by `d` hours moves the start to `now + d + max(0,
    /// wait − d)` — the queue keeps draining while the agent sits out
    /// the delay, so in a congested system a delay mostly re-times the
    /// start only once it exceeds the backlog. GreedyShift quotes the
    /// submission moment itself, which is the same search with every
    /// wait taken as zero.
    ///
    /// The search first fills one hour row, `hours[d]` = the hour index
    /// of `now + d` hours, shared by every machine. Once `d` covers a
    /// machine's wait (`d·3600 < wait` is false, a NaN wait included),
    /// `max(wait − d, 0)` is `+0.0`, so the expected start is exactly
    /// `now + d` and its hour is `hours[d]`; the delays still inside the
    /// wait keep the full expression. The row is not always `hours[0] +
    /// d`: just below a power of two, `now + d` can round up across an
    /// hour boundary. Each machine's intensity series, price series and
    /// affine charge are read once, outside its delay loop. Every quote
    /// keeps `quote`'s operands and rounding order, and `quotes[d]` folds
    /// them with `min` in fleet order, so the search picks what the
    /// per-call search picked (`delay_search_matches_per_call_search`).
    /// `bases` covers the whole fleet: both shifting policies read every
    /// machine.
    fn best_delay(
        &self,
        bases: &[QuoteBasis],
        scratch: &mut DelayScratch,
        now: TimePoint,
        window: u32,
        required_saving: f64,
        with_waits: bool,
    ) -> Option<u32> {
        if window == 0 {
            return None;
        }
        let DelayScratch { hours, quotes } = scratch;
        hours.clear();
        hours.extend(
            (0..=window).map(|d| (now + TimeSpan::from_secs(d as f64 * 3600.0)).hour_index()),
        );
        quotes.clear();
        quotes.resize(window as usize + 1, f64::INFINITY);
        for (machine, basis) in bases.iter().enumerate() {
            let series = self.intensity[machine].values();
            let prices = self.config.market.as_ref().map(|market| {
                // A machine past the table prices flat, as
                // `PriceTable::multiplier_at_hour` does.
                if machine < market.prices.machine_count() {
                    market.prices.series(machine)
                } else {
                    &[1.0]
                }
            });
            let charge = basis.charge;
            let quote_at_hour = |hour: usize| {
                let cost = charge.at(CarbonIntensity::from_g_per_kwh(
                    series[wrap_hour(hour, series.len())],
                ));
                match prices {
                    Some(prices) => cost * prices[wrap_hour(hour, prices.len())],
                    None => cost,
                }
            };
            let wait_s = if with_waits {
                basis.est_wait.as_secs()
            } else {
                0.0
            };
            let inside = (0..=window)
                .take_while(|&d| (d as f64 * 3600.0) < wait_s)
                .count();
            let (waiting, covered) = quotes.split_at_mut(inside);
            for (delay, slot) in waiting.iter_mut().enumerate() {
                let delay_s = delay as f64 * 3600.0;
                let start = now + TimeSpan::from_secs(delay_s + (wait_s - delay_s).max(0.0));
                *slot = slot.min(quote_at_hour(start.hour_index()));
            }
            for (slot, &hour) in covered.iter_mut().zip(&hours[inside..]) {
                *slot = slot.min(quote_at_hour(hour));
            }
        }
        let now_cost = quotes[0];
        let mut best: Option<(u32, f64)> = None;
        for (delay, &cost) in quotes.iter().enumerate().skip(1) {
            if cost < best.map_or(now_cost, |(_, c)| c) {
                best = Some((delay as u32, cost));
            }
        }
        // Only shift for a material gain; a fraction of a percent is not
        // worth sitting in a queue an hour longer.
        best.filter(|&(_, c)| c < now_cost * (1.0 - required_saving))
            .map(|(d, _)| d)
    }

    /// Runs the full workload to completion against `arena`-owned state
    /// and collects metrics: the event loop (`schedule_in`), then the
    /// attribution pass over its completion log (`attribute_in`). The
    /// loop reads the arrivals straight from the trace, in arrival order;
    /// only finishes and shifted re-arrivals wait in the event heap. All
    /// simulation buffers (cluster queues, event heap, job tables,
    /// outcome storage) are borrowed from the arena, so a caller sweeping
    /// many cells allocates once, not once per cell; a fresh arena gives
    /// the same bits as a reused one.
    ///
    /// `obs` is statically dispatched: with [`green_obs::NoopRecorder`]
    /// (`R::ENABLED = false`) every clock read and counter emission
    /// compiles away. With a recording `R`, wall time is attributed per
    /// event to the `schedule` (arrival handling: shift quoting, policy
    /// choice, scheduling passes) and `attribute` (outcome construction:
    /// window-integrated carbon + charges) phases, with the loop
    /// remainder booked to `events`; the `ready_user_merges` work counter
    /// is emitted once at the end of the loop. Results are bit-for-bit
    /// identical either way.
    pub fn run<R: Recorder>(&self, arena: &mut SimArena, obs: &R) -> RunMetrics {
        let counters = self.schedule_in(arena, obs);
        let outcomes = std::mem::take(&mut arena.outcomes);
        self.attribute_in(&arena.finishes, outcomes, counters, obs)
    }

    /// The event loop: places every arrival, runs the clusters' passes
    /// and stages each completion in the arena's finish log, which stays
    /// there until the next run's loop. Reads the charges, the grid and
    /// the prices only through the policy's quotes, so a policy that
    /// reads no cost stages the same log under every accounting method,
    /// grid and year.
    pub(crate) fn schedule_in<R: Recorder>(
        &self,
        arena: &mut SimArena,
        obs: &R,
    ) -> ScheduleCounters {
        let n_machines = self.fleet.len();
        // Grow-only: after a larger fleet, a smaller one parks the tail
        // clusters (allocations intact) instead of dropping them, so
        // fleet-subset sweeps that alternate sizes keep every buffer.
        if arena.clusters.len() < n_machines {
            arena
                .clusters
                .resize_with(n_machines, || Cluster::new(0, 0));
        }
        let clusters = &mut arena.clusters[..n_machines];
        for (cluster, m) in clusters.iter_mut().zip(self.fleet) {
            if m.per_user {
                // One private node per user; the per-cluster user
                // constraint keeps each user inside their own node.
                let cores = m.spec.cores as u64 * self.config.users as u64;
                cluster.reset(cores, m.spec.cores);
            } else {
                let cores = m.spec.cores as u64 * m.nodes as u64;
                cluster.reset(cores, cores.min(u32::MAX as u64) as u32);
            }
            cluster.backfill_depth = self.config.backfill_depth;
            // Provisioning rounds every request up to the slice, so
            // the slice is the smallest start the scheduler must
            // consider (drives its saturated-cluster early exit).
            cluster.min_grain = m.spec.slice_cores;
        }

        let mut events = EventQueue::new(&self.trace.jobs, &mut arena.events);

        let jobs = self.trace.jobs.len();
        debug_assert!(jobs < u32::MAX as usize, "job indices must fit u32");
        arena.started_at.clear();
        arena.started_at.resize(jobs, f64::NAN);
        let started_at = &mut arena.started_at;
        arena.finishes.clear();
        let finishes = &mut arena.finishes;
        let mut rejected = 0usize;
        let mut events_processed = 0usize;
        // GreedyShift bookkeeping: a job may be postponed at most once.
        arena.shifted.clear();
        arena.shifted.resize(jobs, false);
        let shifted = &mut arena.shifted;
        let started = &mut arena.started_buf;
        let candidates = self.candidates();

        // Phase attribution (recording builds only): wall time inside
        // each arrival arm is `schedule`, and the loop remainder
        // (event-queue traffic) is `events`. Laps accumulate in locals —
        // zero atomic traffic on the ~2.5 M events/s hot path — and
        // flush once after the loop.
        let loop_watch = Stopwatch::<R>::start();
        let mut schedule_ns = 0u64;

        while let Some(event) = events.pop() {
            let now = event.at;
            events_processed += 1;
            match event.kind {
                EventKind::Arrival(job_idx) => {
                    let arm_watch = Stopwatch::<R>::start();
                    let job = &self.trace.jobs[job_idx];
                    let bases = &mut arena.bases;
                    bases.clear();
                    bases.extend(
                        candidates
                            .clone()
                            .map(|m| self.quote_basis(clusters, m, job, now)),
                    );
                    // Temporal shifting: quote every whole-hour submission
                    // moment in the window and postpone if a cleaner hour
                    // is cheaper by enough. GreedyShift applies a uniform
                    // window and threshold; Adaptive lets each user's
                    // elasticity profile decide.
                    if !shifted[job_idx] {
                        let search = match self.config.policy {
                            Policy::GreedyShift { max_delay_hours } => {
                                Some((max_delay_hours, 0.01))
                            }
                            Policy::Adaptive => self.adaptive_search(job),
                            _ => None,
                        };
                        let with_waits = self.config.policy == Policy::Adaptive;
                        let delay = search.and_then(|(window, saving)| {
                            let scratch = &mut arena.delay;
                            self.best_delay(bases, scratch, now, window, saving, with_waits)
                        });
                        if let Some(delay_h) = delay {
                            shifted[job_idx] = true;
                            events.push(
                                now + TimeSpan::from_hours(delay_h as f64),
                                EventKind::Arrival(job_idx),
                            );
                            schedule_ns += arm_watch.elapsed_ns();
                            continue;
                        }
                    }
                    let options = &mut arena.options_buf;
                    options.clear();
                    options.extend(
                        candidates
                            .clone()
                            .zip(bases.iter())
                            .map(|(m, basis)| self.option(clusters, m, basis, now)),
                    );
                    let Some(machine) = self.config.policy.choose(options) else {
                        rejected += 1;
                        schedule_ns += arm_watch.elapsed_ns();
                        continue;
                    };
                    let basis = &bases[machine - candidates.start];
                    clusters[machine].submit(QueuedJob {
                        job: job_idx,
                        user: job.user,
                        cores: basis.provisioned,
                        runtime: basis.runtime,
                        submitted: now,
                    });
                    started.clear();
                    clusters[machine].schedule_into(now, started);
                    for s in started.iter() {
                        started_at[s.job] = now.as_secs();
                        events.push(now + s.runtime, EventKind::Finish(machine, s.job));
                    }
                    schedule_ns += arm_watch.elapsed_ns();
                }
                EventKind::Finish(machine, job_idx) => {
                    clusters[machine].finish(job_idx);
                    // Stage the completion's scalars; the expensive
                    // attribution pass runs over the columns after the
                    // loop. `started_at[job]` is written exactly once
                    // (at start) so staging it now or reading it later
                    // is the same value.
                    finishes.push(
                        job_idx as u32,
                        machine as u32,
                        started_at[job_idx],
                        now.as_secs(),
                    );
                    let pass_watch = Stopwatch::<R>::start();
                    started.clear();
                    clusters[machine].schedule_into(now, started);
                    for s in started.iter() {
                        started_at[s.job] = now.as_secs();
                        events.push(now + s.runtime, EventKind::Finish(machine, s.job));
                    }
                    schedule_ns += pass_watch.elapsed_ns();
                }
            }
        }

        if R::ENABLED {
            obs.phase_ns(Phase::Schedule, schedule_ns);
            obs.phase_ns(
                Phase::Events,
                loop_watch.elapsed_ns().saturating_sub(schedule_ns),
            );
            obs.add(
                Counter::ReadyUserMerges,
                clusters.iter().map(|c| c.merge_work).sum(),
            );
        }
        ScheduleCounters {
            rejected,
            events: events_processed,
            release_work: clusters.iter().map(|c| c.release_work).sum(),
        }
    }

    /// The attribution pass: materializes the staged completion columns
    /// into outcome records, stored in `outcomes`, in log (= pop) order —
    /// one contiguous pass over the whole run instead of one cold detour
    /// per finish event — and prices each under this simulator's fleet,
    /// grid and year. The log may come from another simulator's
    /// [`schedule_in`](Simulator::schedule_in) whose schedule this one
    /// shares.
    pub(crate) fn attribute_in<R: Recorder>(
        &self,
        finishes: &FinishLog,
        mut outcomes: Vec<JobOutcome>,
        counters: ScheduleCounters,
        obs: &R,
    ) -> RunMetrics {
        let watch = Stopwatch::<R>::start();
        outcomes.clear();
        outcomes.reserve(finishes.len());
        for i in 0..finishes.len() {
            outcomes.push(self.outcome(
                finishes.job[i] as usize,
                finishes.machine[i] as usize,
                finishes.start_s[i],
                TimePoint::from_secs(finishes.end_s[i]),
            ));
        }
        if R::ENABLED {
            obs.phase_ns(Phase::Attribute, watch.elapsed_ns());
        }

        RunMetrics {
            policy: self.config.policy.name(
                &self
                    .fleet
                    .iter()
                    .map(|m| m.spec.name.as_str())
                    .collect::<Vec<_>>(),
            ),
            outcomes,
            rejected: counters.rejected,
            events: counters.events,
            release_work: counters.release_work,
        }
    }

    fn outcome(&self, job_idx: usize, machine: usize, start_s: f64, end: TimePoint) -> JobOutcome {
        let job = &self.trace.jobs[job_idx];
        // Settled charges and attribution integrate the grid over the
        // job's actual execution window — `∫ I(t) dt` per Li et al.'s
        // per-job operational-carbon formulation — via the trace's O(1)
        // prefix-summed window mean. (Decision-time quotes above still
        // read the point intensity at the expected start: a scheduler
        // can't know a job's completed window before running it.)
        let start = TimePoint::from_secs(start_s);
        let provisioned = self.machines.provisioned(machine, job.cores);
        let mut ctx = self
            .machines
            .charge_basis(self.table, machine, job, provisioned);
        ctx.carbon_intensity = self.intensity[machine].window_mean(start, end);
        let charges = [
            MethodKind::Runtime.charge(&ctx).value(),
            MethodKind::Energy.charge(&ctx).value(),
            MethodKind::Peak.charge(&ctx).value(),
            MethodKind::eba().charge(&ctx).value(),
            MethodKind::Cba.charge(&ctx).value(),
        ];
        let footprint = green_carbon::attribute_job(
            ctx.facility_energy(),
            ctx.carbon_intensity,
            ctx.duration,
            ctx.carbon_rate,
            ctx.provisioned_share,
        );
        JobOutcome {
            job: job.id.0,
            user: job.user.0,
            machine: machine as u32,
            cores: job.cores,
            arrival_s: job.arrival.as_secs(),
            start_s,
            end_s: end.as_secs(),
            energy_kwh: ctx.energy.as_kwh(),
            charges,
            op_carbon_g: footprint.operational.as_grams(),
            attributed_g: footprint.total().as_grams(),
            work_core_hours: self.table.work_core_hours(job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketInputs;
    use green_machines::simulation_fleet;
    use green_obs::NoopRecorder;
    use green_perfmodel::CrossMachinePredictor;
    use green_workload::TraceConfig;
    use proptest::prelude::*;

    fn setup() -> (Trace, Vec<FleetMachine>, PlacementTable, Vec<HourlyTrace>) {
        let fleet = simulation_fleet();
        let predictor = CrossMachinePredictor::for_fleet(&fleet, 23);
        let trace = Trace::generate(&TraceConfig::small(23), &predictor);
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let intensity: Vec<HourlyTrace> = fleet
            .iter()
            .map(|m| m.spec.facility.region.trace(23, 90))
            .collect();
        (trace, fleet, table, intensity)
    }

    fn run(policy: Policy) -> RunMetrics {
        let (trace, fleet, table, intensity) = setup();
        let sim = Simulator::new(
            &trace,
            &fleet,
            &table,
            &intensity,
            SimConfig::new(policy, MethodKind::eba(), 24),
        );
        sim.run(&mut SimArena::new(), &NoopRecorder)
    }

    #[test]
    fn all_jobs_complete_under_greedy() {
        let m = run(Policy::Greedy);
        assert_eq!(m.outcomes.len() + m.rejected, 1_500);
        assert_eq!(m.rejected, 0, "every job fits somewhere");
        // Starts never precede arrivals.
        for o in &m.outcomes {
            assert!(o.start_s >= o.arrival_s - 1e-6);
            assert!(o.end_s > o.start_s);
        }
    }

    #[test]
    fn greedy_never_uses_theta_under_eba() {
        let m = run(Policy::Greedy);
        let dist = m.machine_distribution(4);
        assert_eq!(dist[3], 0, "Theta is never cheapest under EBA: {dist:?}");
    }

    #[test]
    fn fixed_policy_uses_single_machine() {
        let m = run(Policy::Fixed(2));
        let dist = m.machine_distribution(4);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], 0);
        assert_eq!(dist[3], 0);
        assert!(dist[2] > 0);
    }

    #[test]
    fn energy_policy_uses_least_energy() {
        let energy = run(Policy::Energy);
        let runtime = run(Policy::Runtime);
        assert!(
            energy.total_energy_mwh() < runtime.total_energy_mwh(),
            "Energy {:.1} MWh vs Runtime {:.1} MWh",
            energy.total_energy_mwh(),
            runtime.total_energy_mwh()
        );
    }

    #[test]
    fn eft_no_slower_than_single_machine() {
        let eft = run(Policy::Eft);
        let theta = run(Policy::Fixed(3));
        assert!(eft.makespan_hours() <= theta.makespan_hours() * 1.05);
        assert!(eft.mean_wait_hours() <= theta.mean_wait_hours() + 1e-9);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(Policy::Mixed);
        let b = run(Policy::Mixed);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_market_changes_nothing() {
        let (trace, fleet, table, intensity) = setup();
        let baseline = Simulator::new(
            &trace,
            &fleet,
            &table,
            &intensity,
            SimConfig::new(Policy::Adaptive, MethodKind::eba(), 24),
        )
        .run(&mut SimArena::new(), &NoopRecorder);
        let with_market = Simulator::new(
            &trace,
            &fleet,
            &table,
            &intensity,
            SimConfig::new(Policy::Adaptive, MethodKind::eba(), 24)
                .with_market(crate::market::MarketInputs::identity(4)),
        )
        .run(&mut SimArena::new(), &NoopRecorder);
        // Flat prices + inelastic agents under EBA (time-invariant
        // charges, so expected-start quote anchoring is a no-op):
        // Adaptive must equal Greedy placements and outcomes bit for
        // bit (modulo the policy name).
        let greedy = run(Policy::Greedy);
        assert_eq!(baseline.outcomes, with_market.outcomes);
        assert_eq!(baseline.outcomes, greedy.outcomes);
    }

    #[test]
    fn adaptive_agents_shift_toward_cheap_hours() {
        use crate::market::{MarketAgent, MarketInputs, PriceTable};
        // An *uncongested* workload: temporal shifting can only re-time
        // actual starts (and therefore posted spend) when the fleet has
        // slack — on a saturated fleet jobs run back-to-back whatever
        // their submission hour.
        let fleet = simulation_fleet();
        let predictor = CrossMachinePredictor::for_fleet(&fleet, 23);
        let trace = Trace::generate(
            &TraceConfig {
                users: 24,
                unique_jobs: 300,
                duration: green_units::TimeSpan::from_days(8.0),
                max_runtime: green_units::TimeSpan::from_hours(12.0),
                seed: 23,
            },
            &predictor,
        );
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let intensity: Vec<HourlyTrace> = fleet
            .iter()
            .map(|m| m.spec.facility.region.trace(23, 90))
            .collect();
        // A strong diurnal price signal, identical on every machine:
        // hours 0–11 of each day are 3× as expensive as hours 12–23.
        let day: Vec<f64> = (0..24).map(|h| if h < 12 { 3.0 } else { 1.0 }).collect();
        let prices = std::sync::Arc::new(PriceTable::new(vec![day; 4]));
        let market = |elasticity: f64| MarketInputs {
            prices: std::sync::Arc::clone(&prices),
            agents: std::sync::Arc::new(vec![MarketAgent {
                elasticity,
                slack_hours: 12,
            }]),
            max_delay_hours: 24,
            shift_threshold: 0.02,
        };
        let run_with = |elasticity: f64| {
            Simulator::new(
                &trace,
                &fleet,
                &table,
                &intensity,
                SimConfig::new(Policy::Adaptive, MethodKind::eba(), 24)
                    .with_market(market(elasticity)),
            )
            .run(&mut SimArena::new(), &NoopRecorder)
        };
        let rigid = run_with(0.0);
        let elastic = run_with(2.0);
        let shifted_starts = |m: &RunMetrics| {
            m.outcomes
                .iter()
                .filter(|o| o.start_s > o.arrival_s + 1.0)
                .count()
        };
        assert!(
            shifted_starts(&elastic) > shifted_starts(&rigid),
            "elastic agents should delay submissions toward cheap hours"
        );
        // Spending at posted prices drops for the elastic population.
        let posted = |m: &RunMetrics| -> f64 {
            m.outcomes
                .iter()
                .map(|o| {
                    o.charges[crate::metrics::cost::EBA]
                        * prices.multiplier_at(
                            o.machine as usize,
                            green_units::TimePoint::from_secs(o.start_s),
                        )
                })
                .sum()
        };
        assert!(
            posted(&elastic) < posted(&rigid),
            "elastic posted spend {:.3e} should undercut rigid {:.3e}",
            posted(&elastic),
            posted(&rigid)
        );
    }

    /// The per-call quote the kernel replaced, kept as its independent
    /// oracle: the full accounting context at the moment, then
    /// `MethodKind::charge`, then `PriceTable::multiplier_at`, each
    /// derived from scratch.
    impl Simulator<'_> {
        fn charge_context(&self, machine: usize, job_idx: usize, at: TimePoint) -> ChargeContext {
            let job = &self.trace.jobs[job_idx];
            let spec = &self.fleet[machine].spec;
            let provisioned = job.cores.max(1).div_ceil(spec.slice_cores) * spec.slice_cores;
            ChargeContext::new(
                self.table.energy(job, machine),
                self.table.runtime(job, machine),
            )
            .with_cores(job.cores)
            .with_provisioned(
                spec.tdp_per_core() * provisioned as f64,
                provisioned as f64 / spec.cores as f64,
            )
            .with_peak(spec.cpu.peak_per_thread)
            .with_carbon(
                green_carbon::IntensitySource::intensity_at(&self.intensity[machine], at),
                spec.carbon_rate(self.config.sim_year),
            )
            .with_pue(spec.facility.pue)
        }

        /// The full quote basis every arrival built before the trimmed
        /// one: every field, from the spec, for any policy.
        fn full_quote_basis(
            &self,
            clusters: &[Cluster],
            machine: usize,
            job_idx: usize,
            now: TimePoint,
        ) -> QuoteBasis {
            let job = &self.trace.jobs[job_idx];
            let mut ctx = self.charge_context(machine, job_idx, now);
            ctx.carbon_intensity = CarbonIntensity::ZERO;
            let spec = &self.fleet[machine].spec;
            let provisioned = job.cores.max(1).div_ceil(spec.slice_cores) * spec.slice_cores;
            QuoteBasis {
                provisioned,
                runtime: ctx.duration,
                energy: ctx.energy,
                est_wait: clusters[machine].estimated_wait(provisioned, job.user, now),
                charge: self.config.decision_method.affine(&ctx),
            }
        }

        /// Every field of a machine's option, from the full basis and the
        /// per-call quote.
        fn full_option(
            &self,
            clusters: &[Cluster],
            machine: usize,
            job_idx: usize,
            now: TimePoint,
        ) -> MachineOption {
            let basis = self.full_quote_basis(clusters, machine, job_idx, now);
            let quote_at = if self.config.market.is_some() {
                now + basis.est_wait
            } else {
                now
            };
            MachineOption {
                machine,
                eligible: clusters[machine].eligible(basis.provisioned),
                runtime: basis.runtime,
                energy: basis.energy,
                cost: self.posted_quote(machine, job_idx, quote_at),
                est_wait: basis.est_wait,
            }
        }

        fn posted_quote(&self, machine: usize, job_idx: usize, at: TimePoint) -> f64 {
            let multiplier = self
                .config
                .market
                .as_ref()
                .map_or(1.0, |m| m.prices.multiplier_at(machine, at));
            let ctx = self.charge_context(machine, job_idx, at);
            self.config.decision_method.charge(&ctx).value() * multiplier
        }

        /// GreedyShift's search as the per-call code ran it: delay-outer,
        /// quoting the submission moment itself.
        fn submission_delay_oracle(
            &self,
            job_idx: usize,
            now: TimePoint,
            max_delay_hours: u32,
            required_saving: f64,
        ) -> Option<u32> {
            let quote_at = |at: TimePoint| -> f64 {
                (0..self.fleet.len())
                    .map(|m| self.posted_quote(m, job_idx, at))
                    .fold(f64::INFINITY, f64::min)
            };
            let now_cost = quote_at(now);
            let mut best: Option<(u32, f64)> = None;
            for delay in 1..=max_delay_hours {
                let cost = quote_at(now + TimeSpan::from_hours(delay as f64));
                if cost < best.map(|(_, c)| c).unwrap_or(now_cost) {
                    best = Some((delay, cost));
                }
            }
            best.filter(|(_, c)| *c < now_cost * (1.0 - required_saving))
                .map(|(d, _)| d)
        }

        /// Adaptive's search as the per-call code ran it: delay-outer,
        /// quoting each machine at its expected start.
        fn adaptive_delay_oracle(
            &self,
            job_idx: usize,
            now: TimePoint,
            waits: &[f64],
            window: u32,
            required_saving: f64,
        ) -> Option<u32> {
            let quote_at = |delay_s: f64| -> f64 {
                (0..self.fleet.len())
                    .map(|m| {
                        let start =
                            now + TimeSpan::from_secs(delay_s + (waits[m] - delay_s).max(0.0));
                        self.posted_quote(m, job_idx, start)
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let now_cost = quote_at(0.0);
            let mut best: Option<(u32, f64)> = None;
            for delay in 1..=window {
                let cost = quote_at(delay as f64 * 3600.0);
                if cost < best.map(|(_, c)| c).unwrap_or(now_cost) {
                    best = Some((delay, cost));
                }
            }
            best.filter(|(_, c)| *c < now_cost * (1.0 - required_saving))
                .map(|(d, _)| d)
        }
    }

    /// The world of the kernel oracles, built once: three-day intensity
    /// traces, so moments past hour 72 wrap, and two facilities with a
    /// PUE above one, so CBA's slope is not the bare IT energy.
    fn oracle_world() -> &'static (Trace, Vec<FleetMachine>, PlacementTable, Vec<HourlyTrace>) {
        static WORLD: std::sync::OnceLock<(
            Trace,
            Vec<FleetMachine>,
            PlacementTable,
            Vec<HourlyTrace>,
        )> = std::sync::OnceLock::new();
        WORLD.get_or_init(|| {
            let (trace, mut fleet, table, _) = setup();
            fleet[0].spec.facility.pue = 1.1;
            fleet[2].spec.facility.pue = 1.3;
            let intensity = fleet
                .iter()
                .map(|m| m.spec.facility.region.trace(29, 3))
                .collect();
            (trace, fleet, table, intensity)
        })
    }

    /// A price table that covers only three of the four machines, with a
    /// one-entry flat series among them.
    fn oracle_market() -> MarketInputs {
        use crate::market::{MarketAgent, PriceTable};
        let diurnal: Vec<f64> = (0..24)
            .map(|h| 0.5 + (h as f64 * 0.37).sin().abs())
            .collect();
        let weekly: Vec<f64> = (0..50).map(|h| 0.3 + (h % 7) as f64 * 0.45).collect();
        MarketInputs {
            prices: std::sync::Arc::new(PriceTable::new(vec![diurnal, vec![1.0], weekly])),
            agents: std::sync::Arc::new(vec![MarketAgent {
                elasticity: 1.0,
                slack_hours: 24,
            }]),
            max_delay_hours: 24,
            shift_threshold: 0.05,
        }
    }

    /// `market`: 0 = none, 1 = the oracle price table, 2 = the identity
    /// market's flat table (one entry per machine).
    fn oracle_config(method: usize, market: u32) -> SimConfig {
        let config = SimConfig::new(Policy::Adaptive, MethodKind::ALL[method], 24);
        match market {
            0 => config,
            1 => config.with_market(oracle_market()),
            _ => config.with_market(MarketInputs::identity(4)),
        }
    }

    /// Empty clusters shaped like the fleet: the quote basis needs a
    /// queue estimate, and an idle fleet's is zero.
    fn idle_clusters(fleet: &[FleetMachine]) -> Vec<Cluster> {
        fleet
            .iter()
            .map(|m| {
                let cores = m.spec.cores as u64 * m.nodes as u64 * 24;
                Cluster::new(cores, cores.min(u32::MAX as u64) as u32)
            })
            .collect()
    }

    /// Clusters shaped like the fleet with `nodes` nodes per shared
    /// machine and 24 private Desktops, loaded at `now` with each `(job,
    /// machine)` of `load` that fits: submitted in order, then one pass
    /// per machine, so some run, some queue behind them and the users
    /// with a running job are busy.
    fn loaded_clusters(
        sim: &Simulator,
        nodes: u32,
        load: &[(usize, usize)],
        now: TimePoint,
    ) -> Vec<Cluster> {
        let mut clusters: Vec<Cluster> = sim
            .fleet
            .iter()
            .map(|m| {
                let (total, largest) = if m.per_user {
                    (m.spec.cores as u64 * 24, m.spec.cores)
                } else {
                    let cores = m.spec.cores as u64 * nodes as u64;
                    (cores, cores as u32)
                };
                let mut cluster = Cluster::new(total, largest);
                cluster.min_grain = m.spec.slice_cores;
                cluster
            })
            .collect();
        for &(job_idx, machine) in load {
            let job = &sim.trace.jobs[job_idx];
            let slice = sim.fleet[machine].spec.slice_cores;
            let cores = job.cores.max(1).div_ceil(slice) * slice;
            if clusters[machine].eligible(cores) {
                clusters[machine].submit(QueuedJob {
                    job: job_idx,
                    user: job.user,
                    cores,
                    runtime: sim.table.runtime(job, machine),
                    submitted: now,
                });
            }
        }
        for cluster in &mut clusters {
            cluster.schedule(now);
        }
        clusters
    }

    /// Moments the hour key must get right: before the epoch, exactly
    /// on hour boundaries (inside the series and past them), the first
    /// hours after each series length wraps (24 and 50 for prices, 72
    /// for intensity), and anywhere in a long run.
    fn moment() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e7..0.0f64,
            Just(-0.0f64),
            (0u32..400).prop_map(|h| h as f64 * 3600.0),
            (0u32..400).prop_map(|h| h as f64 * 3600.0 - 1e-6),
            (1u32..5, 0usize..3, 0u32..2).prop_map(|(k, series, h)| {
                let len = [24, 50, 72][series];
                (k * len + h) as f64 * 3600.0
            }),
            0.0..3.2e7f64,
        ]
    }

    /// Moments one ulp below an hour boundary just under a power of two
    /// (hours 2330, 4660, 9320 and 18641): adding whole hours rounds up
    /// across the next boundary, so the hour row skips an hour — from
    /// 33,551,999.999999996 s it reads 9319, 9321, 9322.
    const ROUND_UP_MOMENTS: [f64; 4] = [
        8_387_999.999_999_999,
        16_775_999.999_999_998,
        33_551_999.999_999_996,
        67_107_599.999_999_99,
    ];

    /// Where a delay search can start: `moment()`'s pre-epoch, boundary,
    /// wrap and long-run times, and the round-up moments.
    fn search_moment() -> impl Strategy<Value = f64> {
        prop_oneof![
            moment(),
            (0usize..ROUND_UP_MOMENTS.len()).prop_map(|i| ROUND_UP_MOMENTS[i]),
        ]
    }

    /// A machine's queue wait: none, under a few days, an exact number
    /// of hours (the delay that covers it lands on the wait itself), or
    /// several days (every delay of an agent's window inside it).
    fn queue_wait() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0f64),
            0.0..2.0e5f64,
            (1u32..60).prop_map(|h| h as f64 * 3600.0),
            2.0e5..1.0e6f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The quote kernel equals the per-call quote bit for bit, for
        /// every method, with no market, the oracle table and a flat
        /// one-entry table, on every machine — the one past the end of
        /// the oracle table included.
        #[test]
        fn quote_kernel_matches_per_call_quote(
            job_idx in 0usize..1_500,
            machine in 0usize..4,
            method in 0usize..5,
            market in 0u32..3,
            now_s in 0.0..3.2e7f64,
            at_s in moment(),
        ) {
            let (trace, fleet, table, intensity) = oracle_world();
            let sim = Simulator::new(trace, fleet, table, intensity, oracle_config(method, market));
            let clusters = idle_clusters(fleet);
            let basis = sim.quote_basis(&clusters, machine, &trace.jobs[job_idx], TimePoint::from_secs(now_s));
            let at = TimePoint::from_secs(at_s);
            prop_assert_eq!(
                sim.quote(machine, &basis, at).to_bits(),
                sim.posted_quote(machine, job_idx, at).to_bits(),
                "job {} machine {} method {} market {} at {}s", job_idx, machine, method, market, at_s
            );
        }

        /// The hour-row delay search picks the delay the per-call
        /// delay-outer searches picked: Adaptive's with each machine's
        /// wait, and GreedyShift's with every wait taken as zero. Windows
        /// reach an agent's 48-hour slack and a few hundred hours of a
        /// GreedyShift budget, so rows run past the 72-hour intensity
        /// series and the 24- and 50-hour price series.
        #[test]
        fn delay_search_matches_per_call_search(
            job_idx in 0usize..1_500,
            method in 0usize..5,
            market in 0u32..3,
            now_s in search_moment(),
            waits in prop::collection::vec(queue_wait(), 4..5),
            window in prop_oneof![0u32..49, 49u32..400],
            required in 0.0..0.2f64,
        ) {
            let (trace, fleet, table, intensity) = oracle_world();
            let sim = Simulator::new(trace, fleet, table, intensity, oracle_config(method, market));
            let clusters = idle_clusters(fleet);
            let now = TimePoint::from_secs(now_s);
            let job = &trace.jobs[job_idx];
            let mut bases: Vec<QuoteBasis> =
                (0..4).map(|m| sim.quote_basis(&clusters, m, job, now)).collect();
            for (basis, wait) in bases.iter_mut().zip(&waits) {
                basis.est_wait = TimeSpan::from_secs(*wait);
            }
            let mut scratch = DelayScratch::default();
            prop_assert_eq!(
                sim.best_delay(&bases, &mut scratch, now, window, required, true),
                sim.adaptive_delay_oracle(job_idx, now, &waits, window, required),
                "adaptive: job {} method {} market {} now {}s", job_idx, method, market, now_s
            );
            prop_assert_eq!(
                sim.best_delay(&bases, &mut scratch, now, window, required, false),
                sim.submission_delay_oracle(job_idx, now, window, required),
                "greedy-shift: job {} method {} market {} now {}s", job_idx, method, market, now_s
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The trimmed bases and options of every policy choose the
        /// machine the full ones choose, and submit the same provisioned
        /// slice and runtime — on loaded clusters, under every method,
        /// with and without a market.
        #[test]
        fn trimmed_options_choose_like_full_options(
            job_idx in 0usize..1_500,
            policy in 0usize..8,
            fixed in 0usize..5,
            method in 0usize..5,
            market in 0u32..3,
            now_s in 0.0..3.2e7f64,
            nodes in 1u32..6,
            load in prop::collection::vec((0usize..1_500, 0usize..4), 0..40),
        ) {
            let (trace, fleet, table, intensity) = oracle_world();
            let policy = [
                Policy::Greedy,
                Policy::Energy,
                Policy::Mixed,
                Policy::Eft,
                Policy::Runtime,
                Policy::Fixed(fixed),
                Policy::GreedyShift { max_delay_hours: 24 },
                Policy::Adaptive,
            ][policy];
            let config = SimConfig { policy, ..oracle_config(method, market) };
            let sim = Simulator::new(trace, fleet, table, intensity, config);
            let now = TimePoint::from_secs(now_s);
            let clusters = loaded_clusters(&sim, nodes, &load, now);
            let job = &trace.jobs[job_idx];
            let candidates = sim.candidates();
            let bases: Vec<QuoteBasis> = candidates
                .clone()
                .map(|m| sim.quote_basis(&clusters, m, job, now))
                .collect();
            let trimmed: Vec<MachineOption> = candidates
                .clone()
                .zip(&bases)
                .map(|(m, basis)| sim.option(&clusters, m, basis, now))
                .collect();
            let full: Vec<MachineOption> = (0..fleet.len())
                .map(|m| sim.full_option(&clusters, m, job_idx, now))
                .collect();
            let chosen = policy.choose(&trimmed);
            prop_assert_eq!(chosen, policy.choose(&full), "{:?} method {} market {}", policy, method, market);
            if let Some(m) = chosen {
                let basis = &bases[m - candidates.start];
                let oracle = sim.full_quote_basis(&clusters, m, job_idx, now);
                prop_assert_eq!(basis.provisioned, oracle.provisioned);
                prop_assert_eq!(basis.runtime.as_secs().to_bits(), oracle.runtime.as_secs().to_bits());
            }
        }
    }

    #[test]
    fn per_user_desktop_capacity_scales_with_users() {
        let (trace, fleet, table, intensity) = setup();
        let sim = Simulator::new(
            &trace,
            &fleet,
            &table,
            &intensity,
            SimConfig::new(Policy::Fixed(1), MethodKind::eba(), 24),
        );
        let m = sim.run(&mut SimArena::new(), &NoopRecorder);
        // Only Desktop-sized jobs complete; larger ones are rejected.
        let over = trace.jobs.iter().filter(|j| j.cores > 16).count();
        assert_eq!(m.rejected, over);
        let dist = m.machine_distribution(4);
        assert_eq!(dist[1], trace.len() - over);
    }

    /// A run with delay budget `hours` on one input: `GreedyShift`'s own
    /// budget, or the market's cap under Adaptive with agents whose slack
    /// reaches it.
    fn budget_run(hours: u32, market: bool) -> RunMetrics {
        use crate::market::{MarketAgent, PriceTable};
        let fleet = simulation_fleet();
        let predictor = CrossMachinePredictor::for_fleet(&fleet, 23);
        let trace = Trace::generate(
            &TraceConfig {
                users: 4,
                unique_jobs: 12,
                duration: green_units::TimeSpan::from_days(2.0),
                max_runtime: green_units::TimeSpan::from_hours(4.0),
                seed: 23,
            },
            &predictor,
        );
        let table = PlacementTable::build(&trace, &fleet, &predictor);
        let intensity: Vec<HourlyTrace> = fleet
            .iter()
            .map(|m| m.spec.facility.region.trace(23, 30))
            .collect();
        let config = if market {
            SimConfig::new(Policy::Adaptive, MethodKind::Cba, 4).with_market(MarketInputs {
                prices: std::sync::Arc::new(PriceTable::flat(4)),
                agents: std::sync::Arc::new(vec![MarketAgent {
                    elasticity: 1.0,
                    slack_hours: u32::MAX,
                }]),
                max_delay_hours: hours,
                shift_threshold: 0.02,
            })
        } else {
            SimConfig::new(
                Policy::GreedyShift {
                    max_delay_hours: hours,
                },
                MethodKind::Cba,
                4,
            )
        };
        Simulator::new(&trace, &fleet, &table, &intensity, config)
            .run(&mut SimArena::new(), &NoopRecorder)
    }

    #[test]
    fn a_year_long_delay_budget_runs() {
        for market in [false, true] {
            let m = budget_run(MAX_SHIFT_BUDGET_HOURS, market);
            assert!(!m.outcomes.is_empty(), "market {market}");
        }
    }

    #[test]
    fn delay_budgets_past_a_year_panic() {
        for market in [false, true] {
            for hours in [MAX_SHIFT_BUDGET_HOURS + 1, u32::MAX] {
                let panic = std::panic::catch_unwind(|| budget_run(hours, market))
                    .expect_err("the budget is rejected");
                let message = panic.downcast_ref::<String>().expect("a formatted message");
                let field = if market {
                    "MarketInputs::max_delay_hours"
                } else {
                    "Policy::GreedyShift max_delay_hours"
                };
                assert!(message.contains(field), "{message}");
                assert!(message.contains("8760 h limit"), "{message}");
            }
        }
    }
}
