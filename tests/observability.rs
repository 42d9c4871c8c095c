//! The observability subsystem's two core contracts:
//!
//! 1. **Recording never changes the work.** `run_cell_in_obs` with a
//!    counting [`StatsRecorder`] must produce [`RunMetrics`] equal to
//!    the no-op run — same events, same outcomes, same carbon — and the
//!    recorder's own counters must agree with the metrics they mirror.
//! 2. **The no-op recorder is (close to) free.** The default path's
//!    probes are `if R::ENABLED` blocks over a `const false`, so the
//!    instrumented simulator must run at essentially the uninstrumented
//!    speed. The counting recorder pays one `Instant::now` pair per
//!    event arm plus relaxed atomics at loop exit — bounded here by a
//!    deliberately lenient factor so a shared CI runner can't flake the
//!    suite, while a catastrophic regression (per-event atomics, a
//!    syscall on the hot path) still fails loudly.

use std::time::Instant;

use green_batchsim::{intensity_for, run_cell_in_obs, PlacementTable, Policy, SimArena, SimConfig};
use green_carbon::HourlyTrace;
use green_machines::simulation_fleet;
use green_obs::{Counter, NoopRecorder, Phase, StatsRecorder};
use green_perfmodel::CrossMachinePredictor;
use green_workload::{Trace, TraceConfig};

struct World {
    fleet: Vec<green_machines::FleetMachine>,
    trace: Trace,
    table: PlacementTable,
    intensity: Vec<HourlyTrace>,
}

fn world() -> World {
    let fleet = simulation_fleet();
    let predictor = CrossMachinePredictor::for_fleet(&fleet, 11);
    let trace = Trace::generate(&TraceConfig::small(11), &predictor);
    let table = PlacementTable::build(&trace, &fleet, &predictor);
    let intensity = intensity_for(&fleet, 11);
    World {
        fleet,
        trace,
        table,
        intensity,
    }
}

fn config() -> SimConfig {
    SimConfig::new(Policy::Greedy, green_accounting::MethodKind::eba(), 24)
}

#[test]
fn recording_runs_are_work_identical_to_noop_runs() {
    let w = world();
    let mut arena = SimArena::new();
    let baseline = run_cell_in_obs(
        &w.trace,
        &w.fleet,
        &w.table,
        &w.intensity,
        config(),
        &mut arena,
        &NoopRecorder,
    );

    let recorder = StatsRecorder::new();
    let mut arena2 = SimArena::new();
    let recorded = run_cell_in_obs(
        &w.trace,
        &w.fleet,
        &w.table,
        &w.intensity,
        config(),
        &mut arena2,
        &recorder,
    );
    // Bit-identical work: the recorder observes the run, never steers it.
    assert_eq!(baseline, recorded);

    // The recorder counts the scheduler's queue work.
    assert!(recorder.counter(Counter::ReadyUserMerges) > 0);
    // Phase attribution covers the loop: each booked phase is
    // non-negative and schedule dominates an arrival-heavy workload.
    for phase in [Phase::Schedule, Phase::Events, Phase::Attribute] {
        assert!(recorder.phase(phase) < u64::MAX);
    }
    assert!(recorder.phase(Phase::Schedule) > 0);
}

#[test]
fn noop_recorder_overhead_is_bounded() {
    let w = world();
    let mut arena = SimArena::new();
    // Warm caches/allocations once before timing anything.
    let warm = run_cell_in_obs(
        &w.trace,
        &w.fleet,
        &w.table,
        &w.intensity,
        config(),
        &mut arena,
        &NoopRecorder,
    );
    arena.recycle(warm);

    let min_of = |mut run: Box<dyn FnMut() -> f64>| -> f64 {
        (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
    };
    let mut arena = SimArena::new();
    let noop_s = {
        let (w, arena) = (&w, &mut arena);
        min_of(Box::new(move || {
            let start = Instant::now();
            let m = run_cell_in_obs(
                &w.trace,
                &w.fleet,
                &w.table,
                &w.intensity,
                config(),
                arena,
                &NoopRecorder,
            );
            let s = start.elapsed().as_secs_f64();
            arena.recycle(m);
            s
        }))
    };
    let mut arena = SimArena::new();
    let recorder = StatsRecorder::new();
    let stats_s = {
        let (w, arena, recorder) = (&w, &mut arena, &recorder);
        min_of(Box::new(move || {
            let start = Instant::now();
            let m = run_cell_in_obs(
                &w.trace,
                &w.fleet,
                &w.table,
                &w.intensity,
                config(),
                arena,
                recorder,
            );
            let s = start.elapsed().as_secs_f64();
            arena.recycle(m);
            s
        }))
    };
    // Lenient on purpose (shared runners, tiny absolute times): the
    // counting recorder may pay for its clock reads, but an order of
    // magnitude means something landed on the per-event hot path.
    assert!(
        stats_s < noop_s * 10.0 + 0.05,
        "counting recorder too slow: noop {noop_s:.4}s vs stats {stats_s:.4}s"
    );
}
