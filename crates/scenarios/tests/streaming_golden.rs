//! Golden equivalence of the runner's two committers with a naive
//! serial oracle: the in-memory rows (`run_collect`) and the streamed
//! CSV (`run_streamed_range`) must both equal a one-thread, in-order
//! fold of the grid that bypasses the runner's sink, at every thread
//! count, on `examples/sweeps/sensitivity.toml` exactly as users run it.

use green_bench::export::csv_line;
use green_scenarios::{
    cell_label, CellMetrics, CellScratch, CellSummary, Sweep, SweepCaches, SweepRunner, SweepWorld,
    CSV_HEADERS,
};
use std::path::PathBuf;

fn sensitivity_sweep() -> Sweep {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweeps/sensitivity.toml");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Sweep::from_toml_str(&text).expect("example sweep parses")
}

/// The naive serial oracle: the full grid's world, every matching cell
/// of `sweep.expand()` run in order on one thread with fresh simulation
/// state, and each chunk of `replicates` results folded by
/// `CellSummary::of` and rendered by `csv_line`. No claim window, reorder
/// buffer or row sink is involved.
fn oracle_csv(sweep: &Sweep, filter: Option<&str>) -> String {
    let cells: Vec<_> = sweep
        .expand()
        .into_iter()
        .filter(|c| filter.is_none_or(|f| cell_label(&c.spec).contains(f)))
        .collect();
    let world = SweepWorld::build(sweep);
    let caches = SweepCaches::build(&world, &cells, 1);
    let metrics: Vec<CellMetrics> = cells
        .iter()
        .map(|c| world.run_cell_in(&c.spec, &caches, &mut CellScratch::new()))
        .collect();
    let replicates = sweep.seeds.len();
    let mut csv = csv_line(&CSV_HEADERS);
    for (group, results) in cells.chunks(replicates).zip(metrics.chunks(replicates)) {
        csv.push_str(&csv_line(
            &CellSummary::of(&group[0].spec, results).csv_row(),
        ));
    }
    csv
}

/// Both committers against the oracle at 1, 2 and 4 threads; returns
/// the streamed run's configuration count.
fn assert_committers_match_oracle(sweep: &Sweep, filter: Option<&str>) -> usize {
    let oracle = oracle_csv(sweep, filter);
    let mut configs = 0;
    for threads in [1, 2, 4] {
        let runner = SweepRunner::new(threads);
        let (results, _) = runner
            .run_collect(sweep, filter, None)
            .expect("valid sweep");
        assert_eq!(
            results.to_csv_string(),
            oracle,
            "in-memory rows diverged from the oracle at {threads} threads ({filter:?})"
        );
        let mut streamed = Vec::new();
        let summary = runner
            .run_streamed_range(sweep, filter, None, true, None, &mut streamed)
            .expect("streaming to a Vec cannot fail");
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            oracle,
            "streamed CSV diverged from the oracle at {threads} threads ({filter:?})"
        );
        assert_eq!(summary.configs, results.cells.len());
        configs = summary.configs;
    }
    configs
}

#[test]
fn streamed_csv_is_byte_identical_to_in_memory() {
    let sweep = sensitivity_sweep();
    assert_eq!(sweep.cell_count(), 36, "the example grid moved");
    assert_eq!(assert_committers_match_oracle(&sweep, None), 12);
}

/// A writer that records, for every `write`/`flush` it receives, how
/// many cells had completed at that moment — the liveness probe for the
/// streaming contract.
struct TracingWriter {
    /// `(bytes_written_by_this_op, cells_done_at_that_moment, was_flush)`
    ops: std::sync::Mutex<Vec<(usize, usize, bool)>>,
    cells_done: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl std::io::Write for &TracingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let done = self.cells_done.load(std::sync::atomic::Ordering::SeqCst);
        self.ops.lock().unwrap().push((buf.len(), done, false));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let done = self.cells_done.load(std::sync::atomic::Ordering::SeqCst);
        self.ops.lock().unwrap().push((0, done, true));
        Ok(())
    }
}

/// The stream's first byte must be observable before the first cell
/// completes: the header row is written *and flushed* eagerly, not
/// parked in the writer until enough row data accumulates. Guards the
/// regression where a multi-axis grid sat silent until the first
/// buffer's worth of configurations had finished.
#[test]
fn header_is_flushed_before_the_first_cell_completes() {
    let sweep = sensitivity_sweep();
    let cells_done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let writer = TracingWriter {
        ops: std::sync::Mutex::new(Vec::new()),
        cells_done: std::sync::Arc::clone(&cells_done),
    };
    let progress_cells = std::sync::Arc::clone(&cells_done);
    let progress = move |done: usize, _total: usize| {
        progress_cells.store(done, std::sync::atomic::Ordering::SeqCst);
    };
    let mut out = &writer;
    SweepRunner::new(1)
        .run_streamed_range(&sweep, None, None, true, Some(&progress), &mut out)
        .expect("tracing writer cannot fail");
    let ops = writer.ops.lock().unwrap();
    assert!(ops.len() >= 2, "expected header write + flush, got {ops:?}");
    let (header_bytes, header_done, header_is_flush) = ops[0];
    assert!(
        !header_is_flush && header_bytes > 0,
        "first op is the header"
    );
    assert_eq!(header_done, 0, "header written before any cell completed");
    let (_, flush_done, is_flush) = ops[1];
    assert!(is_flush, "header must be followed by an eager flush");
    assert_eq!(flush_done, 0, "first byte available before the first cell");
}

#[test]
fn streamed_filtered_rows_match_the_filtered_run() {
    let sweep = sensitivity_sweep();
    assert_eq!(
        assert_committers_match_oracle(&sweep, Some("greedy/eba")),
        2,
        "greedy/eba × two intensity scales"
    );
}
