//! The two sweep workloads, `market` and `survey`: a generated sweep run
//! as `--shard I/N` fragments through `run_shard`, merged with
//! `merge_shards`, and (for `survey`) read back by an analyst session of
//! `analyze_dir` queries over the fragment directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use green_obs::{Counter, ObsSnapshot, Phase, Recorder, StatsRecorder};
use green_perfmodel::stats::{median, quantile};
use green_scenarios::analyze::write_sidecar;
use green_scenarios::progress::progress_path;
use green_scenarios::shard::Fnv1a;
use green_scenarios::{
    analyze_dir, load_shard_set, manifest_path, merge_shards, read_verified, run_shard,
    run_shard_obs, AnalyzeQuery, CellScratch, Shard, ShardAssignment, ShardJob, ShardManifest,
    Sweep, SweepCaches, SweepRunner, SweepWorld, CHECKPOINT_EVERY, CSV_HEADERS, PROGRESS_HISTORY,
};

use crate::inputs::{analyst_session, market_toml, survey_toml};
use crate::metrics::{ms, Metrics};
use crate::spans::{Tracer, ROOT};
use crate::{secs, Iteration, Setup, Tally, Workload, THREADS};

/// Samples the per-cell timing probe aims for.
const CELL_SAMPLES: usize = 8_000;

/// A generated sweep run through the shard, merge and analyze entry
/// points.
pub struct SweepWorkload {
    seed: u64,
    toml: String,
    shards: usize,
    /// Workers per shard (`--threads`).
    threads: usize,
    session: Vec<AnalyzeQuery>,
    /// Cells the per-cell timing probe samples at most.
    cell_samples: usize,
    scratch: PathBuf,
    iteration: usize,
    /// Fragment directory of the last iteration.
    last_fragments: Option<PathBuf>,
    /// Digest of the last iteration's analyst-session reports.
    session_digest: u64,
}

impl SweepWorkload {
    /// The `market` workload: 64 paper-preset incentive-loop cells in two
    /// shards of two workers each, then a merge.
    pub fn market(seed: u64, scratch: PathBuf) -> SweepWorkload {
        SweepWorkload {
            seed,
            toml: market_toml(seed),
            shards: 2,
            threads: THREADS,
            session: Vec::new(),
            cell_samples: 16,
            scratch,
            iteration: 0,
            last_fragments: None,
            session_digest: 0,
        }
    }

    /// The `survey` workload: 160,000 micro-preset cells in four shards,
    /// a merge, then the analyst session. Each shard runs one worker: on
    /// two, its ~20 µs cells take the sink lock ~45,000 times a second,
    /// and a stolen lock holder idles both workers, which made the
    /// stage's time follow the host's steal share rather than the code.
    pub fn survey(seed: u64, scratch: PathBuf) -> SweepWorkload {
        SweepWorkload {
            seed,
            toml: survey_toml(seed),
            shards: 4,
            threads: 1,
            session: analyst_session(),
            cell_samples: CELL_SAMPLES,
            scratch,
            iteration: 0,
            last_fragments: None,
            session_digest: 0,
        }
    }

    fn parse(&self) -> Option<Sweep> {
        Sweep::from_toml_str(&self.toml)
            .map_err(|e| eprintln!("generated sweep rejected: {e}"))
            .ok()
    }

    fn ranges(&self, sweep: &Sweep) -> Vec<std::ops::Range<usize>> {
        (0..self.shards)
            .map(|index| {
                Shard {
                    index,
                    of: self.shards,
                }
                .cell_range(sweep.config_count(), sweep.seeds.len())
            })
            .collect()
    }

    /// Runs the session over `fragments`, folding each report into
    /// `digest`. Returns (rows scanned, groups, seconds).
    fn session(
        &self,
        fragments: &Path,
        tracer: &mut Tracer,
        tally: &mut Tally,
        digest: &mut Fnv1a,
    ) -> (u64, u64, f64) {
        let (mut rows, mut groups) = (0u64, 0u64);
        let start = Instant::now();
        for (i, query) in self.session.iter().enumerate() {
            let span = tracer.open(&format!("analyze:q{i}"));
            let report = analyze_dir(fragments, query, false);
            tracer.close(span);
            match report {
                Ok(report) => {
                    rows += report.rows_scanned as u64;
                    groups += report.groups.len() as u64;
                    digest.update(report.to_csv_string().as_bytes());
                    tally.record(1, true);
                }
                Err(e) => {
                    eprintln!("analyze query {i} failed: {e}");
                    tally.record(1, false);
                }
            }
        }
        (rows, groups, secs(start))
    }
}

/// Checkpoint time of one `run_shard_obs` call, split into the part on
/// the calling thread (the first and last checkpoint, outside the cell
/// stage) and the part inside the csv phase under the sink lock. Spans
/// are aggregated, so the split is by count.
fn checkpoint_ns(snapshot: &ObsSnapshot) -> (u64, u64) {
    let (count, total) = span_ns(snapshot, "checkpoint");
    let serial = total * count.min(2) / count.max(1);
    (serial, total - serial)
}

/// Count and total nanoseconds of one recorder span kind.
fn span_ns(snapshot: &ObsSnapshot, kind: &str) -> (u64, u64) {
    snapshot
        .spans
        .iter()
        .find(|s| s.kind == kind)
        .map_or((0, 0), |s| (s.count, (s.total_ms * 1e6) as u64))
}

/// Recorder totals of one `run_shard_obs` call, split into the layers
/// inside it. Phases of the cell stage are summed over the worker
/// threads, so they are divided by the worker count to give each layer
/// a share of wall time; what no phase covers stays with the `runner`
/// span (worker waits and reorder/sink bookkeeping).
fn layer_split(rec: &StatsRecorder, workers: u64) -> Vec<(&'static str, u64)> {
    let snapshot = rec.snapshot().unwrap_or_default();
    let (_, cell_ns) = span_ns(&snapshot, "cell");
    let (serial_ns, staged_ns) = checkpoint_ns(&snapshot);
    let settle = rec.phase(Phase::Settle);
    let csv = rec.phase(Phase::Csv).saturating_sub(staged_ns);
    vec![
        ("prepare", rec.phase(Phase::Prepare)),
        ("batchsim", cell_ns.saturating_sub(settle) / workers),
        ("market", settle / workers),
        ("csv", csv / workers),
        ("shard", serial_ns + staged_ns / workers),
    ]
}

/// Sizes a shard run leaves behind, for the computed checkpoint figures.
struct ShardFiles {
    rows: u64,
    csv_bytes: u64,
    manifest_bytes: u64,
    progress_bytes: u64,
}

impl ShardFiles {
    fn read(csv: &Path, rows: u64) -> ShardFiles {
        let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        ShardFiles {
            rows,
            csv_bytes: size(csv),
            manifest_bytes: size(&manifest_path(csv)),
            progress_bytes: size(&progress_path(csv)),
        }
    }

    /// Checkpoints of a fresh shard run: one after the header, one per
    /// `CHECKPOINT_EVERY` rows, one at completion.
    fn checkpoints(&self) -> u64 {
        2 + self.rows / CHECKPOINT_EVERY as u64
    }

    /// Each checkpoint rewrites the manifest and the `.progress` sidecar
    /// atomically: file fsync plus parent-directory fsync for each.
    fn fsyncs(&self) -> u64 {
        4 * self.checkpoints()
    }

    /// The CSV, every manifest rewrite, and every `.progress` rewrite
    /// (the k-th holds min(k, history) records of about equal size).
    fn bytes_written(&self) -> u64 {
        let n = self.checkpoints();
        let history = PROGRESS_HISTORY as u64;
        let record = self.progress_bytes / n.min(history).max(1);
        let records: u64 = (1..=n).map(|k| k.min(history)).sum();
        self.csv_bytes + self.manifest_bytes * n + record * records
    }
}

/// Checks the merged output against the fragments independently of
/// `merge_shards`: the manifests tile the grid, and the merged bytes are
/// the first fragment followed by every other fragment minus its header.
fn check_merge(
    fragments: &[PathBuf],
    merged: &[u8],
    total_cells: usize,
    tally: &mut Tally,
) -> bool {
    let header = green_bench::export::csv_line(&CSV_HEADERS);
    let mut expected = Fnv1a::default();
    let mut next_cell = 0usize;
    let mut bytes = 0usize;
    for (i, path) in fragments.iter().enumerate() {
        let Ok(manifest) = ShardManifest::load(path) else {
            return tally.check(false, "fragment manifest readable");
        };
        let Ok(body) = std::fs::read(path) else {
            return tally.check(false, "fragment readable");
        };
        if manifest.cells.start != next_cell || !manifest.complete {
            return tally.check(false, "fragments tile the grid in order");
        }
        next_cell = manifest.cells.end;
        let emit = if i == 0 {
            &body[..]
        } else {
            body.get(header.len()..).unwrap_or_default()
        };
        expected.update(emit);
        bytes += emit.len();
    }
    tally.check(next_cell == total_cells, "fragments cover every cell")
        && tally.check(
            bytes == merged.len() && expected.0 == Fnv1a::hash(merged),
            "merged bytes equal the concatenated fragments",
        )
}

/// Whether every data row of an aggregate CSV shows posted credits, i.e.
/// its cells went through market settlement.
fn every_row_settled(csv: &[u8]) -> bool {
    let column = CSV_HEADERS
        .iter()
        .position(|h| *h == "posted_credits_mean")
        .expect("the aggregate CSV has a posted credits column");
    std::str::from_utf8(csv).is_ok_and(|text| {
        text.lines().skip(1).all(|line| {
            line.split(',')
                .nth(column)
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|v| v > 0.0)
        })
    })
}

impl Workload for SweepWorkload {
    fn setup(&mut self) -> Setup {
        let mut setup = Setup::default();
        let start = Instant::now();
        let Some(sweep) = self.parse() else {
            setup.tally.record(1, false);
            return setup;
        };
        let cells = sweep.expand();
        let expand_s = secs(start);
        let world_start = Instant::now();
        let world = SweepWorld::build(&sweep);
        let world_s = secs(world_start);
        let caches_start = Instant::now();
        let caches = SweepCaches::build(&world, &cells, THREADS);
        let caches_s = secs(caches_start);
        setup.total_s = secs(start);
        setup.tally.record(1, true);
        let layers = &mut setup.layers;
        layers.set("sweep.expand_s", expand_s, "s");
        layers.set("sweep.cells", cells.len() as f64, "count");
        layers.set("prepare.world_s", world_s, "s");
        layers.set("prepare.caches_s", caches_s, "s");
        let counts = [
            ("prepare.realizations", caches.realization_count()),
            ("prepare.price_tables", caches.price_table_count()),
            ("prepare.agent_populations", caches.agent_population_count()),
        ];
        for (name, n) in counts {
            layers.set(name, n as f64, "count");
        }
        setup
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Iteration {
        // Each iteration writes a fresh directory; all of them go when
        // the run ends, so no deletion's discard work lands in a later
        // iteration.
        let dir = self.scratch.join(format!("iteration-{}", self.iteration));
        self.iteration += 1;
        let fragments = dir.join("fragments");
        let mut it = Iteration::default();
        if let Err(e) = std::fs::create_dir_all(&fragments) {
            eprintln!("cannot create {}: {e}", fragments.display());
            it.tally.record(1, false);
            return it;
        }
        self.last_fragments = Some(fragments.clone());
        let traced = tracer.enabled();

        let start = Instant::now();
        let root = tracer.open(ROOT);
        let span = tracer.open("sweep:parse");
        let sweep = self.parse();
        tracer.close(span);
        let Some(sweep) = sweep else {
            it.tally.record(1, false);
            tracer.close(root);
            return it;
        };

        let runner = SweepRunner::new(self.threads);
        let (mut paths, mut files) = (Vec::new(), Vec::new());
        let (mut events, mut release_work, mut recorded_checkpoints) = (0u64, 0u64, 0u64);
        let mut phases = [0u64; 5];
        let mut market = [0u64; 3];
        for (index, range) in self.ranges(&sweep).into_iter().enumerate() {
            let csv = fragments.join(format!("shard-{index}.csv"));
            let job = ShardJob {
                sweep: &sweep,
                filter: None,
                assignment: ShardAssignment::Shard(Shard {
                    index,
                    of: self.shards,
                }),
                csv: &csv,
                resume: false,
                checkpoint_every: CHECKPOINT_EVERY,
                columnar: false,
            };
            let rec = StatsRecorder::new();
            let span = tracer.open(&format!("runner:shard {index}/{}", self.shards));
            let shard_start = Instant::now();
            let outcome = if traced {
                run_shard_obs(&runner, &job, None, &rec)
            } else {
                run_shard(&runner, &job, None)
            };
            it.exec_s += secs(shard_start);
            tracer.close(span);
            let cells = range.len() as u64;
            let expected_rows = range.len() / sweep.seeds.len();
            let ok = match &outcome {
                Ok(o) => o.written_rows == expected_rows && o.range == range,
                Err(e) => {
                    eprintln!("shard {index} failed: {e}");
                    false
                }
            };
            it.tally.record(1 + cells, ok);
            if let Ok(Some(summary)) = outcome.map(|o| o.summary) {
                it.cells += summary.cells as u64;
                events += summary.stats.events;
                release_work += summary.stats.release_work;
            }
            if traced {
                let workers = (self.threads as u64).min(cells.max(1));
                tracer.derived(span, &layer_split(&rec, workers));
                for (slot, phase) in phases.iter_mut().zip([
                    Phase::Schedule,
                    Phase::Events,
                    Phase::Attribute,
                    Phase::Settle,
                    Phase::Csv,
                ]) {
                    *slot += rec.phase(phase);
                }
                let (_, staged_ns) = checkpoint_ns(&rec.snapshot().unwrap_or_default());
                phases[4] -= staged_ns.min(rec.phase(Phase::Csv));
                for (slot, counter) in market.iter_mut().zip([
                    Counter::JobsSettled,
                    Counter::LedgerTxns,
                    Counter::LedgerCasRetries,
                ]) {
                    *slot += rec.counter(counter);
                }
                recorded_checkpoints += rec.counter(Counter::Checkpoints);
            }
            files.push(ShardFiles::read(&csv, expected_rows as u64));
            paths.push(csv);
        }

        let merged_path = dir.join("merged.csv");
        let span = tracer.open("merge");
        let merge_start = Instant::now();
        let merged = merge_shards(&paths, &merged_path, false);
        let merge_s = secs(merge_start);
        tracer.close(span);
        it.tally.record(1, merged.is_ok());

        let mut digest = Fnv1a::default();
        let (rows_scanned, groups, session_s) =
            self.session(&fragments, tracer, &mut it.tally, &mut digest);
        self.session_digest = digest.0;

        let span = tracer.open("verify");
        let configs = sweep.config_count();
        let body = std::fs::read(&merged_path).unwrap_or_default();
        let rows = body
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1);
        if let Ok(summary) = &merged {
            it.tally.check(
                summary.shards == self.shards && summary.rows == configs,
                "merge summary covers every shard and configuration",
            );
        }
        it.tally
            .check(rows == configs, "merged rows equal configurations");
        check_merge(&paths, &body, sweep.cell_count(), &mut it.tally);
        if !self.session.is_empty() {
            it.tally.check(
                rows_scanned == (rows * self.session.len()) as u64,
                "rows scanned equal rows times queries",
            );
        }
        if sweep.cell_at(0).spec.market_active() {
            it.tally.check(
                every_row_settled(&body),
                "every market row settled posted credits",
            );
        }
        if traced {
            let computed: u64 = files.iter().map(ShardFiles::checkpoints).sum();
            it.tally.check(
                computed == recorded_checkpoints,
                "computed checkpoints equal the recorder's count",
            );
        }
        digest.update(&body);
        it.digest = digest.0;
        tracer.close(span);
        tracer.close(root);
        it.wall_s = secs(start);

        let l = &mut it.layers;
        l.set("sweep.cells", sweep.cell_count() as f64, "count");
        l.set("batchsim.events", events as f64, "count");
        l.set("batchsim.release_work", release_work as f64, "count");
        l.set("csv.rows", rows as f64, "count");
        l.set("csv.bytes", body.len() as f64, "B");
        let sum = |f: fn(&ShardFiles) -> u64| files.iter().map(f).sum::<u64>() as f64;
        l.set(
            "shard.checkpoints",
            sum(ShardFiles::checkpoints),
            "count.computed",
        );
        l.set("shard.fsyncs", sum(ShardFiles::fsyncs), "count.computed");
        l.set(
            "shard.bytes_written",
            sum(ShardFiles::bytes_written),
            "B.computed",
        );
        l.set("merge.s", merge_s, "s");
        l.set("merge.bytes", merged.map_or(0, |m| m.bytes) as f64, "B");
        l.set("analyze.rows_scanned", rows_scanned as f64, "count");
        l.set("analyze.groups", groups as f64, "count");
        if session_s > 0.0 && !self.session.is_empty() {
            l.set("analyze.rows_per_s", rows_scanned as f64 / session_s, "1/s");
        }
        if traced {
            let [schedule, events_ns, attribute, settle, csv] = phases;
            l.set("batchsim.schedule_ms", ms(schedule), "ms");
            l.set("batchsim.events_ms", ms(events_ns), "ms");
            l.set("batchsim.attribute_ms", ms(attribute), "ms");
            l.set("market.settle_ms", ms(settle), "ms");
            l.set("market.jobs_settled", market[0] as f64, "count");
            l.set("market.ledger_txns", market[1] as f64, "count");
            l.set("market.cas_retries", market[2] as f64, "count");
            l.set("csv.render_ms", ms(csv), "ms");
        }
        it
    }

    fn probes(&mut self, untraced: &Iteration, out: &mut Metrics, tally: &mut Tally) {
        let Some(sweep) = self.parse() else {
            tally.record(1, false);
            return;
        };
        // The runner alone: the same shard ranges streamed into a null
        // sink, on two workers and on one; `shard.durable_s` subtracts the
        // one with the workload's own worker count.
        let mut null_s = [0.0f64; 2];
        for (slot, threads) in null_s.iter_mut().zip([THREADS, 1]) {
            let runner = SweepRunner::new(threads);
            let start = Instant::now();
            for range in self.ranges(&sweep) {
                let cells = range.len() as u64;
                let streamed = runner.run_streamed_range(
                    &sweep,
                    None,
                    Some(range),
                    false,
                    None,
                    &mut std::io::sink(),
                );
                tally.record(1 + cells, streamed.is_ok());
            }
            *slot = secs(start);
        }
        out.set(
            "runner.sink_cells_per_s",
            sweep.cell_count() as f64 / null_s[0],
            "1/s",
        );
        out.set("runner.speedup_2t", null_s[1] / null_s[0], "x");
        let null_own_s = if self.threads == 1 {
            null_s[1]
        } else {
            null_s[0]
        };
        out.set("shard.durable_s", untraced.exec_s - null_own_s, "s");

        self.cell_probe(&sweep, out, tally);

        if !self.session.is_empty() {
            self.analyze_probes(untraced, out, tally);
            return;
        }
        // Eight merged rows are too few to time the analyze layer on, so
        // a market run measures it over the survey grid's fragments: one
        // untraced survey iteration (its session over CSV), then the
        // analyze probes over what it wrote.
        let mut survey = SweepWorkload::survey(self.seed, self.scratch.join("analyze-probe"));
        let iteration = survey.iterate(&mut Tracer::disabled());
        tally.absorb(iteration.tally);
        for m in iteration
            .layers
            .0
            .iter()
            .filter(|m| m.name.starts_with("analyze."))
        {
            out.set(&m.name, m.value, m.unit);
        }
        survey.analyze_probes(&iteration, out, tally);
    }
}

impl SweepWorkload {
    /// Per-cell timing and the recorder's cost: a sample of cells run one
    /// at a time on one thread through `run_cell_in` and
    /// `run_cell_in_obs`, alternating which goes first.
    fn cell_probe(&self, sweep: &Sweep, out: &mut Metrics, tally: &mut Tally) {
        let cells = sweep.expand();
        let stride = cells.len().div_ceil(self.cell_samples).max(1);
        let sample: Vec<_> = cells.into_iter().step_by(stride).collect();
        let world = SweepWorld::build(sweep);
        let caches = SweepCaches::build(&world, &sample, THREADS);
        let mut scratch = CellScratch::new();
        let rec = StatsRecorder::new();
        let (mut plain_ms, mut plain_total, mut recorded_total) = (Vec::new(), 0.0, 0.0);
        let mut events = 0u64;
        for (i, cell) in sample.iter().enumerate() {
            let mut plain = None;
            let mut recorded = None;
            for pass in 0..2 {
                let start = Instant::now();
                if (pass + i) % 2 == 0 {
                    plain = Some(world.run_cell_in(&cell.spec, &caches, &mut scratch));
                    let took = secs(start);
                    plain_ms.push(took * 1e3);
                    plain_total += took;
                } else {
                    recorded = Some(world.run_cell_in_obs(&cell.spec, &caches, &mut scratch, &rec));
                    recorded_total += secs(start);
                }
            }
            tally.record(1, plain.is_some() && plain == recorded);
            events += plain.map_or(0, |m| m.events as u64);
        }
        out.set("batchsim.cell_ms_p50", median(&plain_ms), "ms");
        let p99 = if plain_ms.len() >= 1000 {
            quantile(&plain_ms, 0.99)
        } else {
            0.0
        };
        out.set("batchsim.cell_ms_p99", p99, "ms");
        out.set("batchsim.cell_samples", plain_ms.len() as f64, "count");
        out.set("batchsim.events_per_s", events as f64 / plain_total, "1/s");
        out.set("obs.overhead_x", recorded_total / plain_total, "x");
    }

    /// The analyze layer alone: verified reads of every fragment, then
    /// the same session over columnar sidecars.
    fn analyze_probes(&self, untraced: &Iteration, out: &mut Metrics, tally: &mut Tally) {
        let Some(fragments) = self.last_fragments.as_deref() else {
            tally.record(1, false);
            return;
        };
        let paths: Vec<PathBuf> = (0..self.shards)
            .map(|i| fragments.join(format!("shard-{i}.csv")))
            .collect();
        let start = Instant::now();
        let read = load_shard_set(&paths, false).and_then(|set| {
            set.iter()
                .try_for_each(|(manifest, path)| read_verified(manifest, path).map(drop))
        });
        out.set("analyze.verify_read_s", secs(start), "s");
        tally.record(1, read.is_ok());

        let start = Instant::now();
        let written = paths.iter().try_for_each(|p| write_sidecar(p));
        out.set("analyze.cols_write_s", secs(start), "s");
        tally.record(1, written.is_ok());

        let mut cols_digest = Fnv1a::default();
        let (rows, _, session_s) =
            self.session(fragments, &mut Tracer::disabled(), tally, &mut cols_digest);
        out.set("analyze.cols_rows_per_s", rows as f64 / session_s, "1/s");
        tally.check(
            cols_digest.0 == self.session_digest
                && untraced.layers.get("analyze.rows_scanned") == Some(rows as f64),
            "columnar session reproduces the CSV session",
        );
    }
}
