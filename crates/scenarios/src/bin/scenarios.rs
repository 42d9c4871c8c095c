//! The `scenarios` command: run a sweep file end to end.
//!
//! ```text
//! scenarios <sweep.toml> [options]
//!
//!   --out <file.csv>     write per-cell aggregates (with CIs) as CSV
//!   --stream             stream rows to --out as configurations finish
//!                        (constant memory; identical bytes)
//!   --threads <n>        worker threads (default: all cores)
//!   --preset <p>         override the workload preset
//!                        (micro|tiny|quick|paper)
//!   --filter <substr>    only run cells whose label contains <substr>
//!   --shard <I/N>        run shard I of an N-way split (implies --stream)
//!   --cell-range <A..B>  run an explicit config-aligned cell range
//!   --resume             continue a killed shard from its checkpoint
//!   --checkpoint-every <rows>  rows between manifest checkpoints
//!   --columnar           write a `<out>.cols` columnar sidecar on completion
//!   --chaos <spec>       arm deterministic failpoints on every durable write
//!                        (see docs/robustness.md for the spec grammar)
//!   --obs                record per-phase timings and work counters
//!                        (checkpointed runs; lands in the .progress sidecar)
//!   --list               print the expanded cells and exit without running
//!   --quiet              suppress progress and summary lines on stderr
//!
//! scenarios orchestrate <sweep.toml> --workers <n> --out-dir <dir> [...]
//! scenarios merge --out <merged.csv> [--partial] <shard.csv>...
//! scenarios analyze <dir|csv> [--group-by <axis,...>] [--metrics <col,...>] [...]
//! scenarios watch <dir> [--once] [--interval <s>]
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use green_bench::args::{self, Args};
use green_chaos::{ChaosRegistry, Failpoint};
use green_obs::{Recorder, StatsRecorder};
use green_scenarios::runner::ProgressFn;
use green_scenarios::{
    analyze_path, cell_label, merge_shards_chaos, orchestrate, run_shard, watch, write_atomic,
    AnalyzeQuery, Grid, OrchestrateConfig, ProcessLauncher, Shard, ShardAssignment, ShardJob,
    ShardOutcome, Sweep, SweepRunner, WorkloadPreset, CHECKPOINT_EVERY,
};

const USAGE: &str = "\
scenarios — parallel Monte-Carlo scenario sweeps over the batch simulator

USAGE:
    scenarios <sweep.toml> [--out <file.csv>] [--stream] [--threads <n>]
              [--preset <micro|tiny|quick|paper>] [--filter <substr>]
              [--shard <I/N>] [--cell-range <A..B>] [--resume]
              [--checkpoint-every <rows>] [--columnar] [--chaos <spec>]
              [--obs] [--list] [--quiet]
    scenarios orchestrate <sweep.toml> --workers <n> --out-dir <dir>
              [--merged <file.csv>] [--preset <p>] [--filter <substr>]
              [--max-attempts <n>] [--stall-after <seconds>]
              [--poll-interval <ms>] [--no-steal]
              [--min-steal-configs <n>] [--checkpoint-every <rows>]
              [--worker-threads <n>] [--analyze <axis,...>]
              [--analyze-metrics <col,...>] [--chaos <spec>] [--quiet]
    scenarios merge --out <merged.csv> [--partial] [--chaos <spec>]
              <shard.csv>...
    scenarios analyze <dir|csv> [--group-by <axis,...>]
              [--metrics <col,...>] [--filter <substr>]
              [--format <table|csv|jsonl>] [--out <file>] [--partial]
              [--chaos <spec>]
    scenarios watch <dir> [--once] [--interval <seconds>]

--stream writes aggregate rows to --out as each configuration's
replicates complete (expansion order, byte-identical to the buffered
CSV) instead of holding every cell in memory — the mode for grids too
large to aggregate in RAM.

--preset reruns the sweep file's grid at another workload scale —
`--preset paper` replays the full 142,380-job workload per cell (the
scale the paper reports on), `--preset micro` shrinks every cell to a
~100-job trace for survey-scale (million-cell) grids. The default user
population follows the preset unless the file pins a `grid.users` axis.

--shard I/N runs only the I-th of N contiguous, configuration-aligned
cell ranges (0-based), streaming to --out and checkpointing a
`<out>.manifest` sidecar (cell range, row count, content hash). A
killed worker re-run with --resume verifies the checkpoint and
continues where it left off. `scenarios merge` then reassembles the
shard CSVs into bytes identical to the single-process --stream run —
so a fleet of machines (or one big box) can split a million-cell grid.
--cell-range A..B does the same for an explicit half-open range (cell
indices in expansion order, aligned to the replicate count).

The sweep file declares a Cartesian grid (policies × methods × fleets ×
sim-years × users × backfill × workload scale × intensity scale ×
elasticity × price schedule × banking cap) and a set of Monte-Carlo
replicate seeds; see examples/sweeps/ in the repository, and
docs/sweep-format.md for the full key reference.

--filter runs only the grid configurations whose label (the `/`-joined
config columns, e.g. `adaptive/cba/0+1+2+3/2023/24/64/1.000/1.000/
1.00/carbon:0.600/100.0`) contains the given substring — handy to
iterate on one cell of a large grid.

`scenarios orchestrate` owns the whole distributed run: it partitions
the grid into one config-aligned range per worker, spawns `--workers`
local worker processes, tails their `.manifest`/`.progress` sidecars
for liveness, restarts or reassigns dead and stalled shards with capped
backoff (`--max-attempts` failures per range fail the run,
`--stall-after` seconds of heartbeat silence get a worker killed),
splits the largest remaining range of a straggler onto idle workers
(`--no-steal` disables; `--min-steal-configs` bounds the smallest piece
worth splitting), and hash-verifies + auto-merges every fragment into
`--merged` (default `<out-dir>/merged.csv`) — byte-identical to the
single-process --stream run. Every scheduling decision is appended to
`<out-dir>/orchestrate.jsonl`, which `scenarios watch <out-dir>` joins
into its table. `--worker-threads` sets each worker's own thread count
(default 1), `--poll-interval` the supervisor's scan cadence. See
docs/orchestration.md.

--checkpoint-every tunes rows between manifest checkpoints (default
64): the heartbeat cadence, and the most work a kill can lose. It and
--obs apply only to checkpointed runs (--shard, --cell-range, --resume,
--columnar or --chaos); elsewhere they exit 2.

--chaos arms deterministic fault injection on every durable write: a
`;`-separated list of `failpoint=action@trigger` rules (for example
`manifest_rewrite=enospc@hit:3` or `fragment_row=torn:7@p:0.01:42`).
`scenarios orchestrate --chaos` arms itself and passes the spec to
every worker on its command line. Failpoint names, actions, triggers
and the durability guarantee each failpoint tests are cataloged in
docs/robustness.md. A malformed spec exits 2 before any work. A spec
that arms a failpoint runs the checkpointed path, so it needs --out.

--columnar additionally writes a `<out>.cols` binary columnar sidecar
(dictionary-encoded axis columns + raw f64 metric columns, bound to
the CSV by the manifest's row/byte/hash triple) when the shard
completes, so `scenarios analyze` over the output never re-parses CSV
text. Implies the checkpointed streaming path. See docs/analytics.md.

`scenarios analyze` runs a streaming group-by / summarize query over
sweep output — either a directory of shard fragments (verified through
the same manifest front end as `merge`, folded shard by shard without
ever materializing the merged CSV; `--partial` accepts a contiguous
sub-span) or a single aggregate CSV. `--group-by` picks configuration
axes (default `policy,method`), `--metrics` numeric columns (default
the headline sustainability set), `--filter` the same label substring
as the sweep `--filter`; output is a table, `--format csv`, or
`--format jsonl`, to stdout or `--out <file>`. Results are
bit-identical for any shard count. See docs/analytics.md.

`scenarios orchestrate --analyze <axis,...>` chains such an analysis
(optionally `--analyze-metrics <col,...>`) over the merged CSV after a
successful auto-merge, writing `<out-dir>/analysis.csv`.

Every shard run heartbeats a `<out>.progress` JSONL sidecar at each
checkpoint (rows, rate, ETA, RSS). --obs additionally records per-phase
wall-time attribution (schedule/events/settle/attribute/csv) and work
counters into those heartbeats and prints a summary when the shard
finishes; the default run carries zero instrumentation cost.

`scenarios watch <dir>` tails every `<shard>.csv.manifest` +
`.progress` pair in a directory and renders a per-shard table (rows
done, rate, ETA, stall detection). --once prints a single table and
exits (CI-friendly); the default redraws every --interval seconds
(5 by default) until every shard is complete. See docs/observability.md.
";

fn fail(message: &str) -> ! {
    args::fail(USAGE, message)
}

/// The invocation's one failure-injection registry, compiled from its
/// `--chaos <spec>`. Each writing subcommand compiles it right after
/// parsing its arguments, so a malformed spec exits 2 before any work: a
/// chaos run that silently injects nothing would claim fault tolerance it
/// never tested.
fn chaos_registry(spec: &str) -> ChaosRegistry {
    ChaosRegistry::from_spec(spec).unwrap_or_else(|e| fail(&e.to_string()))
}

/// The `scenarios merge` subcommand: reassemble completed shard CSVs.
fn merge_main(mut args: Args) -> ! {
    let mut out: Option<PathBuf> = None;
    let mut partial = false;
    let mut quiet = false;
    let mut chaos_spec = String::new();
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value().into()),
            "--partial" => partial = true,
            "--quiet" => quiet = true,
            "--chaos" => chaos_spec = args.value(),
            _ => inputs.push(args.positional()),
        }
    }
    let Some(out) = out else {
        fail("merge needs --out <merged.csv>");
    };
    if inputs.is_empty() {
        fail("merge needs at least one shard CSV (each with its `.manifest` sidecar)");
    }
    let chaos = chaos_registry(&chaos_spec);
    match merge_shards_chaos(&inputs, &out, partial, &chaos) {
        Ok(summary) => {
            if !quiet {
                eprintln!(
                    "merged {} shards ({} rows, {} bytes) into {}",
                    summary.shards,
                    summary.rows,
                    summary.bytes,
                    out.display()
                );
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: merge: {e}");
            std::process::exit(1);
        }
    }
}

/// The `scenarios analyze` subcommand: streaming group-by/summarize
/// over shard outputs (no merge needed) or a single aggregate CSV.
fn analyze_main(mut args: Args) -> ! {
    let mut input: Option<PathBuf> = None;
    let mut group_by: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut format = "table".to_string();
    let mut out: Option<PathBuf> = None;
    let mut partial = false;
    let mut chaos_spec = String::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--group-by" => group_by = Some(args.value()),
            "--metrics" => metrics = Some(args.value()),
            "--filter" => filter = Some(args.value()),
            "--format" => {
                format = args.parsed_by(|v| match v {
                    "table" | "csv" | "jsonl" => Ok(v.to_string()),
                    _ => Err(format!("bad analyze format `{v}` (table|csv|jsonl)")),
                })
            }
            "--out" => out = Some(args.value().into()),
            "--partial" => partial = true,
            "--chaos" => chaos_spec = args.value(),
            _ => args.positional_once(&mut input, "analyze input"),
        }
    }
    let Some(input) = input else {
        fail("analyze needs a shard directory or aggregate CSV");
    };
    let chaos = chaos_registry(&chaos_spec);
    let query = AnalyzeQuery::new(group_by.as_deref(), metrics.as_deref(), filter)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let report = analyze_path(&input, &query, partial).unwrap_or_else(|e| {
        eprintln!("error: analyze: {e}");
        std::process::exit(1);
    });
    let rendered = match format.as_str() {
        "csv" => report.to_csv_string(),
        "jsonl" => report.to_jsonl(),
        _ => report.render(),
    };
    match out {
        Some(path) => {
            // Atomic (tmp → sync → rename): a crash mid-write leaves
            // the previous report or nothing, never a truncated one.
            let written = write_atomic(&path, rendered.as_bytes(), &chaos, Failpoint::AnalyzeWrite);
            if let Err(e) = written {
                eprintln!("error: analyze: writing {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "analyzed {} rows ({} matched) into {} groups — {}",
                report.rows_scanned,
                report.rows_matched,
                report.groups.len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    std::process::exit(0);
}

/// The `scenarios orchestrate` subcommand: drive a fleet of local
/// worker processes over one sweep — plan, supervise, steal, merge.
fn orchestrate_main(mut args: Args) -> ! {
    let mut sweep_file: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut group_by: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut chaos_spec = String::new();
    // The flags override the defaults; the required arguments complete
    // the config once parsing is done.
    let mut config = OrchestrateConfig::new(PathBuf::new(), PathBuf::new(), 1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => workers = Some(args.parsed::<usize>("worker count").max(1)),
            "--out-dir" => out_dir = Some(args.value().into()),
            "--merged" => config.merged = Some(args.value().into()),
            "--preset" => {
                config.preset =
                    Some(args.parsed_by(|v| WorkloadPreset::parse(v).map(|_| v.to_string())))
            }
            "--filter" => config.filter = Some(args.value()),
            "--max-attempts" => config.max_attempts = args.parsed::<u32>("attempt count").max(1),
            "--stall-after" => {
                // Not NaN, which would switch stall detection off, nor
                // zero or less, which kills every worker at its first poll.
                config.stall_after_s = args.parsed_by(|v| {
                    v.parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad stall threshold `{v}` (positive seconds)"))
                })
            }
            "--poll-interval" => config.poll_interval_ms = args.parsed("poll interval"),
            "--no-steal" => config.steal = false,
            "--min-steal-configs" => {
                config.min_steal_configs = args.parsed::<usize>("config count").max(1)
            }
            "--checkpoint-every" => {
                config.checkpoint_every = args.parsed::<usize>("checkpoint interval").max(1)
            }
            "--worker-threads" => config.worker_threads = args.parsed("thread count"),
            "--analyze" => group_by = Some(args.value()),
            "--analyze-metrics" => metrics = Some(args.value()),
            "--quiet" => config.quiet = true,
            "--chaos" => chaos_spec = args.value(),
            _ => args.positional_once(&mut sweep_file, "sweep file"),
        }
    }
    let Some(sweep_file) = sweep_file else {
        fail("orchestrate needs a sweep file");
    };
    let Some(out_dir) = out_dir else {
        fail("orchestrate needs --out-dir <dir>");
    };
    let Some(workers) = workers else {
        fail("orchestrate needs --workers <n>");
    };
    let chaos = chaos_registry(&chaos_spec);
    let analyze = (group_by.is_some() || metrics.is_some()).then(|| {
        AnalyzeQuery::new(group_by.as_deref(), metrics.as_deref(), None)
            .unwrap_or_else(|e| fail(&e.to_string()))
    });
    let config = OrchestrateConfig {
        sweep_file,
        out_dir,
        workers,
        analyze,
        ..config
    };
    let launcher = ProcessLauncher::current_exe().unwrap_or_else(|e| {
        eprintln!("error: orchestrate: cannot locate own binary: {e}");
        std::process::exit(1);
    });
    match orchestrate(&config, &launcher, &chaos) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: orchestrate: {e}");
            std::process::exit(1);
        }
    }
}

/// The `scenarios watch` subcommand: render per-shard progress tables
/// for a directory of shard outputs until every shard completes.
fn watch_main(mut args: Args) -> ! {
    let mut dir: Option<PathBuf> = None;
    let mut once = false;
    let mut interval_s = 5u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval" => interval_s = args.parsed("interval"),
            _ => args.positional_once(&mut dir, "watch directory"),
        }
    }
    let Some(dir) = dir else {
        fail("watch needs a directory of shard outputs");
    };
    loop {
        match watch::WatchReport::scan(&dir, watch::STALL_AFTER_S) {
            Ok(report) => {
                print!("{}", report.render());
                if once {
                    std::process::exit(0);
                }
                if report.all_complete() {
                    std::process::exit(0);
                }
            }
            Err(e) => {
                eprintln!("error: watch: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_secs(interval_s.max(1)));
        println!();
    }
}

/// Parses `--cell-range A..B` (half-open cell indices).
fn parse_cell_range(token: &str) -> Result<core::ops::Range<usize>, String> {
    let parsed = token.split_once("..").and_then(|(a, b)| {
        let start: usize = a.trim().parse().ok()?;
        let end: usize = b.trim().parse().ok()?;
        (start <= end).then_some(start..end)
    });
    parsed.ok_or_else(|| format!("bad cell range `{token}` (expected A..B, A <= B)"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = |run: fn(Args) -> !| run(Args::new(USAGE, argv[1..].to_vec()));
    match argv.first().map(String::as_str) {
        Some("merge") => subcommand(merge_main),
        Some("watch") => subcommand(watch_main),
        Some("orchestrate") => subcommand(orchestrate_main),
        Some("analyze") => subcommand(analyze_main),
        _ => {}
    }

    let mut sweep_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut threads = 0usize;
    let mut preset: Option<WorkloadPreset> = None;
    let mut filter: Option<String> = None;
    let mut shard: Option<Shard> = None;
    let mut cell_range: Option<core::ops::Range<usize>> = None;
    let mut resume = false;
    let mut checkpoint_every: Option<usize> = None;
    let mut columnar = false;
    let mut obs = false;
    let mut list = false;
    let mut quiet = false;
    let mut stream = false;
    let mut chaos_spec = String::new();
    let mut args = Args::new(USAGE, argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value().into()),
            "--threads" => threads = args.parsed("thread count"),
            "--preset" => preset = Some(args.parsed_by(WorkloadPreset::parse)),
            "--filter" => filter = Some(args.value()),
            "--shard" => shard = Some(args.parsed_by(Shard::parse)),
            "--cell-range" => cell_range = Some(args.parsed_by(parse_cell_range)),
            "--resume" => resume = true,
            "--checkpoint-every" => {
                checkpoint_every = Some(args.parsed::<usize>("checkpoint interval").max(1))
            }
            "--columnar" => columnar = true,
            "--chaos" => chaos_spec = args.value(),
            "--obs" => obs = true,
            "--list" => list = true,
            "--quiet" => quiet = true,
            "--stream" => stream = true,
            _ => args.positional_once(&mut sweep_path, "sweep file"),
        }
    }
    let Some(sweep_path) = sweep_path else {
        fail("no sweep file given");
    };
    let chaos = chaos_registry(&chaos_spec);
    let assignment = match (shard, cell_range) {
        (Some(_), Some(_)) => fail("--shard and --cell-range are mutually exclusive"),
        (Some(s), None) => ShardAssignment::Shard(s),
        (None, Some(r)) => ShardAssignment::Cells(r),
        (None, None) => ShardAssignment::Whole,
    };
    // The sharded/checkpointed path: a worker of an N-way split, an
    // explicit cell range, a resumable whole-grid run, or a run with
    // failpoints armed by `--chaos`. Always
    // streamed (constant memory is the point at this scale) and always
    // checkpointed through the `<out>.manifest` sidecar. Only it records
    // and checkpoints, so elsewhere `--obs` and `--checkpoint-every`
    // are refused rather than ignored.
    let checkpointed =
        assignment != ShardAssignment::Whole || resume || columnar || !chaos.is_empty();
    let unread = match (obs, checkpoint_every) {
        (true, _) => Some("--obs"),
        (false, Some(_)) => Some("--checkpoint-every"),
        (false, None) => None,
    };
    if let (false, Some(flag)) = (checkpointed, unread) {
        fail(&format!(
            "{flag} applies only to checkpointed runs \
             (--shard/--cell-range/--resume/--columnar/--chaos)"
        ));
    }

    let text = std::fs::read_to_string(&sweep_path).unwrap_or_else(|e| {
        fail(&format!("cannot read {}: {e}", sweep_path.display()));
    });
    let mut sweep = Sweep::from_toml_str(&text).unwrap_or_else(|e| {
        fail(&format!("{}: {e}", sweep_path.display()));
    });
    if let Some(preset) = preset {
        sweep.override_preset(preset);
    }

    if list {
        // The run's own resolution: without a filter only the assigned
        // range is materialized (`--list --shard 3/512` of a
        // million-cell grid answers instantly), and a range the run
        // would refuse is refused here with the same message.
        let cells = Grid::new(&sweep, filter.as_deref())
            .and_then(|grid| grid.cells(&assignment))
            .unwrap_or_else(|e| {
                eprintln!("error: list: {e}");
                std::process::exit(1);
            });
        // A reader that closes the pipe early (`| head`) ends the
        // listing quietly.
        let listed = (|| -> std::io::Result<()> {
            use std::io::Write;
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            writeln!(
                out,
                "sweep `{}`: {} configurations × {} replicates = {} cells",
                sweep.name,
                sweep.config_count(),
                sweep.seeds.len(),
                sweep.cell_count()
            )?;
            for cell in cells {
                writeln!(
                    out,
                    "  [{:>4}] {} seed={}",
                    cell.index,
                    cell_label(&cell.spec),
                    cell.spec.seed
                )?;
            }
            out.flush()
        })();
        match listed {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                eprintln!("error: list: {e}");
                std::process::exit(1);
            }
            _ => return,
        }
    }

    let runner = SweepRunner::new(threads).armed(&chaos);
    if !quiet {
        let slice = match &assignment {
            ShardAssignment::Shard(s) => format!(" (shard {}/{})", s.index, s.of),
            ShardAssignment::Cells(r) => format!(" (cells {}..{})", r.start, r.end),
            ShardAssignment::Whole => String::new(),
        };
        eprintln!(
            "running sweep `{}`: {} cells on {} threads{slice}{}…",
            sweep.name,
            sweep.cell_count(),
            runner.threads(),
            filter
                .as_deref()
                .map(|f| format!(" (filter: `{f}`)"))
                .unwrap_or_default()
        );
    }
    let last_printed = AtomicUsize::new(0);
    let progress_line = move |done: usize, total: usize| {
        // Only one worker wins each milestone print, so the stream stays
        // readable under parallelism.
        let prev = last_printed.load(Ordering::Relaxed);
        if (done == total || done >= prev + (total / 20).max(1))
            && last_printed
                .compare_exchange(prev, done, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            eprintln!("  {done}/{total} cells");
        }
    };
    let progress: Option<&ProgressFn<'_>> = if quiet { None } else { Some(&progress_line) };
    if checkpointed {
        let Some(out) = out else {
            fail("--shard/--cell-range/--resume/--columnar/--chaos need --out <file.csv>");
        };
        let job = ShardJob {
            sweep: &sweep,
            filter: filter.as_deref(),
            assignment,
            csv: &out,
            resume,
            checkpoint_every: checkpoint_every.unwrap_or(CHECKPOINT_EVERY),
            columnar,
        };
        // With --obs, phase timings and work counters flow into the
        // `.progress` heartbeats and a stderr summary; output bytes are
        // identical to the uninstrumented run.
        let recorder = StatsRecorder::new();
        let outcome: ShardOutcome = if obs {
            run_shard(&runner.recording(&recorder), &job, progress)
        } else {
            run_shard(&runner, &job, progress)
        }
        .unwrap_or_else(|e| {
            eprintln!("error: shard: {e}");
            std::process::exit(1);
        });
        if obs && !quiet {
            if let Some(snapshot) = recorder.snapshot() {
                eprintln!("obs: phase timings (ms):");
                for (phase, ms) in &snapshot.phases_ms {
                    eprintln!("  {phase:<12} {ms:>12.1}");
                }
                eprintln!("obs: work counters:");
                for (counter, value) in &snapshot.counters {
                    eprintln!("  {counter:<22} {value:>12}");
                }
                for span in &snapshot.spans {
                    eprintln!(
                        "obs: span {}: {} × (total {:.1} ms, max {:.2} ms)",
                        span.kind, span.count, span.total_ms, span.max_ms
                    );
                }
            }
        }
        if !quiet {
            let resumed = if outcome.resumed_rows > 0 {
                format!(" ({} rows resumed from checkpoint)", outcome.resumed_rows)
            } else {
                String::new()
            };
            eprintln!(
                "shard: cells {}..{} of {} complete — {} rows in {}{resumed}",
                outcome.range.start,
                outcome.range.end,
                outcome.total_cells,
                outcome.resumed_rows + outcome.written_rows,
                out.display(),
            );
        }
        return;
    }

    if stream {
        let Some(out) = out else {
            fail("--stream needs --out <file.csv> to stream into");
        };
        let file = std::fs::File::create(&out).unwrap_or_else(|e| {
            eprintln!("error: creating {}: {e}", out.display());
            std::process::exit(1);
        });
        let mut writer = std::io::BufWriter::new(file);
        let summary = runner
            .run_streamed_range(&sweep, filter.as_deref(), None, true, progress, &mut writer)
            .and_then(|summary| {
                use std::io::Write;
                writer.flush()?;
                Ok(summary)
            })
            .unwrap_or_else(|e| {
                eprintln!("error: streaming to {}: {e}", out.display());
                std::process::exit(1);
            });
        if summary.configs == 0 {
            if let Some(f) = filter.as_deref() {
                eprintln!("warning: filter `{f}` matched no cells");
            }
        }
        if !quiet {
            eprintln!(
                "streamed {} aggregate rows ({} cells, {} events) to {}",
                summary.configs,
                summary.cells,
                summary.stats.events,
                out.display()
            );
        }
        return;
    }

    let (results, _) = runner
        .run_collect(&sweep, filter.as_deref(), progress)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    if results.cells.is_empty() {
        if let Some(f) = filter.as_deref() {
            eprintln!("warning: filter `{f}` matched no cells");
        }
    }

    print!("{}", results.render());
    if let Some(out) = out {
        if let Err(e) = results.write_csv(&out) {
            eprintln!("error: writing {}: {e}", out.display());
            std::process::exit(1);
        }
        if !quiet {
            eprintln!(
                "wrote {} aggregate rows to {}",
                results.cells.len(),
                out.display()
            );
        }
    }
}
