//! Sharded, resumable sweep execution: the distributed-fan-out
//! foundation.
//!
//! A sweep's expansion order is already the engine's determinism anchor
//! — so splitting a grid across processes is a matter of handing each
//! worker a **contiguous, configuration-aligned cell range** and making
//! the per-shard output mergeable back into the bytes a single
//! `--stream` run would have produced:
//!
//! * [`Shard`]`{ index, of }` → [`Shard::cell_range`]: a deterministic
//!   partitioner. Configurations (not raw cells) are balanced across
//!   shards so a replicate group never straddles two workers — CSV rows
//!   are per configuration, and splitting one would make byte-stable
//!   merging impossible. `tests/sweep_properties.rs` proves the ranges
//!   are a disjoint exact cover of `0..cells` for any shard count.
//! * [`run_shard`]: streams one range's rows into a CSV file while
//!   checkpointing a [`ShardManifest`] (rows, bytes, FNV-1a content
//!   hash) alongside it. A killed worker re-run with `resume = true`
//!   replays the manifest: verify the checkpointed prefix hash,
//!   truncate any torn tail, and continue from the first unwritten
//!   configuration — the final bytes are identical to an uninterrupted
//!   run (`tests/shard_golden.rs`).
//! * [`merge_shards`]: concatenates completed shard CSVs (hash-verified
//!   against their manifests, ranges verified contiguous) into output
//!   **byte-identical** to the single-process streamed run.
//!
//! Once ranges and merge are byte-stable, multi-process is just N
//! invocations of `scenarios --shard I/N` plus one `scenarios merge`.

use std::io::{Read, Seek, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use green_chaos::{probe, torn_crash, ChaosRegistry, Failpoint, NO_CHAOS};
use green_obs::{Counter, Recorder, SpanKind, Stopwatch};

use crate::agg::CSV_HEADERS;
use crate::durable_io::{invalid, write_atomic};
use crate::progress::{current_rss_mb, progress_path, ProgressRecord};
use crate::runner::{Grid, ProgressFn, StreamSummary, SweepRunner};
use crate::spec::SpecError;
use crate::sweep::Sweep;
use crate::toml::{self, Value};

/// One worker's identity in an N-way split: shard `index` of `of`
/// (0-based, `index < of`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This worker's position, `0..of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl Shard {
    /// Parses the CLI spelling `I/N` (0-based, `I < N`).
    pub fn parse(token: &str) -> Result<Shard, SpecError> {
        let err = || {
            SpecError(format!(
                "bad shard `{token}` (expected I/N with 0 <= I < N, e.g. `2/8`)"
            ))
        };
        let (i, n) = token.split_once('/').ok_or_else(err)?;
        let index: usize = i.trim().parse().map_err(|_| err())?;
        let of: usize = n.trim().parse().map_err(|_| err())?;
        if of == 0 || index >= of {
            return Err(err());
        }
        Ok(Shard { index, of })
    }

    /// This shard's cell range over a grid of `configs` configurations ×
    /// `replicates` seeds: contiguous in expansion order, aligned to
    /// configuration boundaries, balanced to within one configuration.
    pub fn cell_range(&self, configs: usize, replicates: usize) -> Range<usize> {
        let base = configs / self.of;
        let extra = configs % self.of;
        // The first `extra` shards take one extra configuration each.
        let start = self.index * base + self.index.min(extra);
        let len = base + usize::from(self.index < extra);
        let replicates = replicates.max(1);
        (start * replicates)..((start + len) * replicates)
    }
}

/// Every shard's cell range for an N-way split, in shard order. The
/// ranges tile `0..configs*replicates` exactly (disjoint cover,
/// ascending).
pub fn shard_ranges(configs: usize, replicates: usize, shards: usize) -> Vec<Range<usize>> {
    (0..shards)
        .map(|index| Shard { index, of: shards }.cell_range(configs, replicates))
        .collect()
}

/// Streaming FNV-1a (64-bit) — the manifest's content hash. Chosen for
/// being dependency-free and byte-order stable; this is an integrity
/// check against torn writes and stale files, not a cryptographic seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Absorbs `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One-shot hash of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.0
    }
}

/// The sidecar a shard worker maintains next to its CSV
/// (`<out>.manifest`): identity of the assigned range plus a progress
/// checkpoint over the bytes already safely written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Sweep name (from the sweep file) — a merge of shards from
    /// different sweeps is refused.
    pub sweep: String,
    /// Human-readable worker label (`"2/8"`, or `"cells:A..B"` for an
    /// explicit `--cell-range`).
    pub shard: String,
    /// FNV-1a fingerprint of the fully-resolved sweep (every axis
    /// value, preset, workload seed) plus the filter. Resume refuses a
    /// checkpoint whose fingerprint differs — the same sweep file run
    /// with a different `--preset` or `--filter` is a different grid —
    /// and merge refuses to mix fingerprints.
    pub spec_hash: u64,
    /// The assigned cell range (expansion order, config-aligned).
    pub cells: Range<usize>,
    /// Total cells of the (possibly filtered) grid — lets `merge` verify
    /// it was handed *every* shard, not just a contiguous prefix.
    pub total_cells: usize,
    /// Replicates per configuration (CSV rows aggregate over these).
    pub replicates: usize,
    /// Configuration rows checkpointed as written.
    pub rows: usize,
    /// CSV bytes (header included) covered by the checkpoint.
    pub bytes: u64,
    /// FNV-1a hash of those bytes.
    pub hash: u64,
    /// True once the shard finished its whole range.
    pub complete: bool,
}

/// The manifest sidecar path of a shard CSV: `<csv>.manifest`.
pub fn manifest_path(csv: &Path) -> PathBuf {
    let mut name = csv.file_name().unwrap_or_default().to_os_string();
    name.push(".manifest");
    csv.with_file_name(name)
}

/// Manifest format version tag (first key of the file).
const MANIFEST_VERSION: i64 = 1;

impl core::fmt::Display for ShardManifest {
    /// The manifest sidecar text (a flat TOML document the vendored
    /// mini-parser round-trips).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "# green-scenarios shard manifest — do not edit while a worker runs\n\
             manifest_version = {MANIFEST_VERSION}\n\
             sweep = \"{}\"\n\
             shard = \"{}\"\n\
             spec_hash = \"{:016x}\"\n\
             cells = \"{}..{}\"\n\
             total_cells = {}\n\
             replicates = {}\n\
             rows = {}\n\
             bytes = {}\n\
             hash = \"{:016x}\"\n\
             complete = {}\n",
            self.sweep,
            self.shard,
            self.spec_hash,
            self.cells.start,
            self.cells.end,
            self.total_cells,
            self.replicates,
            self.rows,
            self.bytes,
            self.hash,
            self.complete,
        )
    }
}

impl ShardManifest {
    /// Parses a manifest previously rendered via [`core::fmt::Display`]
    /// (`manifest.to_string()`).
    pub fn parse(text: &str) -> Result<ShardManifest, SpecError> {
        let doc = toml::parse(text).map_err(|e| SpecError(format!("bad manifest: {e}")))?;
        let root = doc
            .get("")
            .ok_or_else(|| SpecError("bad manifest: empty document".into()))?;
        let int = |key: &str| -> Result<i64, SpecError> {
            root.get(key)
                .and_then(Value::as_int)
                .ok_or_else(|| SpecError(format!("bad manifest: missing integer `{key}`")))
        };
        let string = |key: &str| -> Result<String, SpecError> {
            root.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| SpecError(format!("bad manifest: missing string `{key}`")))
        };
        let version = int("manifest_version")?;
        if version != MANIFEST_VERSION {
            return Err(SpecError(format!(
                "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let cells = string("cells")?;
        let (start, end) = cells
            .split_once("..")
            .ok_or_else(|| SpecError("bad manifest: `cells` must be `A..B`".into()))?;
        let range: Range<usize> = start
            .parse()
            .and_then(|s| end.parse().map(|e| s..e))
            .map_err(|_| SpecError("bad manifest: `cells` must be `A..B`".into()))?;
        let usize_of = |v: i64, key: &str| -> Result<usize, SpecError> {
            usize::try_from(v).map_err(|_| SpecError(format!("bad manifest: `{key}` negative")))
        };
        let hex = |key: &str| -> Result<u64, SpecError> {
            u64::from_str_radix(&string(key)?, 16)
                .map_err(|_| SpecError(format!("bad manifest: `{key}` must be hex")))
        };
        let total_cells = usize_of(int("total_cells")?, "total_cells")?;
        if range.start > range.end || range.end > total_cells {
            return Err(SpecError(format!(
                "bad manifest: `cells` {}..{} is not a range within the grid's {total_cells} cells",
                range.start, range.end
            )));
        }
        let hash = hex("hash")?;
        Ok(ShardManifest {
            sweep: string("sweep")?,
            shard: string("shard")?,
            spec_hash: hex("spec_hash")?,
            cells: range,
            total_cells,
            replicates: usize_of(int("replicates")?, "replicates")?,
            rows: usize_of(int("rows")?, "rows")?,
            bytes: u64::try_from(int("bytes")?)
                .map_err(|_| SpecError("bad manifest: `bytes` negative".into()))?,
            hash,
            complete: root
                .get("complete")
                .and_then(Value::as_bool)
                .ok_or_else(|| SpecError("bad manifest: missing boolean `complete`".into()))?,
        })
    }

    /// Configuration rows the assigned range produces in total.
    pub fn expected_rows(&self) -> usize {
        (self.cells.end - self.cells.start) / self.replicates.max(1)
    }

    /// Loads the manifest sidecar of `csv`.
    pub fn load(csv: &Path) -> std::io::Result<ShardManifest> {
        let path = manifest_path(csv);
        let text = std::fs::read_to_string(&path)?;
        ShardManifest::parse(&text).map_err(|e| invalid(format!("{}: {e}", path.display())))
    }

    /// Writes the manifest sidecar of `csv` atomically (via
    /// [`write_atomic`]), so a kill mid-checkpoint leaves the previous
    /// checkpoint intact rather than a torn sidecar. `chaos` arms the
    /// `manifest_rewrite` failpoint; pass [`NO_CHAOS`] for none.
    pub fn store(&self, csv: &Path, chaos: &ChaosRegistry) -> std::io::Result<()> {
        write_atomic(
            &manifest_path(csv),
            self.to_string().as_bytes(),
            chaos,
            Failpoint::ManifestRewrite,
        )
    }
}

/// Configuration rows between manifest checkpoints. A kill loses at most
/// this many rows of work (the CSV may hold rows past the checkpoint;
/// resume truncates back to the last one). Checkpointing is an atomic
/// sidecar rewrite, so the interval trades re-done work against fsync
/// traffic on million-cell grids.
pub const CHECKPOINT_EVERY: usize = 64;

/// Which slice of the (filtered) grid a worker runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAssignment {
    /// Shard I of an N-way split (`--shard I/N`).
    Shard(Shard),
    /// An explicit config-aligned cell range (`--cell-range A..B`).
    Cells(Range<usize>),
    /// The whole grid — a checkpointed/resumable full run (`--resume`
    /// without `--shard`).
    Whole,
}

impl ShardAssignment {
    /// The worker label manifests and progress records carry: `"I/N"`,
    /// `"cells:A..B"`, or `"0/1"` for the whole grid.
    pub(crate) fn label(&self) -> String {
        match self {
            ShardAssignment::Shard(shard) => format!("{}/{}", shard.index, shard.of),
            ShardAssignment::Cells(range) => format!("cells:{}..{}", range.start, range.end),
            ShardAssignment::Whole => "0/1".to_string(),
        }
    }
}

/// One shard-worker invocation: the sweep, the assignment, and where
/// the CSV + manifest land. The assignment is resolved to a concrete
/// cell range (and the filter applied) exactly once inside
/// [`run_shard`].
pub struct ShardJob<'a> {
    /// The parsed (and preset-overridden) sweep.
    pub sweep: &'a Sweep,
    /// Optional configuration-label filter (applied before partitioning,
    /// exactly as a single-process `--filter --stream` run would).
    pub filter: Option<&'a str>,
    /// The slice of the grid this worker owns.
    pub assignment: ShardAssignment,
    /// The shard CSV path.
    pub csv: &'a Path,
    /// Resume from the manifest checkpoint instead of starting fresh.
    pub resume: bool,
    /// Rows between checkpoints ([`CHECKPOINT_EVERY`] for the CLI).
    pub checkpoint_every: usize,
    /// Write the `<csv>.cols` columnar sidecar
    /// ([`crate::analyze::columnar`]) once the shard completes, so
    /// `scenarios analyze` never re-parses the CSV text.
    pub columnar: bool,
}

/// What [`run_shard`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The resolved cell range this worker owned.
    pub range: Range<usize>,
    /// Total cells of the (filtered) grid the range indexes.
    pub total_cells: usize,
    /// Rows found already checkpointed on disk (0 on a fresh run).
    pub resumed_rows: usize,
    /// Rows written by this invocation.
    pub written_rows: usize,
    /// Work counters of the cells executed now (`None` when the shard
    /// was already complete).
    pub summary: Option<StreamSummary>,
}

/// A [`Write`] sink that mirrors every row into the running byte count /
/// FNV hash and checkpoints the manifest every `checkpoint_every` rows.
/// The streaming sink issues exactly one `write` per CSV row (and
/// `write` here always consumes the whole buffer), so rows can be
/// counted at the write boundary. Every checkpoint also appends one
/// heartbeat to the `.progress` trail (a repaired append, so the trail
/// grows by one record per checkpoint) and, under a recording
/// [`Recorder`], books the checkpoint's cost as a
/// [`SpanKind::Checkpoint`] span. Three failpoints arm this path:
/// `fragment_row` at every row write, `manifest_rewrite` and
/// `progress_rewrite` inside the checkpoint.
struct ShardWriter<'a, R: Recorder> {
    file: std::fs::File,
    csv: &'a Path,
    manifest: ShardManifest,
    hash: Fnv1a,
    since_checkpoint: usize,
    checkpoint_every: usize,
    /// Rows the whole assignment will produce (for ETA math).
    expected_rows: usize,
    /// Rows already on disk when this invocation started — rate math
    /// counts only rows *this* invocation wrote.
    resumed_rows: usize,
    started: Instant,
    chaos: &'a ChaosRegistry,
    obs: &'a R,
}

impl<R: Recorder> ShardWriter<'_, R> {
    /// Absorbs non-row bytes (the header) into the checkpoint state.
    fn absorb_header(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)?;
        self.hash.update(bytes);
        self.manifest.bytes += bytes.len() as u64;
        self.manifest.hash = self.hash.0;
        Ok(())
    }

    fn checkpoint(&mut self) -> std::io::Result<()> {
        let watch = Stopwatch::<R>::start();
        self.file.flush()?;
        self.manifest.hash = self.hash.0;
        self.manifest.store(self.csv, self.chaos)?;
        self.heartbeat()?;
        self.since_checkpoint = 0;
        if R::ENABLED {
            self.obs.span_ns(SpanKind::Checkpoint, watch.elapsed_ns());
            self.obs.add(Counter::Checkpoints, 1);
        }
        Ok(())
    }

    /// Appends one progress record describing the checkpoint just taken.
    fn heartbeat(&mut self) -> std::io::Result<()> {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let written = self.manifest.rows.saturating_sub(self.resumed_rows);
        let rate = if elapsed_s > 0.0 && written > 0 {
            written as f64 / elapsed_s
        } else {
            0.0
        };
        let remaining = self.expected_rows.saturating_sub(self.manifest.rows);
        let eta_s = (!self.manifest.complete && rate > 0.0 && remaining > 0)
            .then(|| remaining as f64 / rate);
        let phases_ms = self
            .obs
            .snapshot()
            .map(|s| {
                s.phases_ms
                    .iter()
                    .map(|(name, ms)| (name.to_string(), *ms))
                    .collect()
            })
            .unwrap_or_default();
        let record = ProgressRecord {
            sweep: self.manifest.sweep.clone(),
            shard: self.manifest.shard.clone(),
            rows: self.manifest.rows,
            expected_rows: self.expected_rows,
            elapsed_s,
            rate_rows_per_s: rate,
            eta_s,
            rss_mb: current_rss_mb(),
            phases_ms,
            failed: false,
            error: None,
            complete: self.manifest.complete,
        };
        record.append_to(self.csv, self.chaos)
    }
}

impl<R: Recorder> Write for ShardWriter<'_, R> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // The `fragment_row` failpoint fires at the row boundary — the
        // exact place a real crash tears a shard — so the
        // fault-tolerance tests exercise the same checkpoint/resume
        // machinery a SIGKILL does, deterministically. A torn fault
        // additionally leaves a partial row past the checkpoint, the
        // tail `--resume` must truncate.
        if let Some(budget) = probe(self.chaos, Failpoint::FragmentRow)? {
            let k = budget.min(buf.len());
            self.file.write_all(&buf[..k])?;
            let _ = self.file.sync_all();
            torn_crash(Failpoint::FragmentRow, k);
        }
        self.file.write_all(buf)?;
        self.hash.update(buf);
        self.manifest.bytes += buf.len() as u64;
        // Rows complete at their newline, not per write call: a torn
        // upstream commit (`parallel_commit`) hands this writer a
        // rowless prefix, which must never advance the checkpoint —
        // the manifest on disk stays at the last full row and resume
        // truncates the tail.
        let rows = buf.iter().filter(|&&b| b == b'\n').count();
        self.manifest.rows += rows;
        self.since_checkpoint += rows;
        if rows > 0 && self.since_checkpoint >= self.checkpoint_every.max(1) {
            self.checkpoint()?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// Runs one shard of a sweep: streams the assigned range's rows into
/// `job.csv`, checkpointing the manifest as it goes. With `job.resume`,
/// a previous (possibly killed) invocation's checkpoint is verified and
/// extended instead of restarted — the resulting file is byte-identical
/// to an uninterrupted run either way.
///
/// The runner's handles reach every layer of the shard. A
/// [`recording`](SweepRunner::recording) runner books checkpoint spans,
/// resume verification and row-flush counters, and the `.progress`
/// heartbeats carry its per-phase timing breakdown. An
/// [`armed`](SweepRunner::armed) runner probes a failpoint at every
/// durable write: fragment rows, manifest checkpoints, progress
/// heartbeats and the columnar sidecar. The CLI's `--chaos` path runs
/// here.
///
/// A shard invocation that dies must leave a non-ambiguous state: on
/// any error *or panic* this function appends a terminal `"failed"`
/// record to the `.progress` sidecar before propagating, so a
/// supervisor (and `scenarios watch`) can tell a crash from a stall —
/// only a SIGKILL leaves no terminal record, and that is exactly the
/// case heartbeat-age stall detection covers.
pub fn run_shard<R: Recorder>(
    runner: &SweepRunner<'_, R>,
    job: &ShardJob<'_>,
    progress: Option<&ProgressFn<'_>>,
) -> std::io::Result<ShardOutcome> {
    let started = Instant::now();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_shard_inner(runner, job, progress)
    }));
    match attempt {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(error)) => {
            record_failure(job, started, &error.to_string());
            Err(error)
        }
        Err(panic) => {
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic (non-string payload)");
            record_failure(job, started, &format!("panic: {text}"));
            std::panic::resume_unwind(panic)
        }
    }
}

/// [`run_shard`] on `runner` recording into `obs`.
pub fn run_shard_obs<R: Recorder>(
    runner: &SweepRunner,
    job: &ShardJob<'_>,
    progress: Option<&ProgressFn<'_>>,
    obs: &R,
) -> std::io::Result<ShardOutcome> {
    run_shard(&runner.recording(obs), job, progress)
}

/// Appends the terminal `"failed"` progress record of a dying shard
/// invocation. Best-effort by design (the worker is already on its
/// error path); the append keeps the trail's heartbeats — the flight
/// record of *how* the run got here.
fn record_failure(job: &ShardJob<'_>, started: Instant, error: &str) {
    // The manifest checkpoint (if one exists) is the authoritative
    // rows-done count at death; a pre-manifest failure reports 0.
    let (rows, expected_rows) = ShardManifest::load(job.csv)
        .map(|m| (m.rows, m.expected_rows()))
        .unwrap_or((0, 0));
    let record = ProgressRecord {
        sweep: job.sweep.name.clone(),
        shard: job.assignment.label(),
        rows,
        expected_rows,
        elapsed_s: started.elapsed().as_secs_f64(),
        rate_rows_per_s: 0.0,
        eta_s: None,
        rss_mb: current_rss_mb(),
        phases_ms: Vec::new(),
        failed: true,
        error: Some(error.to_string()),
        complete: false,
    };
    let _ = record.append_to(job.csv, &NO_CHAOS);
}

fn run_shard_inner<R: Recorder>(
    runner: &SweepRunner<'_, R>,
    job: &ShardJob<'_>,
    progress: Option<&ProgressFn<'_>>,
) -> std::io::Result<ShardOutcome> {
    let (obs, chaos) = (runner.obs, runner.chaos);
    // Resolve the filtered grid and the assignment exactly once, before
    // any file is touched: the filter expansion is the expensive part on
    // survey-scale grids, and an invalid sweep or range must leave no
    // shard output behind.
    let grid = Grid::new(job.sweep, job.filter)?;
    let range = grid.range(&job.assignment)?;
    let (total_cells, replicates) = (grid.cell_count(), grid.replicates());
    let filter = job.filter.filter(|f| !f.is_empty());
    let expected_rows = (range.end - range.start) / replicates;
    // Fingerprint of the fully-resolved workload: every axis value, the
    // preset (post `--preset` override), the workload seed, and the
    // filter. A checkpoint taken under a different resolution must not
    // be extended — the bytes would belong to two different grids.
    let spec_hash = {
        let mut h = Fnv1a::default();
        h.update(format!("{:?}", job.sweep).as_bytes());
        h.update(b"|filter:");
        h.update(filter.unwrap_or("").as_bytes());
        h.0
    };

    let header = green_bench::export::csv_line(&CSV_HEADERS);
    let fresh_manifest = || ShardManifest {
        sweep: job.sweep.name.clone(),
        shard: job.assignment.label(),
        spec_hash,
        cells: range.clone(),
        total_cells,
        replicates,
        rows: 0,
        bytes: 0,
        hash: Fnv1a::default().0,
        complete: false,
    };

    let manifest_exists = manifest_path(job.csv).exists();
    let (file, manifest, hash) = if job.resume && manifest_exists {
        let manifest = ShardManifest::load(job.csv)?;
        let reference = fresh_manifest();
        if manifest.sweep != reference.sweep
            || manifest.spec_hash != reference.spec_hash
            || manifest.cells != reference.cells
            || manifest.total_cells != reference.total_cells
            || manifest.replicates != reference.replicates
        {
            return Err(invalid(format!(
                "{}: checkpoint belongs to sweep `{}` (spec {:016x}) cells {}..{} of {} — \
                 refusing to resume a different assignment or a sweep resolved with a \
                 different preset/filter/axes (delete the shard output to start over)",
                manifest_path(job.csv).display(),
                manifest.sweep,
                manifest.spec_hash,
                manifest.cells.start,
                manifest.cells.end,
                manifest.total_cells,
            )));
        }
        // Verify the checkpointed prefix byte-for-byte, then drop any
        // torn tail the kill left past the checkpoint. The checkpoint's
        // length is held against the file before anything is read, and
        // the prefix is hashed through a bounded buffer: a corrupt
        // `bytes` is an error, never an allocation of that size.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(job.csv)?;
        let shorter = || {
            invalid(format!(
                "{}: shorter than its checkpoint ({} bytes) — the output was modified; \
                 delete it to start over",
                job.csv.display(),
                manifest.bytes
            ))
        };
        if file.metadata()?.len() < manifest.bytes {
            return Err(shorter());
        }
        let mut running = Fnv1a::default();
        let mut buf = vec![0u8; 1 << 16];
        let mut left = manifest.bytes;
        while left > 0 {
            let n = left.min(buf.len() as u64) as usize;
            file.read_exact(&mut buf[..n]).map_err(|_| shorter())?;
            running.update(&buf[..n]);
            left -= n as u64;
        }
        if running.0 != manifest.hash {
            return Err(invalid(format!(
                "{}: checkpointed prefix hash mismatch — the output was modified; \
                 delete it to start over",
                job.csv.display()
            )));
        }
        file.set_len(manifest.bytes)?;
        file.seek(std::io::SeekFrom::End(0))?;
        if R::ENABLED {
            obs.add(Counter::ResumedRowsVerified, manifest.rows as u64);
        }
        if manifest.complete {
            // Nothing to do — idempotent re-invocation after success
            // (still backfills a requested columnar sidecar a previous
            // non-columnar invocation didn't write).
            if job.columnar && !crate::analyze::cols_path(job.csv).exists() {
                crate::analyze::write_sidecar_chaos(job.csv, chaos)?;
            }
            return Ok(ShardOutcome {
                range,
                total_cells,
                resumed_rows: manifest.rows,
                written_rows: 0,
                summary: None,
            });
        }
        (file, manifest, running)
    } else {
        // A fresh run starts a new heartbeat trail beside its new CSV;
        // a resumed one continues the trail it finds.
        match std::fs::remove_file(progress_path(job.csv)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        (
            std::fs::File::create(job.csv)?,
            fresh_manifest(),
            Fnv1a::default(),
        )
    };

    let resumed_rows = manifest.rows;
    let mut writer = ShardWriter {
        file,
        csv: job.csv,
        manifest,
        hash,
        since_checkpoint: 0,
        checkpoint_every: job.checkpoint_every,
        expected_rows,
        resumed_rows,
        started: Instant::now(),
        chaos,
        obs,
    };
    if resumed_rows == 0 && writer.manifest.bytes == 0 {
        // Every shard file carries the header — including a worker whose
        // assigned range is empty, so `merge` never sees a headerless
        // file (the same contract `run_streamed_range` keeps for zero-cell
        // sweeps).
        writer.absorb_header(header.as_bytes())?;
    }
    writer.checkpoint()?;

    // Skip the configurations the checkpoint already covers: their rows
    // are on disk, verified. Determinism makes re-running the remainder
    // produce exactly the bytes the uninterrupted run would have.
    let cells = grid.into_cells(range.start + resumed_rows * replicates..range.end);
    let summary = runner.stream_csv(job.sweep, &cells, progress, &mut writer)?;
    debug_assert_eq!(resumed_rows + summary.configs, writer.manifest.rows);
    if writer.manifest.rows != expected_rows {
        return Err(invalid(format!(
            "shard wrote {} rows, expected {expected_rows}",
            writer.manifest.rows
        )));
    }
    writer.manifest.complete = true;
    writer.checkpoint()?;
    if job.columnar {
        // The CSV is final and hash-stable now — encode the columnar
        // sidecar from it so the sidecar's binding triple (rows, bytes,
        // hash) matches the manifest exactly.
        crate::analyze::write_sidecar_chaos(job.csv, chaos)?;
    }
    Ok(ShardOutcome {
        range,
        total_cells,
        resumed_rows,
        written_rows: summary.configs,
        summary: Some(summary),
    })
}

/// What [`merge_shards`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSummary {
    /// Shard files merged.
    pub shards: usize,
    /// Total configuration rows in the merged CSV.
    pub rows: usize,
    /// Total bytes written.
    pub bytes: u64,
}

/// Loads, completeness-checks, cross-checks and orders a shard set:
/// the shared front half of [`merge_shards`] and `scenarios analyze`.
/// Every input must have a complete manifest (a torn/partial shard
/// refuses the whole set, naming the offending fragment), all manifests
/// must describe one sweep/spec/grid, and the cell ranges must tile
/// contiguously — covering the whole grid unless `partial`. Returns the
/// set ordered by `cells.start`, which is expansion order.
pub fn load_shard_set(
    inputs: &[PathBuf],
    partial: bool,
) -> std::io::Result<Vec<(ShardManifest, PathBuf)>> {
    if inputs.is_empty() {
        return Err(invalid("no shard files to merge"));
    }
    let mut shards: Vec<(ShardManifest, PathBuf)> = Vec::with_capacity(inputs.len());
    for path in inputs {
        let manifest = ShardManifest::load(path)?;
        if !manifest.complete {
            return Err(invalid(format!(
                "{}: shard incomplete ({} rows checkpointed, cells {}..{}) — finish it with \
                 --resume before merging",
                path.display(),
                manifest.rows,
                manifest.cells.start,
                manifest.cells.end
            )));
        }
        shards.push((manifest, path.clone()));
    }
    shards.sort_by_key(|(m, _)| m.cells.start);

    let (first, _) = &shards[0];
    let (sweep, spec, total, replicates) = (
        first.sweep.clone(),
        first.spec_hash,
        first.total_cells,
        first.replicates,
    );
    for (m, path) in &shards {
        if m.sweep != sweep
            || m.spec_hash != spec
            || m.total_cells != total
            || m.replicates != replicates
        {
            return Err(invalid(format!(
                "{}: shard belongs to a different run (sweep `{}`, spec {:016x}, {} cells, \
                 {} replicates; expected `{sweep}`, {spec:016x}, {total}, {replicates}) — \
                 shards must come from one sweep resolved with one preset/filter",
                path.display(),
                m.sweep,
                m.spec_hash,
                m.total_cells,
                m.replicates
            )));
        }
    }
    let mut expected = shards[0].0.cells.start;
    if !partial && expected != 0 {
        return Err(invalid(format!(
            "shards start at cell {expected}, not 0 — pass every shard (or merge --partial \
             for a contiguous sub-span)"
        )));
    }
    for (m, path) in &shards {
        if m.cells.start != expected {
            return Err(invalid(format!(
                "{}: covers cells {}..{} but the merge needs {expected} next — shards must \
                 tile the grid contiguously (missing or duplicate shard?)",
                path.display(),
                m.cells.start,
                m.cells.end
            )));
        }
        expected = m.cells.end;
    }
    if !partial && expected != total {
        return Err(invalid(format!(
            "shards cover cells 0..{expected} of {total} — missing the tail shard(s)"
        )));
    }
    Ok(shards)
}

/// Reads a shard CSV and verifies its bytes against the manifest (byte
/// count + FNV-1a hash) — the integrity gate both `merge` and `analyze`
/// pass every file through before trusting its rows.
pub fn read_verified(manifest: &ShardManifest, path: &Path) -> std::io::Result<Vec<u8>> {
    let body = std::fs::read(path)?;
    if body.len() as u64 != manifest.bytes || Fnv1a::hash(&body) != manifest.hash {
        return Err(invalid(format!(
            "{}: content does not match its manifest (got {} bytes, hash {:016x}; \
             manifest says {} bytes, {:016x}) — stale or corrupted shard output",
            path.display(),
            body.len(),
            Fnv1a::hash(&body),
            manifest.bytes,
            manifest.hash
        )));
    }
    Ok(body)
}

/// Merges completed shard CSVs into `out`: manifests are loaded and
/// verified (same sweep, same grid, every shard complete, content hash
/// intact), ranges are ordered and checked for exact contiguous tiling,
/// and bodies are concatenated under a single header — byte-identical
/// to the single-process `--stream` run over the union range.
///
/// `partial = false` additionally requires the union to cover the whole
/// grid (`0..total_cells`); `partial = true` accepts any contiguous
/// sub-span (merging two adjacent shards of a bigger split).
pub fn merge_shards(
    inputs: &[PathBuf],
    out: &Path,
    partial: bool,
) -> std::io::Result<MergeSummary> {
    merge_shards_chaos(inputs, out, partial, &NO_CHAOS)
}

/// [`merge_shards`] with the `merge_write` failpoint armed once per
/// shard body. The merged CSV streams into an atomic staging file
/// ([`crate::durable_io::AtomicFile`]: tmp → sync → rename), so a
/// crash mid-merge leaves the previous output (or nothing) — never a
/// prefix that happens to end on a row boundary and reads as a
/// silently smaller grid.
pub fn merge_shards_chaos(
    inputs: &[PathBuf],
    out: &Path,
    partial: bool,
    chaos: &ChaosRegistry,
) -> std::io::Result<MergeSummary> {
    let shards = load_shard_set(inputs, partial)?;

    let header = green_bench::export::csv_line(&CSV_HEADERS);
    let mut writer = std::io::BufWriter::new(crate::durable_io::AtomicFile::create(out)?);
    let mut summary = MergeSummary {
        shards: shards.len(),
        rows: 0,
        bytes: 0,
    };
    for (i, (manifest, path)) in shards.iter().enumerate() {
        let body = read_verified(manifest, path)?;
        if !body.starts_with(header.as_bytes()) {
            return Err(invalid(format!(
                "{}: does not start with the aggregate CSV header",
                path.display()
            )));
        }
        let emit = if i == 0 {
            &body[..]
        } else {
            &body[header.len()..]
        };
        if let Some(budget) = probe(chaos, Failpoint::MergeWrite)? {
            // Partial-write-then-crash: the torn bytes land in the tmp
            // sibling the atomic protocol stages through, never in
            // `out` itself.
            let k = budget.min(emit.len());
            writer.write_all(&emit[..k])?;
            let _ = writer.flush();
            torn_crash(Failpoint::MergeWrite, k);
        }
        writer.write_all(emit)?;
        summary.rows += manifest.rows;
        summary.bytes += emit.len() as u64;
    }
    writer.into_inner().map_err(|e| e.into_error())?.commit()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_valid_and_rejects_bad() {
        assert_eq!(Shard::parse("2/8").unwrap(), Shard { index: 2, of: 8 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard { index: 0, of: 1 });
        for bad in ["8/8", "3/0", "x/2", "2", "1/2/3", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn ranges_are_balanced_and_config_aligned() {
        // 10 configs × 3 replicates over 4 shards: 3,3,2,2 configs.
        let ranges = shard_ranges(10, 3, 4);
        assert_eq!(ranges, vec![0..9, 9..18, 18..24, 24..30]);
        // More shards than configs: trailing shards get empty ranges.
        let ranges = shard_ranges(2, 2, 5);
        assert_eq!(ranges, vec![0..2, 2..4, 4..4, 4..4, 4..4]);
    }

    #[test]
    fn manifest_roundtrips() {
        let manifest = ShardManifest {
            sweep: "mega".into(),
            shard: "2/8".into(),
            spec_hash: 0x0123_4567_89ab_cdef,
            cells: 120..180,
            total_cells: 480,
            replicates: 3,
            rows: 7,
            bytes: 1234,
            hash: 0xdead_beef_cafe_f00d,
            complete: false,
        };
        let parsed = ShardManifest::parse(&manifest.to_string()).unwrap();
        assert_eq!(parsed, manifest);
        assert!(ShardManifest::parse("rows = 3").is_err());
        assert!(ShardManifest::parse("manifest_version = 99").is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
    }
}
