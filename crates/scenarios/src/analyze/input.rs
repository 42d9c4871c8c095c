//! Input discovery and row decoding for `scenarios analyze`.
//!
//! Two entry shapes, one fold order:
//!
//! * a **directory** of shard outputs — fragments are discovered by
//!   their `.csv.manifest` sidecars and verified through the same
//!   [`crate::shard::load_shard_set`] front end `merge` uses (every
//!   shard complete, one sweep/spec fingerprint, contiguous
//!   cell-range tiling); a torn or partial fragment refuses the whole
//!   analysis, naming the offending file. Shards are then folded one at
//!   a time in cell-range order — expansion order — so the engine sees
//!   rows exactly as a single pass over the merged CSV would;
//! * a **single CSV** — one already-merged (or single-shard) file,
//!   folded top to bottom.
//!
//! Per shard, the decoder prefers the `<csv>.cols` columnar sidecar
//! when its binding (row count, CSV byte count, CSV hash) matches the
//! manifest — re-analysis then never re-parses CSV text. A missing or
//! stale sidecar falls back to the hash-verified CSV. A single CSV uses
//! its sidecar when the byte count and hash match the file itself.

use std::io;
use std::path::{Path, PathBuf};

use crate::agg::CSV_HEADERS;
use crate::durable_io::invalid;
use crate::shard::{load_shard_set, read_verified, Fnv1a, ShardManifest};

use super::columnar::{cols_path, ColsFile, Column};
use super::engine::GroupEngine;
use super::{AnalyzeQuery, AnalyzeReport, AXIS_COLUMNS};

/// Analyzes `input`, dispatching on its shape: a directory of shard
/// outputs (out-of-core, manifest-verified) or a single aggregate CSV.
/// `partial` relaxes the directory path's whole-grid coverage
/// requirement to any contiguous sub-span — the same meaning as
/// `merge --partial`.
pub fn analyze_path(
    input: &Path,
    query: &AnalyzeQuery,
    partial: bool,
) -> io::Result<AnalyzeReport> {
    if input.is_dir() {
        analyze_dir(input, query, partial)
    } else {
        analyze_csv(input, query)
    }
}

/// Analyzes a directory of shard outputs without merging them: verify
/// the shard set exactly as `merge` would, then fold shard by shard in
/// cell-range order. Output is bit-identical to [`analyze_csv`] over
/// the merged CSV, for any shard count.
pub fn analyze_dir(dir: &Path, query: &AnalyzeQuery, partial: bool) -> io::Result<AnalyzeReport> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(csv_name) = name.strip_suffix(".manifest") {
            if csv_name.ends_with(".csv") {
                inputs.push(path.with_file_name(csv_name));
            }
        }
    }
    if inputs.is_empty() {
        return Err(invalid(format!(
            "{}: no shard outputs found (no `*.csv.manifest` sidecars)",
            dir.display()
        )));
    }
    // Deterministic discovery order; load_shard_set re-orders by cell
    // range, which is what the fold follows.
    inputs.sort();
    let shards = load_shard_set(&inputs, partial)?;

    let mut engine = GroupEngine::new(query.key_axes(), query.metrics.len(), query.filter.clone());
    let metric_indices = query.metric_indices();
    for (manifest, path) in &shards {
        fold_shard(&mut engine, &metric_indices, manifest, path)?;
    }
    Ok(engine.finish(query.group_by.clone(), query.metrics.clone()))
}

/// Analyzes one aggregate CSV (merged output, or a single shard file).
/// A `<csv>.cols` sidecar is used when its recorded CSV byte count and
/// FNV-1a hash match the file on disk — the binding [`analyze_dir`]
/// checks against each manifest — so a CSV rewritten in place, even at
/// the same length, is folded from its own bytes.
pub fn analyze_csv(csv: &Path, query: &AnalyzeQuery) -> io::Result<AnalyzeReport> {
    let mut engine = GroupEngine::new(query.key_axes(), query.metrics.len(), query.filter.clone());
    let metric_indices = query.metric_indices();
    let bytes = std::fs::read(csv)?;
    let sidecar = cols_path(csv);
    let cols = sidecar
        .exists()
        .then(|| ColsFile::load(&sidecar).ok())
        .flatten()
        .filter(|c| c.csv_bytes == bytes.len() as u64 && c.csv_hash == Fnv1a::hash(&bytes));
    match cols {
        Some(cols) => fold_columnar(&mut engine, &metric_indices, &cols)?,
        None => fold_csv_bytes(&mut engine, &metric_indices, &bytes, csv)?,
    }
    Ok(engine.finish(query.group_by.clone(), query.metrics.clone()))
}

/// Folds one verified shard: columnar sidecar when it binds to the
/// manifest, hash-verified CSV otherwise.
fn fold_shard(
    engine: &mut GroupEngine,
    metric_indices: &[usize],
    manifest: &ShardManifest,
    path: &Path,
) -> io::Result<()> {
    let sidecar = cols_path(path);
    if sidecar.exists() {
        if let Ok(cols) = ColsFile::load(&sidecar) {
            if cols.rows == manifest.rows
                && cols.csv_bytes == manifest.bytes
                && cols.csv_hash == manifest.hash
            {
                return fold_columnar(engine, metric_indices, &cols);
            }
        }
    }
    let bytes = read_verified(manifest, path)?;
    fold_csv_bytes(engine, metric_indices, &bytes, path)
}

/// Streams one columnar sidecar into the engine, row by row.
fn fold_columnar(
    engine: &mut GroupEngine,
    metric_indices: &[usize],
    cols: &ColsFile,
) -> io::Result<()> {
    let column = |name: &str| -> io::Result<&Column> {
        cols.column(name)
            .ok_or_else(|| invalid(format!("columnar sidecar is missing column `{name}`")))
    };
    let axis_cols: Vec<&Column> = CSV_HEADERS[..AXIS_COLUMNS]
        .iter()
        .map(|name| column(name))
        .collect::<io::Result<_>>()?;
    let metric_cols: Vec<&Column> = metric_indices
        .iter()
        .map(|&i| column(CSV_HEADERS[i]))
        .collect::<io::Result<_>>()?;
    let mut values = vec![0.0; metric_cols.len()];
    for row in 0..cols.rows {
        let axes: Vec<&str> = axis_cols.iter().map(|c| c.str_at(row)).collect();
        for (slot, col) in values.iter_mut().zip(&metric_cols) {
            *slot = col.f64_at(row);
        }
        engine.fold(&axes, &values);
    }
    Ok(())
}

/// Streams one CSV document (header + rows) into the engine.
fn fold_csv_bytes(
    engine: &mut GroupEngine,
    metric_indices: &[usize],
    bytes: &[u8],
    path: &Path,
) -> io::Result<()> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| invalid(format!("{}: not UTF-8", path.display())))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| invalid(format!("{}: empty CSV", path.display())))?;
    let expected = green_bench::export::csv_line(&CSV_HEADERS);
    if header != expected.trim_end() {
        return Err(invalid(format!(
            "{}: header is not the aggregate CSV header (is this a sweep output?)",
            path.display()
        )));
    }
    let mut values = vec![0.0; metric_indices.len()];
    for (number, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        if line.contains('"') {
            return Err(invalid(format!(
                "{}: row {number}: quoted CSV fields are not part of the aggregate schema",
                path.display()
            )));
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != CSV_HEADERS.len() {
            return Err(invalid(format!(
                "{}: row {number}: {} fields, expected {}",
                path.display(),
                fields.len(),
                CSV_HEADERS.len()
            )));
        }
        for (slot, &column) in values.iter_mut().zip(metric_indices) {
            *slot = fields[column].parse().map_err(|_| {
                invalid(format!(
                    "{}: row {number}: `{}` is not a number (column `{}`)",
                    path.display(),
                    fields[column],
                    CSV_HEADERS[column]
                ))
            })?;
        }
        engine.fold(&fields[..AXIS_COLUMNS], &values);
    }
    Ok(())
}
