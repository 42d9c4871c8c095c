//! The `<csv>.cols` columnar sidecar: the shard's aggregate rows,
//! re-encoded column-major so re-analysis never re-parses CSV text.
//!
//! A shard worker finishing under `--columnar` writes one sidecar next
//! to its CSV: the same 34 columns as [`crate::agg::CSV_HEADERS`], the
//! eleven configuration axes dictionary-encoded (`str` columns — a few
//! distinct labels indexed by `u32`), every numeric column stored as
//! raw `f64` bits (`f64` columns). The header binds the sidecar to its
//! source CSV by row count, byte count and FNV-1a content hash — the
//! same triple the `.manifest` checkpoint carries — so `scenarios
//! analyze` can trust a sidecar without ever opening the CSV.
//!
//! Layout (all integers little-endian), versioned by the leading
//! schema string [`COLS_SCHEMA`]:
//!
//! ```text
//! u32 schema-len, schema bytes            "green-cols/1"
//! u64 rows                                data rows (no header row)
//! u64 csv_bytes                           source CSV size, header included
//! u64 csv_hash                            FNV-1a of the source CSV bytes
//! u32 column-count
//! per column:  u32 name-len, name bytes, u8 type tag (0 str, 1 f64)
//! per column, in declaration order:
//!   str column: u32 dict-len, dict entries (u32 len + bytes),
//!               rows × u32 dict index
//!   f64 column: rows × u64 (f64::to_bits)
//! ```
//!
//! The type tags' wire names (`str`, `f64`) and the schema string are
//! documented in `docs/analytics.md`; `tools/check_docs.sh` fails if
//! one is added without documentation.

use std::io;
use std::path::{Path, PathBuf};

use crate::agg::CSV_HEADERS;
use crate::durable_io::invalid;
use crate::shard::Fnv1a;

/// Schema tag leading every sidecar (version bumps rename it).
pub const COLS_SCHEMA: &str = "green-cols/1";

/// How many leading CSV columns are configuration-axis strings; the
/// rest are numeric.
const STR_COLUMNS: usize = 11;

/// The columnar sidecar path of a shard CSV: `<csv>.cols`.
pub fn cols_path(csv: &Path) -> PathBuf {
    let mut name = csv.file_name().unwrap_or_default().to_os_string();
    name.push(".cols");
    csv.with_file_name(name)
}

/// A column's physical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Dictionary-encoded string column (the configuration axes).
    Str,
    /// Raw `f64`-bits column (every metric).
    F64,
}

impl ColumnType {
    /// The wire name of the type tag.
    pub fn wire_name(self) -> &'static str {
        match self {
            ColumnType::Str => "str",
            ColumnType::F64 => "f64",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ColumnType::Str => 0,
            ColumnType::F64 => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<ColumnType> {
        match tag {
            0 => Some(ColumnType::Str),
            1 => Some(ColumnType::F64),
            _ => None,
        }
    }
}

/// One decoded column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dictionary + per-row dictionary indices.
    Str { dict: Vec<String>, rows: Vec<u32> },
    /// Per-row values.
    F64(Vec<f64>),
}

impl Column {
    /// The string at `row` (panics on an `f64` column — the engine
    /// resolves column roles before reading).
    pub fn str_at(&self, row: usize) -> &str {
        match self {
            Column::Str { dict, rows } => &dict[rows[row] as usize],
            Column::F64(_) => panic!("str_at on an f64 column"),
        }
    }

    /// The value at `row` (panics on a `str` column).
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            Column::F64(values) => values[row],
            Column::Str { .. } => panic!("f64_at on a str column"),
        }
    }
}

/// A fully decoded sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct ColsFile {
    /// Data rows (no header row).
    pub rows: usize,
    /// Source CSV size in bytes (header included).
    pub csv_bytes: u64,
    /// FNV-1a hash of the source CSV bytes.
    pub csv_hash: u64,
    /// `(name, column)` in [`CSV_HEADERS`] order.
    pub columns: Vec<(String, Column)>,
}

/// Parses the aggregate CSV at `csv` and writes its `<csv>.cols`
/// sidecar. Called by `run_shard` at completion (the CSV is final and
/// hash-stable at that point), and idempotent: rewriting produces the
/// same bytes.
pub fn write_sidecar(csv: &Path) -> io::Result<()> {
    write_sidecar_chaos(csv, &green_chaos::NO_CHAOS)
}

/// [`write_sidecar`] with the `columnar_sidecar` failpoint armed. The
/// sidecar is written atomically (tmp → sync → rename), so a crash
/// mid-encode leaves no partial sidecar for `analyze` to trip on —
/// and a stale one is caught by the binding triple anyway.
pub fn write_sidecar_chaos(csv: &Path, chaos: &green_chaos::ChaosRegistry) -> io::Result<()> {
    let bytes = std::fs::read(csv)?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| invalid(format!("{}: not UTF-8", csv.display())))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| invalid(format!("{}: empty CSV", csv.display())))?;
    let expected = green_bench::export::csv_line(&CSV_HEADERS);
    if header != expected.trim_end() {
        return Err(invalid(format!(
            "{}: header is not the aggregate CSV header",
            csv.display()
        )));
    }

    let mut dicts: Vec<Vec<String>> = vec![Vec::new(); STR_COLUMNS];
    let mut str_rows: Vec<Vec<u32>> = vec![Vec::new(); STR_COLUMNS];
    let mut f64_rows: Vec<Vec<f64>> = vec![Vec::new(); CSV_HEADERS.len() - STR_COLUMNS];
    let mut rows = 0usize;
    for line in lines.filter(|l| !l.is_empty()) {
        let fields = split_row(line, csv)?;
        for (i, field) in fields.iter().take(STR_COLUMNS).enumerate() {
            // First-seen dictionary order: deterministic, and tiny —
            // axis columns have a handful of distinct labels.
            let index = match dicts[i].iter().position(|d| d == field) {
                Some(index) => index,
                None => {
                    dicts[i].push((*field).to_string());
                    dicts[i].len() - 1
                }
            };
            str_rows[i].push(index as u32);
        }
        for (i, field) in fields.iter().skip(STR_COLUMNS).enumerate() {
            let value: f64 = field.parse().map_err(|_| {
                invalid(format!(
                    "{}: row {rows}: `{field}` is not a number (column `{}`)",
                    csv.display(),
                    CSV_HEADERS[STR_COLUMNS + i]
                ))
            })?;
            f64_rows[i].push(value);
        }
        rows += 1;
    }

    let mut out: Vec<u8> = Vec::new();
    put_str(&mut out, COLS_SCHEMA);
    put_u64(&mut out, rows as u64);
    put_u64(&mut out, bytes.len() as u64);
    put_u64(&mut out, Fnv1a::hash(&bytes));
    put_u32(&mut out, CSV_HEADERS.len() as u32);
    for (i, name) in CSV_HEADERS.iter().enumerate() {
        put_str(&mut out, name);
        let ty = if i < STR_COLUMNS {
            ColumnType::Str
        } else {
            ColumnType::F64
        };
        out.push(ty.tag());
    }
    for (i, dict) in dicts.iter().enumerate() {
        put_u32(&mut out, dict.len() as u32);
        for entry in dict {
            put_str(&mut out, entry);
        }
        for &index in &str_rows[i] {
            put_u32(&mut out, index);
        }
    }
    for column in &f64_rows {
        for &value in column {
            put_u64(&mut out, value.to_bits());
        }
    }
    crate::durable_io::write_atomic(
        &cols_path(csv),
        &out,
        chaos,
        green_chaos::Failpoint::ColumnarSidecar,
    )
}

/// Splits one CSV row. The aggregate schema never emits quoted fields
/// (labels contain no commas or quotes), so a quote means the file is
/// not ours.
fn split_row<'a>(line: &'a str, csv: &Path) -> io::Result<Vec<&'a str>> {
    if line.contains('"') {
        return Err(invalid(format!(
            "{}: quoted CSV fields are not part of the aggregate schema",
            csv.display()
        )));
    }
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != CSV_HEADERS.len() {
        return Err(invalid(format!(
            "{}: row has {} fields, expected {}",
            csv.display(),
            fields.len(),
            CSV_HEADERS.len()
        )));
    }
    Ok(fields)
}

impl ColsFile {
    /// Decodes the sidecar at `path`.
    pub fn load(path: &Path) -> io::Result<ColsFile> {
        let bytes = std::fs::read(path)?;
        let bad = |m: &str| invalid(format!("{}: {m}", path.display()));
        let mut cursor = Cursor {
            bytes: &bytes,
            pos: 0,
        };
        let schema = cursor.take_str().map_err(|e| bad(&e))?;
        if schema != COLS_SCHEMA {
            return Err(bad(&format!(
                "schema `{schema}` (this build reads `{COLS_SCHEMA}`)"
            )));
        }
        let rows = cursor.take_u64().map_err(|e| bad(&e))? as usize;
        let csv_bytes = cursor.take_u64().map_err(|e| bad(&e))?;
        let csv_hash = cursor.take_u64().map_err(|e| bad(&e))?;
        let count = cursor.take_u32().map_err(|e| bad(&e))? as usize;
        // Every capacity below is bounded by what the remaining bytes
        // can hold, so a header that lies about a length fails as a
        // truncated sidecar instead of allocating that length.
        let mut names: Vec<(String, ColumnType)> = Vec::with_capacity(cursor.capacity(count, 5));
        for _ in 0..count {
            let name = cursor.take_str().map_err(|e| bad(&e))?;
            let tag = cursor.take_u8().map_err(|e| bad(&e))?;
            let ty = ColumnType::from_tag(tag)
                .ok_or_else(|| bad(&format!("unknown column type tag {tag}")))?;
            names.push((name, ty));
        }
        let mut columns: Vec<(String, Column)> = Vec::with_capacity(names.len());
        for (name, ty) in names {
            let column = match ty {
                ColumnType::Str => {
                    let dict_len = cursor.take_u32().map_err(|e| bad(&e))? as usize;
                    let mut dict = Vec::with_capacity(cursor.capacity(dict_len, 4));
                    for _ in 0..dict_len {
                        dict.push(cursor.take_str().map_err(|e| bad(&e))?);
                    }
                    let mut indices = Vec::with_capacity(cursor.capacity(rows, 4));
                    for _ in 0..rows {
                        let index = cursor.take_u32().map_err(|e| bad(&e))?;
                        if index as usize >= dict.len() {
                            return Err(bad(&format!(
                                "column `{name}`: dictionary index {index} out of range"
                            )));
                        }
                        indices.push(index);
                    }
                    Column::Str {
                        dict,
                        rows: indices,
                    }
                }
                ColumnType::F64 => {
                    let mut values = Vec::with_capacity(cursor.capacity(rows, 8));
                    for _ in 0..rows {
                        values.push(f64::from_bits(cursor.take_u64().map_err(|e| bad(&e))?));
                    }
                    Column::F64(values)
                }
            };
            columns.push((name, column));
        }
        if cursor.pos != bytes.len() {
            return Err(bad("trailing bytes after the last column"));
        }
        Ok(ColsFile {
            rows,
            csv_bytes,
            csv_hash,
            columns,
        })
    }

    /// The column named `name`, if present.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// `n` items of at least `each` bytes, capped at what the unread
    /// bytes can hold.
    fn capacity(&self, n: usize, each: usize) -> usize {
        n.min((self.bytes.len() - self.pos) / each)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated sidecar at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_scratch::Scratch;

    fn sample_csv(dir: &Path) -> PathBuf {
        let path = dir.join("sample.csv");
        let mut text = green_bench::export::csv_line(&CSV_HEADERS);
        for (policy, energy) in [("greedy", 1.5), ("energy", 2.5), ("greedy", 3.5)] {
            let mut fields: Vec<String> = vec![
                policy.into(),
                "eba".into(),
                "0+1".into(),
                "2023".into(),
                "24".into(),
                "64".into(),
                "1.000".into(),
                "1.000".into(),
                "0.00".into(),
                "flat".into(),
                "0.0".into(),
            ];
            fields.push("2".into());
            fields.push(format!("{energy:.6}"));
            while fields.len() < CSV_HEADERS.len() {
                fields.push("0.000000".into());
            }
            text.push_str(&green_bench::export::csv_line(&fields));
        }
        std::fs::write(&path, &text).unwrap();
        path
    }

    #[test]
    fn sidecar_roundtrips_and_binds_to_csv() {
        let dir = Scratch::new("cols-rt");
        let csv = sample_csv(&dir);
        write_sidecar(&csv).unwrap();
        let cols = ColsFile::load(&cols_path(&csv)).unwrap();
        let bytes = std::fs::read(&csv).unwrap();
        assert_eq!(cols.rows, 3);
        assert_eq!(cols.csv_bytes, bytes.len() as u64);
        assert_eq!(cols.csv_hash, Fnv1a::hash(&bytes));
        assert_eq!(cols.columns.len(), CSV_HEADERS.len());
        let policy = cols.column("policy").unwrap();
        assert_eq!(policy.str_at(0), "greedy");
        assert_eq!(policy.str_at(1), "energy");
        assert_eq!(policy.str_at(2), "greedy");
        let completed = cols.column("completed_mean").unwrap();
        assert_eq!(completed.f64_at(0), 1.5);
        assert_eq!(completed.f64_at(2), 3.5);
    }

    #[test]
    fn rewriting_is_byte_stable() {
        let dir = Scratch::new("cols-stable");
        let csv = sample_csv(&dir);
        write_sidecar(&csv).unwrap();
        let first = std::fs::read(cols_path(&csv)).unwrap();
        write_sidecar(&csv).unwrap();
        assert_eq!(first, std::fs::read(cols_path(&csv)).unwrap());
    }

    #[test]
    fn load_rejects_truncation_and_wrong_schema() {
        let dir = Scratch::new("cols-bad");
        let csv = sample_csv(&dir);
        write_sidecar(&csv).unwrap();
        let path = cols_path(&csv);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(ColsFile::load(&path).is_err());
        let mut wrong = bytes.clone();
        wrong[4..16].copy_from_slice(b"green-colz/1");
        std::fs::write(&path, &wrong).unwrap();
        assert!(ColsFile::load(&path).is_err());
    }
}
