//! Crash-consistent file primitives — the one place every durable
//! artifact in the sweep stack goes through on its way to disk.
//!
//! Two write disciplines cover every artifact (`docs/robustness.md`
//! maps each artifact to its discipline and the [`Failpoint`] armed in
//! front of it):
//!
//! * **Atomic rewrite** ([`write_atomic`]) — for files whose readers
//!   need a complete document (shard manifests, columnar sidecars,
//!   merged/analyzed outputs): write a `<path>.tmp` sibling, flush,
//!   `sync_all`, rename over the target, then fsync the parent
//!   directory so the rename itself survives a power cut. A crash at
//!   any byte leaves either the previous file or the new one — never a
//!   torn hybrid; at worst a stray `.tmp` nobody reads.
//! * **Repaired append** ([`append_line`]) — for grow-only JSONL logs
//!   (`orchestrate.jsonl`, a shard's `.progress` heartbeat trail): a
//!   crash mid-append can tear at most the final line, so every append
//!   first truncates any torn tail (bytes past the last newline) back
//!   to the last complete record, then writes the new line in one
//!   `write` and syncs. Readers apply the same rule on their side
//!   ([`parse_lines_tolerant`], behind
//!   [`crate::progress::ProgressRecord::parse_sidecar_tolerant`] and
//!   [`crate::orchestrate::OrchestrateEvent::parse_log_tolerant`], and
//!   [`last_line_tolerant`], behind [`crate::progress::newest_record`]):
//!   a torn tail is skipped with a warning, never a hard error and
//!   never silent data loss of the intact prefix.
//!
//! Both take the run's [`ChaosRegistry`] and the [`Failpoint`] armed at
//! the write. A caller that arms nothing passes [`green_chaos::NO_CHAOS`],
//! the registry with no rules, and still names the failpoint of the file
//! it writes.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use green_chaos::{probe, torn_crash, ChaosRegistry, Failpoint};

/// An [`io::ErrorKind::InvalidData`] error: a sidecar, fragment or
/// input that does not hold what it claims to.
pub(crate) fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// The sibling tmp path an atomic rewrite stages into: `<path>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory holding `path`, making a just-completed rename
/// durable. Best-effort on filesystems that refuse directory handles.
fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        dir.sync_all()?;
    }
    Ok(())
}

/// A staging writer for large atomic rewrites: bytes stream into the
/// `<path>.tmp` sibling through any [`Write`] plumbing (the merge path
/// wraps it in a `BufWriter`), and [`commit`](AtomicFile::commit)
/// publishes them with the full discipline. Dropping without
/// committing leaves at worst a stray `.tmp` — the target is never
/// touched.
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: std::fs::File,
}

impl AtomicFile {
    /// Opens the staging sibling of `path` for writing.
    pub fn create(path: &Path) -> io::Result<AtomicFile> {
        let tmp = tmp_path(path);
        Ok(AtomicFile {
            path: path.to_path_buf(),
            file: std::fs::File::create(&tmp)?,
            tmp,
        })
    }

    /// Durably publishes the staged bytes: flush → `sync_all` → rename
    /// over the target → parent-directory fsync.
    pub fn commit(mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        sync_parent(&self.path)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Writes `bytes` to `path` atomically and durably: tmp sibling →
/// flush → `sync_all` → rename → parent-directory fsync. A kill at any
/// point leaves the previous `path` intact (or absent), never torn.
///
/// `chaos` probes `fp` first: an injected error fails before the tmp
/// write, a torn fault writes its partial prefix *into the tmp file*
/// and dies — the target is never exposed to a torn write, which is the
/// whole point of the protocol.
pub fn write_atomic(
    path: &Path,
    bytes: &[u8],
    chaos: &ChaosRegistry,
    fp: Failpoint,
) -> io::Result<()> {
    let torn = probe(chaos, fp)?;
    let mut file = AtomicFile::create(path)?;
    if let Some(budget) = torn {
        let k = budget.min(bytes.len());
        file.write_all(&bytes[..k])?;
        let _ = file.file.sync_all();
        torn_crash(fp, k);
    }
    file.write_all(bytes)?;
    file.commit()
}

/// Truncates any torn tail of a line-oriented log: bytes past the last
/// newline (a crash mid-append) are dropped so the file ends on a
/// complete record again. Returns the bytes removed (0 for a healthy
/// or absent file). Idempotent, and a no-op on every healthy log: a
/// log that ends in `\n` costs a read of its last byte, and only a
/// torn one is scanned for its last newline.
pub fn repair_torn_tail(path: &Path) -> io::Result<u64> {
    let mut file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    if file.metadata()?.len() == 0 {
        return Ok(0);
    }
    let mut last = [0u8];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    if last == *b"\n" {
        return Ok(0);
    }
    // Torn: scan the whole file for its last complete line.
    file.rewind()?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let dropped = (bytes.len() - keep) as u64;
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    file.sync_all()?;
    Ok(dropped)
}

/// Parses a line-oriented log tolerantly: blank lines are skipped, and a
/// line `parse` refuses (a torn tail from a crash mid-write, a record
/// from an incompatible build) becomes a `line N: <error>` warning
/// instead of failing the intact records around it. Live consumers
/// (`scenarios watch`, the orchestrator's failure-text probe) read this
/// way — a monitor that goes blind the moment a worker crashes ugliest
/// is a monitor for healthy runs only.
pub fn parse_lines_tolerant<T, E: std::fmt::Display>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> (Vec<T>, Vec<String>) {
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(record) => records.push(record),
            Err(e) => warnings.push(refused(index, e)),
        }
    }
    (records, warnings)
}

/// The warning for the refused line at 0-based `index`.
fn refused(index: usize, error: impl std::fmt::Display) -> String {
    format!("line {}: {error}", index + 1)
}

/// How many bytes at the end of a log [`last_line_tolerant`] reads
/// first: dozens of progress records.
const TAIL_BYTES: u64 = 16 * 1024;

/// The last line of the log at `path` that `parse` accepts (`None` when
/// it accepts none), plus a warning, worded as [`parse_lines_tolerant`]
/// words it, for every non-blank line after it that `parse` refuses.
///
/// Lines are parsed from the end back to the first one accepted. When
/// the last 16 KiB (`TAIL_BYTES`) hold an accepted line with only blank
/// lines after it, only they are read, so a live reader's cost does not
/// grow with the log; otherwise (no accepted line there, or a refused
/// line after it, whose warning needs its line number) the whole file
/// is. Lines before the accepted one are never parsed, so a refused
/// line there, such as a record from an incompatible build, gets no
/// warning where [`parse_lines_tolerant`] gives one; a repaired append
/// ([`append_line`]) leaves torn lines only after the last complete
/// one, where the two agree. A line that is not UTF-8 is refused with
/// its decoding error.
pub fn last_line_tolerant<T, E: std::fmt::Display>(
    path: &Path,
    parse: impl Fn(&str) -> Result<T, E>,
) -> io::Result<(Option<T>, Vec<String>)> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut start = len.saturating_sub(TAIL_BYTES);
    loop {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(start))?;
        (&mut file).take(len - start).read_to_end(&mut bytes)?;
        // A window that starts mid-file may cut its first line: skip it.
        let first = match start {
            0 => 0,
            _ => bytes
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |p| p + 1),
        };
        // The lines of `str::lines`: `\n` or `\r\n` ends one.
        let lines: Vec<&[u8]> = bytes[first..]
            .split_inclusive(|&b| b == b'\n')
            .map(|line| match line.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => line,
            })
            .collect();
        let mut newest = None;
        let mut warnings = Vec::new();
        for (index, line) in lines.iter().enumerate().rev() {
            let error = match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => match parse(text) {
                    Ok(record) => {
                        newest = Some(record);
                        break;
                    }
                    Err(e) => e.to_string(),
                },
                Err(e) => e.to_string(),
            };
            if start > 0 {
                break;
            }
            warnings.push(refused(index, error));
        }
        if newest.is_some() || start == 0 {
            warnings.reverse();
            return Ok((newest, warnings));
        }
        start = 0;
    }
}

/// Appends one line to a JSONL log (created if missing), repairing any
/// torn tail a previous crash left first, then writing `line` + `\n`
/// in a single `write` and syncing. Concurrent readers see either the
/// old tail or the new line; a crash mid-append tears at most the
/// final line, which the next append (or a tolerant reader) drops.
///
/// `chaos` probes `fp` first: a torn fault appends its partial prefix —
/// a genuinely torn final line — and dies.
pub fn append_line(
    path: &Path,
    line: &str,
    chaos: &ChaosRegistry,
    fp: Failpoint,
) -> io::Result<()> {
    let torn = probe(chaos, fp)?;
    repair_torn_tail(path)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut text = String::with_capacity(line.len() + 1);
    text.push_str(line);
    text.push('\n');
    if let Some(budget) = torn {
        let k = budget.min(text.len());
        file.write_all(&text.as_bytes()[..k])?;
        let _ = file.sync_all();
        torn_crash(fp, k);
    }
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_chaos::NO_CHAOS;

    use crate::test_scratch::Scratch;

    #[test]
    fn atomic_rewrite_replaces_and_leaves_no_tmp() {
        let dir = Scratch::new("durable-atomic");
        let path = dir.join("doc.toml");
        write_atomic(&path, b"a = 1\n", &NO_CHAOS, Failpoint::ManifestRewrite).unwrap();
        write_atomic(&path, b"a = 2\n", &NO_CHAOS, Failpoint::ManifestRewrite).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a = 2\n");
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn torn_atomic_rewrite_leaves_the_target_intact() {
        let dir = Scratch::new("durable-torn-atomic");
        let path = dir.join("doc.toml");
        write_atomic(&path, b"a = 1\n", &NO_CHAOS, Failpoint::ManifestRewrite).unwrap();
        let reg = ChaosRegistry::from_spec("manifest_rewrite=torn:3@hit:1").unwrap();
        let died = std::panic::catch_unwind(|| {
            write_atomic(&path, b"a = 2222\n", &reg, Failpoint::ManifestRewrite)
        });
        assert!(died.is_err(), "torn write must die");
        // The crash tore the *tmp* sibling; the target still holds the
        // previous complete document.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a = 1\n");
        assert_eq!(std::fs::read(tmp_path(&path)).unwrap(), b"a =");
        // The next rewrite recovers without ceremony.
        write_atomic(&path, b"a = 3\n", &NO_CHAOS, Failpoint::ManifestRewrite).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a = 3\n");
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn append_repairs_a_torn_tail_before_growing() {
        let dir = Scratch::new("durable-append");
        let log = dir.join("events.jsonl");
        append_line(&log, "{\"a\": 1}", &NO_CHAOS, Failpoint::OrchestrateAppend).unwrap();
        append_line(&log, "{\"b\": 2}", &NO_CHAOS, Failpoint::OrchestrateAppend).unwrap();
        assert_eq!(
            std::fs::read_to_string(&log).unwrap(),
            "{\"a\": 1}\n{\"b\": 2}\n"
        );
        // Tear the tail by hand (a crash mid-append), then append: the
        // torn fragment is dropped, the intact prefix kept.
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(b"{\"torn");
        std::fs::write(&log, &bytes).unwrap();
        append_line(&log, "{\"c\": 3}", &NO_CHAOS, Failpoint::OrchestrateAppend).unwrap();
        assert_eq!(
            std::fs::read_to_string(&log).unwrap(),
            "{\"a\": 1}\n{\"b\": 2}\n{\"c\": 3}\n"
        );
    }

    #[test]
    fn torn_append_tears_only_the_final_line() {
        let dir = Scratch::new("durable-torn-append");
        let log = dir.join("events.jsonl");
        append_line(&log, "{\"a\": 1}", &NO_CHAOS, Failpoint::OrchestrateAppend).unwrap();
        let reg = ChaosRegistry::from_spec("orchestrate_append=torn:4@hit:1").unwrap();
        let died = std::panic::catch_unwind(|| {
            append_line(&log, "{\"b\": 2}", &reg, Failpoint::OrchestrateAppend)
        });
        assert!(died.is_err());
        assert_eq!(std::fs::read_to_string(&log).unwrap(), "{\"a\": 1}\n{\"b\"");
        // Repair (what the next append, a restarted supervisor, and
        // tolerant readers all do) drops exactly the torn fragment.
        assert_eq!(repair_torn_tail(&log).unwrap(), 4);
        assert_eq!(std::fs::read_to_string(&log).unwrap(), "{\"a\": 1}\n");
        assert_eq!(repair_torn_tail(&log).unwrap(), 0, "idempotent");
    }

    #[test]
    fn repair_handles_missing_empty_and_headless_files() {
        let dir = Scratch::new("durable-repair");
        let log = dir.join("missing.jsonl");
        assert_eq!(repair_torn_tail(&log).unwrap(), 0);
        std::fs::write(&log, "").unwrap();
        assert_eq!(repair_torn_tail(&log).unwrap(), 0);
        // A file that is *all* torn tail (no newline at all) empties.
        std::fs::write(&log, "{\"torn").unwrap();
        assert_eq!(repair_torn_tail(&log).unwrap(), 6);
        assert_eq!(std::fs::read(&log).unwrap(), b"");
    }

    /// A healthy log costs its last byte, not a scan: repairing a
    /// 1 MiB log reads a few bytes by the thread's own `rchar` count
    /// (Linux per-thread I/O accounting; nothing to measure without it).
    #[cfg(target_os = "linux")]
    #[test]
    fn repair_reads_only_the_last_byte_of_a_healthy_log() {
        let rchar = || -> Option<u64> {
            let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
            io.lines()
                .find_map(|l| l.strip_prefix("rchar:"))
                .and_then(|v| v.trim().parse().ok())
        };
        let dir = Scratch::new("durable-tail-read");
        let log = dir.join("trail.jsonl");
        let mut body = vec![b'x'; 1 << 20];
        *body.last_mut().unwrap() = b'\n';
        std::fs::write(&log, &body).unwrap();
        let Some(before) = rchar() else { return };
        assert_eq!(repair_torn_tail(&log).unwrap(), 0);
        let read = rchar().unwrap() - before;
        assert!(read < 4096, "repairing a healthy log read {read} bytes");
    }

    /// A record is a line ending in `;`.
    fn semi(line: &str) -> Result<usize, &'static str> {
        line.ends_with(';').then_some(line.len()).ok_or("torn")
    }

    /// `last_line_tolerant` against the last record and the warnings of
    /// a tolerant parse of the whole text, on logs past the tail window
    /// and short ones.
    #[test]
    fn last_line_matches_the_whole_parse() {
        let dir = Scratch::new("durable-last-line");
        let log = dir.join("trail.jsonl");
        let long: String = (0..10_000).map(|i| format!("{i};\n")).collect();
        assert!(long.len() as u64 > 2 * TAIL_BYTES);
        let junk = "12\n".repeat(TAIL_BYTES as usize);
        let huge = format!("{};\n", "7".repeat(2 * TAIL_BYTES as usize));
        for text in [
            long.clone(),
            format!("{long}12"),
            format!("{long}12\n\n \t\n12\n"),
            format!("{long}5;\r\n"),
            format!("{long}5;\r"),
            format!("{long}{junk}"),
            format!("{long}{huge}"),
            format!("{long}{huge}12"),
            "12".to_string(),
            "12\n12".to_string(),
            "5;".to_string(),
            "5;\n\n".to_string(),
            String::new(),
        ] {
            std::fs::write(&log, &text).unwrap();
            let (records, warnings) = parse_lines_tolerant(&text, semi);
            let whole = (records.into_iter().next_back(), warnings);
            let tail = &text[text.len().saturating_sub(40)..];
            assert_eq!(last_line_tolerant(&log, semi).unwrap(), whole, "…{tail:?}");
        }
        // Lines before the last record are not parsed, so a refused one
        // there gets no warning.
        std::fs::write(&log, "12\n5;\n").unwrap();
        assert_eq!(last_line_tolerant(&log, semi).unwrap(), (Some(2), vec![]));
        // A tear inside a multi-byte character refuses that line only.
        std::fs::write(&log, b"5;\n\xe2\x82").unwrap();
        let (last, warnings) = last_line_tolerant(&log, semi).unwrap();
        assert_eq!(last, Some(2));
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].starts_with("line 2: incomplete utf-8"),
            "{warnings:?}"
        );
        let absent = last_line_tolerant(&dir.join("absent"), semi).unwrap_err();
        assert_eq!(absent.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn last_line_reads_only_the_tail_of_a_healthy_log() {
        let rchar = || -> Option<u64> {
            let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
            io.lines()
                .find_map(|l| l.strip_prefix("rchar:"))
                .and_then(|v| v.trim().parse().ok())
        };
        let dir = Scratch::new("durable-last-line-read");
        let log = dir.join("trail.jsonl");
        let body: String = (0..200_000).map(|i| format!("{i};\n")).collect();
        std::fs::write(&log, &body).unwrap();
        let Some(before) = rchar() else { return };
        assert_eq!(last_line_tolerant(&log, semi).unwrap(), (Some(7), vec![]));
        let read = rchar().unwrap() - before;
        assert!(
            read < TAIL_BYTES + 4096,
            "reading the last line read {read} bytes"
        );
    }

    #[test]
    fn injected_enospc_fails_before_touching_the_target() {
        let dir = Scratch::new("durable-enospc");
        let path = dir.join("doc.toml");
        write_atomic(&path, b"a = 1\n", &NO_CHAOS, Failpoint::ManifestRewrite).unwrap();
        let reg = ChaosRegistry::from_spec("manifest_rewrite=enospc@hit:1").unwrap();
        let err = write_atomic(&path, b"a = 2\n", &reg, Failpoint::ManifestRewrite).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a = 1\n");
    }
}
