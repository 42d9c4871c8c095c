//! The hand-rolled parsers fed garbage: each must return, `Ok` or `Err`,
//! and never panic. Inputs are arbitrary strings over a mixed alphabet,
//! random truncations and cuts of real documents (the example sweep
//! files; a `.progress` line, an `orchestrate.jsonl` log and the
//! committed perf baseline for the JSON readers; a shard manifest; a
//! `.cols` sidecar; chaos specs), soup built from each grammar's
//! brackets, quotes and keys, and length fields set to huge values.

use std::sync::OnceLock;

use green_bench::json::Json;
use green_chaos::{ChaosRegistry, NO_CHAOS};
use green_scenarios::analyze::{cols_path, write_sidecar, ColsFile};
use green_scenarios::{
    orchestrate_log_path, toml, EventKind, OrchestrateEvent, PolicySpec, ProgressRecord,
    ShardManifest, Sweep, SweepRunner, CSV_HEADERS,
};
use proptest::prelude::*;

mod common;
use common::Scratch;

/// The six example sweeps, the realistic starting point for cuts.
const EXAMPLES: [&str; 6] = [
    include_str!("../../../examples/sweeps/fleet_composition.toml"),
    include_str!("../../../examples/sweeps/incentives.toml"),
    include_str!("../../../examples/sweeps/mega_grid.toml"),
    include_str!("../../../examples/sweeps/paper_grid.toml"),
    include_str!("../../../examples/sweeps/sensitivity.toml"),
    TEMPORAL_SHIFT,
];

/// The example sweep that runs `greedy-shift` budgets.
const TEMPORAL_SHIFT: &str = include_str!("../../../examples/sweeps/temporal_shift.toml");

/// Characters arbitrary strings draw from: TOML syntax, digits and
/// letters, whitespace and control characters, and multi-byte code
/// points that a byte-indexed slice would split.
const CHARS: [char; 32] = [
    '[', ']', '"', '\'', '=', ',', '#', '.', '-', '+', '_', ' ', '\t', '\n', '\r', '\0', '0', '1',
    '9', 'e', 'a', 'n', 'i', 'f', 't', 'x', 'é', '∞', '€', '𝄞', '\u{feff}', '\\',
];

/// Pieces of the sweep grammar that bracket/quote soup is built from,
/// separated by spaces; a space and a newline are pieces too.
const SOUP: &str = r#"[ ] [[ ]] " , = # x 1 -1 1e308 1e-320 nan inf 9223372036854775808 [grid] [workload] name fleets seeds policies intensity_scales intensity_jitter workload_scales "all" "greedy" "carbon:1.5""#;

/// The TOML reader, the sweep parser and the manifest parser (a flat
/// TOML document) return on `input`; none panics.
fn check(input: &str) {
    let _ = toml::parse(input);
    let _ = Sweep::from_toml_str(input);
    check_manifest(input);
}

/// The committed perf baseline, the largest JSON document the reader
/// parses (`green-perf --check`).
const BASELINE: &str = include_str!("../../../BENCH_11.json");

/// Characters arbitrary JSON input draws from: the grammar's
/// punctuation, escapes, literal and number characters, whitespace and
/// control characters, and multi-byte code points.
const JSON_CHARS: [char; 32] = [
    '{', '}', '"', ':', ',', '\\', 'n', 't', 'r', 'u', 'e', 'f', 'a', 'l', 's', '0', '1', '9', '-',
    '+', '.', 'E', ' ', '\t', '\n', '\r', '\0', 'é', '–', '€', '𝄞', '\u{feff}',
];

/// Pieces of the JSON dialect that brace/quote soup is built from,
/// separated by spaces; a space and a newline are pieces too.
const JSON_SOUP: &str = r#"{ } { } " " : , \" \\ \n \u true false null 1 -0 1e308 -1e-320 "schema" "green-progress/1" "phases_ms" "rows" "sweep" "café" "green-orchestrate/1" "event" "steal" "task" "cells" "18..0" "..""#;

/// A heartbeat as a shard worker writes it, with a non-ASCII sweep name.
fn progress_line() -> String {
    ProgressRecord {
        sweep: "café – incentives".into(),
        shard: "2/8".into(),
        rows: 64,
        expected_rows: 128,
        elapsed_s: 1.25,
        rate_rows_per_s: 51.2,
        eta_s: Some(1.25),
        rss_mb: Some(39.0),
        phases_ms: vec![("schedule".into(), 812.5), ("attribute".into(), 95.25)],
        failed: false,
        error: None,
        complete: false,
    }
    .to_json_line()
}

/// The JSON reader, the progress parser and the `orchestrate.jsonl`
/// readers return on `input`; none panics, and no event they parse has
/// a cell range that runs backwards.
fn check_json(input: &str) {
    let _ = Json::parse(input);
    let _ = ProgressRecord::parse(input);
    let (events, _) = OrchestrateEvent::parse_log_tolerant(input);
    for event in OrchestrateEvent::parse(input).into_iter().chain(events) {
        if let Some(cells) = &event.cells {
            assert!(
                cells.start <= cells.end,
                "a backwards range parsed: {event:?}"
            );
        }
    }
}

/// An `orchestrate.jsonl` log as the supervisor appends it: run-level
/// and task-level records, one with a non-ASCII detail. Written once
/// per test binary.
fn orchestrate_log() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let task = |kind, attempt, detail: &str| OrchestrateEvent {
            kind,
            task: Some(2),
            csv: Some("frag-0002.csv".into()),
            cells: Some(40..100),
            attempt,
            detail: Some(detail.into()),
        };
        let scratch = Scratch::new("orchestrate-log");
        for event in [
            OrchestrateEvent::run_level(EventKind::Plan, "tasks=3 workers=2"),
            task(EventKind::Spawn, Some(1), "pid 4242"),
            task(EventKind::Steal, None, "split at 70 -> task 5 – café"),
            task(EventKind::Exit, Some(1), "complete"),
            OrchestrateEvent::run_level(EventKind::Merge, "rows=50 bytes=9000"),
            OrchestrateEvent::run_level(EventKind::Complete, "ok"),
        ] {
            event.log(&scratch.0, &NO_CHAOS).unwrap();
        }
        std::fs::read_to_string(orchestrate_log_path(&scratch.0)).unwrap()
    })
}

/// `text` cut at two fractions: its prefix up to the later one, and the
/// text with the span between them removed.
fn cuts(text: &str, a: f64, b: f64) -> [String; 2] {
    let at = |f: f64| floor_boundary(text, (f * text.len() as f64) as usize);
    let (start, end) = (at(a.min(b)), at(a.max(b)));
    [
        text[..end].to_string(),
        format!("{}{}", &text[..start], &text[end..]),
    ]
}

/// A checkpoint as a shard worker writes it.
fn manifest_text() -> String {
    ShardManifest {
        sweep: "café – incentives".into(),
        shard: "1/2".into(),
        spec_hash: 0x0123_4567_89ab_cdef,
        cells: 8..16,
        total_cells: 16,
        replicates: 2,
        rows: 4,
        bytes: 1234,
        hash: 0xfedc_ba98_7654_3210,
        complete: false,
    }
    .to_string()
}

/// Values that overflow, wrap or underflow a count or a range bound.
const HUGE: [&str; 8] = [
    "-1",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "100000000000000",
    "99999999999999999999",
    "1e300",
    "nan",
];

/// The manifest parser returns on `input`, and never accepts a negative
/// count or a cell range that runs backwards or past the grid.
fn check_manifest(input: &str) {
    if let Ok(manifest) = ShardManifest::parse(input) {
        assert!(
            !input.contains("= -"),
            "a negative count parsed: {manifest:?}"
        );
        assert!(
            manifest.cells.start <= manifest.cells.end
                && manifest.cells.end <= manifest.total_cells,
            "a bad cell range parsed: {manifest:?}"
        );
    }
}

/// Real chaos specs, the starting point for cuts.
const CHAOS_SPECS: [&str; 3] = [
    "parallel_commit=torn:13@hit:2",
    "manifest_rewrite=delay:5@p:0.5:42; fragment_row=enospc@hit:1",
    "progress_rewrite=err@p:1; columnar_sidecar=writezero@hit:3; merge_write=panic@hit:1",
];

/// Pieces of the chaos-spec grammar that soup is built from, separated
/// by spaces; a space is a piece too.
const CHAOS_SOUP: &str = "= @ : ; _ hit p torn delay err writezero enospc panic 0 1 0.5 -1 1e309 NaN 18446744073709551616 é parallel_commit manifest_rewrite fragment_row";

/// The `.cols` sidecar of a real sweep's aggregate CSV (two rows of the
/// tiny preset), built once per test binary.
fn real_sidecar() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut sweep = Sweep::new("parser-fuzz");
        sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Eft];
        sweep.seeds = vec![1];
        let mut csv_bytes = Vec::new();
        SweepRunner::new(1)
            .run_streamed_range(&sweep, None, None, true, None, &mut csv_bytes)
            .expect("streaming to a Vec cannot fail");
        let scratch = Scratch::new("real-sidecar");
        let csv = scratch.path("sweep.csv");
        std::fs::write(&csv, csv_bytes).unwrap();
        write_sidecar(&csv).unwrap();
        std::fs::read(cols_path(&csv)).unwrap()
    })
}

/// Lengths far past any sidecar; a u32 field keeps the low four bytes.
const HUGE_LENGTHS: [u64; 6] = [
    u64::MAX,
    1 << 60,
    1 << 40,
    4_000_000_000,
    u32::MAX as u64,
    1 << 31,
];

/// `bytes` with the little-endian field of `width` bytes at `at` set to
/// `value`.
fn with_field(bytes: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    out
}

/// `ColsFile::load` returns on `bytes`, written to a file of `scratch`,
/// and says whether it loaded.
fn load_cols(scratch: &Scratch, bytes: &[u8]) -> bool {
    let path = scratch.path("input.cols");
    std::fs::write(&path, bytes).unwrap();
    ColsFile::load(&path).is_ok()
}

#[test]
fn real_manifest_sidecar_and_chaos_specs_parse() {
    let text = manifest_text();
    assert_eq!(ShardManifest::parse(&text).unwrap().to_string(), text);
    assert!(load_cols(&Scratch::new("real-cols"), real_sidecar()));
    for spec in CHAOS_SPECS {
        assert!(ChaosRegistry::from_spec(spec).is_ok(), "{spec}");
    }
}

/// Every value of a manifest, and each bound of its cell range, set to
/// each huge value.
#[test]
fn manifest_with_huge_values_returns() {
    let text = manifest_text();
    for line in text.lines() {
        if let Some((key, _)) = line.split_once(" = ") {
            for value in HUGE {
                check_manifest(&text.replace(line, &format!("{key} = {value}")));
            }
        }
    }
    let cells = "cells = \"8..16\"";
    assert!(text.contains(cells));
    for value in HUGE {
        for range in [format!("{value}..16"), format!("8..{value}")] {
            check_manifest(&text.replace(cells, &format!("cells = \"{range}\"")));
        }
    }
    for range in ["18..0", "0..99999"] {
        let bad = text.replace(cells, &format!("cells = \"{range}\""));
        assert!(
            ShardManifest::parse(&bad).is_err(),
            "cells = {range} parsed"
        );
    }
}

/// A sidecar whose header lies about a length — the schema string's,
/// the row count, the column count, the first column name's or the
/// first dictionary's — is an error, never an allocation of that
/// length, so `analyze` falls back to the CSV.
#[test]
fn sidecar_with_huge_lengths_is_an_error() {
    let names: usize = CSV_HEADERS.iter().map(|name| 4 + name.len() + 1).sum();
    let lengths = [(0, 4), (16, 8), (40, 4), (44, 4), (44 + names, 4)];
    let scratch = Scratch::new("huge-cols");
    for (at, width) in lengths {
        for value in HUGE_LENGTHS {
            assert!(
                !load_cols(&scratch, &with_field(real_sidecar(), at, width, value)),
                "length {value} at byte {at} loaded"
            );
        }
    }
}

#[test]
fn real_json_documents_parse() {
    let line = progress_line();
    let record = ProgressRecord::parse(&line).expect("a written heartbeat parses");
    assert_eq!(record.sweep, "café – incentives");
    assert_eq!(record.to_json_line(), line);
    assert!(Json::parse(BASELINE).is_ok());
    let (events, torn) = OrchestrateEvent::parse_log_tolerant(orchestrate_log());
    assert_eq!((events.len(), torn.len()), (6, 0));
}

/// An event whose `task` is negative, whose `attempt` overflows a u32
/// and whose `cells` run backwards is an error, and so is each of those
/// alone, a fractional count included; the same event with sound
/// values parses.
#[test]
fn orchestrate_event_with_bad_counts_is_an_error() {
    let line = r#"{"schema": "green-orchestrate/1", "event": "spawn", "task": -5, "csv": "f.csv", "cells": "18..0", "attempt": 1e20, "detail": null}"#;
    assert!(OrchestrateEvent::parse(line).is_err(), "{line}");
    let sound = line
        .replace("-5", "5")
        .replace("18..0", "0..18")
        .replace("1e20", "2");
    let event = OrchestrateEvent::parse(&sound).expect("sound values parse");
    assert_eq!(
        (event.task, event.cells, event.attempt),
        (Some(5), Some(0..18), Some(2))
    );
    for (good, bad) in [
        ("\"task\": 5", "\"task\": -5"),
        ("\"task\": 5", "\"task\": 2.5"),
        ("\"task\": 5", "\"task\": 1e300"),
        ("0..18", "18..0"),
        ("\"attempt\": 2", "\"attempt\": 1e20"),
        ("\"attempt\": 2", "\"attempt\": 4294967296"),
        ("\"attempt\": 2", "\"attempt\": 0.5"),
        ("\"attempt\": 2", "\"attempt\": -1"),
    ] {
        let one = sound.replace(good, bad);
        assert_ne!(one, sound);
        assert!(OrchestrateEvent::parse(&one).is_err(), "{one}");
    }
}

/// A `greedy-shift` budget past one year is an error naming the limit,
/// never a delay search over that many hours.
#[test]
fn shift_budget_past_a_year_is_an_error() {
    let budget = "\"greedy-shift:24\"";
    assert!(TEMPORAL_SHIFT.contains(budget));
    assert!(Sweep::from_toml_str(TEMPORAL_SHIFT).is_ok());
    let year = TEMPORAL_SHIFT.replace(budget, "\"greedy-shift:8760\"");
    assert!(Sweep::from_toml_str(&year).is_ok());
    for value in ["8761", "4294967295"] {
        let bad = TEMPORAL_SHIFT.replace(budget, &format!("\"greedy-shift:{value}\""));
        let err = Sweep::from_toml_str(&bad).expect_err(value);
        assert!(err.to_string().contains("8760"), "{value}: {err}");
    }
    for value in HUGE {
        let bad = TEMPORAL_SHIFT.replace(budget, &format!("\"greedy-shift:{value}\""));
        assert!(
            Sweep::from_toml_str(&bad).is_err(),
            "greedy-shift:{value} parsed"
        );
    }
}

/// The largest char boundary of `text` at or below `at`.
fn floor_boundary(text: &str, at: usize) -> usize {
    (0..=at.min(text.len()))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_strings_never_panic(
        chars in prop::collection::vec(0usize..CHARS.len(), 0..256),
    ) {
        let input: String = chars.iter().map(|&i| CHARS[i]).collect();
        check(&input);
    }

    /// A prefix of an example, and the example with one span cut out.
    #[test]
    fn truncated_example_sweeps_never_panic(
        file in 0usize..EXAMPLES.len(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        for cut in cuts(EXAMPLES[file], a, b) {
            check(&cut);
        }
    }

    #[test]
    fn bracket_and_quote_soup_never_panics(
        picks in prop::collection::vec(0usize..1 << 16, 0..128),
    ) {
        let pieces: Vec<&str> = SOUP.split(' ').chain([" ", "\n"]).collect();
        let input: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        check(&input);
    }

    #[test]
    fn arbitrary_json_strings_never_panic(
        chars in prop::collection::vec(0usize..JSON_CHARS.len(), 0..256),
    ) {
        let input: String = chars.iter().map(|&i| JSON_CHARS[i]).collect();
        check_json(&input);
    }

    /// Cuts of a heartbeat line, of an orchestrator log and of the perf
    /// baseline.
    #[test]
    fn truncated_json_documents_never_panic(
        doc in 0usize..3,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let text = match doc {
            0 => progress_line(),
            1 => orchestrate_log().to_string(),
            _ => BASELINE.to_string(),
        };
        for cut in cuts(&text, a, b) {
            check_json(&cut);
        }
    }

    #[test]
    fn brace_and_quote_soup_never_panics(
        picks in prop::collection::vec(0usize..1 << 16, 0..128),
    ) {
        let pieces: Vec<&str> = JSON_SOUP.split(' ').chain([" ", "\n"]).collect();
        let input: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        check_json(&input);
    }

    /// A prefix of a manifest, and the manifest with one span cut out.
    #[test]
    fn truncated_manifests_never_panic(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        for cut in cuts(&manifest_text(), a, b) {
            check_manifest(&cut);
        }
    }

    /// Cuts of a real chaos spec, and soup of the grammar's pieces.
    #[test]
    fn chaos_specs_never_panic(
        spec in 0usize..CHAOS_SPECS.len(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        picks in prop::collection::vec(0usize..1 << 16, 0..64),
    ) {
        for cut in cuts(CHAOS_SPECS[spec], a, b) {
            let _ = ChaosRegistry::from_spec(&cut);
        }
        let pieces: Vec<&str> = CHAOS_SOUP.split(' ').chain([" "]).collect();
        let input: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        let _ = ChaosRegistry::from_spec(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Arbitrary bytes, alone and behind a real sidecar's schema tag; a
    /// prefix of a real sidecar; the sidecar with one span cut out; and
    /// the sidecar with four or eight bytes anywhere set to a huge
    /// length.
    #[test]
    fn garbage_truncated_and_lying_sidecars_never_panic(
        garbage in prop::collection::vec(0u32..256, 0..256),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        at in 0.0f64..1.0,
        wide in 0usize..2,
        value in 0usize..HUGE_LENGTHS.len(),
    ) {
        let scratch = Scratch::new("fuzz-cols");
        let real = real_sidecar();
        let garbage: Vec<u8> = garbage.into_iter().map(|b| b as u8).collect();
        load_cols(&scratch, &garbage);
        load_cols(&scratch, &[&real[..16], &garbage].concat());
        let at_fraction = |f: f64| (f * real.len() as f64) as usize;
        let (start, end) = (at_fraction(a.min(b)), at_fraction(a.max(b)));
        load_cols(&scratch, &real[..end]);
        load_cols(&scratch, &[&real[..start], &real[end..]].concat());
        let width = if wide == 1 { 8 } else { 4 };
        let at = at_fraction(at).min(real.len() - width);
        load_cols(&scratch, &with_field(real, at, width, HUGE_LENGTHS[value]));
    }
}
