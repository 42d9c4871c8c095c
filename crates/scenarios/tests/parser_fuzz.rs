//! The hand-rolled parsers fed garbage: each must return, `Ok` or `Err`,
//! and never panic. Inputs are arbitrary strings over a mixed alphabet,
//! random truncations and cuts of real documents (the example sweep
//! files; a `.progress` line and the committed perf baseline for the
//! JSON reader), and soup built from each grammar's brackets, quotes and
//! keys.

use green_bench::json::Json;
use green_scenarios::{toml, ProgressRecord, Sweep};
use proptest::prelude::*;

/// The five example sweeps, the realistic starting point for cuts.
const EXAMPLES: [&str; 5] = [
    include_str!("../../../examples/sweeps/fleet_composition.toml"),
    include_str!("../../../examples/sweeps/incentives.toml"),
    include_str!("../../../examples/sweeps/mega_grid.toml"),
    include_str!("../../../examples/sweeps/paper_grid.toml"),
    include_str!("../../../examples/sweeps/sensitivity.toml"),
];

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

/// Both parsers return on `input`; neither panics.
fn check(input: &str) {
    let _ = toml::parse(input);
    let _ = Sweep::from_toml_str(input);
}

/// The committed perf baseline, the largest JSON document the reader
/// parses (`green-perf --check`).
const BASELINE: &str = include_str!("../../../BENCH_10.json");

/// Characters arbitrary JSON input draws from: the grammar's
/// punctuation, escapes, literal and number characters, whitespace and
/// control characters, and multi-byte code points.
const JSON_CHARS: [char; 32] = [
    '{', '}', '"', ':', ',', '\\', 'n', 't', 'r', 'u', 'e', 'f', 'a', 'l', 's', '0', '1', '9', '-',
    '+', '.', 'E', ' ', '\t', '\n', '\r', '\0', 'é', '–', '€', '𝄞', '\u{feff}',
];

/// Pieces of the JSON dialect that brace/quote soup is built from,
/// separated by spaces; a space and a newline are pieces too.
const JSON_SOUP: &str = r#"{ } { } " " : , \" \\ \n \u true false null 1 -0 1e308 -1e-320 "schema" "green-progress/1" "phases_ms" "rows" "sweep" "café""#;

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

/// The JSON reader and the progress parser return on `input`; neither
/// panics.
fn check_json(input: &str) {
    let _ = Json::parse(input);
    let _ = ProgressRecord::parse(input);
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

#[test]
fn real_json_documents_parse() {
    let line = progress_line();
    let record = ProgressRecord::parse(&line).expect("a written heartbeat parses");
    assert_eq!(record.sweep, "café – incentives");
    assert_eq!(record.to_json_line(), line);
    assert!(Json::parse(BASELINE).is_ok());
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

    /// Cuts of a heartbeat line and of the perf baseline.
    #[test]
    fn truncated_json_documents_never_panic(
        doc in 0usize..2,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let text = if doc == 0 { progress_line() } else { BASELINE.to_string() };
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
}
