//! The hand-rolled parsers fed garbage: each must return, `Ok` or `Err`,
//! and never panic. Inputs are arbitrary strings over a mixed alphabet,
//! random truncations and cuts of the example sweep files, and soup
//! built from the sweep grammar's brackets, quotes and keys.

use green_scenarios::{toml, Sweep};
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
        let text = EXAMPLES[file];
        let at = |f: f64| floor_boundary(text, (f * text.len() as f64) as usize);
        let (start, end) = (at(a.min(b)), at(a.max(b)));
        check(&text[..end]);
        check(&format!("{}{}", &text[..start], &text[end..]));
    }

    #[test]
    fn bracket_and_quote_soup_never_panics(
        picks in prop::collection::vec(0usize..1 << 16, 0..128),
    ) {
        let pieces: Vec<&str> = SOUP.split(' ').chain([" ", "\n"]).collect();
        let input: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        check(&input);
    }
}
