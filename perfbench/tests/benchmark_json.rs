//! `BENCHMARK.json` at the repository root names exactly what the
//! benchmark reports, with names in the grammar `[A-Za-z0-9_.-]+`.

use green_bench::json::Json;
use green_perfbench::{END_TO_END, PER_LAYER};

/// The objects of the top-level array `key`, parsed one by one (they hold
/// no arrays of their own).
fn entries(text: &str, key: &str) -> Vec<Json> {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let open = at + text[at..].find('[').expect("an array follows the key");
    let close = open + text[open..].find(']').expect("the array closes");
    text[open + 1..close]
        .split_inclusive('}')
        .filter_map(|chunk| chunk.find('{').map(|i| &chunk[i..]))
        .map(|object| Json::parse(object).expect("array entries are JSON objects"))
        .collect()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without string `{key}`"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_name_matches_the_name_grammar_and_is_used_once() {
    let text = benchmark_json();
    let mut names = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&text, key) {
            let name = field(&entry, "name").to_string();
            assert!(valid_name(&name), "`{name}` is not [A-Za-z0-9_.-]+");
            names.push(name);
        }
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let text = benchmark_json();
    let workloads: Vec<String> = entries(&text, "workloads")
        .iter()
        .map(|e| field(e, "name").to_string())
        .collect();
    assert_eq!(workloads, ["repro", "market"]);
    for name in &workloads {
        assert!(green_perfbench::WorkloadKind::parse(name).is_some());
    }

    let listed = |key: &str| -> Vec<(String, String)> {
        entries(&text, key)
            .iter()
            .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
            .collect()
    };
    let expect = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    let setup = entries(&text, "end_to_end")
        .into_iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(field(&setup, "better"), "lower");
}
