//! A minimal TOML reader for sweep files.
//!
//! The workspace vendors all dependencies, so instead of the `toml` crate
//! this module implements the slice of TOML that sweep specs use: bare
//! tables (`[section]`, one level), `key = value` pairs, quoted strings,
//! integers, floats, booleans, and (possibly nested, possibly multi-line)
//! arrays. Comments run from `#` to end of line outside strings. Arrays
//! nest at most eight deep.

use std::collections::BTreeMap;

/// How deep arrays may nest. Sweep keys nest two deep (`fleets =
/// [["faster", "ic"]]`); the cap bounds the value parser's recursion, so
/// a file of nested brackets is an error rather than a stack overflow.
const MAX_ARRAY_DEPTH: usize = 8;

/// A TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (heterogeneous allowed; callers validate).
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parsed document: section name → key → value. Root-level keys live
/// under the `""` section.
pub type Document = BTreeMap<String, BTreeMap<String, Value>>;

/// A parse failure with line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for TomlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Strips a comment (a `#` outside any string literal) from a line.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a TOML document.
pub fn parse(input: &str) -> Result<Document, TomlError> {
    let mut doc: Document = BTreeMap::new();
    doc.insert(String::new(), BTreeMap::new());
    let mut section = String::new();

    let mut lines = input.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err(line_no, "unterminated section header"))?
                .trim();
            if name.is_empty() || name.starts_with('[') {
                return Err(err(line_no, "empty or array-of-tables section header"));
            }
            section = name.to_string();
            doc.entry(section.clone()).or_default();
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty() {
            return Err(err(line_no, "empty key"));
        }
        let mut value_text = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance.
        while bracket_depth(&value_text) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(err(line_no, "unterminated array"));
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(value_text.trim(), line_no, 0)?;
        doc.get_mut(&section)
            .expect("section entry exists")
            .insert(key.to_string(), value);
    }
    Ok(doc)
}

fn bracket_depth(text: &str) -> i32 {
    let mut depth = 0;
    let mut in_string = false;
    for c in text.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Parses one value that sits inside `depth` enclosing arrays.
fn parse_value(text: &str, line: usize, depth: usize) -> Result<Value, TomlError> {
    if text.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(inner) = text.strip_prefix('[') {
        if depth == MAX_ARRAY_DEPTH {
            return Err(err(
                line,
                format!("arrays nest deeper than {MAX_ARRAY_DEPTH} levels"),
            ));
        }
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(line, "unterminated array"))?;
        let mut items = Vec::new();
        for part in split_array(inner, line)? {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, line, depth + 1)?);
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| err(line, "unterminated string"))?;
        if inner.contains('"') {
            return Err(err(line, "escaped quotes are not supported"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let normalized = text.replace('_', "");
    if let Ok(i) = normalized.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = normalized.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(line, format!("cannot parse value `{text}`")))
}

/// Splits a (flattened) array body on top-level commas.
fn split_array(inner: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut depth = 0i32;
    let mut in_string = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            '[' if !in_string => {
                depth += 1;
                current.push(c);
            }
            ']' if !in_string => {
                depth -= 1;
                if depth < 0 {
                    return Err(err(line, "unbalanced brackets in array"));
                }
                current.push(c);
            }
            ',' if !in_string && depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if in_string || depth != 0 {
        return Err(err(line, "unbalanced array literal"));
    }
    parts.push(current);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_sections_and_comments() {
        let doc = parse(
            r#"
# sweep spec
name = "demo"      # trailing comment
[workload]
preset = "small"
seed = 31
doubled = false
scale = 1.5
"#,
        )
        .unwrap();
        assert_eq!(doc[""]["name"].as_str(), Some("demo"));
        assert_eq!(doc["workload"]["preset"].as_str(), Some("small"));
        assert_eq!(doc["workload"]["seed"].as_int(), Some(31));
        assert_eq!(doc["workload"]["doubled"].as_bool(), Some(false));
        assert_eq!(doc["workload"]["scale"].as_float(), Some(1.5));
    }

    #[test]
    fn parses_arrays_including_nested_and_multiline() {
        let doc = parse(
            r#"
[grid]
policies = ["greedy", "eft"]
seeds = [1, 2, 3]
scales = [0.5, 1.0]
fleets = [["faster", "ic"], ["desktop"]]
years = [
    2023,
    2025,  # future deployment
]
"#,
        )
        .unwrap();
        let grid = &doc["grid"];
        let policies = grid["policies"].as_array().unwrap();
        assert_eq!(policies[1].as_str(), Some("eft"));
        assert_eq!(grid["seeds"].as_array().unwrap().len(), 3);
        let fleets = grid["fleets"].as_array().unwrap();
        let first = fleets[0].as_array().unwrap();
        assert_eq!(first[1].as_str(), Some("ic"));
        let years = grid["years"].as_array().unwrap();
        assert_eq!(years[1].as_int(), Some(2025));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("[unclosed").is_err());
        assert!(parse("key").is_err());
        assert!(parse("key = ").is_err());
        assert!(parse("key = [1, 2").is_err());
        assert!(parse("key = \"open").is_err());
        assert!(parse("key = nope").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("\n\nname = {}{}", "[".repeat(100_000), "]".repeat(100_000));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nest deeper than 8"), "{e}");
        // The cap itself parses; one level more does not.
        let at_cap = format!("x = {}{}", "[".repeat(8), "]".repeat(8));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("x = {}{}", "[".repeat(9), "]".repeat(9));
        assert!(parse(&past_cap).is_err());
    }

    #[test]
    fn int_float_coercion() {
        let doc = parse("x = 2\ny = 2.5").unwrap();
        assert_eq!(doc[""]["x"].as_float(), Some(2.0));
        assert_eq!(doc[""]["y"].as_float(), Some(2.5));
        assert_eq!(doc[""]["y"].as_int(), None);
    }
}
