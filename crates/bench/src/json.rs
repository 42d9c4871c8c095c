//! The repository's minimal JSON value model and parser.
//!
//! Shared by the perf-report codec ([`crate::perf`]) and the
//! observability progress sidecars (`green-scenarios`): flat objects of
//! strings, numbers, booleans and nulls — no arrays, no unicode
//! escapes — which is exactly what those schemas emit. Keeping the
//! parser here means the repository needs no serialization crate while
//! every consumer reads the same dialect.
//!
//! The parser returns an error on any input, never panics: objects nest
//! at most [`MAX_DEPTH`] deep (the repository's documents nest four), so
//! a hostile document cannot overflow the stack, and strings decode as
//! UTF-8.

/// The deepest object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 8;

/// A parsed JSON value. Objects preserve key order (the writers emit
/// stable, diff-friendly order and the readers report it back).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{ "key": value, ... }` in source order.
    Object(Vec<(String, Json)>),
    /// Any numeric literal, held as `f64` (the schemas' counters and
    /// timings all fit without precision loss).
    Number(f64),
    /// A string literal (escapes limited to `\" \\ \n \t`).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The object's fields, or `None` for any other variant.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The numeric value, or `None` for any other variant.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, or `None` for any other variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, or `None` for any other variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Field lookup on an object (first match in source order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses one complete JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Quotes `s` as a JSON string literal (escaping `\`, `"`, newlines and
/// tabs — the writers never emit anything else).
pub fn quote(s: &str) -> String {
    format!(
        "\"{}\"",
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\t', "\\t")
    )
}

/// Formats a number the way the writers do: integers without a decimal
/// point, everything else with three decimals.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|b| *b as char).unwrap_or('∅')
            ))
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!(
                "bad literal at byte {} (expected `{}`)",
                self.pos,
                std::str::from_utf8(word).unwrap_or("?")
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b) if b.is_ascii_digit() || *b == b'-' => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|b| *b as char).unwrap_or('∅'),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "objects nest deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let fields = self.fields();
        self.depth -= 1;
        fields.map(Json::Object)
    }

    fn fields(&mut self) -> Result<Vec<(String, Json)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// A string literal, decoded as UTF-8: the escapes are ASCII, so the
    /// bytes between them are whole code points of the input.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| format!("string at byte {start} is not UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or("dangling escape at end of input")?;
                    out.push(match escaped {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                    });
                    self.pos += 2;
                }
                Some(b) => {
                    out.push(*b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_flat_object_with_all_scalar_kinds() {
        let doc = r#"{ "name": "2/8", "rows": 64, "rate": 12.5, "complete": true, "eta_s": null, "stalled": false }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("2/8"));
        assert_eq!(v.get("rows").and_then(Json::as_number), Some(64.0));
        assert_eq!(v.get("rate").and_then(Json::as_number), Some(12.5));
        assert_eq!(v.get("complete").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("stalled").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("eta_s"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nested_objects_and_escapes_roundtrip() {
        let key = "odd|name\nwith\ttabs\"and\\slashes";
        let doc = format!("{{ {}: {{ \"inner\": -3e2 }} }}", quote(key));
        let v = Json::parse(&doc).unwrap();
        let inner = v.get(key).expect("escaped key parses back");
        assert_eq!(inner.get("inner").and_then(Json::as_number), Some(-300.0));
    }

    #[test]
    fn rejects_garbage_and_trailing_content() {
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\": \"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let depth = 200_000;
        let doc = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let err = Json::parse(&doc).unwrap_err();
        let at = MAX_DEPTH * "{\"a\":".len();
        assert_eq!(
            err,
            format!("objects nest deeper than {MAX_DEPTH} levels at byte {at}")
        );
        // The deepest accepted document still parses.
        let doc = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn non_ascii_text_reads_back_unchanged() {
        let text = "café – 2/8";
        let doc = format!("{{\"sweep\": {}}}", quote(text));
        assert_eq!(
            Json::parse(&doc)
                .unwrap()
                .get("sweep")
                .and_then(Json::as_str),
            Some(text)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Any string quoted by the writers parses back to itself: code
        /// points from ASCII (the escaped characters and controls among
        /// them), the two-byte range and the whole of Unicode.
        #[test]
        fn quote_then_parse_roundtrips(
            code_points in prop::collection::vec(
                prop_oneof![0u32..0x80, 0x80u32..0x800, 0u32..0x11_0000],
                0..64,
            ),
        ) {
            let text: String = code_points
                .iter()
                .map(|&c| char::from_u32(c).unwrap_or('\u{fffd}'))
                .collect();
            prop_assert_eq!(Json::parse(&quote(&text)), Ok(Json::Str(text)));
        }
    }

    #[test]
    fn fmt_num_matches_writer_convention() {
        assert_eq!(fmt_num(64.0), "64");
        assert_eq!(fmt_num(12.5), "12.500");
        assert_eq!(fmt_num(-3.0), "-3");
    }
}
