//! A minimal JSON document model with a hand-rolled serialiser and parser.
//!
//! The workspace builds offline with no serialisation crate, so
//! machine-readable bench artefacts (`BENCH_scale.json`,
//! `BENCH_fleet.json`) are emitted through this module: a [`Json`] tree
//! built by hand, printed compact via
//! [`fmt::Display`] or indented via [`Json::pretty`]. Objects keep their
//! insertion order (a `Vec` of pairs, not a map), so serialised output is
//! stable across runs — which matters because the checked-in bench
//! artefacts are diffed in review.
//!
//! [`Json::parse`] reads the same documents back (used by `scale_bench` to
//! diff a fresh sweep against the checked-in baseline), and the
//! [`Json::get`] / [`Json::as_f64`] family navigates the parsed tree.

use std::fmt;

/// A JSON value. Build with the `From` impls and [`Json::obj`] /
/// [`Json::push`]; serialise with `to_string()` (compact) or
/// [`Json::pretty`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (kept apart from [`Json::Int`] so `u64`
    /// counters above `i64::MAX` survive).
    UInt(u64),
    /// A finite float. Non-finite values serialise as `null` (JSON has no
    /// `NaN`/`inf`).
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::push`].
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// Append `key: value` to an object.
    ///
    /// # Panics
    /// Panics when `self` is not [`Json::Object`].
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Object(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// Builder-style [`Json::push`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// The document serialised with two-space indentation and a trailing
    /// newline — the format the checked-in `BENCH_*.json` artefacts use.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document (the inverse of [`fmt::Display`] /
    /// [`Json::pretty`]).
    ///
    /// Numbers without a fraction or exponent that fit an integer come
    /// back as [`Json::Int`] / [`Json::UInt`]; everything else becomes
    /// [`Json::Float`]. Trailing garbage after the document is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` ([`Json::Int`], [`Json::UInt`] or
    /// [`Json::Float`]).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// Non-negative integer value as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    out.push_str(&format!("{}: ", Json::Str(key.clone())));
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            leaf => out.push_str(&leaf.to_string()),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// A [`Json::parse`] failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Recursive-descent parser over the raw bytes (JSON's structural
/// characters are all ASCII; string content is validated as UTF-8 on the
/// way out).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar value verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.err("unexpected end of string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ASCII bytes in number"))?;
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            Json::Float(_) => write!(f, "null"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{value}", Json::Str(key.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u64::from(u))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_valid_json() {
        let doc = Json::obj()
            .with("name", "fleet")
            .with("tenants", 200u64)
            .with("loss", 0u64)
            .with("rate", 1.5)
            .with("gap", Option::<u64>::None)
            .with("tags", vec!["a", "b"]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fleet","tenants":200,"loss":0,"rate":1.5,"gap":null,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    /// Adversarial float values must all serialise as *valid JSON
    /// tokens*: no `NaN`/`inf` literals, no bare exponent forms a strict
    /// parser rejects, and integral floats without a trailing `.0`.
    #[test]
    fn adversarial_floats_stay_valid_json() {
        for (value, expect) in [
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
            (-f64::NAN, "null"),
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (-42.0, "-42"),
            (f64::MIN_POSITIVE, &f64::MIN_POSITIVE.to_string()),
        ] {
            let text = Json::Float(value).to_string();
            assert_eq!(text, expect, "Float({value}) serialised as {text}");
            // Whatever came out must parse back as a standalone document.
            Json::parse(&text).unwrap_or_else(|e| panic!("Float({value}) → {text}: {e}"));
        }
        // Extremes of the finite range: Rust's `Display` never emits a
        // bare `inf` or a `1e308`-style token our parser (or Python's)
        // would choke on — pin that with a round trip.
        for value in [f64::MAX, f64::MIN, 1e300, -1e-300, f64::EPSILON] {
            let text = Json::Float(value).to_string();
            assert!(
                !text.contains("inf") && !text.contains("NaN"),
                "Float({value}) serialised as {text}"
            );
            let back = Json::parse(&text).expect("round trip");
            assert_eq!(back.as_f64(), Some(value), "Float({value}) → {text}");
        }
        // Non-finite floats inside structures degrade to null too.
        let doc = Json::obj().with("rate", f64::NAN).with("xs", vec![1.5]);
        assert_eq!(doc.to_string(), r#"{"rate":null,"xs":[1.5]}"#);
    }

    #[test]
    fn parse_round_trips_bench_artefact_shapes() {
        let doc = Json::obj()
            .with("bench", "scale_bench")
            .with("cycles", 1200u64)
            .with("offset", -3i64)
            .with(
                "rows",
                Json::Array(vec![Json::obj()
                    .with("mesh", "16x16")
                    .with("seq_cycles_per_sec", 4620.5625)
                    .with("parity", true)
                    .with("gap", Json::Null)]),
            );
        for text in [doc.to_string(), doc.pretty()] {
            let back = Json::parse(&text).expect("round trip");
            assert_eq!(back, doc);
        }
        let row = &doc.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("mesh").unwrap().as_str(), Some("16x16"));
        assert_eq!(
            row.get("seq_cycles_per_sec").unwrap().as_f64(),
            Some(4620.5625)
        );
        assert_eq!(row.get("parity").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("cycles").unwrap().as_u64(), Some(1200));
        assert_eq!(doc.get("offset").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let back = Json::parse(r#""a\"b\\c\nd\u0001 \ud83d\ude00""#).expect("escapes");
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1} 😀"));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1.2.3",
            "NaN",
            "Infinity",
            "1e999",
            "{\"a\":1} extra",
            "\"unterminated",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted invalid input {bad:?}");
        }
        // Numbers without fraction/exponent stay integers across the
        // full u64 range; fractional forms become floats.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Float(2500.0));
    }

    #[test]
    fn pretty_output_indents_and_terminates() {
        let doc = Json::obj()
            .with("xs", vec![1u64, 2])
            .with("empty", Json::obj());
        let text = doc.pretty();
        assert!(text.ends_with("}\n"));
        assert!(text.contains("  \"xs\": [\n    1,\n    2\n  ]"));
        assert!(text.contains("\"empty\": {}"));
    }
}
