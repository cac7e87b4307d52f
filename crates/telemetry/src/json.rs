//! Hand-rendered JSON: the workspace's single renderer — and parser.
//!
//! Every machine-readable artifact — `BENCH_*.json` reports,
//! flight-recorder JSONL dumps, metrics readouts — renders JSON by hand
//! through this module, so escaping logic exists exactly once. The value model is the minimal subset
//! those files need; rendering is deterministic (object keys keep
//! insertion order) so diffs between CI runs stay readable.
//!
//! [`Json::parse`] is the inverse: a small recursive-descent parser
//! over the same value model, used wherever the workspace must *read*
//! its own artifacts back — the scorecard baseline
//! (`scorecard_baseline.json`) and the bench-trajectory aggregator
//! consume `BENCH_*.json` files through it. It accepts standard JSON
//! (no extensions) and round-trips everything [`Json::render`] emits.

use std::io;
use std::path::{Path, PathBuf};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so counters render without
    /// a decimal point).
    Int(i64),
    /// A float; non-finite values render as `null` per JSON's rules.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builder for an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds/overwrites a field (objects only; panics otherwise).
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Object(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_owned(), value));
                }
                self
            }
            other => panic!("field() on non-object {other:?}"),
        }
    }

    /// Parses standard JSON text into a [`Json`] value.
    ///
    /// Errors carry the byte offset and a short description. Object keys
    /// keep their textual order (duplicates: last wins, matching
    /// [`Json::field`] semantics). Numbers without `.`/`e` that fit an
    /// `i64` become [`Json::Int`]; everything else numeric becomes
    /// [`Json::Num`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for non-objects / missing).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, in textual order (empty for non-objects).
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            _ => &[],
        }
    }

    /// The array's items (empty for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer value ([`Json::Int`] only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Non-negative integer value ([`Json::Int`] only).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Numeric value: ints widen to `f64`, floats pass through.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
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
impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i64::from(i))
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// Recursive-descent JSON parser state: a byte cursor over the input.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut obj = Json::object();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            obj = obj.field(&key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(obj);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape at byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid; find the next one).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    if s.chars().any(|c| (c as u32) < 0x20) {
                        return Err(format!("raw control character at byte {start}"));
                    }
                    out.push_str(s);
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let s = std::str::from_utf8(slice).map_err(|_| "non-ASCII \\u escape".to_owned())?;
        let unit = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// Escapes `s` as a JSON string (with quotes) into `out`.
///
/// Multi-byte characters pass through unescaped — JSON is UTF-8 — while
/// the two mandatory escapes (`"` and `\`), the common C0 shorthands,
/// and the remaining control characters get their `\uXXXX` forms.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The workspace root (two levels up from this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes `report` to `BENCH_<name>.json` at the workspace root and
/// returns the path.
pub fn write_bench_json(name: &str, report: &Json) -> io::Result<PathBuf> {
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, report.render() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report() {
        let report = Json::object()
            .field("experiment", "e14".into())
            .field(
                "cells",
                Json::Array(vec![Json::object()
                    .field("n_blocks", 60_000u32.into())
                    .field("score_ms", 1.5f64.into())]),
            )
            .field("ok", true.into());
        assert_eq!(
            report.render(),
            r#"{"experiment":"e14","cells":[{"n_blocks":60000,"score_ms":1.5}],"ok":true}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let v = Json::object()
            .field("s", "a\"b\\c\nd".into())
            .field("inf", Json::Num(f64::INFINITY));
        assert_eq!(v.render(), r#"{"s":"a\"b\\c\nd","inf":null}"#);
    }

    #[test]
    fn escapes_all_control_characters() {
        // Every C0 control character renders as an escape, never raw.
        let all: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let rendered = Json::Str(all).render();
        assert!(rendered.chars().all(|c| (c as u32) >= 0x20), "{rendered}");
        // The shorthand escapes are used where JSON defines them.
        assert!(rendered.contains("\\n") && rendered.contains("\\t") && rendered.contains("\\r"));
        // The rest take the \u form, lowercase hex, zero-padded.
        assert!(rendered.contains("\\u0000") && rendered.contains("\\u001f"));
        assert_eq!(Json::Str("\u{7}".into()).render(), "\"\\u0007\"");
    }

    #[test]
    fn non_ascii_keys_and_values_pass_through() {
        // JSON is UTF-8: multi-byte keys/values need no escaping, and the
        // renderer must not mangle them.
        let v = Json::object()
            .field("métrique.λ", "überwachung 監視".into())
            .field("emoji", "🚦".into());
        assert_eq!(
            v.render(),
            r#"{"métrique.λ":"überwachung 監視","emoji":"🚦"}"#
        );
    }

    #[test]
    fn keys_with_quotes_and_controls_are_escaped() {
        let v = Json::object().field("a\"b\n", 1i64.into());
        assert_eq!(v.render(), "{\"a\\\"b\\n\":1}");
    }

    #[test]
    fn field_overwrites_existing_key() {
        let v = Json::object()
            .field("k", 1i64.into())
            .field("k", 2i64.into());
        assert_eq!(v.render(), r#"{"k":2}"#);
    }

    #[test]
    fn workspace_root_holds_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let original = Json::object()
            .field("experiment", "e18".into())
            .field("rate", 0.75f64.into())
            .field("count", 42i64.into())
            .field("neg", (-7i64).into())
            .field("ok", true.into())
            .field("none", Json::Null)
            .field(
                "cells",
                Json::Array(vec![Json::object().field("s", "a\"b\\c\n\t✓".into())]),
            );
        let parsed = Json::parse(&original.render()).expect("round trip");
        assert_eq!(parsed, original);
        assert_eq!(parsed.render(), original.render());
    }

    #[test]
    fn parse_accessors_walk_the_tree() {
        let v = Json::parse(r#"{"a":{"b":[1,2.5,"x",true]},"n":-3}"#).unwrap();
        let items = v.get("a").unwrap().get("b").unwrap().items();
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[1].as_i64(), None);
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(items[3].as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.entries().len(), 2);
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_surrogates() {
        let v = Json::parse(" { \"k\" : [ \"\\u00e9\\u2713\" , \"\\ud83d\\ude00\" ] } ").unwrap();
        let items = v.get("k").unwrap().items();
        assert_eq!(items[0].as_str(), Some("é✓"));
        assert_eq!(items[1].as_str(), Some("😀"));
        assert_eq!(
            Json::parse(r#""\u0007""#).unwrap(),
            Json::Str("\u{7}".into())
        );
    }

    #[test]
    fn parse_duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_i64(), Some(2));
        assert_eq!(v.entries().len(), 1);
    }

    #[test]
    fn parse_large_int_and_exponent_fall_back_to_float() {
        // i64::MAX + 1 overflows Int and falls back to Num.
        let v = Json::parse("9223372036854775808").unwrap();
        assert!(matches!(v, Json::Num(_)));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "\"\\x\"",
            "\"unterminated",
            "1 2",
            "nan",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_reads_a_real_bench_report() {
        let rendered = r#"{"experiment":"e16_microreboot_mttr","quick":false,"min_mttr_ratio":73.39449541284404,"mttr_improvement_ok":true}"#;
        let v = Json::parse(rendered).unwrap();
        assert_eq!(
            v.get("experiment").unwrap().as_str(),
            Some("e16_microreboot_mttr")
        );
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(false));
        assert!(v.get("min_mttr_ratio").unwrap().as_f64().unwrap() > 73.0);
    }
}
