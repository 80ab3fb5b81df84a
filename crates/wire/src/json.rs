//! The workspace's one JSON codec, std only (the crate registry is
//! offline, so serde is unavailable): [`parse`] reads traumafuzz repro
//! files and every JSON-SEQ trace record, and [`escape`] is the string
//! escaper both of their writers use.
//!
//! Supports the full JSON value grammar this workspace emits: objects,
//! arrays, strings (with the standard escapes), finite numbers, booleans,
//! and null. Errors carry a byte offset for debuggability. Not a
//! general-purpose parser: no streaming, a duplicate key's last value
//! wins, and arrays / objects nest at most 128 deep (the parser recurses,
//! and `repro trauma <file>` feeds it user files).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer literal (digits only) that fits `u64`, kept
    /// exactly: seeds and nanosecond times do not survive an `f64`.
    UInt(u64),
    /// Any other JSON number, as `f64`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (sorted keys; last duplicate wins).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact value, if this is an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
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

    /// Object keys, if this is an object.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parse error: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset of the offending character.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array / object nesting [`parse`] accepts; repro files nest
/// four levels.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &'static str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Parse one array or object, refusing to recurse past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested deeper than 128 levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy a run of plain characters at once. It ends at an ASCII
            // byte, so both ends are char boundaries of the `&str` input.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character a `\u` escape (whose `\u` is already consumed)
    /// spells. A high surrogate must be followed by a `\u` low surrogate
    /// and the pair decodes to one astral character; a lone or
    /// mismatched surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| self.err("unpaired low surrogate"));
        }
        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            return Err(self.err("unpaired high surrogate"));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(
                self.err("high surrogate followed by a \\u escape that is not a low surrogate")
            );
        }
        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        Ok(char::from_u32(c).expect("a surrogate pair spells a scalar value"))
    }

    /// Four hex digits, exactly.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            // `from_str_radix` alone would take "+12f".
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            // Digits only; what overflows `u64` is still a number.
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or(JsonError {
                msg: "invalid number",
                at: start,
            })
    }
}

/// Escape a string for direct inclusion in emitted JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
            "schema": "longlook-bench-events-v1",
            "iters": 5,
            "benchmarks": {
                "sched_bulk_wheel": {"median_mev_s": 12.5, "min_s": 1e-3},
                "flags": [true, false, null]
            }
        }"#;
        let v = parse(doc).expect("parse");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("longlook-bench-events-v1")
        );
        assert_eq!(v.get("iters").and_then(Json::as_f64), Some(5.0));
        let b = v.get("benchmarks").expect("benchmarks");
        assert_eq!(
            b.get("sched_bulk_wheel")
                .and_then(|s| s.get("median_mev_s"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(b.keys(), vec!["flags", "sched_bulk_wheel"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1e999").is_err(), "non-finite number rejected");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\n\t\"\\A""#).expect("parse");
        assert_eq!(v.as_str(), Some("a\n\t\"\\A"));
        assert_eq!(escape("a\n\"b\\"), "a\\n\\\"b\\\\");
        let reparsed = parse(&format!("\"{}\"", escape("x\n\"y\\z\t"))).expect("reparse");
        assert_eq!(reparsed.as_str(), Some("x\n\"y\\z\t"));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
        for bad in [
            r#""\u+12f""#,
            r#""\u-12f""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u"#,
        ] {
            let err = parse(bad).expect_err(bad);
            assert_eq!((err.msg, err.at), ("invalid \\u escape", 3), "{bad}");
        }
    }

    /// The trace reader's surrogate rule, now the only one: a pair is one
    /// astral character, and half a pair is an error, never U+FFFD.
    #[test]
    fn surrogates_pair_exactly_or_fail() {
        // `\u` escapes spelling the given UTF-16 code units.
        let units =
            |cus: &[u32]| -> String { cus.iter().map(|cu| format!("\\u{cu:04x}")).collect() };
        let string = |escapes: &str| parse(&format!("\"{escapes}\""));
        let crab = units(&[0xd83e, 0xdd80]);
        assert_eq!(string(&crab), Ok(Json::Str("🦀".into())));
        assert_eq!(string(&format!("x{crab}y")), Ok(Json::Str("x🦀y".into())));
        for (escapes, msg) in [
            (units(&[0xd800, 0x41]), "not a low surrogate"),
            (units(&[0xd800, 0xd800]), "not a low surrogate"),
            (units(&[0xd800]), "unpaired high surrogate"),
            (units(&[0xd800]) + "A", "unpaired high surrogate"),
            (units(&[0xdc00]), "unpaired low surrogate"),
        ] {
            let err = string(&escapes).expect_err(&escapes);
            assert!(err.msg.contains(msg), "{escapes}: {err}");
        }
        let key = format!("{{\"{}\": 1}}", units(&[0xd800, 0x41]));
        assert!(parse(&key).is_err(), "{key}");
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"k": 1, "j": 2, "k": "last"}"#).expect("parse");
        assert_eq!(v.get("k"), Some(&Json::Str("last".into())));
        assert_eq!(v.keys(), ["j", "k"]);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        // One level too many is refused at the bracket that opens it,
        // however much deeper the input goes and whether or not it is
        // ever closed.
        for input in [nest(MAX_DEPTH + 1), "[".repeat(1_000_000)] {
            let err = parse(&input).expect_err("too deep");
            assert_eq!(err.at, MAX_DEPTH, "{err}");
            assert!(err.msg.contains("128"), "{err}");
        }
        let mixed = r#"{"a":["#.repeat(1_000_000);
        assert_eq!(parse(&mixed).expect_err("too deep").at, 64 * 6);
    }

    #[test]
    fn numbers_parse() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn unsigned_integer_literals_are_exact() {
        // 2^53 + 1 and u64::MAX: neither is an f64.
        for n in [0, 9_007_199_254_740_993, u64::MAX] {
            assert_eq!(parse(&n.to_string()), Ok(Json::UInt(n)));
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // Anything else is a float, one past u64::MAX included.
        for text in ["-3", "-0", "1.0", "1e3", "18446744073709551616"] {
            assert!(matches!(parse(text), Ok(Json::Num(_))), "{text}");
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
    }
}
