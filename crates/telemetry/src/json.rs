//! A minimal JSON reader — the counterpart of [`crate::JsonWriter`].
//!
//! The `fg serve` daemon speaks line-delimited JSON (`fg-rpc/1`), so the
//! toolchain needs to *parse* JSON as well as write it, still with zero
//! external dependencies. This is a small strict recursive-descent
//! parser over the full JSON grammar, tuned for the schemas this
//! workspace exchanges: objects of strings, integers, booleans, arrays,
//! and nested objects. Numbers are kept as `i64` when they are integral
//! (every fg schema uses integers) and as `f64` otherwise.
//!
//! ```
//! use telemetry::json::Json;
//!
//! let v = Json::parse(r#"{"v":"fg-rpc/1","id":7,"ok":true}"#).unwrap();
//! assert_eq!(v.get("v").and_then(Json::as_str), Some("fg-rpc/1"));
//! assert_eq!(v.get("id").and_then(Json::as_i64), Some(7));
//! assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
//! ```

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys: last wins on
    /// [`Json::get`] lookups is *not* guaranteed — first match wins).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the failure.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

/// Renders `s` as a quoted JSON string literal on one line — the
/// escaping counterpart of [`Json::parse`] for building line-delimited
/// responses (`fg-rpc/1` replies must never contain a raw newline).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string literal on one line.
/// Every JSON writer in the crate escapes through this function.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parser state: a byte cursor. Recursion is bounded by `MAX_DEPTH`, so
/// hostile inputs cannot overflow the daemon's stack.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Nesting bound for hostile inputs (an fg-rpc request is ~2 deep).
const MAX_DEPTH: usize = 64;

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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(format!("unexpected `{}` at byte {}", char::from(b), self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogate pairs: peek for the low half.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                let rest = &self.bytes[self.pos + 5..];
                                if rest.starts_with(b"\\u") {
                                    let lo_hex = rest
                                        .get(2..6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .ok_or_else(|| "truncated surrogate pair".to_owned())?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| "bad surrogate pair".to_owned())?;
                                    self.pos += 6;
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| format!("bad code point \\u{hex}"))?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // boundaries are valid by construction).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_owned())?;
                    let c = s.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_rpc_shapes() {
        let v = Json::parse(
            r#"{"v":"fg-rpc/1","id":3,"method":"check","source":"iadd(1, 2)","prelude":false}"#,
        )
        .unwrap();
        assert_eq!(v.get("v").and_then(Json::as_str), Some("fg-rpc/1"));
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("method").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("prelude").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn parses_nested_arrays_objects_and_numbers() {
        let v = Json::parse(r#"{"xs":[1, -2, 3.5, {"k":null}], "t":true}"#).unwrap();
        let xs = v.get("xs").and_then(Json::as_arr).unwrap();
        assert_eq!(xs[0], Json::Int(1));
        assert_eq!(xs[1], Json::Int(-2));
        assert_eq!(xs[2], Json::Float(3.5));
        assert_eq!(xs[3].get("k"), Some(&Json::Null));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
    }

    #[test]
    fn roundtrips_writer_escapes() {
        let mut w = crate::JsonWriter::new();
        w.open_object();
        w.field_str("k", "a\"b\\c\nd\te\u{1}f — ünïcode");
        w.close_object();
        let doc = w.finish();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1}f — ünïcode")
        );
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        let v = Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
    }

    #[test]
    fn escape_roundtrips_through_parse_on_one_line() {
        let hostile = "a\"b\\c\nd\re\tf\u{1}g — ünïcode 😀";
        let lit = escape(hostile);
        assert!(!lit.contains('\n'), "escaped literal must stay one line");
        assert_eq!(Json::parse(&lit).unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"k\":}",
            "[1,]",
            "{\"k\":1} trailing",
            "\"unterminated",
            "nul",
            "01x",
            "\"\\q\"",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Hostile nesting is bounded, not a stack overflow.
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }
}
