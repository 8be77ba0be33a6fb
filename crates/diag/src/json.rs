//! The workspace's one JSON reader and writer.
//!
//! The workspace is dependency-free (offline build), so every JSON the
//! tool reads or writes goes through this recursive-descent parser and
//! compact writer instead of `serde_json`: the `catt serve` NDJSON wire,
//! `CATT_DIAG_FORMAT=json` diagnostics ([`crate::Diagnostic::to_json`])
//! and the `catt profile --trace-out` Chrome trace (written with
//! [`write_str`], checked with [`parse`]).
//!
//! The reader is strict: it accepts exactly RFC 8259 — raw control
//! characters inside strings, leading zeros and numbers with an empty
//! fraction or exponent (`1.`, `1e`) are rejected — plus a
//! recursion-depth guard so a hostile request cannot blow the daemon's
//! stack. String scanning is linear in the input: each unescaped run is
//! copied as one slice. Numbers are carried as `f64` (the protocol never
//! needs more than 53 bits of integer precision).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered (the writer round-trips field order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as `u64` (rejects negatives and non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render compactly (no whitespace), suitable for one NDJSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience: build an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the honest rendering
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` to `out` as a quoted JSON string literal: `"` and `\`
/// backslash-escaped, `\n`/`\r`/`\t` by name, other control characters
/// as `\u00XX`, everything else verbatim.
pub fn write_str(s: &str, out: &mut String) {
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

/// Parse one JSON document. Trailing non-whitespace is an error (NDJSON
/// lines carry exactly one value).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    const MAX_DEPTH: u32 = 64;

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > Self::MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte as one slice. All three are ASCII, so the run ends on
            // a char boundary of the `&str` input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).ok_or("invalid utf8")?);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(format!(
                        "raw control character in string at offset {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// The scalar of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair; a lone or mismatched surrogate is an
    /// error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err("bad \\u escape".to_string());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("bad low surrogate".to_string());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // int = "0" / [1-9] *DIGIT
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(format!("bad number at offset {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.required_digits(start)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits(start)?;
        }
        let text = self.text.get(start..self.pos).ok_or("bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// One or more digits (a fraction or exponent may not be empty).
    fn required_digits(&mut self, number_start: usize) -> Result<(), String> {
        let from = self.pos;
        self.digits();
        if self.pos == from {
            return Err(format!("bad number at offset {number_start}"));
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0;
        for &b in chunk {
            let d = (b as char).to_digit(16).ok_or("bad \\u escape")?;
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"id":"r1","n":3,"ok":true,"xs":[1,2.5,null],"s":"a\"b\\c\nd"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("é😀".to_string()));
        // Multi-byte UTF-8 passes through unescaped runs untouched.
        assert_eq!(
            parse("\"aé😀b\\n\"").unwrap(),
            Json::Str("aé😀b\n".to_string())
        );
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83d\u0041""#, // high surrogate, non-surrogate after
            r#""\ud83d\ue000""#, // high surrogate, past the low range
            r#""\u+041""#,       // sign is not a hex digit
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"\\u12\"").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth guard");
        let shallow = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&shallow).is_ok(), "64 levels are allowed");
    }

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "0",
            "-0.5",
            "-12.5e3",
            "1E+2",
            "\"\"",
            r#"{"a": [1, 2, {"b": "x\ny"}], "c": true}"#,
            r#" { "traceEvents" : [ ] } "#,
            r#""\/\b\f\r\t""#,
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "01e",
            "1.",
            "1e",
            "1e+",
            "-",
            "01",
            "-.5",
            "\"tab\there\"",
            "\"nl\nhere\"",
            "\"\u{1}\"",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn control_chars_escape_on_write() {
        let s = Json::Str("a\u{1}b".to_string()).render();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(parse(&s).unwrap(), Json::Str("a\u{1}b".to_string()));
    }

    #[test]
    fn escape_roundtrips_through_validate() {
        let nasty = "a\"b\\c\nd\te\u{1}\u{1f}é";
        let mut doc = String::from("{\"k\": ");
        write_str(nasty, &mut doc);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    /// A multi-megabyte string value parses in linear time.
    #[test]
    fn long_string_parses_in_linear_time() {
        let payload = "x".repeat(4 << 20);
        let line = format!(r#"{{"id":"big","op":"submit","kernel":"{payload}"}}"#);
        let t = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let took = t.elapsed();
        assert_eq!(
            v.get("kernel").and_then(Json::as_str).map(str::len),
            Some(4 << 20)
        );
        assert!(took.as_secs_f64() < 5.0, "4 MiB string took {took:?}");
    }

    #[test]
    fn integers_render_without_a_fraction() {
        let v = obj(vec![
            ("a", Json::Num(3.0)),
            ("b", Json::Num(0.25)),
            ("c", Json::Num(f64::NAN)),
            ("d", Json::Num(-7.0)),
        ]);
        assert_eq!(v.render(), r#"{"a":3,"b":0.25,"c":null,"d":-7}"#);
    }
}
