//! The workspace's one JSON codec.
//!
//! Everything that writes JSON — chaos plans ([`crate::fault`]), breach
//! bundles ([`crate::recorder`]), journal events, Chrome traces, registry
//! scrapes and the experiment tables — builds it from [`json_str`] and
//! [`fmt_f64`], and everything that reads it back uses [`Json::parse`]. It
//! is not a general-purpose JSON implementation: it covers objects,
//! arrays, strings, non-negative integers and finite floats, which is
//! exactly what the writers emit, and it rejects anything else so a
//! corrupt artifact is an `Err`, never a panic.
//!
//! Byte stability contract: [`fmt_f64`] renders every finite `f64` in the
//! one canonical form that `str::parse::<f64>` maps back to the same bits
//! (Rust's shortest-round-trip `Display`, with `.0` appended to integral
//! values so the token re-parses as a float). Emit → parse → emit is the
//! identity on all artifact output.

use crate::error::{Error, Result};

/// Deepest nesting [`Json::parse`] accepts. The writers nest five levels
/// at most; the cap keeps a hostile `[[[[…` from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Escape and double-quote a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Canonical float rendering: shortest round-trip `Display`, forced to
/// carry a `.` or exponent so the token parses back as [`Json::Float`].
/// Non-finite values have no JSON representation and render as `0.0`
/// (callers sanitize before emitting; this is the safety net).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_owned();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Minimal JSON value for parsing our own artifact output. Not a
/// general-purpose parser: enough for objects, arrays, strings,
/// non-negative integers and finite floats, which is all the codecs emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A non-negative integer token.
    Num(u64),
    /// A finite float token (or a negative number).
    Float(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array of values, in source order.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs (duplicates kept, first wins).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing bytes are an error.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::Fault(format!("trailing bytes at offset {pos}")));
        }
        Ok(v)
    }

    /// Look up `name` in an object; `Err` on missing field or non-object.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::Fault(format!("missing field `{name}`"))),
            _ => Err(Error::Fault(format!("field `{name}` of non-object"))),
        }
    }

    /// Object field as a `u64`; `Err` if missing or not an integer.
    pub fn field_u64(&self, name: &str) -> Result<u64> {
        match self.field(name)? {
            Json::Num(n) => Ok(*n),
            _ => Err(Error::Fault(format!("field `{name}` is not a number"))),
        }
    }

    /// Object field as an `f64` (integers widen); `Err` otherwise.
    pub fn field_f64(&self, name: &str) -> Result<f64> {
        match self.field(name)? {
            Json::Float(f) => Ok(*f),
            Json::Num(n) => Ok(*n as f64),
            _ => Err(Error::Fault(format!("field `{name}` is not a number"))),
        }
    }

    /// Object field as a string slice; `Err` otherwise.
    pub fn field_str<'a>(&'a self, name: &str) -> Result<&'a str> {
        match self.field(name)? {
            Json::Str(s) => Ok(s.as_str()),
            _ => Err(Error::Fault(format!("field `{name}` is not a string"))),
        }
    }

    /// This value as an array slice; `Err` for any other shape.
    pub fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(xs) => Ok(xs),
            _ => Err(Error::Fault("expected array".to_owned())),
        }
    }

    /// This value as a string slice; `Err` for any other shape.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s.as_str()),
            _ => Err(Error::Fault("expected string".to_owned())),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::Fault(format!("expected `{}` at offset {pos}", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    if depth > MAX_DEPTH {
        return Err(Error::Fault(format!("nested deeper than {MAX_DEPTH} at offset {pos}")));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(Error::Fault(format!("bad object at offset {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(Error::Fault(format!("bad array at offset {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            let mut is_float = false;
            while *pos < b.len() {
                match b[*pos] {
                    c if c.is_ascii_digit() => *pos += 1,
                    b'.' | b'e' | b'E' => {
                        is_float = true;
                        *pos += 1;
                    }
                    // Exponent sign: only legal right after `e`/`E`, and by
                    // then `is_float` is set.
                    b'+' | b'-' if is_float && matches!(b[*pos - 1], b'e' | b'E') => *pos += 1,
                    _ => break,
                }
            }
            let text =
                std::str::from_utf8(&b[start..*pos]).map_err(|e| Error::Fault(e.to_string()))?;
            if !is_float && !text.starts_with('-') {
                return text
                    .parse::<u64>()
                    .map(Json::Num)
                    .map_err(|e| Error::Fault(format!("bad number `{text}`: {e}")));
            }
            let f = text
                .parse::<f64>()
                .map_err(|e| Error::Fault(format!("bad number `{text}`: {e}")))?;
            if !f.is_finite() {
                return Err(Error::Fault(format!("non-finite number `{text}`")));
            }
            Ok(Json::Float(f))
        }
        _ => Err(Error::Fault(format!("unexpected byte at offset {pos}"))),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::Fault("truncated \\u escape".to_owned()))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|e| Error::Fault(e.to_string()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| Error::Fault(format!("bad \\u escape: {e}")))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::Fault("bad codepoint".to_owned()))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::Fault(format!("bad escape at offset {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid by construction).
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|e| Error::Fault(e.to_string()))?;
                let c = rest.chars().next().unwrap_or('\u{fffd}');
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err(Error::Fault("unterminated string".to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_roundtrip_through_canonical_rendering() {
        for v in [0.0, 1.0, 0.5, 123.456, -7.25, 1e-9, std::f64::consts::PI, 1e300] {
            let text = fmt_f64(v);
            match Json::parse(&text).expect("parse") {
                Json::Float(back) => {
                    assert_eq!(back, v, "{text}");
                    assert_eq!(fmt_f64(back), text, "re-render must be stable");
                }
                _ => panic!("`{text}` did not parse as a float"),
            }
        }
        // Integral floats carry `.0` so the token stays a float.
        assert_eq!(fmt_f64(4.0), "4.0");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
        assert_eq!(fmt_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn integers_stay_integers() {
        match Json::parse("42").expect("parse") {
            Json::Num(n) => assert_eq!(n, 42),
            _ => panic!("42 must parse as an integer"),
        }
        let obj = Json::parse("{\"a\": 2, \"b\": 2.5}").expect("parse");
        assert_eq!(obj.field_u64("a").expect("a"), 2);
        assert!((obj.field_f64("b").expect("b") - 2.5).abs() < 1e-12);
        // `field_f64` widens integers, `field_u64` rejects floats.
        assert!((obj.field_f64("a").expect("a") - 2.0).abs() < 1e-12);
        assert!(obj.field_u64("b").is_err());
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for bad in ["-", "1.2.3", "1e", "--4", "1e999"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_text_is_an_error_never_a_panic() {
        use crate::cases::for_cases;

        // Nesting is capped, so a deep document cannot exhaust the stack.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 2)).is_err());
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());

        let valid = "{\"at\":7,\"xs\":[1,2.5,-3,\"a\\n\\u00e9\"],\"o\":{\"k\":\"v\"}}";
        assert!(Json::parse(valid).is_ok());
        for_cases("hostile_text_is_an_error_never_a_panic", 512, |g| {
            // Arbitrary bytes, JSON-shaped noise and a valid document with
            // one byte changed: each parses or errs; none may panic.
            let _ = Json::parse(&String::from_utf8_lossy(&g.bytes(0..64)));
            let _ = Json::parse(&g.string("{}[]\",:\\u0129.eE+- \né", 0..48));
            let mut flipped = valid.as_bytes().to_vec();
            let i = g.index(0..flipped.len());
            flipped[i] ^= g.uint(1..256) as u8;
            if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&flipped)) {
                // Whatever still parses is a value the accessors handle.
                let _ = (doc.field_u64("at"), doc.field("xs").and_then(Json::as_array));
            }
        });
    }
}
