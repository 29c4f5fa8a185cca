//! The shared JSON value tree: a hand-rolled codec used by the wire
//! protocol, the bench report writers, and the trace exporters.
//!
//! The build is offline (no serde), so this module implements the JSON
//! subset the workspace needs from scratch: a [`Json`] value tree with an
//! order-preserving object representation, a recursive-descent parser
//! with full string-escape support (`\n`, `\"`, `\uXXXX` including
//! surrogate pairs), and compact/pretty renderers. The compact renderer
//! never emits a raw newline — control characters inside strings are
//! escaped — so one value always occupies exactly one line and
//! line-oriented framing (wire messages, JSONL trace files) is trivial:
//! write `render() + "\n"`, read with `read_line`.
//!
//! Numbers are `f64`; both renderers print the shortest representation
//! that round-trips (Rust's `Display` for `f64`), so
//! `parse(render(x)) == x` exactly for every finite value. Non-finite
//! values render as `null`. 64-bit identifiers (structure hashes) do not
//! fit `f64` losslessly and therefore travel as fixed-width hex strings
//! (see `folearn_server::proto`).
//!
//! Parsing recurses once per container level, so the parser refuses
//! documents nested deeper than [`MAX_DEPTH`]: a peer sending a line of
//! `[` gets an error instead of overflowing the reading thread's stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// documents the workspace writes — reply frames carrying a router's
/// stitched span tree, a few span levels of two containers each — stay
/// far below it, and the bounded recursion fits any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (the renderers emit
/// keys in the order they were pushed), which keeps wire messages, bench
/// reports, and trace files deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| ≤ 2⁵³).
    pub fn int(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// An object from key/value pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as usize)
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering (no raw newlines anywhere).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Indented rendering for files meant to be read by humans.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(2), 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => render_number(out, *n),
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.render_into(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after JSON value"));
        }
        Ok(v)
    }
}

fn render_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(out: &mut String, s: &str) {
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

/// A JSON error: malformed text, or a document that does not fit the
/// shape a consumer expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Build an error from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("JSON error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(_) => self.number(),
        }
    }

    /// Parse one container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a maximal escape-free, quote-free run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped on ASCII
                // delimiters, so the run is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => unreachable!("fast path consumed non-delimiters"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let n: f64 = s
            .parse()
            .map_err(|_| JsonError::new(format!("bad number {s:?}")))?;
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse("[1, 2, []]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Arr(vec![])])
        );
        let obj = Json::parse(r#"{"a": 1, "b": {"c": "x"}}"#).unwrap();
        assert_eq!(obj.get("a").unwrap().as_usize(), Some(1));
        assert_eq!(obj.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert!(Json::parse("{broken").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = Json::parse(&past_cap).unwrap_err();
        assert!(e.0.contains("nesting deeper than"), "{e}");
        // A 20 KB line of `[` or of `{"a":` is refused long before the
        // stack is at risk.
        assert!(Json::parse(&"[".repeat(20_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(20_000)).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "line\nbreak\r\ttab",
            "control \u{1} \u{1f}",
            "unicode: αβγ 模型 ∀x∃y 🦀",
            "",
        ] {
            let v = Json::Str(s.to_string());
            let compact = v.render();
            assert!(!compact.contains('\n'), "newline leaked: {compact:?}");
            assert_eq!(Json::parse(&compact).unwrap(), v, "compact {s:?}");
            assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v, "pretty {s:?}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""Aé你""#).unwrap(),
            Json::Str("Aé你".to_string())
        );
        // Surrogate pair for 🦀 (U+1F980).
        assert_eq!(
            Json::parse(r#""🦀""#).unwrap(),
            Json::Str("🦀".to_string())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err());
        assert!(Json::parse(r#""\udd80\ud83e""#).is_err());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, -0.0, 1.0, -17.0, 0.1, 1.0 / 3.0, 1e-12, 9.007199254740992e15] {
            let rendered = Json::Num(n).render();
            let back = Json::parse(&rendered).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), {
                // -0.0 renders as "0" (integer path); accept the sign loss.
                if n == 0.0 { 0.0f64.to_bits() } else { n.to_bits() }
            }, "{n} via {rendered}");
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn pretty_rendering_parses_back() {
        let v = Json::obj([
            ("experiment", Json::str("E18")),
            ("runs", Json::Arr(vec![Json::int(1), Json::int(2)])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
            ("empty", Json::Arr(vec![])),
        ]);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"runs\""), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }
}
