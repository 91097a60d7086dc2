//! Minimal JSON writer primitives, tree and reader.
//!
//! The workspace bans external dependencies, so the wire types are
//! serialized by hand. The answers on the request path (graphs, bid,
//! health) are written in one pass straight into the response body with
//! the primitives here (`write_str`, `write_u64`, `write_f64`,
//! `write_price`); the observer documents are built as a [`Json`] tree
//! and rendered with [`Json::render`], which calls the same primitives.
//! Clients parse answers back with [`Json::parse`] (the loadgen harness,
//! the fleet front and the end-to-end tests).
//!
//! Writing is **deterministic**: objects keep the order they are written
//! in, no whitespace is emitted, and numbers use Rust's shortest
//! round-trip formatting (integral values without a `.0`) — the same
//! answer always has the same bytes, which is what lets CI byte-diff
//! recorded responses.
//!
//! The reader is a strict recursive-descent parser over the JSON grammar
//! (RFC 8259) minus three liberties we never emit: it accepts only finite
//! numbers, caps nesting at [`MAX_DEPTH`] to bound stack use on hostile
//! input, and rejects `\u` escapes that name a UTF-16 surrogate (no
//! surrogate pairs). The same walker also runs without building a tree
//! (`Json::outline`), for the fleet front, which relays a shard document's
//! bytes and only needs to know it is valid and where its top-level
//! fields sit.

use spotmarket::price::TICKS_PER_DOLLAR;
use spotmarket::Price;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys are kept as written.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A document checked against the full grammar without building a tree
/// (see [`Json::outline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outline {
    /// Byte offset of the top-level object's closing `}`; `None` when the
    /// top-level value is not an object.
    pub close: Option<usize>,
    /// The top-level object's fields in document order: the decoded key
    /// and the byte range of the raw value.
    pub fields: Vec<(String, Range<usize>)>,
}

impl Json {
    /// Convenience constructor for an object literal.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an integer value (u64 values above
    /// 2^53 are unrepresentable in JSON numbers; the wire types never
    /// carry any — timestamps are seconds, durations cap at days).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A u64 as a JSON number.
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Field lookup on an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the tree to its canonical compact form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Parser::new(input, true).document().map(|(value, _)| value)
    }

    /// Checks a complete document exactly as [`Json::parse`] would — the
    /// same walker, so the same inputs are accepted and every rejection
    /// carries the same error — but builds no tree: only the top-level
    /// keys are decoded, and each top-level value is reported as the byte
    /// range it occupies in `input`.
    pub(crate) fn outline(input: &str) -> Result<Outline, JsonError> {
        let mut p = Parser::new(input, false);
        let (_, root) = p.document()?;
        Ok(Outline {
            close: (p.bytes[root.start] == b'{').then(|| root.end - 1),
            fields: p.top_fields,
        })
    }
}

/// Appends `s` as a JSON string: `"` and `\` escaped, `\n`, `\r` and
/// `\t` by name, every other control character as `\u00xx`, and the
/// rest (multi-byte text included) verbatim.
pub(crate) fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Copy each run between escapes in one step. Every escaped byte is
    // ASCII, so a run always ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The two-digit decimals `00` to `99`, in order.
const DIGIT_PAIRS: &str = "0001020304050607080910111213141516171819\
                           2021222324252627282930313233343536373839\
                           4041424344454647484950515253545556575859\
                           6061626364656667686970717273747576777879\
                           8081828384858687888990919293949596979899";

/// `n` (below 100) as two digits.
fn digit_pair(n: u64) -> &'static str {
    let at = 2 * n as usize;
    &DIGIT_PAIRS[at..at + 2]
}

/// Appends `n` in decimal, two digits at a time.
pub(crate) fn write_u64(out: &mut String, mut n: u64) {
    // Base-100 digits below the leading one, least significant first.
    let mut pairs = [0u8; 10];
    let mut len = 0;
    while n >= 100 {
        pairs[len] = (n % 100) as u8;
        n /= 100;
        len += 1;
    }
    let lead = digit_pair(n);
    out.push_str(if n < 10 { &lead[1..] } else { lead });
    for &pair in pairs[..len].iter().rev() {
        out.push_str(digit_pair(u64::from(pair)));
    }
}

/// Appends a finite number: integral values below 9e15 in magnitude as
/// integers (no `.0`), everything else in Rust's shortest round-trip
/// form.
pub(crate) fn write_f64(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "wire types never carry non-finite numbers");
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let n = n as i64;
        if n < 0 {
            out.push('-');
        }
        write_u64(out, n.unsigned_abs());
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

// `write_price` writes the four decimals of a tick as two digit pairs.
const _: () = assert!(TICKS_PER_DOLLAR == 10_000);

/// Appends a price in dollars, written exactly from its ticks: the whole
/// dollars, then the four-digit fraction with trailing zeros trimmed (no
/// point when it is zero). Below 10^15 ticks this is the same text as
/// writing [`Price::dollars`] with [`write_f64`]: the decimal has at most
/// 15 significant digits, so it is the shortest form that round-trips to
/// that `f64`.
pub(crate) fn write_price(out: &mut String, price: Price) {
    write_u64(out, price.ticks() / TICKS_PER_DOLLAR);
    let frac = price.ticks() % TICKS_PER_DOLLAR;
    if frac == 0 {
        return;
    }
    let trim = |pair: &'static str| {
        if pair.ends_with('0') {
            &pair[..1]
        } else {
            pair
        }
    };
    let (high, low) = (digit_pair(frac / 100), digit_pair(frac % 100));
    out.push('.');
    if frac.is_multiple_of(100) {
        out.push_str(trim(high));
    } else {
        out.push_str(high);
        out.push_str(trim(low));
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Build the tree; when false, only check the grammar and record the
    /// top-level fields' layout.
    build: bool,
    /// Top-level object fields seen while checking (`build == false`).
    top_fields: Vec<(String, Range<usize>)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, build: bool) -> Parser<'a> {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            build,
            top_fields: Vec::new(),
        }
    }

    /// Walks a whole document: the root value and the byte range it
    /// occupies (surrounding whitespace allowed, trailing garbage
    /// rejected).
    fn document(&mut self) -> Result<(Json, Range<usize>), JsonError> {
        self.skip_ws();
        let start = self.pos;
        let value = self.value(0)?;
        let root = start..self.pos;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage after document"));
        }
        Ok((value, root))
    }

    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string(self.build).map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            if self.build {
                items.push(item);
            }
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        // A check-only walk still decodes the top level's keys: they are
        // the outline's field names.
        let keep_key = self.build || depth == 0;
        loop {
            self.skip_ws();
            let key = self.string(keep_key)?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            if self.build {
                fields.push((key, value));
            } else if depth == 0 {
                self.top_fields.push((key, start..self.pos));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Scans one string; the decoded text is returned only when `keep`
    /// (otherwise the result is empty and nothing is allocated).
    fn string(&mut self, keep: bool) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote, backslash or control
            // byte in one step. Every stop byte is ASCII, so the run ends
            // on a char boundary of the (valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            if keep {
                let text =
                    std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?;
                out.push_str(text);
            }
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are not needed by our wire
                            // types; reject rather than mis-decode.
                            let c = char::from_u32(cp as u32)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            if keep {
                                out.push(c);
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    if keep {
                        out.push(c);
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u16::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    /// Scans `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`, the
    /// RFC 8259 number grammar: no leading zeros, and no bare `.` or
    /// exponent marker without digits after it.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.expect_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.expect_digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// At least one digit, as after a `.` or an exponent marker.
    fn expect_digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("invalid number"));
        }
        self.skip_digits();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_ordered() {
        let j = Json::obj(vec![
            ("b", Json::num_u64(2)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("x")]),
            ),
        ]);
        assert_eq!(j.render(), r#"{"b":2,"a":[null,true,"x"]}"#);
    }

    #[test]
    fn integers_render_without_float_suffix() {
        assert_eq!(Json::num_u64(0).render(), "0");
        assert_eq!(Json::num_u64(86_400).render(), "86400");
        assert_eq!(Json::Num(0.105).render(), "0.105");
        assert_eq!(Json::Num(-2.5).render(), "-2.5");
    }

    #[test]
    fn numbers_the_grammar_allows_still_parse() {
        for (doc, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("25e-1", 2.5),
            ("0.1234", 0.1234),
        ] {
            let parsed = Json::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(parsed.as_f64(), Some(want), "{doc}");
            assert_outline_agrees(doc);
        }
    }

    /// The number rendering `Json::render` used before the shared
    /// writers, kept as their oracle.
    fn tree_number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 9e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    /// The string rendering `Json::render` used before the shared
    /// writers, kept as their oracle.
    fn tree_string(s: &str) -> String {
        let mut out = String::from('"');
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

    fn written(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn string_writer_matches_the_tree_escaping() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for text in [
            "",
            "plain",
            "a\"b\\c",
            "\"\"\\\\",
            controls.as_str(),
            "tab\there\r\nend\u{7f}",
            "héllo wörld",
            "日本語\u{1}のテキスト",
            "🎉\"🚀\\",
            "\u{1f}é\u{0}",
        ] {
            assert_eq!(
                written(|out| write_str(out, text)),
                tree_string(text),
                "{text:?}"
            );
            assert_eq!(Json::str(text).render(), tree_string(text), "{text:?}");
        }
    }

    #[test]
    fn integer_writer_matches_the_tree() {
        for n in [0, 9, 10, 99, 100, 86_400, 1 << 53] {
            assert_eq!(
                written(|out| write_u64(out, n)),
                Json::num_u64(n).render(),
                "{n}"
            );
        }
        for n in (0..100_000).chain([u64::MAX / 10, u64::MAX - 1, u64::MAX]) {
            assert_eq!(written(|out| write_u64(out, n)), n.to_string());
        }
    }

    #[test]
    fn float_writer_matches_the_tree_rule() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.95,
            0.99,
            0.105,
            -2.5,
            1e-7,
            123_456.789,
            8.999_999_999_999_998e15,
            9e15,
            -9e15,
            1e300,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(written(|out| write_f64(out, n)), tree_number(n), "{n}");
            assert_eq!(Json::Num(n).render(), tree_number(n), "{n}");
        }
    }

    /// Every price below 10^15 ticks has at most 15 significant digits,
    /// so its exact decimal is the shortest text that round-trips to
    /// `Price::dollars()` — checked here, not assumed.
    #[test]
    fn price_writer_equals_the_dollars_rendering() {
        use simrng::{Rng, SeedableFrom, Xoshiro256pp};
        let check = |ticks: u64| {
            let price = Price::from_ticks(ticks);
            let want = Json::num(price.dollars()).render();
            assert_eq!(
                written(|out| write_price(out, price)),
                want,
                "{ticks} ticks"
            );
        };
        (0..=2_000_000).for_each(check);
        let mut rng = Xoshiro256pp::seed_from_u64(0x9e37_79b9_7f4a_7c15);
        for _ in 0..1_000_000 {
            check(rng.next_below(1_000_000_000_000));
        }
        for ticks in [999_999_999_999, 10u64.pow(15) - 1, 10u64.pow(14) + 1] {
            check(ticks);
        }
    }

    /// The no-tree walk accepts and rejects exactly what the parser does,
    /// with the same error.
    fn assert_outline_agrees(input: &str) {
        assert_eq!(
            Json::outline(input).map(|_| ()),
            Json::parse(input).map(|_| ()),
            "outline and parse disagree on {input:?}"
        );
    }

    #[test]
    fn round_trips_wire_shaped_documents() {
        let doc = r#"{"region":"us-east-1","p":0.95,"degraded":false,
                      "points":[{"bid_usd":0.1234,"durability_secs":3600}],
                      "note":"a \"quoted\" string\nwith escapes é"}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("p").unwrap().as_f64(), Some(0.95));
        assert_eq!(parsed.get("degraded").unwrap().as_bool(), Some(false));
        let pts = parsed.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts[0].get("durability_secs").unwrap().as_u64(), Some(3600));
        assert_eq!(
            parsed.get("note").unwrap().as_str(),
            Some("a \"quoted\" string\nwith escapes é")
        );
        // Render → parse is the identity on the tree.
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
        assert_outline_agrees(doc);
        assert_outline_agrees(&rendered);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}garbage",
            "[1e999]",
            "\"\u{1}\"",
            // RFC 8259 numbers: no leading zeros, digits after `.` and
            // after an exponent marker, a digit before any `.`.
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            "1.e3",
            "1e",
            "1e+",
            "-",
            "[.5]",
            "{\"a\":01}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
            assert_outline_agrees(bad);
        }
    }

    #[test]
    fn multi_byte_runs_and_escapes_at_run_edges_round_trip() {
        for text in [
            "héllo wörld",
            "日本語のテキスト",
            "🎉🚀 emoji runs 🎉",
            "\"日本\"",
            "\n先頭",
            "末尾\t",
            "é\\ü\u{1}ß",
            "/",
        ] {
            let rendered = Json::str(text).render();
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(text));
            assert_outline_agrees(&rendered);
        }
        // Escapes the renderer never writes, at both edges of a run.
        let doc = r#""é日本\/\b語\f""#;
        assert_eq!(
            Json::parse(doc).unwrap().as_str(),
            Some("é日本/\u{8}語\u{c}")
        );
        assert_outline_agrees(doc);
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        // A raw control byte in the middle of a multi-byte run: rejected
        // at the control byte itself.
        let doc = "\"日本\u{1}語\"";
        let err = Json::parse(doc).unwrap_err();
        assert_eq!((err.at, err.msg), (7, "raw control character in string"));
        assert_outline_agrees(doc);
        // Unterminated inside a multi-byte run: rejected at end of input.
        for doc in ["\"abc日本語", "[\"é", "{\"k\":\"🎉"] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!((err.at, err.msg), (doc.len(), "unterminated string"));
            assert_outline_agrees(doc);
        }
        // A bad escape right after a run.
        let err = Json::parse("\"日本\\x\"").unwrap_err();
        assert_eq!((err.at, err.msg), (8, "invalid escape"));
        assert_outline_agrees("\"日本\\x\"");
    }

    #[test]
    fn megabyte_strings_round_trip() {
        // A scan that restarts at every character would need ~5e11 byte
        // checks here; the run scan needs one pass.
        let text = "é日x\n".repeat(150_000);
        assert!(text.len() >= 1 << 20);
        let doc = Json::obj(vec![("big", Json::str(text.as_str()))]);
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
        let outline = Json::outline(&rendered).unwrap();
        assert_eq!(outline.fields.len(), 1);
        assert_eq!(outline.fields[0].1.end, rendered.len() - 1);
    }

    #[test]
    fn outline_reports_the_top_level_layout() {
        let doc = r#"{"a":1,"b":[2,{"degraded":true}],"degraded":false,"c":"x"}"#;
        let outline = Json::outline(doc).unwrap();
        assert_eq!(outline.close, Some(doc.len() - 1));
        let fields: Vec<(&str, &str)> = outline
            .fields
            .iter()
            .map(|(k, range)| (k.as_str(), &doc[range.clone()]))
            .collect();
        assert_eq!(
            fields,
            [
                ("a", "1"),
                ("b", r#"[2,{"degraded":true}]"#),
                ("degraded", "false"),
                ("c", "\"x\""),
            ]
        );
        // Surrounding whitespace is outside the root; non-objects have no
        // closing brace or fields.
        let outline = Json::outline(" { \"k\" : null } \n").unwrap();
        assert_eq!(outline.close, Some(14));
        assert_eq!(outline.fields, [("k".to_string(), 9..13)]);
        assert_eq!(Json::outline("{}").unwrap().close, Some(1));
        let outline = Json::outline("[{\"a\":1}]").unwrap();
        assert_eq!((outline.close, outline.fields.len()), (None, 0));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        assert_outline_agrees(&deep);
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
        assert_outline_agrees(&ok);
    }

    #[test]
    fn escaped_and_control_characters_render_safely() {
        let j = Json::str("a\"b\\c\nd\u{1}e");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001e\"");
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_outline_agrees(&j.render());
    }
}
