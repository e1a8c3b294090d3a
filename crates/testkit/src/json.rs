//! A small JSON value type with an exact-round-trip serializer and a
//! recursive-descent parser — the workspace's replacement for
//! `serde`/`serde_json`.
//!
//! Design points that matter to the stack:
//!
//! * **Numbers are `f64`** and are written with Rust's shortest-round-trip
//!   `Display`, so every finite `f64` (and therefore every `f32` widened to
//!   `f64`, which is exact) survives a write→parse cycle bit-for-bit. The
//!   determinism regression test compares checkpoint *bytes*, which this
//!   serializer keeps stable.
//! * **Objects preserve insertion order** (`Vec<(String, Json)>`, not a
//!   map), so serialization is deterministic and checkpoints diff cleanly.
//! * Non-finite floats serialize as `null`, matching `serde_json`.
//! * **Hex words** ([`Json::hex_words`]) spell a whole numeric payload as
//!   one string: each element's little-endian bytes, two lowercase hex
//!   digits per byte. Artifacts store every tensor and sparse payload this
//!   way, so NaN payloads survive and a reader decodes one string instead
//!   of parsing one number node per element.

use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number below
    /// 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64 itself, which must not
            // saturate to `u64::MAX`.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `usize`, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an array of numbers from `f32`s (each widened exactly).
    pub fn from_f32s<I: IntoIterator<Item = f32>>(values: I) -> Json {
        Json::Arr(values.into_iter().map(|v| Json::Num(v as f64)).collect())
    }

    /// Interpret an array of numbers as `f32`s (narrowing each element).
    pub fn to_f32s(&self) -> Option<Vec<f32>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|n| n as f32))
            .collect()
    }

    /// A string of hex words: every element's four little-endian bytes,
    /// two lowercase hex digits per byte, so 8 digits per word.
    pub fn hex_words(words: impl IntoIterator<Item = [u8; 4]>) -> Json {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let words = words.into_iter();
        let mut out = String::with_capacity(words.size_hint().0 * 8);
        for word in words {
            for b in word {
                out.push(DIGITS[(b >> 4) as usize] as char);
                out.push(DIGITS[(b & 0xf) as usize] as char);
            }
        }
        Json::Str(out)
    }

    /// Decode a [`Json::hex_words`] string, building each element from its
    /// four little-endian bytes with `from_le`. `None` unless this is a
    /// string of whole 8-digit words in lowercase hex digits.
    pub fn to_hex_words<T>(&self, from_le: impl Fn([u8; 4]) -> T) -> Option<Vec<T>> {
        let (groups, rest) = self.as_str()?.as_bytes().as_chunks::<8>();
        if !rest.is_empty() {
            return None;
        }
        let mut valid = true;
        let words = groups
            .iter()
            .map(|&digits| {
                let (word, ok) = decode_hex_word(digits);
                valid &= ok;
                from_le(word)
            })
            .collect();
        valid.then_some(words)
    }

    /// Append the compact form to `out`, handing `out` to `f` whenever it
    /// has grown past [`CHUNK`] bytes.
    fn write(&self, out: &mut String, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if out.len() >= CHUNK {
            f.write_str(out)?;
            out.clear();
        }
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, f)?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out, f)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// anything else after the value is an error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Bytes [`Json`]'s `Display` buffers between formatter writes.
const CHUNK: usize = 1 << 16;

/// `0x01` in every byte of a `u64`.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte of a `u64`.
const HIGHS: u64 = ONES * 0x80;

/// Decode 8 hex digits into 4 bytes, two digits per byte, all eight at once
/// in one `u64`. The flag is false unless every digit is lowercase hex.
/// Inlined into [`Json::to_hex_words`].
#[inline]
fn decode_hex_word(digits: [u8; 8]) -> ([u8; 4], bool) {
    let x = u64::from_le_bytes(digits);
    // While every byte is below 0x80, adding `0x80 - c` sets a byte's high
    // bit exactly when the byte is at least `c`, with no carry between
    // bytes.
    let at_least = |c: u8| x.wrapping_add(ONES * (0x80 - c as u64)) & HIGHS;
    let digit = at_least(b'0') & !at_least(b'9' + 1);
    let letter = at_least(b'a') & !at_least(b'f' + 1);
    // A digit's value is its low nibble, a letter's its low nibble + 9.
    let nibbles = (x & (ONES * 0xf)) + (letter >> 7) * 9;
    // Join each even nibble (high) with the odd one after it (low), then
    // pack the four bytes at even positions together.
    let bytes = ((nibbles << 4) | (nibbles >> 8)) & 0x00ff_00ff_00ff_00ff;
    let bytes = (bytes | (bytes >> 8)) & 0x0000_ffff_0000_ffff;
    let bytes = (bytes | (bytes >> 16)) as u32;
    (bytes.to_le_bytes(), x & HIGHS == 0 && digit | letter == HIGHS)
}

/// Offset of the first `"` or `\` in `bytes`, eight bytes at a time.
fn quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    // A byte of `x ^ (ONES * c)` is zero where `x` holds `c`. The zero-byte
    // test may also flag bytes above a zero byte, never below, so its
    // lowest flag is the first match.
    let zeros = |y: u64| y.wrapping_sub(ONES) & !y & HIGHS;
    let mut chunks = bytes.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let found = zeros(x ^ (ONES * b'"' as u64)) | zeros(x ^ (ONES * b'\\' as u64));
        if found != 0 {
            return Some(8 * i + found.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - chunks.remainder().len();
    chunks.remainder().iter().position(|&b| b == b'"' || b == b'\\').map(|p| tail + p)
}

/// Compact serialization (`to_string` is the whole document). Tokens are
/// pushed onto a `String` buffer that reaches the formatter a chunk at a
/// time, not one formatter call per token.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f)?;
        f.write_str(&out)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The i64 fast path below would drop the sign of -0.0.
        out.push_str("-0.0");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        // Integral and exactly representable: write without the ".0" so
        // counts/indices look like integers.
        fmt::Write::write_fmt(out, format_args!("{}", n as i64)).unwrap();
    } else {
        // Rust's shortest-round-trip float formatting.
        fmt::Write::write_fmt(out, format_args!("{n}")).unwrap();
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Runs of bytes that need no escape are copied whole. Every escaped
    // byte is ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => fmt::Write::write_fmt(out, format_args!("\\u{b:04x}")).unwrap(),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        };
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // are ASCII, so the run ends on a char boundary of the input.
            let Some(run) = quote_or_backslash(&self.bytes[self.pos..]) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            // A backslash: decode one escape.
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{08}'),
                Some(b'f') => out.push('\u{0c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    self.pos += 1;
                    let cp = self.hex4()?;
                    // Surrogate pairs: a high surrogate must be
                    // followed by \uXXXX low surrogate.
                    let c = if (0xD800..0xDC00).contains(&cp) {
                        if self.bytes[self.pos..].starts_with(b"\\u") {
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined =
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            return Err(self.err("unpaired high surrogate"));
                        }
                    } else if (0xDC00..0xE000).contains(&cp) {
                        return Err(self.err("unpaired low surrogate"));
                    } else {
                        char::from_u32(cp)
                    };
                    match c {
                        Some(c) => out.push(c),
                        None => return Err(self.err("invalid unicode escape")),
                    }
                    // hex4 leaves pos one past the digits; undo the
                    // unconditional advance below.
                    self.pos -= 1;
                }
                _ => return Err(self.err("invalid escape")),
            }
            self.pos += 1;
        }
    }

    /// Four hex digits starting at `pos`; leaves `pos` after them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos = end;
        Ok(v)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(j: &Json) -> Json {
        Json::parse(&j.to_string()).expect("round trip parse")
    }

    #[test]
    fn scalars_round_trip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.5),
            Json::Num(1e300),
            Json::Str("hello".into()),
            Json::Str("esc \" \\ \n \t ünïcode 🎉".into()),
        ] {
            assert_eq!(round_trip(&j), j, "{j:?}");
        }
    }

    #[test]
    // The long literals are the f32 bit patterns under test, spelled out.
    #[allow(clippy::excessive_precision)]
    fn every_f32_bit_pattern_we_care_about_round_trips() {
        // Awkward f32s: subnormals, ulp-neighbors, repeating decimals.
        let values = [
            0.1f32,
            -0.0f32,
            -0.30000001f32,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 8.0,
            1.0 + f32::EPSILON,
            3.4028235e38f32,
            -1.1754944e-38f32,
            1.0 / 3.0,
        ];
        let j = Json::from_f32s(values);
        let back = round_trip(&j).to_f32s().unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn f64_shortest_display_round_trips() {
        let mut rng = crate::rng::Rng::seed_from_u64(0);
        for _ in 0..2000 {
            let v = f64::from_bits(rng.next_u64());
            if !v.is_finite() {
                continue;
            }
            let s = Json::Num(v).to_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} via '{s}'");
        }
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let j = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Str("v".into()))])),
        ]);
        let s = j.to_string();
        assert_eq!(s, r#"{"z":1,"a":[null,true],"nested":{"k":"v"}}"#);
        assert_eq!(round_trip(&j), j);
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1.5, 2]}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("a").unwrap().to_f32s().unwrap(), vec![1.5, 2.0]);
        assert!(j.get("missing").is_none());
        assert!(j.get("s").unwrap().as_f64().is_none());
    }

    #[test]
    fn as_u64_rejects_values_from_two_to_the_64() {
        let two_64 = 2f64.powi(64);
        assert_eq!(Json::Num(two_64).as_u64(), None);
        assert_eq!(Json::Num(two_64 * 2.0).as_u64(), None);
        // The largest f64 below 2^64 and 2^63 are exact u64s.
        let below = f64::from_bits(two_64.to_bits() - 1);
        assert_eq!(Json::Num(below).as_u64(), Some(below as u64));
        assert_eq!(Json::Num(2f64.powi(63)).as_u64(), Some(1 << 63));
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let j = Json::parse(" \n\t{ \"k\" : [ 1 , -2.5e-3, \"\\u0041\\u00e9\\ud83c\\udf89\" ] } ").unwrap();
        let arr = j.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5e-3));
        assert_eq!(arr[2].as_str(), Some("Aé🎉"));
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "[1] extra", "nul"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "{bad}: {e}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn hex_words_round_trip_every_bit_pattern() {
        let mut rng = crate::rng::Rng::seed_from_u64(3);
        let mut bits: Vec<u32> = (0..4000).map(|_| rng.next_u64() as u32).collect();
        // NaN payloads of both signs, ±0, ±inf, subnormals, extremes.
        bits.extend([
            0x7fc0_0000, 0xffc0_0001, 0x7f80_0001, 0xff80_1234, 0x0000_0000, 0x8000_0000,
            0x7f80_0000, 0xff80_0000, 0x0000_0001, 0x807f_ffff, 0x7f7f_ffff, u32::MAX,
        ]);
        let f32s = Json::hex_words(bits.iter().map(|&b| f32::from_bits(b).to_le_bytes()));
        let text = f32s.to_string();
        assert_eq!(text.len(), 2 + 8 * bits.len());
        assert!(text[1..text.len() - 1].bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        let back = Json::parse(&text).unwrap().to_hex_words(f32::from_le_bytes).unwrap();
        assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
        let words = Json::hex_words(bits.iter().map(|b| b.to_le_bytes()));
        assert_eq!(round_trip(&words).to_hex_words(u32::from_le_bytes).unwrap(), bits);
        // Little-endian bytes, in order.
        assert_eq!(Json::hex_words([0x1234_abcdu32.to_le_bytes()]), Json::Str("cdab3412".into()));
        assert_eq!(Json::hex_words([[0u8; 4]; 0]), Json::Str(String::new()));
        assert_eq!(Json::Str(String::new()).to_hex_words(u32::from_le_bytes), Some(Vec::new()));
    }

    #[test]
    fn hex_words_refuse_anything_but_whole_lowercase_words() {
        let decode = |j: &Json| j.to_hex_words(u32::from_le_bytes);
        assert_eq!(decode(&Json::Str("cdab3412".into())), Some(vec![0x1234_abcd]));
        for bad in ["cdab341", "cdab34120", "CDAB3412", "cdab341g", "cdab 341", "cdab34-2", "cdab34é"] {
            assert_eq!(decode(&Json::Str(bad.into())), None, "{bad}");
        }
        assert_eq!(decode(&Json::Arr(vec![Json::Num(1.0)])), None);
        assert_eq!(decode(&Json::Num(1.0)), None);
    }

    #[test]
    fn every_byte_at_every_digit_position_decodes_or_is_refused() {
        let value = |c: u8| "0123456789abcdef".find(c as char).map(|v| v as u8);
        for at in 0..8 {
            for c in 0..=255u8 {
                let mut digits = *b"3f7a0c9e";
                digits[at] = c;
                let (out, valid) = decode_hex_word(digits);
                assert_eq!(valid, value(c).is_some(), "{c:#04x} at {at}");
                if valid {
                    let want: Vec<u8> = digits
                        .chunks(2)
                        .map(|p| (value(p[0]).unwrap() << 4) | value(p[1]).unwrap())
                        .collect();
                    assert_eq!(out.to_vec(), want, "{c:#04x} at {at}");
                }
            }
        }
    }

    #[test]
    fn the_quote_scan_finds_the_first_quote_or_backslash() {
        let mut rng = crate::rng::Rng::seed_from_u64(11);
        for _ in 0..3000 {
            // Mostly plain bytes (multi-byte UTF-8 included), sometimes a
            // quote or a backslash, at every offset of the 8-byte words.
            let bytes: Vec<u8> = (0..rng.index(40))
                .map(|_| match rng.index(24) {
                    0 => b'"',
                    1 => b'\\',
                    2 => 0x22 ^ 0x80,
                    3 => 0x5c ^ 0x01,
                    _ => rng.next_u64() as u8,
                })
                .collect();
            let want = bytes.iter().position(|&b| b == b'"' || b == b'\\');
            assert_eq!(quote_or_backslash(&bytes), want, "{bytes:?}");
        }
    }

    /// The parser before runs were copied whole: one char at a time.
    fn char_by_char(body: &str) -> String {
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().unwrap() {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{08}'),
                'f' => out.push('\u{0c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let cp = u32::from_str_radix(&hex, 16).unwrap();
                    if (0xD800..0xDC00).contains(&cp) {
                        let lo: String = chars.by_ref().skip(2).take(4).collect();
                        let lo = u32::from_str_radix(&lo, 16).unwrap();
                        out.push(char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)).unwrap());
                    } else {
                        out.push(char::from_u32(cp).unwrap());
                    }
                }
                c => out.push(c), // '"', '\\', '/'
            }
        }
        out
    }

    #[test]
    fn a_long_string_parses_as_char_by_char() {
        let mut rng = crate::rng::Rng::seed_from_u64(5);
        let pieces = [
            "a", "hex0", "é", "ünï", "🎉", "中文", "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\r", "\\b",
            "\\f", "\\u0041", "\\u00e9", "\\ud83c\\udf89", "\\u0001",
        ];
        let mut body = String::new();
        while body.len() < (1 << 20) + 7 {
            // Runs of random length, so escapes and multi-byte scalars land
            // at both ends of the copied runs.
            let piece = pieces[rng.index(pieces.len())];
            for _ in 0..1 + rng.index(3) {
                body.push_str(piece);
            }
        }
        let parsed = Json::parse(&format!("\"{body}\"")).unwrap();
        let expected = char_by_char(&body);
        assert_eq!(parsed.as_str(), Some(expected.as_str()));
        // The writer copies runs too; its output parses back to the value.
        assert_eq!(round_trip(&parsed), parsed);
        // A run that reaches the end of the input is unterminated.
        let open = format!("\"{body}");
        let e = Json::parse(&open).unwrap_err();
        assert_eq!(e.offset, open.len(), "{e}");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let s = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&s).is_err());
    }
}
