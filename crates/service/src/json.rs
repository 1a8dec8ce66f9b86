//! A minimal JSON encoder/decoder.
//!
//! The workspace builds with zero external dependencies, so the service
//! carries its own wire-format support: a byte-oriented recursive-descent
//! parser (with a nesting-depth bound — the input is untrusted) and a
//! compact serializer. Objects preserve insertion order, which keeps
//! responses byte-deterministic.
//!
//! Strings move by runs: the encoder copies each run of bytes between
//! escapes with one `push_str`, and the parser copies each run between
//! escapes as one slice. Both find the next `"`, `\` or control byte
//! with `special_at`, which tests eight bytes per step.
//!
//! Only what the protocol needs is implemented: no arbitrary-precision
//! numbers (values are `f64`, exact for integers up to 2^53 — far beyond
//! any counter a response carries as a number) and no pretty printing.

use std::fmt::{self, Write as _};

/// Maximum array/object nesting the parser accepts. Deeper input is a
/// [`JsonError`], not a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object members keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Num(f64),
    /// A string (always valid UTF-8 after decoding).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value from `input`, requiring it to consume the
    /// whole input (modulo trailing whitespace).
    pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { src: input, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing bytes after JSON value"));
        }
        Ok(v)
    }

    /// Compact serialization (no whitespace), deterministic for a given
    /// value since objects keep insertion order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact serialization of `self` to `out`.
    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => push_int(out, *n as i64),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object; `None` for other variants or missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Error from [`Json::parse`]: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), JsonError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", want as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.src[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let rest = &self.src[self.pos..];
            let run = special_at(rest);
            bytes.extend_from_slice(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => bytes.push(b'"'),
                        Some(b'\\') => bytes.push(b'\\'),
                        Some(b'/') => bytes.push(b'/'),
                        Some(b'b') => bytes.push(0x08),
                        Some(b'f') => bytes.push(0x0c),
                        Some(b'n') => bytes.push(b'\n'),
                        Some(b'r') => bytes.push(b'\r'),
                        Some(b't') => bytes.push(b'\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            let mut buf = [0u8; 4];
                            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            continue; // unicode_escape consumed its input
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
        String::from_utf8(bytes).map_err(|_| self.err("string is not valid UTF-8"))
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (and a low-surrogate
    /// continuation where required), leaving `pos` one past the consumed
    /// digits.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require `\uDC00`-range continuation.
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

impl fmt::Display for Json {
    /// [`Json::encode`], written in one piece.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// True for the bytes a JSON string cannot carry raw: `"`, `\` and the
/// control bytes below 0x20.
fn is_special(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The index of the first [`is_special`] byte of `bytes`, or its length.
///
/// Tests a word of eight bytes per step: `w - 0x01…01 & !w & 0x80…80`
/// flags the zero bytes of `w`, so XOR with a repeated byte flags its
/// copies, and subtracting `0x20…20` instead flags the bytes below 0x20.
/// A borrow can flag a byte above a true hit, never below one, so the
/// lowest flag of a little-endian load is the first special byte.
fn special_at(bytes: &[u8]) -> usize {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let below = |w: u64, n: u8| w.wrapping_sub(LOW * n as u64) & !w & HIGH;
    let mut i = 0;
    while let Some(word) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("an eight-byte slice"));
        let hits =
            below(w ^ (LOW * b'"' as u64), 1) | below(w ^ (LOW * b'\\' as u64), 1) | below(w, 0x20);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    let tail = &bytes[i..];
    i + tail
        .iter()
        .position(|&b| is_special(b))
        .unwrap_or(tail.len())
}

/// Appends `s` as a JSON string literal, copying each run between
/// escapes whole.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut rest = s;
    loop {
        let run = special_at(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&b) = rest.as_bytes().get(run) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        // The escaped byte is ASCII, so the rest starts on a boundary.
        rest = &rest[run + 1..];
    }
    out.push('"');
}

/// Appends `n` in decimal.
fn push_int(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut m = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        Json::parse(src.as_bytes()).unwrap().to_string()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip(" 42 "), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("-0"), "0");
        assert_eq!(roundtrip("1.5"), "1.5");
        assert_eq!(roundtrip("-0.25"), "-0.25");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("8999999999999999"), "8999999999999999");
        assert_eq!(roundtrip("9e15"), "9000000000000000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn parses_structures_preserving_order() {
        assert_eq!(
            roundtrip("{ \"b\" : [1, 2, {}], \"a\" : null }"),
            "{\"b\":[1,2,{}],\"a\":null}"
        );
        assert_eq!(roundtrip("[]"), "[]");
    }

    #[test]
    fn string_escapes_roundtrip() {
        assert_eq!(roundtrip(r#""a\"b\\c\nd\u0041""#), "\"a\\\"b\\\\c\\ndA\"");
        assert_eq!(roundtrip(r#""\ud83d\ude00""#), "\"😀\"");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1..2",
            "\"\\x\"",
            "\"unterminated",
            "\"\\ud800\"",
            "[1] trailing",
            "nan",
            "inf",
            "1e999",
        ] {
            assert!(Json::parse(bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
        // Raw invalid UTF-8 inside a string is an error, not a panic.
        assert!(Json::parse(b"\"\xff\xfe\"").is_err());
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(deep.as_bytes()).is_err());
    }

    /// The per-character escaper the run-based one replaced: every
    /// character through `write!`. The oracle for [`escape_into`].
    fn reference_escaped(s: &str) -> String {
        let mut f = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => f.push_str("\\\""),
                '\\' => f.push_str("\\\\"),
                '\n' => f.push_str("\\n"),
                '\r' => f.push_str("\\r"),
                '\t' => f.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32).unwrap(),
                c => write!(f, "{c}").unwrap(),
            }
        }
        f.push('"');
        f
    }

    /// Every character class the escaper and the scan tell apart: each
    /// control byte, `"`, `\`, DEL, plain ASCII, and 2-, 3- and 4-byte
    /// UTF-8.
    fn specials() -> Vec<char> {
        let mut out: Vec<char> = (0u8..0x20).map(char::from).collect();
        out.extend(['"', '\\', '\u{7f}', ' ', '~', 'é', '€', '😀']);
        out
    }

    /// `s` must encode as the reference does, and parse back to itself,
    /// as a string and as an object key.
    fn assert_codec(s: &str) {
        let encoded = Json::Str(s.to_string()).encode();
        assert_eq!(encoded, reference_escaped(s), "{s:?}");
        assert_eq!(
            Json::parse(encoded.as_bytes()),
            Ok(Json::Str(s.to_string()))
        );
        let obj = Json::Obj(vec![(s.to_string(), Json::Num(-12.0))]);
        assert_eq!(Json::parse(obj.encode().as_bytes()), Ok(obj));
    }

    #[test]
    fn encoder_matches_the_per_character_reference_at_every_word_offset() {
        // One special character at every offset of strings of 0..=17
        // filler bytes: offsets 0..=7 of the first and second word, and
        // the last byte.
        for special in specials() {
            for len in 0..=17 {
                for at in 0..=len {
                    let mut s: String = "abcdefghijklmnopq"[..len].to_string();
                    s.insert(at, special);
                    assert_codec(&s);
                }
            }
        }
        // Seeded mixes of specials and filler, runs of every length.
        let pool: Vec<char> = specials()
            .into_iter()
            .chain("plain ASCII".chars())
            .collect();
        let mut rng = arrayflow_workloads::Prng::seed_from_u64(26);
        for _ in 0..2_000 {
            let len = rng.below(40) as usize;
            let s: String = (0..len)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect();
            assert_codec(&s);
        }
    }

    #[test]
    fn word_scan_finds_the_first_special_byte() {
        // Bytes next to the thresholds, where a borrow between lanes
        // could flag the wrong byte.
        let pool = [
            0x00, 0x01, 0x1f, 0x20, 0x21, b'"', b'#', b'[', b'\\', b']', 0x7f, 0x80, 0xc3, 0xff,
        ];
        let mut rng = arrayflow_workloads::Prng::seed_from_u64(7);
        for _ in 0..20_000 {
            let len = rng.below(24) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect();
            let want = bytes.iter().position(|&b| is_special(b)).unwrap_or(len);
            assert_eq!(special_at(&bytes), want, "{bytes:02x?}");
        }
    }

    #[test]
    fn parse_checks_survive_the_word_scan() {
        // Each bad byte sits past the first word, after clean filler the
        // scan skips a word at a time; the error names its exact offset.
        let filler = "abcdefghijklmnop";
        for len in 0..=filler.len() {
            let head = format!("\"{}", &filler[..len]);
            let bad = |tail: &[u8]| {
                let mut input = head.clone().into_bytes();
                input.extend_from_slice(tail);
                Json::parse(&input).unwrap_err()
            };
            for control in 0u8..0x20 {
                let e = bad(&[control, b'"']);
                assert_eq!(e.pos, 1 + len, "control 0x{control:02x} after {len}");
                assert_eq!(e.message, "unescaped control character in string");
            }
            let e = bad(b"\\q\"");
            assert_eq!((e.pos, e.message.as_str()), (2 + len, "invalid escape"));
            let e = bad(b"\\ud800x\"");
            assert_eq!(e.message, "expected `\\`");
            let e = bad(b"\\udc00\"");
            assert_eq!(e.message, "unpaired surrogate");
            let e = bad(b"\xff\xfezz\"");
            assert_eq!(
                (e.pos, e.message.as_str()),
                (len + 6, "string is not valid UTF-8")
            );
            let e = bad(b"zz");
            assert_eq!(
                (e.pos, e.message.as_str()),
                (len + 3, "unterminated string")
            );
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(br#"{"id": 7, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
