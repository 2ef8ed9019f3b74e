//! A dependency-free JSON subset for the line protocol.
//!
//! The build environment is offline (no `serde`), and the protocol needs
//! only flat objects, arrays, numbers, strings and booleans — so this is
//! a small, strict recursive-descent parser plus an escaping writer,
//! in the spirit of the repo's other hand-rolled JSON emitters
//! (`bench_report`). Numbers are parsed as `f64`, which is exact for
//! every quantity the protocol carries (tick counts are far below 2⁵³).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: last wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for non-objects and missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => finite(v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        exact_u64(self.as_f64()?)
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

fn exact_u64(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53)).then_some(v as u64)
}

/// One top-level member value as [`scan_object`] hands it out: numbers
/// and strings without a DOM (a string borrows from the input unless it
/// holds escapes), every other value as a parsed [`Json`].
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Field<'a> {
    /// A JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(Cow<'a, str>),
    /// `null`, a boolean, an array or an object.
    Value(Json),
}

impl Field<'_> {
    /// The value as a finite `f64` (as [`Json::as_f64`]).
    #[must_use]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match *self {
            Field::Num(v) => finite(v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (as [`Json::as_u64`]).
    #[must_use]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        exact_u64(self.as_f64()?)
    }

    /// The value as a string slice.
    #[must_use]
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an owned [`Json`] tree.
    #[must_use]
    pub(crate) fn into_json(self) -> Json {
        match self {
            Field::Num(v) => Json::Num(v),
            Field::Str(s) => Json::Str(s.into_owned()),
            Field::Value(value) => value,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = p.value()?;
    p.finish()?;
    Ok(value)
}

/// Validates one JSON document exactly like [`parse`] and hands each
/// member of a top-level object to `member`, in source order (so a
/// caller that keeps the last value of a key gets [`Json::get`]'s
/// "last duplicate wins"). Flat members cost no allocation; see
/// [`Field`]. Any other top-level document has no members.
///
/// # Errors
///
/// As for [`parse`], with the same messages and byte offsets.
pub(crate) fn scan_object<'a>(
    input: &'a str,
    mut member: impl FnMut(Cow<'a, str>, Field<'a>),
) -> Result<(), String> {
    let mut p = Parser::new(input);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.members(&mut member)?;
    } else {
        p.value()?;
    }
    p.finish()
}

/// Nesting depth cap — the protocol needs 3; this guards the stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
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

    /// The end of a document: trailing whitespace, then nothing.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(&mut |key: Cow<'a, str>, value: Field<'a>| {
                    fields.push((key.into_owned(), value.into_json()));
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// One object, member by member: the single object loop behind both
    /// the DOM ([`Parser::value`]) and [`scan_object`].
    fn members(&mut self, member: &mut impl FnMut(Cow<'a, str>, Field<'a>)) -> Result<(), String> {
        self.expect(b'{')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.field()?;
            member(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// One member value: [`Parser::value`] without a DOM node for
    /// numbers and strings.
    fn field(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            _ if self.depth >= MAX_DEPTH => self.value().map(Field::Value),
            Some(b'"') => Ok(Field::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => Ok(Field::Num(self.number()?)),
            _ => self.value().map(Field::Value),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A string literal: borrowed from the input up to the first escape,
    /// decoded into an owned copy from there on.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let text = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(text));
                }
                Some(b'\\') => break,
                Some(byte) if byte < 0x20 => return Err("control byte in string".into()),
                // Continuation bytes of a UTF-8 scalar are ≥ 0x80, so
                // this stops only on ASCII, i.e. on char boundaries.
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogates are not paired here — the
                            // protocol never emits them; reject rather
                            // than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("invalid escape '\\{}'", char::from(other))),
                    }
                }
                Some(byte) if byte < 0x20 => return Err("control byte in string".into()),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is
                    // always on a char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Renders a [`Json`] value back to its compact text form. Integral
/// numbers (within the codec's exact-`f64` range) are written without a
/// fractional part, so tick counts survive a parse→render round trip
/// byte-identically — which is what lets hand-off tooling re-emit a
/// parsed `export` payload as an `import` line without re-encoding.
#[must_use]
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Appends a [`Json`] value's compact text form to `out` (see [`render`]).
pub fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => {
            if !v.is_finite() {
                // The parser can produce Num(inf) from an overflowing
                // literal like 1e999 (the accessors reject it, but the
                // tree holds it); Display would write "inf", which no
                // JSON parser accepts. Emit null — the standard
                // stringify behavior — so render output always reparses.
                out.push_str("null");
            } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                let _ = write!(out, "{}", *v as i64);
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Appends `text` to `out` as a JSON string literal (quoted, escaped).
pub fn write_escaped(out: &mut String, text: &str) {
    escape(text, |piece| out.push_str(piece));
}

/// [`write_escaped`] into a byte buffer (the response renderer's sink).
pub(crate) fn write_escaped_bytes(out: &mut Vec<u8>, text: &str) {
    escape(text, |piece| out.extend_from_slice(piece.as_bytes()));
}

/// Emits `text` as a quoted JSON string literal, piece by piece: runs of
/// bytes that need no escape pass through as one slice.
fn escape(text: &str, mut put: impl FnMut(&str)) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    put("\"");
    let mut run = 0;
    for (i, &byte) in text.as_bytes().iter().enumerate() {
        let control;
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            byte if byte < 0x20 => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(byte >> 4)],
                    HEX[usize::from(byte & 0xf)],
                ];
                std::str::from_utf8(&control).expect("ASCII escape")
            }
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` is on char boundaries.
        put(&text[run..i]);
        put(escaped);
        run = i + 1;
    }
    put(&text[run..]);
    put("\"");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let line = r#"{"op":"register","tenant":3,"cores":2,"rt":[{"wcet_ms":240,"period_ms":500,"core":0}]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("register"));
        assert_eq!(v.get("tenant").and_then(Json::as_u64), Some(3));
        let rt = v.get("rt").and_then(Json::as_array).unwrap();
        assert_eq!(rt[0].get("wcet_ms").and_then(Json::as_f64), Some(240.0));
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            parse(r#"[1, [2, []], {"a": false}]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0), Json::Arr(vec![])]),
                Json::Obj(vec![("a".into(), Json::Bool(false))]),
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}"));
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nan",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn u64_conversion_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn render_round_trips_protocol_documents() {
        for text in [
            "null",
            "true",
            "[1,[2,[]],{\"a\":false}]",
            "{\"op\":\"register\",\"tenant\":3,\"cores\":2,\
             \"rt\":[{\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0}]}",
            "{\"fingerprint\":\"00f0dcafe0000000\",\"periods_ms\":[7582,2783.5]}",
            "{\"reason\":\"a \\\"quoted\\\" reason\\n\"}",
        ] {
            let value = parse(text).unwrap();
            assert_eq!(render(&value), text, "render must invert parse");
            assert_eq!(parse(&render(&value)).unwrap(), value);
        }
        // Large-but-exact tick counts stay integral.
        assert_eq!(
            render(&parse("900000000000000").unwrap()),
            "900000000000000"
        );
        // An overflowing literal parses to Num(inf); render must still
        // emit valid JSON (null, the standard stringify behavior), so
        // render output always reparses.
        let overflow = parse("[1e999,2]").unwrap();
        assert_eq!(render(&overflow), "[null,2]");
        assert!(parse(&render(&overflow)).is_ok());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    /// Flat members come out without a DOM: unescaped strings (keys
    /// included) borrow from the input, numbers are plain `f64`s.
    #[test]
    fn scan_object_borrows_flat_members() {
        let mut seen = Vec::new();
        scan_object(
            r#"{"op":"mode","n":-1.5,"e":"a\nb","x":[1]}"#,
            |key, value| {
                seen.push((key, value));
            },
        )
        .unwrap();
        assert!(matches!(
            &seen[0],
            (Cow::Borrowed("op"), Field::Str(Cow::Borrowed("mode")))
        ));
        assert_eq!(seen[1].1, Field::Num(-1.5));
        assert!(matches!(&seen[2].1, Field::Str(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(seen[3].1, Field::Value(Json::Arr(vec![Json::Num(1.0)])));
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn depth_limit_guards_the_stack() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
