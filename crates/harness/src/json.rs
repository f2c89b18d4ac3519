//! A minimal, dependency-free JSON reader/writer for the phase-1
//! artifact format.
//!
//! The interchange artifacts ([`crate::wire`]) must be producible and
//! consumable in hermetic build environments, so the harness carries its
//! own JSON implementation instead of an external crate. The subset is
//! complete for the artifact schema: objects (insertion-ordered), arrays,
//! strings (full escape handling including `\uXXXX`), booleans, null,
//! unsigned integers and finite floats. The writer emits the same compact
//! form serde_json produced for the seed artifacts (no whitespace, `{:?}`
//! shortest-roundtrip floats), so artifacts remain byte-stable across the
//! switch.

use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the artifact schema has no negatives).
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Require a key in an object.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {}", other.kind_name())),
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {}", other.kind_name())),
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::UInt(v) => Ok(*v),
            other => Err(format!("expected integer, got {}", other.kind_name())),
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Float(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            other => Err(format!("expected number, got {}", other.kind_name())),
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(format!("expected array, got {}", other.kind_name())),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Serialize into `out` (compact form) without intermediate
    /// allocations — the hot path for journal appends.
    pub fn write_into(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                // `{:?}` prints the shortest string that round-trips the
                // f64 — the same contract serde_json's float writer gives.
                // Non-finite values have no JSON form; clamp to null.
                if v.is_finite() {
                    let s = format!("{v:?}");
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Serializes to the compact interchange form (via `to_string`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Append `s` to `out` as a JSON string literal.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Bulk-copy maximal spans that need no escaping (the overwhelmingly
    // common case — ids, bitstrings, hex) instead of pushing char by char.
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                0x8 => out.push_str("\\b"),
                0xc => out.push_str("\\f"),
                _ => out.push_str(&format!("\\u{:04x}", b as u32)),
            }
            start = i + 1;
        }
        i += 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    parse_with(input, |p| p.value(0))
}

/// Read the document `input` with `read`, which starts at its first
/// value; anything but whitespace after what `read` consumed is an error.
/// The artifact reader streams through this instead of building a tree.
pub(crate) fn parse_with<'a, T>(
    input: &'a str,
    read: impl FnOnce(&mut Parser<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        scratch: String::new(),
    };
    p.skip_ws();
    let v = read(&mut p)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

/// Maximum nesting depth; the artifact schema needs 7.
const MAX_DEPTH: usize = 64;

/// The tokenizer over one JSON document. [`Parser::value`] builds a
/// [`Json`] tree; [`Parser::object_with`] and [`Parser::array_with`] hand
/// each member to a callback instead, so a reader can decode straight
/// into its own types.
pub(crate) struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Unescaped text of the last string [`Parser::str`] read.
    scratch: String,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    /// The value at the cursor as a tree, `depth` containers deep.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The error for a value that is not a `want`: names what it is
    /// instead, as [`Json`]'s accessors do.
    fn mistyped(&mut self, want: &str, depth: usize) -> String {
        match self.value(depth) {
            Ok(v) => format!("expected {want}, got {}", v.kind_name()),
            Err(e) => e,
        }
    }

    /// The string at the cursor: a slice of the input, or of one reused
    /// buffer if it holds escapes, so reading it allocates nothing.
    pub(crate) fn str(&mut self, depth: usize) -> Result<&str, String> {
        if self.peek() != Some(b'"') {
            return Err(self.mistyped("string", depth));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let borrowed = self.string_into(&mut scratch)?;
        self.scratch = scratch;
        Ok(borrowed.unwrap_or(&self.scratch))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Read the object at the cursor, calling `member` with each key and
    /// the cursor on its value; `member` must consume the value.
    pub(crate) fn object_with(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() != Some(b'{') {
            return Err(self.mistyped("object", depth));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    /// Read the array at the cursor, calling `item` with the cursor on
    /// each element; `item` must consume the element.
    pub(crate) fn array_with(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() != Some(b'[') {
            return Err(self.mistyped("array", depth));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let mut pairs = Vec::new();
        self.object_with(depth, |p, key| {
            pairs.push((key.to_string(), p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Object(pairs))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        let mut items = Vec::new();
        self.array_with(depth, |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let mut out = String::new();
        Ok(match self.string_into(&mut out)? {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(out),
        })
    }

    /// Read the string at the cursor: borrowed from the input if it has
    /// no escapes, otherwise unescaped into `out` (which must be empty)
    /// and `None`.
    fn string_into(&mut self, out: &mut String) -> Result<Option<&'a str>, String> {
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            // Bulk-copy the maximal span needing no unescaping — the
            // overwhelmingly common case. The input is a &str (valid
            // UTF-8 by construction) and spans begin and end at ASCII
            // delimiters, so byte indexes are always char boundaries;
            // non-ASCII bytes pass through untouched.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                if b < 0x20 {
                    return Err("unescaped control character in string".into());
                }
                self.pos += 1;
            }
            let span = &self.input[start..self.pos];
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    if !escaped {
                        return Ok(Some(span));
                    }
                    out.push_str(span);
                    return Ok(None);
                }
                Some(_) => {
                    escaped = true;
                    out.push_str(span);
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err("expected low surrogate".into());
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    out.push(char::from_u32(c).ok_or("invalid surrogate pair")?);
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else if (0xdc00..0xe000).contains(&cp) {
                                return Err("lone low surrogate".into());
                            } else {
                                out.push(char::from_u32(cp).ok_or("invalid code point")?);
                            }
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("invalid number at offset {start}"));
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}'"))?;
        if !v.is_finite() {
            return Err(format!("number '{text}' out of range"));
        }
        Ok(Json::Float(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Json::Object(vec![
            ("a".into(), Json::UInt(3)),
            ("b".into(), Json::Str("x\"y\\z\n".into())),
            (
                "c".into(),
                Json::Array(vec![Json::Bool(true), Json::Float(26.2), Json::Null]),
            ),
        ]);
        let s = v.to_string();
        assert_eq!(
            s,
            "{\"a\":3,\"b\":\"x\\\"y\\\\z\\n\",\"c\":[true,26.2,null]}"
        );
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn float_shortest_roundtrip() {
        for f in [0.0, 19.3, 26.2, 1.0 / 3.0, 1e-9, 123456789.125] {
            let s = Json::Float(f).to_string();
            match parse(&s).unwrap() {
                Json::Float(g) => assert_eq!(f, g, "{s}"),
                Json::UInt(g) => assert_eq!(f, g as f64, "{s}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("Aé😀".into())
        );
        assert!(parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"\u{1}\"").is_err());
        assert!(parse("1e999").is_err());
    }

    #[test]
    fn negative_numbers_parse_as_float() {
        assert_eq!(parse("-3").unwrap(), Json::Float(-3.0));
    }

    #[test]
    fn deep_nesting_bounded() {
        let s = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&s).is_err());
        let s = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&s).is_ok());
    }
}
