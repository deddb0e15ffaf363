//! A tiny, dependency-free JSON writer and reader.
//!
//! Sibling crates use this to emit reports (`Registry::snapshot_json`,
//! the workload simulator's `--metrics-out` dump) without a serde
//! dependency. The writer tracks nesting and comma placement; keys are
//! written in the order given, so callers control determinism. The
//! matching [`parse`] function reads JSON back into a [`JsonValue`]
//! tree — it exists for the trace tooling (`xar trace`, the CI trace
//! checker, export round-trip tests), not as a general-purpose parser.
//!
//! ```
//! use xar_obs::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name");
//! w.string("xar");
//! w.key("values");
//! w.begin_array();
//! w.number_u64(1);
//! w.number_f64(2.5);
//! w.end_array();
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"xar","values":[1,2.5]}"#);
//! ```

/// Streaming JSON writer with automatic comma handling.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Per nesting level: whether a value has already been written at
    /// this level (so the next one needs a comma).
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self {
            buf: String::with_capacity(256),
            needs_comma: Vec::new(),
        }
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    /// Close `}`.
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    /// Open `[`.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    /// Close `]`.
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    /// Write an object key (call between `begin_object`/`end_object`,
    /// immediately before the value).
    pub fn key(&mut self, name: &str) {
        self.pre_value();
        write_escaped(&mut self.buf, name);
        self.buf.push(':');
        // The following value must not emit another comma.
        if let Some(top) = self.needs_comma.last_mut() {
            *top = false;
        }
    }

    /// Write a string value.
    pub fn string(&mut self, v: &str) {
        self.pre_value();
        write_escaped(&mut self.buf, v);
    }

    /// Write an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) {
        self.pre_value();
        self.buf.push_str(&v.to_string());
    }

    /// Write a signed integer value.
    pub fn number_i64(&mut self, v: i64) {
        self.pre_value();
        self.buf.push_str(&v.to_string());
    }

    /// Write a float value (non-finite values become `null`).
    pub fn number_f64(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Write a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.buf.push_str("null");
    }

    /// Splice pre-serialized JSON in as one value. The caller is
    /// responsible for `json` being a single well-formed JSON value
    /// (e.g. the output of another writer's `finish`).
    pub fn raw(&mut self, json: &str) {
        self.pre_value();
        self.buf.push_str(json);
    }

    /// Consume the writer, returning the JSON text.
    ///
    /// # Panics
    ///
    /// Panics if objects or arrays are still open.
    pub fn finish(self) -> String {
        assert!(self.needs_comma.is_empty(), "unbalanced JSON writer");
        self.buf
    }
}

/// Append `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as `u64` (if non-negative and integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one JSON document. Errors carry the byte offset and a short
/// description.
///
/// ```
/// use xar_obs::json::parse;
///
/// let v = parse(r#"{"a":[1,2.5,"x"],"b":null}"#).unwrap();
/// assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
/// assert_eq!(v.get("b"), Some(&xar_obs::json::JsonValue::Null));
/// ```
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        s.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for the
                            // trace tooling; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
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
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.number_u64(1);
        w.key("b");
        w.begin_object();
        w.key("c");
        w.begin_array();
        w.number_i64(-2);
        w.boolean(true);
        w.null();
        w.end_array();
        w.end_object();
        w.key("d");
        w.number_f64(0.5);
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":{"c":[-2,true,null]},"d":0.5}"#);
    }

    #[test]
    fn escapes() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number_f64(f64::NAN);
        w.number_f64(f64::INFINITY);
        w.number_f64(1.25);
        w.end_array();
        assert_eq!(w.finish(), "[null,null,1.25]");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("xar \"quoted\"\n");
        w.key("n");
        w.number_i64(-7);
        w.key("f");
        w.number_f64(2.5);
        w.key("arr");
        w.begin_array();
        w.boolean(false);
        w.null();
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("xar \"quoted\"\n"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-7.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            v.get("arr").unwrap().as_array(),
            Some(&[JsonValue::Bool(false), JsonValue::Null][..])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_handles_unicode_and_escapes() {
        let v = parse(r#"["café", "日本語"]"#).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_str(), Some("café"));
        assert_eq!(arr[1].as_str(), Some("日本語"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("4.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
