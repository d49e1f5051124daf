//! A minimal JSON reader for workload trace files.
//!
//! The workspace deliberately has no serde (the build environment is
//! offline; see the vendored crates note in the root manifest), and the
//! only JSON the scheduler *reads* is the flat request-trace format of
//! [`crate::workload::requests_from_json`]. This parser covers exactly the
//! JSON value grammar — objects, arrays, strings with the standard
//! escapes, numbers, booleans, null — and nothing more (no comments, no
//! trailing commas, no NaN/Infinity).

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a deeply nested document
/// would overflow the stack instead of returning an error; the trace
/// format needs three levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), which is fine for the trace
    /// format: no key appears twice and order carries no meaning.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // `usize::MAX as f64` rounds up to `usize::MAX + 1`, which must
            // not saturate to `usize::MAX`.
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < usize::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", token as char, pos))
    }
}

/// Parse one value that sits `depth` arrays/objects deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected '{}' at byte {}", *c as char, pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let high = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate takes the low one escaped right
                        // after it: the UTF-16 pair is one scalar value.
                        let code = if (0xD800..0xDC00).contains(&high) {
                            let low = (bytes.get(*pos + 1..*pos + 3) == Some(b"\\u"))
                                .then(|| hex4(bytes, *pos + 3))
                                .transpose()?
                                .filter(|low| (0xDC00..0xE000).contains(low))
                                .ok_or(format!("\\u{high:04x} is an unpaired surrogate"))?;
                            *pos += 6;
                            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            high
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash, validated
                // once: both are ASCII, so a run never splits a character.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| *pos + run);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

/// The four hex digits at `at`, exactly: `from_str_radix` alone would
/// also take a leading `+`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .ok_or("bad \\u escape: want four hex digits")?;
    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_trace_shape() {
        let doc = r#"{
            "requests": [
                {"arrival": 0.0, "n": 12, "g": 2, "gpus": 1},
                {"arrival": 1.5e-3, "n": 10, "g": 0, "gpus": 4, "deadline": 0.25}
            ]
        }"#;
        let v = Json::parse(doc).unwrap();
        let reqs = v.get("requests").and_then(Json::as_array).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].get("n").and_then(Json::as_usize), Some(12));
        assert_eq!(reqs[1].get("arrival").and_then(Json::as_f64), Some(1.5e-3));
        assert_eq!(reqs[1].get("deadline").and_then(Json::as_f64), Some(0.25));
        assert_eq!(reqs[0].get("deadline"), None);
    }

    #[test]
    fn strings_escapes_and_scalars() {
        let v = Json::parse(r#"["a\"b\\c\nAü", true, false, null, -2.5]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\nAü"));
        assert_eq!(items[1], Json::Bool(true));
        assert_eq!(items[3], Json::Null);
        assert_eq!(items[4].as_f64(), Some(-2.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
        assert!(Json::parse("").is_err());
        // Nesting past the cap is an error, not a stack overflow.
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn as_usize_is_exact() {
        assert_eq!(Json::parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(Json::parse("3.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        let parse = |text: &str| Json::parse(text).map(|v| v.as_str().unwrap().to_string());
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(parse(r#""a\uD834\uDD1Eb""#).unwrap(), "a\u{1D11E}b");
        assert_eq!(parse(r#""\udbff\udfff""#).unwrap(), "\u{10FFFF}");
        for (text, escape) in [
            (r#""\ud83d""#, "ud83d"),        // lone high
            (r#""\ude00""#, "ude00"),        // lone low
            (r#""\ude00\ud83d""#, "ude00"),  // reversed
            (r#""\ud83dx\ude00""#, "ud83d"), // high, then not an escape
            (r#""\ud83d\n""#, "ud83d"),      // high, then another escape
            (r#""\ud83d\u0041""#, "ud83d"),  // high, then a non-surrogate
            (r#""\ud83d\ud83d""#, "ud83d"),  // high, then high
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(escape), "{text}: {err}");
        }
        assert!(parse(r#""\ud83d\ude0""#).unwrap_err().contains("four hex digits"));
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // Two-byte characters, an escape and one-byte characters: 1 MiB.
        let text = format!("[\"{}\\n{}\"]", "é".repeat(1 << 18), "x".repeat(1 << 19));
        let start = std::time::Instant::now();
        let doc = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
        let s = doc.as_array().unwrap()[0].as_str().unwrap();
        assert_eq!(s.len(), (1 << 20) + 1);
        assert_eq!(s.find('\n'), Some(1 << 19));
        assert!(s.starts_with('é') && s.ends_with('x'));
    }
}
