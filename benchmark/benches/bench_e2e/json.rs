//! The dependency-free JSON the benchmark speaks: a writer for result
//! lines / stamps / span files, and a small reader so the driver modes
//! can consume the result line of their one-workload child processes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (objects keep key order irrelevant: `BTreeMap`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite number with all its digits (`{}` on f64 round-trips);
/// non-finite values, which JSON cannot carry, become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a flat object of string fields — the host stamp and one span.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", ch as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Value::Obj(map));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Value::Arr(items));
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("invalid token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let ch = chars.next().ok_or("unterminated string")?;
            self.pos += ch.len_utf8();
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.next().ok_or("unterminated escape")?;
                    self.pos += esc.len_utf8();
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_keeps_digits() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(number(1.2034567891234567), "1.2034567891234567");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(
            object(&[("k", string("v")), ("n", number(2.5))]),
            "{\"k\": \"v\", \"n\": 2.5}"
        );
    }

    #[test]
    fn reader_round_trips_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "x": {"value": -1.5e-3, "unit": "1/s"}}, "list": [1, "tA\n", null]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            m.get("x")
                .and_then(|s| s.get("unit"))
                .and_then(Value::as_str),
            Some("1/s")
        );
        assert_eq!(
            v.get("list"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Str("tA\n".into()),
                Value::Null
            ]))
        );
    }

    #[test]
    fn reader_rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
    }
}
