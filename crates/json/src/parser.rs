//! Recursive-descent JSON parser with byte-span tracking.

use crate::{Key, Number, Span, ValueKind, ValueNode};
use std::fmt;

/// Options controlling [`parse_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct ParseOptions {
    /// Maximum nesting depth; exceeding it is a parse error rather than a
    /// stack overflow. The paper's deepest dataset (a clang AST) has depth
    /// around 100; the default of 2048 leaves ample headroom.
    pub max_depth: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { max_depth: 2048 }
    }
}

/// Error produced when parsing fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document with default options.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or
/// excessive nesting.
///
/// # Examples
///
/// ```
/// let doc = rsq_json::parse(b"[1, 2, 3]")?;
/// assert_eq!(doc.children().count(), 3);
/// # Ok::<(), rsq_json::ParseError>(())
/// ```
pub fn parse(input: &[u8]) -> Result<ValueNode, ParseError> {
    parse_with_options(input, ParseOptions::default())
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or nesting
/// deeper than [`ParseOptions::max_depth`].
pub fn parse_with_options(input: &[u8], options: ParseOptions) -> Result<ValueNode, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        options,
    };
    p.skip_whitespace();
    let value = p.parse_value(1)?;
    p.skip_whitespace();
    if p.pos != p.input.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    options: ParseOptions,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<ValueNode, ParseError> {
        if depth > self.options.max_depth {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        let start = self.pos;
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.parse_object(depth, start),
            Some(b'[') => self.parse_array(depth, start),
            Some(b'"') => {
                let raw = self.parse_string_raw()?;
                Ok(ValueNode {
                    kind: ValueKind::String(raw),
                    span: Span {
                        start,
                        end: self.pos,
                    },
                })
            }
            Some(b't') => self.parse_literal(b"true", ValueKind::Bool(true), start),
            Some(b'f') => self.parse_literal(b"false", ValueKind::Bool(false), start),
            Some(b'n') => self.parse_literal(b"null", ValueKind::Null, start),
            Some(b'-' | b'0'..=b'9') => self.parse_number(start),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
        }
    }

    fn parse_literal(
        &mut self,
        text: &'static [u8],
        kind: ValueKind,
        start: usize,
    ) -> Result<ValueNode, ParseError> {
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(ValueNode {
                kind,
                span: Span {
                    start,
                    end: self.pos,
                },
            })
        } else {
            #[expect(
                clippy::expect_used,
                reason = "JSON literal names (true/false/null) are ASCII"
            )]
            Err(self.error(format!(
                "invalid literal (expected {})",
                std::str::from_utf8(text).expect("literal is ASCII")
            )))
        }
    }

    /// Parses a quoted string token, returning the raw (undecoded) content
    /// between the quotes. Validates escape structure and that the bytes
    /// form valid UTF-8, but leaves escapes in place.
    fn parse_string_raw(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let content_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.error("invalid \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
        let raw = std::str::from_utf8(&self.input[content_start..self.pos])
            .map_err(|_| self.error("string is not valid UTF-8"))?
            .to_owned();
        self.expect_byte(b'"')?;
        Ok(raw)
    }

    fn parse_number(&mut self, start: usize) -> Result<ValueNode, ParseError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        // fraction
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // exponent
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "every byte was range-checked as an ASCII digit/sign/dot/exponent"
        )]
        let raw = std::str::from_utf8(&self.input[start..self.pos])
            .expect("number text is ASCII")
            .to_owned();
        Ok(ValueNode {
            kind: ValueKind::Number(Number::from_raw(raw)),
            span: Span {
                start,
                end: self.pos,
            },
        })
    }

    fn parse_array(&mut self, depth: usize, start: usize) -> Result<ValueNode, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(ValueNode {
                kind: ValueKind::Array(items),
                span: Span {
                    start,
                    end: self.pos,
                },
            });
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
        Ok(ValueNode {
            kind: ValueKind::Array(items),
            span: Span {
                start,
                end: self.pos,
            },
        })
    }

    fn parse_object(&mut self, depth: usize, start: usize) -> Result<ValueNode, ParseError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(ValueNode {
                kind: ValueKind::Object(members),
                span: Span {
                    start,
                    end: self.pos,
                },
            });
        }
        loop {
            self.skip_whitespace();
            let key_start = self.pos;
            let key_text = self.parse_string_raw()?;
            let key = Key {
                text: key_text,
                span: Span {
                    start: key_start,
                    end: self.pos,
                },
            };
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
        Ok(ValueNode {
            kind: ValueKind::Object(members),
            span: Span {
                start,
                end: self.pos,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(input: &str) -> ValueKind {
        parse(input.as_bytes()).unwrap().kind
    }

    #[test]
    fn parses_atoms() {
        assert_eq!(kind("null"), ValueKind::Null);
        assert_eq!(kind("true"), ValueKind::Bool(true));
        assert_eq!(kind("false"), ValueKind::Bool(false));
        assert_eq!(kind("\"hi\""), ValueKind::String("hi".into()));
        assert!(matches!(kind("-1.5e3"), ValueKind::Number(n) if n.as_f64() == -1500.0));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(br#" { "a" : [ 1 , { "b" : null } ] , "c" : "d" } "#).unwrap();
        let ValueKind::Object(members) = &doc.kind else {
            panic!()
        };
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].0.text, "a");
        assert_eq!(members[1].0.text, "c");
    }

    #[test]
    fn spans_point_at_source_text() {
        let text = br#"{"a": [10, 20]}"#;
        let doc = parse(text).unwrap();
        assert_eq!(
            doc.span,
            Span {
                start: 0,
                end: text.len()
            }
        );
        let ValueKind::Object(members) = &doc.kind else {
            panic!()
        };
        let arr = &members[0].1;
        assert_eq!(&text[arr.span.start..arr.span.end], b"[10, 20]");
        let ValueKind::Array(items) = &arr.kind else {
            panic!()
        };
        assert_eq!(&text[items[0].span.start..items[0].span.end], b"10");
        assert_eq!(&text[items[1].span.start..items[1].span.end], b"20");
    }

    #[test]
    fn keys_keep_raw_escapes() {
        let doc = parse(br#"{"a\"b": 1}"#).unwrap();
        let ValueKind::Object(members) = &doc.kind else {
            panic!()
        };
        assert_eq!(members[0].0.text, r#"a\"b"#);
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let doc = parse(br#"{"k": 1, "k": 2}"#).unwrap();
        let ValueKind::Object(members) = &doc.kind else {
            panic!()
        };
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn paper_example_string_with_embedded_json() {
        // {"a":"{\"b\":2022}"} from §2 of the paper: the value is a string.
        let doc = parse(br#"{"a":"{\"b\":2022}"}"#).unwrap();
        let ValueKind::Object(members) = &doc.kind else {
            panic!()
        };
        assert_eq!(
            members[0].1.kind,
            ValueKind::String(r#"{\"b\":2022}"#.into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[",
            "]",
            "{]",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "1 2",
            "tru",
            "\"",
            "\"\\q\"",
            "01",
            "1.",
            "1e",
            "-",
            "+1",
            "\"\\u12g4\"",
            "{\"a\":1,}",
            "nan",
            "[1 2]",
            "\u{1}",
            "\"a\nb\"",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accepts_all_whitespace_forms() {
        assert!(parse(b" \t\r\n [ \t 1 , 2 \r\n ] \t ").is_ok());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep: String = std::iter::repeat_n('[', 64)
            .chain(std::iter::repeat_n(']', 64))
            .collect();
        assert!(parse_with_options(deep.as_bytes(), ParseOptions { max_depth: 63 }).is_err());
        assert!(parse_with_options(deep.as_bytes(), ParseOptions { max_depth: 64 }).is_ok());
    }

    #[test]
    fn number_grammar_edge_cases() {
        for good in [
            "0",
            "-0",
            "0.5",
            "123e10",
            "1E-2",
            "1e+2",
            "9007199254740993",
        ] {
            assert!(parse(good.as_bytes()).is_ok(), "should accept {good}");
        }
    }

    #[test]
    fn utf8_strings_parse() {
        let doc = parse("\"żółć 😀\"".as_bytes()).unwrap();
        assert_eq!(doc.kind, ValueKind::String("żółć 😀".into()));
    }
}
