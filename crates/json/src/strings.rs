//! JSON string escaping and unescaping.

use std::fmt;

/// Error returned by [`unescape`] for malformed escape sequences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnescapeError {
    /// Byte offset of the offending escape within the raw string.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl fmt::Display for UnescapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid escape at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for UnescapeError {}

/// Decodes a *raw* JSON string (the text between the quotes) into its
/// actual content, resolving backslash escapes including `\uXXXX` and
/// UTF-16 surrogate pairs.
///
/// # Errors
///
/// Returns [`UnescapeError`] on truncated or invalid escapes and unpaired
/// surrogates.
///
/// # Examples
///
/// ```
/// assert_eq!(rsq_json::unescape(r#"a\"bA\n"#).unwrap(), "a\"bA\n");
/// ```
pub fn unescape(raw: &str) -> Result<String, UnescapeError> {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b != b'\\' {
            // Copy a whole UTF-8 character.
            let ch_len = utf8_len(b);
            let end = (i + ch_len).min(bytes.len());
            out.push_str(&raw[i..end]);
            i = end;
            continue;
        }
        let esc = *bytes.get(i + 1).ok_or(UnescapeError {
            offset: i,
            message: "truncated escape",
        })?;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = parse_hex4(raw, i + 2)?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must be followed by \uDC00..=\uDFFF.
                    if bytes.get(i + 6) != Some(&b'\\') || bytes.get(i + 7) != Some(&b'u') {
                        return Err(UnescapeError {
                            offset: i,
                            message: "unpaired high surrogate",
                        });
                    }
                    let lo = parse_hex4(raw, i + 8)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(UnescapeError {
                            offset: i,
                            message: "invalid low surrogate",
                        });
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    #[expect(
                        clippy::expect_used,
                        reason = "surrogate-pair arithmetic lands in the supplementary planes, always a valid char"
                    )]
                    out.push(char::from_u32(c).expect("valid supplementary code point"));
                    i += 12;
                    continue;
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(UnescapeError {
                        offset: i,
                        message: "unpaired low surrogate",
                    });
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "hi was checked not to be a surrogate, so from_u32 succeeds"
                    )]
                    out.push(char::from_u32(hi).expect("valid BMP code point"));
                    i += 6;
                    continue;
                }
            }
            _ => {
                return Err(UnescapeError {
                    offset: i,
                    message: "unknown escape character",
                })
            }
        }
        i += 2;
    }
    Ok(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(raw: &str, at: usize) -> Result<u32, UnescapeError> {
    let hex = raw.as_bytes().get(at..at + 4).ok_or(UnescapeError {
        offset: at,
        message: "truncated \\u escape",
    })?;
    let hex = std::str::from_utf8(hex).map_err(|_| UnescapeError {
        offset: at,
        message: "non-ASCII in \\u escape",
    })?;
    u32::from_str_radix(hex, 16).map_err(|_| UnescapeError {
        offset: at,
        message: "invalid hex in \\u escape",
    })
}

/// Appends `text` to `out` with JSON string escaping applied (quotes are
/// *not* added).
///
/// Escapes `"`, `\`, and control characters; everything else is copied
/// verbatim (JSON permits raw UTF-8).
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// rsq_json::escape_into("a\"b\n", &mut out);
/// assert_eq!(out, r#"a\"b\n"#);
/// ```
pub fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unescape_simple_escapes() {
        assert_eq!(unescape(r"a\tb\nc").unwrap(), "a\tb\nc");
        assert_eq!(unescape(r"\\\/\b\f\r").unwrap(), "\\/\u{8}\u{c}\r");
        assert_eq!(unescape("plain").unwrap(), "plain");
        assert_eq!(unescape("").unwrap(), "");
    }

    #[test]
    fn unescape_unicode_and_surrogates() {
        assert_eq!(unescape("\\u0041").unwrap(), "A");
        assert_eq!(unescape("\\ud83d\\ude00").unwrap(), "😀");
        assert_eq!(unescape("żółć").unwrap(), "żółć");
    }

    #[test]
    fn unescape_errors() {
        assert!(unescape(r"\q").is_err());
        assert!(unescape("\\").is_err());
        assert!(unescape(r"\u12").is_err());
        assert!(unescape(r"\ud800").is_err());
        assert!(unescape(r"\ude00").is_err());
        assert!(unescape(r"\ud800A").is_err());
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\"b", "tab\tnl\n", "ctrl\u{1}", "uni żółć 😀"] {
            let mut raw = String::new();
            escape_into(s, &mut raw);
            assert_eq!(unescape(&raw).unwrap(), s, "through {raw:?}");
        }
    }
}
