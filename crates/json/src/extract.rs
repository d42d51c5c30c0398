//! Span extraction without parsing: the byte range of a single node.
//!
//! The streaming engines report matches as byte offsets. Turning an
//! offset back into the matched node does not need a DOM — a
//! quote-aware bracket scan finds the end of the value. It is the
//! oracle of the value emitters (`rsq_batch::render`, which cuts a
//! short value at record time from one 64-byte load and spans the rest
//! with this routine after the run, DESIGN.md §15.5).
//!
//! [`node_span`] is the raw-passthrough primitive (DESIGN.md §15): it
//! returns the matched byte range so emitters can `write_all` the
//! document's own bytes, with no per-match UTF-8 validation and no
//! intermediate `String`. [`node_text`] layers the UTF-8 check on top
//! for callers that need `&str`.

use std::ops::Range;

/// Finds the byte range of the JSON value starting at `pos`.
///
/// Objects and arrays are scanned to their matching close bracket
/// (quote- and escape-aware, so brackets inside strings don't confuse
/// the scan); strings to their closing quote; scalars to the next
/// delimiter. Returns `None` when `pos` is out of bounds or the value
/// is unterminated. The returned range is absolute: index `document`
/// with it directly.
#[must_use]
pub fn node_span(document: &[u8], pos: usize) -> Option<Range<usize>> {
    let bytes = document.get(pos..)?;
    let len = match bytes.first()? {
        open @ (b'{' | b'[') => {
            let close = if *open == b'{' { b'}' } else { b']' };
            let open = *open;
            let mut depth = 0usize;
            let mut in_string = false;
            let mut escaped = false;
            let mut end = None;
            for (i, &b) in bytes.iter().enumerate() {
                if in_string {
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == b'"' {
                        in_string = false;
                    }
                    continue;
                }
                if b == b'"' {
                    in_string = true;
                } else if b == open {
                    depth += 1;
                } else if b == close {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
            }
            end?
        }
        b'"' => {
            let mut escaped = false;
            let mut end = None;
            for (i, &b) in bytes.iter().enumerate().skip(1) {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    end = Some(i + 1);
                    break;
                }
            }
            end?
        }
        _ => bytes
            .iter()
            .position(|&b| matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(bytes.len()),
    };
    Some(pos..pos + len)
}

/// Extracts the text of the JSON value starting at `pos`.
///
/// [`node_span`] plus UTF-8 validation: returns `None` additionally
/// when the span is not valid UTF-8.
#[must_use]
pub fn node_text(document: &[u8], pos: usize) -> Option<&str> {
    let span = node_span(document, pos)?;
    // node_span ranges are in bounds of `document` by construction.
    std::str::from_utf8(&document[span]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_each_value_shape() {
        let doc = br#"{"a": [1, {"b": "x]"}], "s": "q\"t", "n": 12.5}"#;
        assert_eq!(node_text(doc, 0), Some(std::str::from_utf8(doc).unwrap()));
        assert_eq!(node_text(doc, 6), Some(r#"[1, {"b": "x]"}]"#));
        assert_eq!(node_text(doc, 29), Some(r#""q\"t""#));
        assert_eq!(node_text(doc, 42), Some("12.5"));
    }

    #[test]
    fn spans_are_absolute_ranges() {
        let doc = br#"{"a": [1, {"b": "x]"}], "n": 12.5}"#;
        let span = node_span(doc, 6).unwrap();
        assert_eq!(span, 6..22);
        assert_eq!(&doc[span], br#"[1, {"b": "x]"}]"#);
        assert_eq!(node_span(doc, 0), Some(0..doc.len()));
    }

    #[test]
    fn span_ignores_invalid_utf8_that_text_rejects() {
        // A latin-1 byte inside a string: the span is found (raw
        // passthrough emits the document's own bytes), but `node_text`
        // refuses to call it a &str.
        let doc = b"{\"s\": \"caf\xe9\"}";
        assert_eq!(node_span(doc, 6), Some(6..12));
        assert_eq!(node_text(doc, 6), None);
    }

    #[test]
    fn unterminated_and_out_of_bounds_are_none() {
        assert_eq!(node_text(b"{\"a\": ", 0), None);
        assert_eq!(node_text(b"\"open", 0), None);
        assert_eq!(node_text(b"[1]", 99), None);
        assert_eq!(node_span(b"{\"a\": ", 0), None);
        assert_eq!(node_span(b"[1]", 99), None);
    }

    #[test]
    fn scalar_at_end_of_input() {
        assert_eq!(node_text(b"true", 0), Some("true"));
        assert_eq!(node_text(b"[1, 2]", 4), Some("2"));
        assert_eq!(node_span(b"[1, 2]", 4), Some(4..5));
    }
}
