//! A minimal Rust lexer for the `analyze` passes.
//!
//! The offline build environment has no `syn`, so the passes run on a
//! hand-rolled token stream instead of a real AST. The lexer understands
//! exactly as much Rust as it takes to make them sound on this
//! codebase: line/block comments (nested), string/char/byte/raw literals,
//! lifetimes vs char literals, identifiers, and single-character
//! punctuation. Everything inside comments and literals is *removed* from
//! the token stream, so a pass never matches a `Mutex` or `SeqCst` in a
//! doc comment or a test fixture string.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A lifetime (`'a`), kept distinct so it never looks like code.
    Lifetime,
    /// A string/char/byte/numeric literal. The source text (including
    /// quotes/prefixes) is preserved so attribute arguments like
    /// `enable = "avx2"` can be read back, but literals are never treated
    /// as identifiers, so lints cannot fire on their contents.
    Literal,
    /// A single punctuation character.
    Punct(char),
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Source text of the token (empty for punctuation).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Returns `true` for an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Returns `true` for this punctuation character.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with the line span it covers.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line (equal to `start_line` for `//` comments).
    pub end_line: u32,
    /// Full comment text including the delimiters.
    pub text: String,
    /// Whether this is a doc comment (`///`, `//!`, `/** … */`, `/*! … */`).
    pub is_doc: bool,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source. Unterminated literals or comments are tolerated
/// (the remainder of the file becomes one literal/comment): the analyzer must
/// never panic on weird-but-compiling source, and rustc would reject truly
/// broken files anyway.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = source[start..i].to_owned();
                let is_doc = text.starts_with("///") || text.starts_with("//!");
                // Consecutive plain `//` lines form one logical comment (a
                // multi-line `// SAFETY: ...` run reaches from its last
                // line, not its first). Doc comments stay per-line — the
                // doc-run search walks lines itself.
                match out.comments.last_mut() {
                    Some(prev) if !is_doc && !prev.is_doc && prev.end_line + 1 == line => {
                        prev.end_line = line;
                        prev.text.push('\n');
                        prev.text.push_str(&text);
                    }
                    _ => out.comments.push(Comment {
                        start_line: line,
                        end_line: line,
                        text,
                        is_doc,
                    }),
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = source[start..i.min(source.len())].to_owned();
                let is_doc = text.starts_with("/**") || text.starts_with("/*!");
                out.comments.push(Comment {
                    start_line,
                    end_line: line,
                    text,
                    is_doc,
                });
            }
            b'"' => {
                let tok_line = line;
                let start = i;
                i = skip_string(bytes, i, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: source[start..i.min(source.len())].to_owned(),
                    line: tok_line,
                });
            }
            b'\'' => {
                let tok_line = line;
                // Distinguish a char literal from a lifetime: a char
                // literal is `'\…'` or `'X'`; anything else (`'ident`) is
                // a lifetime. `'\u{…}'` and multi-byte chars are handled
                // by scanning to the closing quote.
                let next = bytes.get(i + 1).copied();
                let is_char = match next {
                    Some(b'\\') => true,
                    Some(_) => {
                        // Find the byte after one UTF-8 character.
                        let rest = &source[i + 1..];
                        rest.chars()
                            .next()
                            .is_some_and(|c| rest[c.len_utf8()..].starts_with('\''))
                    }
                    None => false,
                };
                if is_char {
                    let start = i;
                    i += 1; // past opening quote
                    while i < bytes.len() && bytes[i] != b'\'' {
                        if bytes[i] == b'\\' {
                            i += 1;
                        }
                        if bytes.get(i) == Some(&b'\n') {
                            line += 1;
                        }
                        i = (i + 1).min(bytes.len());
                    }
                    i += 1; // past closing quote
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: source[start..i.min(source.len())].to_owned(),
                        line: tok_line,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: source[start..i].to_owned(),
                        line: tok_line,
                    });
                }
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let ident = &source[start..i];
                // String-literal prefixes: r"", r#""#, b"", br"", c"", …
                if matches!(ident, "r" | "b" | "br" | "rb" | "c" | "cr")
                    && matches!(bytes.get(i), Some(&b'"') | Some(&b'#'))
                    && looks_like_raw_or_quoted(bytes, i)
                {
                    let tok_line = line;
                    i = if bytes[i] == b'"' && !ident.contains('r') {
                        skip_string(bytes, i, &mut line)
                    } else {
                        skip_raw_string(bytes, i, &mut line)
                    };
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: source[start..i.min(source.len())].to_owned(),
                        line: tok_line,
                    });
                } else {
                    out.tokens.push(Tok {
                        kind: TokKind::Ident,
                        text: ident.to_owned(),
                        line,
                    });
                }
            }
            _ if b.is_ascii_digit() => {
                let tok_line = line;
                let start = i;
                // Numeric literal: digits plus alphanumeric suffix chars
                // and underscores. A `.` is consumed only when followed by
                // a digit, so ranges (`0..64`) and method calls on
                // literals (`1.max(x)`) stay separate tokens.
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric()
                        || c == b'_'
                        || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: source[start..i].to_owned(),
                    line: tok_line,
                });
            }
            _ => {
                if b.is_ascii() && !b.is_ascii_whitespace() {
                    out.tokens.push(Tok {
                        kind: TokKind::Punct(b as char),
                        text: String::new(),
                        line,
                    });
                }
                i += 1;
            }
        }
    }
    out
}

/// True when the bytes at `i` start a quoted or raw-quoted literal:
/// either `"` directly, or `#…#"` (raw-string hashes).
fn looks_like_raw_or_quoted(bytes: &[u8], mut i: usize) -> bool {
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    bytes.get(i) == Some(&b'"')
}

/// Skips a regular string starting at the opening `"`; returns the index
/// past the closing quote. Tracks newlines into `line`.
fn skip_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // A `\<newline>` continuation still ends a source line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw (or byte-raw) string whose hashes start at `start`
/// (`start` points at the first `#` or the `"`); returns the index past
/// the closing delimiter.
fn skip_raw_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert!(
        bytes.get(i) == Some(&b'"'),
        "caller checked the opening quote"
    );
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("// unsafe in a comment\nfn main() {} /* unsafe */");
        assert!(l.tokens.iter().all(|t| !t.is_ident("unsafe")));
        assert_eq!(l.comments.len(), 2);
    }

    #[test]
    fn strings_are_opaque() {
        assert_eq!(idents(r#"let x = "unsafe fn { }"; y"#), ["let", "x", "y"]);
        assert_eq!(
            idents(r##"let x = r#"unsafe " quote"# ; y"##),
            ["let", "x", "y"]
        );
        assert_eq!(idents(r#"let x = b"unsafe"; y"#), ["let", "x", "y"]);
    }

    #[test]
    fn string_line_continuations_count_lines() {
        // `\<newline>` inside a string still advances the line counter,
        // so tokens after a multi-line usage string report true lines.
        let l = lex("let u = \"first \\\n  second\";\nlet after = 1;");
        let after = l.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = lex(r"fn f<'a>(x: &'a u8) { let c = 'x'; let d = '\n'; let q = '\''; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        // No stray identifiers leaked from inside the char literals.
        assert!(l
            .tokens
            .iter()
            .all(|t| t.text != "x" || t.kind != TokKind::Lifetime));
    }

    #[test]
    fn lines_are_tracked_across_constructs() {
        let src = "fn a() {}\n/* multi\nline */\nfn b() {}\n\"str\nwith newline\"\nfn c() {}";
        let l = lex(src);
        let line_of = |name: &str| l.tokens.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 4);
        assert_eq!(line_of("c"), 7);
        assert_eq!(l.comments[0].start_line, 2);
        assert_eq!(l.comments[0].end_line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ fn f() {}"), ["fn", "f"]);
    }

    #[test]
    fn doc_comments_flagged() {
        let l = lex("/// docs\n//! inner\n// plain\n/** block doc */\nfn f() {}");
        let flags: Vec<bool> = l.comments.iter().map(|c| c.is_doc).collect();
        assert_eq!(flags, [true, true, false, true]);
    }

    #[test]
    fn consecutive_plain_comments_merge() {
        let l = lex("// SAFETY: the first line\n// and the continuation\nlet x = 1;");
        assert_eq!(l.comments.len(), 1);
        assert_eq!((l.comments[0].start_line, l.comments[0].end_line), (1, 2));
        assert!(l.comments[0].text.contains("continuation"));
    }

    #[test]
    fn numeric_literals_do_not_eat_ranges() {
        let l = lex("for i in 0..64 { x[i] = 1.5e3; }");
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "both dots of `..` survive");
    }

    #[test]
    fn raw_identifier_hash_not_a_string() {
        // `#` followed by `[` is an attribute, not a raw string.
        let l = lex("#[target_feature(enable = \"avx2\")] unsafe fn x() {}");
        assert!(l.tokens.iter().any(|t| t.is_ident("target_feature")));
        assert!(l.tokens.iter().any(|t| t.is_ident("unsafe")));
    }
}
