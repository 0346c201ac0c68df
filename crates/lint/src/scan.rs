//! A minimal hand-rolled Rust token scanner.
//!
//! The workspace builds fully offline, so there is no `syn`; the lint passes
//! instead work over a flat token stream with source positions. The lexer
//! understands exactly what the passes need to be sound over this codebase:
//! identifiers, integer literals, string/char/lifetime literals (so nothing
//! inside them is mistaken for code), joined `::`/`=>`/`->` punctuation,
//! nested block comments, raw/byte strings, and line comments — which are
//! kept, because the `// cg-lint: allow(...)` escape hatches live there.

use cg_jdl::Pos;

/// What a [`Tok`] is. Only the distinctions the passes rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (possibly hex/octal/binary/suffixed).
    Int,
    /// Float literal.
    Float,
    /// String literal (regular, raw, or byte); text excludes the quotes.
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; `::`, `=>`, and `->` are single tokens, all else is one
    /// character per token.
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Raw text (for `Str`, without the surrounding quotes).
    pub text: String,
    /// 1-based position of the token's first character.
    pub pos: Pos,
}

impl Tok {
    /// True when this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True when this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// A line comment, with its kind (hatches must be plain `//`, not doc).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line it starts on.
    pub line: u32,
    /// Text after the comment marker, trimmed.
    pub text: String,
    /// True for `///` and `//!` doc comments.
    pub doc: bool,
}

/// A scanned source file: path, full text, token stream, line comments.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as given to [`SourceFile::parse`] (used in diagnostics).
    pub path: String,
    /// Full source text (used for rendering diagnostics).
    pub src: String,
    /// The token stream, comments and whitespace stripped.
    pub toks: Vec<Tok>,
    /// Line comments, in order.
    pub comments: Vec<Comment>,
}

impl SourceFile {
    /// Tokenizes `src`. Never fails: unrecognized bytes become single-char
    /// `Punct` tokens, which no pass matches on.
    pub fn parse(path: impl Into<String>, src: impl Into<String>) -> SourceFile {
        let path = path.into();
        let src = src.into();
        let (toks, comments) = lex(&src);
        SourceFile {
            path,
            src,
            toks,
            comments,
        }
    }

    /// True when line `line` (or the line above it) carries a plain-comment
    /// escape hatch `cg-lint: allow(<kind>): <reason>` with a non-empty
    /// reason.
    pub fn has_allow(&self, line: u32, kind: &str) -> bool {
        self.comments
            .iter()
            .filter(|c| !c.doc && (c.line == line || c.line + 1 == line))
            .any(|c| comment_allows(&c.text, kind))
    }

    /// True when line `line` or the line above carries any non-doc, non-empty
    /// comment (the justification rule for `#[allow(...)]` attributes).
    pub fn has_plain_comment_near(&self, line: u32) -> bool {
        self.comments
            .iter()
            .any(|c| !c.doc && !c.text.is_empty() && (c.line == line || c.line + 1 == line))
    }
}

/// Parses `cg-lint: allow(<kind>): <reason>` out of a comment body.
fn comment_allows(text: &str, kind: &str) -> bool {
    let Some(rest) = text.trim_start().strip_prefix("cg-lint:") else {
        return false;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return false;
    };
    let Some((got_kind, rest)) = rest.split_once(')') else {
        return false;
    };
    if got_kind.trim() != kind {
        return false;
    }
    let Some(reason) = rest.trim_start().strip_prefix(':') else {
        return false;
    };
    !reason.trim().is_empty()
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl Lexer<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn peek2(&mut self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next()
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }
}

#[allow(clippy::too_many_lines)] // one linear scan; splitting it would only scatter the state machine
fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut lx = Lexer {
        chars: src.chars().peekable(),
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    while let Some(c) = lx.peek() {
        let pos = lx.pos();
        match c {
            c if c.is_whitespace() => {
                lx.bump();
            }
            '/' if lx.peek2() == Some('/') => {
                lx.bump();
                lx.bump();
                let doc = matches!(lx.peek(), Some('/' | '!'));
                let mut text = String::new();
                while let Some(c) = lx.peek() {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    lx.bump();
                }
                let body = text.trim_start_matches(['/', '!']).trim().to_string();
                comments.push(Comment {
                    line: pos.line,
                    text: body,
                    doc,
                });
            }
            '/' if lx.peek2() == Some('*') => {
                lx.bump();
                lx.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match lx.bump() {
                        Some('/') if lx.peek() == Some('*') => {
                            lx.bump();
                            depth += 1;
                        }
                        Some('*') if lx.peek() == Some('/') => {
                            lx.bump();
                            depth -= 1;
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
            }
            '"' => {
                lx.bump();
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: scan_string_body(&mut lx),
                    pos,
                });
            }
            'r' | 'b' if starts_special_string(&mut lx) => {
                // b"...", r"...", br"...", r#"..."#, …
                let mut raw = false;
                while matches!(lx.peek(), Some('r' | 'b')) {
                    raw = lx.peek() == Some('r') || raw;
                    lx.bump();
                }
                let mut hashes = 0usize;
                while lx.peek() == Some('#') {
                    hashes += 1;
                    lx.bump();
                }
                lx.bump(); // opening quote
                let text = if raw {
                    scan_raw_string_body(&mut lx, hashes)
                } else {
                    scan_string_body(&mut lx)
                };
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    pos,
                });
            }
            '\'' => {
                lx.bump();
                // Lifetime when an ident follows and no closing quote right
                // after one char (`'a` vs `'a'`).
                let is_lifetime = lx.peek().is_some_and(|c| c.is_alphabetic() || c == '_')
                    && lx.peek2() != Some('\'');
                if is_lifetime {
                    let mut text = String::new();
                    while let Some(c) = lx.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            lx.bump();
                        } else {
                            break;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text,
                        pos,
                    });
                } else {
                    let mut text = String::new();
                    while let Some(c) = lx.bump() {
                        if c == '\\' {
                            if let Some(e) = lx.bump() {
                                text.push(e);
                            }
                        } else if c == '\'' {
                            break;
                        } else {
                            text.push(c);
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text,
                        pos,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(c) = lx.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    pos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                let mut float = false;
                while let Some(c) = lx.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        text.push(c);
                        lx.bump();
                    } else if c == '.' && lx.peek2().is_some_and(|d| d.is_ascii_digit()) {
                        float = true;
                        text.push(c);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: if float { TokKind::Float } else { TokKind::Int },
                    text,
                    pos,
                });
            }
            _ => {
                lx.bump();
                let joined = match (c, lx.peek()) {
                    (':', Some(':')) => Some("::"),
                    ('=', Some('>')) => Some("=>"),
                    ('-', Some('>')) => Some("->"),
                    _ => None,
                };
                let text = if let Some(j) = joined {
                    lx.bump();
                    j.to_string()
                } else {
                    c.to_string()
                };
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    pos,
                });
            }
        }
    }
    (toks, comments)
}

/// True when the `r`/`b` at the cursor starts a string literal (`r"`,
/// `r#"`, `b"`, `br"`) rather than an identifier. `b'x'` byte chars fall
/// through to the ident + char-literal path, which is harmless.
fn starts_special_string(lx: &mut Lexer<'_>) -> bool {
    let mut it = lx.chars.clone();
    let mut prefix_len = 0;
    while prefix_len < 2 && matches!(it.clone().next(), Some('r' | 'b')) {
        it.next();
        prefix_len += 1;
    }
    if prefix_len == 0 {
        return false;
    }
    while it.clone().next() == Some('#') {
        it.next();
    }
    it.next() == Some('"')
}

fn scan_string_body(lx: &mut Lexer<'_>) -> String {
    let mut text = String::new();
    while let Some(c) = lx.bump() {
        if c == '\\' {
            if let Some(e) = lx.bump() {
                text.push(e);
            }
        } else if c == '"' {
            break;
        } else {
            text.push(c);
        }
    }
    text
}

fn scan_raw_string_body(lx: &mut Lexer<'_>, hashes: usize) -> String {
    let mut text = String::new();
    'outer: while let Some(c) = lx.bump() {
        if c == '"' {
            // Need `hashes` consecutive `#` to close.
            let mut it = lx.chars.clone();
            for _ in 0..hashes {
                if it.next() != Some('#') {
                    text.push(c);
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                lx.bump();
            }
            break;
        }
        text.push(c);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_code_with_strings_comments_and_joined_punct() {
        let f = SourceFile::parse(
            "t.rs",
            "// plain\n/// doc\nfn f() -> u64 { let s = \"Instant::now\"; 0x2A_u64 => s }\n",
        );
        assert_eq!(f.comments.len(), 2);
        assert!(!f.comments[0].doc);
        assert!(f.comments[1].doc);
        let idents: Vec<_> = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        // "Instant" and "now" are inside a string literal — must not lex as idents.
        assert_eq!(idents, ["fn", "f", "u64", "let", "s", "s"]);
        assert!(f.toks.iter().any(|t| t.is_punct("->")));
        assert!(f.toks.iter().any(|t| t.is_punct("=>")));
        let int = f.toks.iter().find(|t| t.kind == TokKind::Int).unwrap();
        assert_eq!(int.text, "0x2A_u64");
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let f = SourceFile::parse("t.rs", "ab\n  cd\n");
        assert_eq!(f.toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(f.toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let f = SourceFile::parse(
            "t.rs",
            "let x: &'a str = r#\"thread_rng \" inside\"#; let c = 'x'; let nl = '\\n';",
        );
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(!f.toks.iter().any(|t| t.is_ident("thread_rng")));
        assert_eq!(f.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("thread_rng")));
    }

    #[test]
    fn escape_hatch_matching() {
        let f = SourceFile::parse(
            "t.rs",
            "// cg-lint: allow(wall-clock): real TCP linger\nlet t = now();\n\
             // cg-lint: allow(wall-clock):\nlet u = now();\n\
             /// cg-lint: allow(wall-clock): doc comments do not count\nlet v = now();\n",
        );
        assert!(f.has_allow(2, "wall-clock"));
        assert!(!f.has_allow(2, "lock-across-io"));
        assert!(!f.has_allow(4, "wall-clock"), "empty reason must not pass");
        assert!(!f.has_allow(6, "wall-clock"), "doc comment must not pass");
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let f = SourceFile::parse("t.rs", "/* a /* nested */ still comment */ ident");
        assert_eq!(f.toks.len(), 1);
        assert!(f.toks[0].is_ident("ident"));
    }
}
