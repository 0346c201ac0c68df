//! Tokenizer for the Job Description Language.
//!
//! The JDL of the EDG/CrossGrid middleware is a ClassAd dialect: attribute
//! assignments `Name = value;` where values are strings, numbers, booleans,
//! lists `{a, b}`, or expressions (`other.FreeCpus >= 2 && other.Arch ==
//! "i686"`). Comments: `//…`, `#…`, and `/* … */`.

use std::borrow::Cow;
use std::fmt;

/// Position of a token in the source, for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token. Identifiers and string literals borrow the source text;
/// a string is owned only when resolving an escape changed it.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    /// Identifier (attribute names are case-insensitive).
    Ident(&'a str),
    /// Double-quoted string literal (escapes resolved).
    Str(Cow<'a, str>),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// `true` / `false` (case-insensitive).
    Bool(bool),
    /// `undefined` keyword (ClassAd tri-state logic).
    Undefined,
    /// `=`
    Assign,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `!`
    Not,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `?`
    Question,
    /// `:`
    Colon,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Int(n) => write!(f, "integer {n}"),
            Tok::Double(x) => write!(f, "number {x}"),
            Tok::Bool(b) => write!(f, "boolean {b}"),
            Tok::Undefined => write!(f, "`undefined`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`==`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::And => write!(f, "`&&`"),
            Tok::Or => write!(f, "`||`"),
            Tok::Not => write!(f, "`!`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Question => write!(f, "`?`"),
            Tok::Colon => write!(f, "`:`"),
        }
    }
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Where it happened.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Writes `s` as a double-quoted JDL string literal: the four escapes the
/// lexer reads back (`\n`, `\t`, `\\`, `\"`) and every other character
/// verbatim. This — not Rust's `{:?}`, which also escapes `\r`, other control
/// characters and unprintable Unicode in forms the lexer rejects — is what
/// [`Value`](crate::Value) and [`Expr`](crate::Expr) print strings with, so a
/// printed ad (a journal's commit record) always re-parses to the same ad.
pub(crate) fn write_quoted(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut verbatim = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\\' => "\\\\",
            b'"' => "\\\"",
            _ => continue,
        };
        f.write_str(&s[verbatim..i])?;
        f.write_str(escaped)?;
        verbatim = i + 1;
    }
    f.write_str(&s[verbatim..])?;
    f.write_char('"')
}

/// Tokenizes JDL source into `(token, position)` pairs.
pub fn lex(src: &str) -> Result<Vec<(Tok<'_>, Pos)>, LexError> {
    lex_spanned(src).map(|(toks, _)| toks)
}

/// Like [`lex`], but also returns the position just past the last character,
/// so "unexpected end of input" errors can point at a real location instead
/// of the previous token.
pub fn lex_spanned(src: &str) -> Result<(Vec<(Tok<'_>, Pos)>, Pos), LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        out.push(tok);
    }
    Ok((out, lexer.pos()))
}

/// The tokenizer proper: hands out one token per call, borrowing identifiers
/// and escape-free string literals from the source. It walks bytes — every
/// character the grammar gives meaning to is ASCII — and counts a column per
/// character, i.e. per byte that is not a UTF-8 continuation byte.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
            col: 1,
        }
    }

    /// Position of the next unread character: once [`Lexer::next_token`] has
    /// returned `None`, the position just past the source.
    pub(crate) fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    /// How many `;` the source holds — each attribute of an ad ends in one,
    /// so (up to semicolons in strings and comments) the most attributes an
    /// ad parsed from this source can have.
    pub(crate) fn semicolons(&self) -> usize {
        self.src.bytes().filter(|&b| b == b';').count()
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// Steps over one byte, keeping line and column.
    fn bump(&mut self, b: u8) {
        self.at += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
    }

    /// Steps over `n` bytes known to be ASCII and not newlines.
    fn bump_ascii(&mut self, n: usize) {
        self.at += n;
        self.col += n as u32;
    }

    /// Steps over the rest of the line, short of its newline.
    fn skip_line(&mut self) {
        while let Some(b) = self.peek().filter(|&b| b != b'\n') {
            self.bump(b);
        }
    }

    /// An error at `pos`. The lexer reports one error per source: whatever
    /// is asked of it afterwards, it is at end of input.
    fn fail(&mut self, pos: Pos, message: impl Into<String>) -> LexError {
        self.at = self.src.len();
        LexError {
            pos,
            message: message.into(),
        }
    }

    /// The first lexical error in what is left of the source, if any. The
    /// parser asks once it has a result: a lex error anywhere in the source
    /// is reported in preference to a parse error before it.
    pub(crate) fn drain(&mut self) -> Result<(), LexError> {
        while self.next_token()?.is_some() {}
        Ok(())
    }

    /// The next token and where it starts; `None` at end of input.
    pub(crate) fn next_token(&mut self) -> Result<Option<(Tok<'a>, Pos)>, LexError> {
        loop {
            let pos = self.pos();
            let Some(b) = self.peek() else {
                return Ok(None);
            };
            let tok = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump(b);
                    continue;
                }
                b'#' => {
                    self.skip_line();
                    continue;
                }
                b'/' => {
                    self.bump_ascii(1);
                    match self.peek() {
                        Some(b'/') => {
                            self.skip_line();
                            continue;
                        }
                        Some(b'*') => {
                            self.bump_ascii(1);
                            self.block_comment(pos)?;
                            continue;
                        }
                        _ => Tok::Slash,
                    }
                }
                b'"' => self.string(pos)?,
                b'0'..=b'9' => self.number(pos)?,
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let rest = &self.src[self.at..];
                    let len = rest
                        .bytes()
                        .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
                        .unwrap_or(rest.len());
                    self.bump_ascii(len);
                    let ident = &rest[..len];
                    if ident.eq_ignore_ascii_case("true") {
                        Tok::Bool(true)
                    } else if ident.eq_ignore_ascii_case("false") {
                        Tok::Bool(false)
                    } else if ident.eq_ignore_ascii_case("undefined") {
                        Tok::Undefined
                    } else {
                        Tok::Ident(ident)
                    }
                }
                _ => self.punctuation(b, pos)?,
            };
            return Ok(Some((tok, pos)));
        }
    }

    /// The rest of a block comment whose `/*` (at `pos`) has been read.
    fn block_comment(&mut self, pos: Pos) -> Result<(), LexError> {
        while let Some(b) = self.peek() {
            self.bump(b);
            if b == b'*' && self.peek() == Some(b'/') {
                self.bump_ascii(1);
                return Ok(());
            }
        }
        Err(self.fail(pos, "unterminated block comment"))
    }

    /// A string literal from its opening quote at `pos`. The token borrows
    /// the source unless the literal holds an escape.
    fn string(&mut self, pos: Pos) -> Result<Tok<'a>, LexError> {
        self.bump_ascii(1);
        let start = self.at;
        // From the first escape on: the literal so far, escapes resolved.
        let mut resolved: Option<String> = None;
        loop {
            let rest = &self.src[self.at..];
            let run = rest
                .bytes()
                .position(|b| matches!(b, b'"' | b'\\' | b'\n'))
                .unwrap_or(rest.len());
            if let Some(s) = &mut resolved {
                s.push_str(&rest[..run]);
            }
            self.at += run;
            self.col += rest[..run].chars().count() as u32;
            match rest.as_bytes().get(run) {
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = match rest.as_bytes().get(run + 1) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'\\') => '\\',
                        Some(b'"') => '"',
                        _ => {
                            let other = rest[run + 1..].chars().next();
                            return Err(self.fail(pos, format!("bad escape {other:?}")));
                        }
                    };
                    resolved
                        .get_or_insert_with(|| self.src[start..self.at].to_string())
                        .push(c);
                    self.bump_ascii(2);
                }
                _ => return Err(self.fail(pos, "unterminated string literal")),
            }
        }
        let text = match resolved {
            Some(s) => Cow::Owned(s),
            None => Cow::Borrowed(&self.src[start..self.at]),
        };
        self.bump_ascii(1);
        Ok(Tok::Str(text))
    }

    /// A numeric literal starting at `pos`: digits, dots, and exponents with
    /// an optional sign, as one text; whether that text is a number is for
    /// `str::parse` to say. (`other.X` never starts with a digit, so a dot
    /// after digits is fractional.)
    fn number(&mut self, pos: Pos) -> Result<Tok<'a>, LexError> {
        let start = self.at;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' => is_float = true,
                b'e' | b'E' => {
                    is_float = true;
                    if let Some(b'+' | b'-') = self.src.as_bytes().get(self.at + 1) {
                        self.bump_ascii(1);
                    }
                }
                _ => break,
            }
            self.bump_ascii(1);
        }
        let text = &self.src[start..self.at];
        if is_float {
            match text.parse() {
                Ok(x) => Ok(Tok::Double(x)),
                Err(_) => Err(self.fail(pos, format!("bad number `{text}`"))),
            }
        } else {
            match text.parse() {
                Ok(n) => Ok(Tok::Int(n)),
                Err(_) => Err(self.fail(pos, format!("bad integer `{text}`"))),
            }
        }
    }

    /// An operator or delimiter whose first byte `b` is at `pos`.
    fn punctuation(&mut self, b: u8, pos: Pos) -> Result<Tok<'a>, LexError> {
        let doubled = self.src.as_bytes().get(self.at + 1) == Some(&b);
        let followed_by_eq = self.src.as_bytes().get(self.at + 1) == Some(&b'=');
        let (tok, len) = match b {
            b'=' if followed_by_eq => (Tok::Eq, 2),
            b'=' => (Tok::Assign, 1),
            b'!' if followed_by_eq => (Tok::Ne, 2),
            b'!' => (Tok::Not, 1),
            b'<' if followed_by_eq => (Tok::Le, 2),
            b'<' => (Tok::Lt, 1),
            b'>' if followed_by_eq => (Tok::Ge, 2),
            b'>' => (Tok::Gt, 1),
            b'&' if doubled => (Tok::And, 2),
            b'&' => return Err(self.fail(pos, "single `&` (did you mean `&&`?)")),
            b'|' if doubled => (Tok::Or, 2),
            b'|' => return Err(self.fail(pos, "single `|` (did you mean `||`?)")),
            b';' => (Tok::Semi, 1),
            b',' => (Tok::Comma, 1),
            // EDG JDL wraps ads in `[ ]`; our `Ad` Display does the
            // same, so both bracket styles must lex for the printed
            // form (e.g. a journal's JobAd commit record) to re-parse.
            b'{' | b'[' => (Tok::LBrace, 1),
            b'}' | b']' => (Tok::RBrace, 1),
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'.' => (Tok::Dot, 1),
            b'+' => (Tok::Plus, 1),
            b'-' => (Tok::Minus, 1),
            b'*' => (Tok::Star, 1),
            b'%' => (Tok::Percent, 1),
            b'?' => (Tok::Question, 1),
            b':' => (Tok::Colon, 1),
            _ => {
                let other = self.src[self.at..]
                    .chars()
                    .next()
                    .expect("a byte was peeked");
                return Err(self.fail(pos, format!("unexpected character {other:?}")));
            }
        };
        self.bump_ascii(len);
        Ok(tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lexes_the_papers_figure_2() {
        let src = r#"
            Executable = "interactive_mpich-g2_app";
            JobType = {"interactive", "mpich-g2"};
            NodeNumber = 2;
            Arguments = "-n";
        "#;
        // "interactive_mpich-g2_app" is a string, so the dash inside is fine.
        let t = toks(src);
        assert!(t.contains(&Tok::Ident("Executable")));
        assert!(t.contains(&Tok::Str("interactive_mpich-g2_app".into())));
        assert!(t.contains(&Tok::LBrace));
        assert!(t.contains(&Tok::Int(2)));
        assert_eq!(t.iter().filter(|t| **t == Tok::Semi).count(), 4);
    }

    #[test]
    fn numbers_int_and_float() {
        assert_eq!(toks("42"), vec![Tok::Int(42)]);
        assert_eq!(toks("4.5"), vec![Tok::Double(4.5)]);
        assert_eq!(toks("1e3"), vec![Tok::Double(1000.0)]);
        assert_eq!(toks("2.5e-2"), vec![Tok::Double(0.025)]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""a\"b\n\t\\c""#),
            vec![Tok::Str("a\"b\n\t\\c".into())]
        );
    }

    #[test]
    fn tokens_borrow_the_source_unless_an_escape_changes_the_text() {
        let src = "Name \"plain \u{e9}\" \"esc\\t\u{e9}\\\"x\"";
        let t = toks(src);
        assert!(matches!(t[0], Tok::Ident(s) if s.as_ptr() == src.as_ptr()));
        assert!(matches!(&t[1], Tok::Str(Cow::Borrowed(s)) if *s == "plain \u{e9}"));
        assert!(matches!(&t[2], Tok::Str(Cow::Owned(s)) if s == "esc\t\u{e9}\"x"));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let positions: Vec<(u32, u32)> = lex("\"\u{e9}\u{65e5}\" /* \u{1f600} */ x\n# \u{fc}\n  y")
            .unwrap()
            .into_iter()
            .map(|(_, p)| (p.line, p.col))
            .collect();
        assert_eq!(positions, [(1, 1), (1, 14), (3, 3)]);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("TRUE False UNDEFINED"),
            vec![Tok::Bool(true), Tok::Bool(false), Tok::Undefined]
        );
    }

    #[test]
    fn operators_lex() {
        assert_eq!(
            toks("== != <= >= < > && || ! + - * / % ? : ."),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::And,
                Tok::Or,
                Tok::Not,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Question,
                Tok::Colon,
                Tok::Dot
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "a = 1; // line\nb = 2; # hash\n/* block\n over lines */ c = 3;";
        let t = toks(src);
        assert_eq!(t.iter().filter(|t| matches!(t, Tok::Int(_))).count(), 3);
    }

    #[test]
    fn errors_carry_position() {
        let err = lex("a = \"unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.pos.line, 1);
        let err = lex("x = 1;\n  @").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn single_amp_and_pipe_rejected() {
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }

    #[test]
    fn unterminated_block_comment_rejected() {
        assert!(lex("/* never closed").is_err());
    }
}
