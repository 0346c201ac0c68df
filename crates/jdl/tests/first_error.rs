//! First-error identity: for a malformed source, which error is reported,
//! where, and in which words.
//!
//! `cgrun lint` prints these positions and the broker journals the messages
//! (a rejected submission's reason), so they are behaviour, not wording.
//! The table holds what the owned-token lexer and the always-spanned parser
//! reported; whatever produces tokens and spans now must report the same.
//! Three things in it are easy to lose: a lex error anywhere in the source
//! wins over an earlier parse error; columns count characters, not bytes;
//! and `foo.` followed by a wrong token points at the token *after* the
//! wrong one (the parser has already consumed it).

use cg_jdl::{parse_ad, parse_ad_spanned, parse_expr, parse_expr_spanned, ParseError};

#[derive(Debug, Clone, Copy)]
enum Entry {
    Ad,
    Expression,
}
use Entry::{Ad, Expression};

#[rustfmt::skip]
const MALFORMED: &[(Entry, &str, u32, u32, &str)] = &[
    // Lexical errors.
    (Ad, "X = \"abc", 1, 5, "unterminated string literal"),
    (Ad, "X = \"abc\ndef\";", 1, 5, "unterminated string literal"),
    (Ad, "/* never closed", 1, 1, "unterminated block comment"),
    (Ad, "X = 1;\n  /* open\n still open", 2, 3, "unterminated block comment"),
    (Ad, "X = \"a\\qb\";", 1, 5, "bad escape Some('q')"),
    (Ad, "X = \"a\\", 1, 5, "bad escape None"),
    (Ad, "A = 1 & 2;", 1, 7, "single `&` (did you mean `&&`?)"),
    (Ad, "A = 1 | 2;", 1, 7, "single `|` (did you mean `||`?)"),
    (Ad, "X = 1.2.3;", 1, 5, "bad number `1.2.3`"),
    (Ad, "X = 1e;", 1, 5, "bad number `1e`"),
    (Ad, "X = 2e+;", 1, 5, "bad number `2e+`"),
    (Ad, "X = 99999999999999999999;", 1, 5, "bad integer `99999999999999999999`"),
    (Ad, "\tX = @;", 1, 6, "unexpected character '@'"),
    (Ad, "X = 1;\r\nY = $;", 2, 5, "unexpected character '$'"),
    // A lex error after an earlier parse error still wins.
    (Ad, "X = ;\nY = \"unterminated", 2, 5, "unterminated string literal"),
    (Ad, "X 1;\nY = 1 & 2;", 2, 7, "single `&` (did you mean `&&`?)"),
    // Non-ASCII before the error: a column is a character count.
    (Ad, "X = \"h\u{e9}llo\" @;", 1, 13, "unexpected character '@'"),
    (Ad, "X = \"\u{65e5}\u{672c}\u{8a9e}\"; Y = 1.2.3;", 1, 16, "bad number `1.2.3`"),
    (Ad, "# \u{30b3}\u{30e1}\u{30f3}\u{30c8}\nX = \"\u{fc}\" Y", 2, 9, "expected `;`, found identifier `Y`"),
    (Ad, "X = \"\u{e9}", 1, 5, "unterminated string literal"),
    (Ad, "X = \u{e9};", 1, 5, "unexpected character '\u{e9}'"),
    (Ad, "/* \u{1f600} */ X = \"\u{1f600}\\z\";", 1, 13, "bad escape Some('z')"),
    // Syntax errors.
    (Ad, "X = 1; }", 1, 8, "expected attribute name, found `}`"),
    (Ad, "X = 1", 1, 6, "expected `;`, found end of input"),
    (Ad, "X = 1 Y = 2;", 1, 7, "expected `;`, found identifier `Y`"),
    (Ad, "[ X = 1;", 1, 9, "unterminated ad: missing `}`"),
    (Ad, "[\n  X = 1;\n", 3, 1, "unterminated ad: missing `}`"),
    (Ad, "X = foo.", 1, 9, "expected attribute name after `foo.`, found end of input"),
    (Ad, "X = foo.;", 1, 10, "expected attribute name after `foo.`, found `;`"),
    (Ad, "X = foo.; Y = 2;", 1, 11, "expected attribute name after `foo.`, found `;`"),
    (Ad, "X = foo.3;", 1, 10, "expected attribute name after `foo.`, found integer 3"),
    (Ad, "= 1;", 1, 1, "expected attribute name, found `=`"),
    (Ad, "X 1;", 1, 3, "expected `=`, found integer 1"),
    (Ad, "X = {1, 2;", 1, 10, "expected `}`, found `;`"),
    (Ad, "X = (1 + 2;", 1, 11, "expected `)`, found `;`"),
    (Ad, "X = f(1, 2;", 1, 11, "expected `)`, found `;`"),
    (Ad, "X = 1 ? 2;", 1, 10, "expected `:`, found `;`"),
    (Ad, "X = ;", 1, 5, "expected a value, found `;`"),
    (Ad, "X = \"str\" \"s\\\"2\";", 1, 11, "expected `;`, found string \"s\\\"2\""),
    (Ad, "X = true false;", 1, 10, "expected `;`, found boolean false"),
    (Ad, "X = !;", 1, 6, "expected a value, found `;`"),
    (Ad, "X = -;", 1, 6, "expected a value, found `;`"),
    (Ad, "X = 1 +", 1, 8, "expected a value, found end of input"),
    (Ad, "X = 1 <", 1, 8, "expected a value, found end of input"),
    (Ad, "true = 1;", 1, 1, "expected attribute name, found boolean true"),
    (Ad, "X = 1;;", 1, 7, "expected attribute name, found `;`"),
    (Expression, "1 +", 1, 4, "expected a value, found end of input"),
    (Expression, "1 2", 1, 3, "trailing input after expression"),
    (Expression, "", 1, 1, "expected a value, found end of input"),
    (Expression, "(", 1, 2, "expected a value, found end of input"),
    (Expression, "f(", 1, 3, "expected a value, found end of input"),
    (Expression, "a.", 1, 3, "expected attribute name after `a.`, found end of input"),
    (Expression, "a ? b", 1, 6, "expected `:`, found end of input"),
    (Expression, "\"\u{e9}\u{e9}\" +", 1, 7, "expected a value, found end of input"),
    (Expression, "1 &", 1, 3, "single `&` (did you mean `&&`?)"),
    (Expression, "x == \"abc", 1, 6, "unterminated string literal"),
];

fn identity(e: &ParseError) -> (u32, u32, &str) {
    (e.pos.line, e.pos.col, e.message.as_str())
}

#[test]
fn malformed_sources_report_the_pinned_first_error() {
    assert!(MALFORMED.len() >= 20);
    for &(entry, src, line, col, message) in MALFORMED {
        let (plain, spanned) = match entry {
            Ad => (
                parse_ad(src).expect_err(src),
                parse_ad_spanned(src).map(|_| ()).expect_err(src),
            ),
            Expression => (
                parse_expr(src).expect_err(src),
                parse_expr_spanned(src).map(|_| ()).expect_err(src),
            ),
        };
        assert_eq!(identity(&plain), (line, col, message), "{entry:?} {src:?}");
        assert_eq!(plain, spanned, "with and without spans: {entry:?} {src:?}");
    }
}
