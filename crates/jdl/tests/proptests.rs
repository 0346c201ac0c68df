//! Property tests: printing and reparsing are inverse operations, and the
//! expression evaluator is total and stable over the printed form.

use cg_jdl::{parse_ad, parse_ad_spanned, parse_expr, Ad, Ctx, Expr, Value};
use proptest::prelude::*;

/// Attribute names: identifiers that aren't keywords.
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,12}".prop_filter("keyword", |s| {
        !["true", "false", "undefined"].contains(&s.to_ascii_lowercase().as_str())
    })
}

/// Scalar values that print and reparse exactly.
fn scalar_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ -~]{0,20}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        // Finite doubles with exact decimal round-trip via {x} formatting.
        (-1e9f64..1e9).prop_map(Value::Double),
    ]
}

/// Any text a string literal can stand for: the lexer reads every character
/// but a newline verbatim and a newline as `\n`, so that is any text at all.
/// The classes are the ones a printer is tempted to escape its own way —
/// controls, DEL, Latin-1, combining marks, zero-width and bidi marks, CJK,
/// characters outside the BMP — beside printable ASCII.
fn text_strategy() -> impl Strategy<Value = String> {
    "[\u{0}-\u{ff}\u{300}-\u{30f}\u{200b}-\u{200f}\u{4e00}-\u{4e1f}\u{1f600}-\u{1f60f}]{0,24}"
}

fn value_strategy() -> impl Strategy<Value = Value> {
    scalar_strategy().prop_recursive(2, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

/// Expressions built from integer literals and arithmetic/comparison/logic,
/// guaranteed well-typed by construction.
fn int_expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (-1000i64..1000).prop_map(Expr::Int);
    leaf.prop_recursive(4, 32, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop::sample::select(vec!["+", "-", "*"]),
        )
            .prop_map(|(a, b, op)| {
                let op = match op {
                    "+" => cg_jdl::BinOp::Add,
                    "-" => cg_jdl::BinOp::Sub,
                    _ => cg_jdl::BinOp::Mul,
                };
                Expr::Bin(op, Box::new(a), Box::new(b))
            })
    })
}

/// Tokens (and near-tokens) to string together at random.
#[rustfmt::skip]
const SOUP: &[&str] = &[
    "X", "Rank", "other", "member", "true", "undefined", "=", "=", "=", ";", ";", ";", ",", "{", "}",
    "[", "]", "(", ")", ".", "==", "<=", "&&", "||", "!", "+", "-", "*", "/", "%", "?", ":", "&",
    "1", "4.5", "1e", "\"s\"", "\"a\\\"b\"", "\"\\q\"", "\"open", "// c\n", "/* b */", "/* open", "\n", "@",
];

proptest! {
    /// Ad print → strip brackets → reparse → identical ad.
    #[test]
    fn ad_print_parse_round_trip(
        attrs in prop::collection::vec((name_strategy(), value_strategy()), 0..8)
    ) {
        let mut ad = Ad::new();
        for (name, value) in attrs {
            ad.set(name, value);
        }
        let printed = ad.to_string();
        let inner = printed.trim().trim_start_matches('[').trim_end_matches(']');
        let reparsed = parse_ad(inner).unwrap();
        prop_assert_eq!(ad, reparsed);
    }

    /// Any string the lexer can produce survives print → reparse unchanged,
    /// as an attribute value, inside a list and inside an expression: the
    /// printed ad is the journal's commit record and what a re-match of a
    /// job on a dead site parses.
    #[test]
    fn any_string_survives_print_and_reparse(text in text_strategy(), other in text_strategy()) {
        let mut ad = Ad::new();
        ad.set_str("Executable", text.clone());
        ad.set("Tags", Value::List(vec![Value::Str(other.clone()), Value::Str(text.clone())]));
        ad.set("Requirements", Value::Expr(Expr::Bin(
            cg_jdl::BinOp::Eq,
            Box::new(Expr::Str(text)),
            Box::new(Expr::Str(other)),
        )));
        let reparsed = parse_ad(&ad.to_string());
        prop_assert_eq!(reparsed, Ok(ad));
    }

    /// Expression display → parse → identical evaluation.
    #[test]
    fn expr_display_parse_evaluation_stable(e in int_expr_strategy()) {
        let empty = Ad::new();
        let ctx = Ctx { own: &empty, other: &empty };
        let printed = e.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        prop_assert_eq!(e.eval(ctx).unwrap(), reparsed.eval(ctx).unwrap());
    }

    /// The evaluator never panics on arbitrary well-formed integer arithmetic
    /// (wrapping semantics; division only by parser-produced literals).
    #[test]
    fn evaluator_is_total_on_int_arithmetic(e in int_expr_strategy()) {
        let empty = Ad::new();
        let ctx = Ctx { own: &empty, other: &empty };
        prop_assert!(e.eval(ctx).is_ok());
    }

    /// Lexing arbitrary bytes never panics (errors are fine).
    #[test]
    fn lexer_is_total(src in "[ -~\n\t]{0,200}") {
        let _ = cg_jdl::lex(&src);
    }

    /// With and without spans is one parse: the same ad, or the same error
    /// at the same position — on arbitrary printable input, which seldom
    /// gets past its first token, and on token soup, which gets deep.
    #[test]
    fn spanned_and_plain_parses_agree(
        noise in "[ -~\n\t]{0,200}",
        soup in prop::collection::vec(prop::sample::select(SOUP.to_vec()), 0..48),
    ) {
        for src in [noise, soup.join(" ")] {
            prop_assert_eq!(parse_ad(&src), parse_ad_spanned(&src).map(|(ad, _)| ad));
        }
    }

    /// Parsing arbitrary printable input never panics.
    #[test]
    fn parser_is_total(src in "[ -~\n\t]{0,200}") {
        let _ = parse_ad(&src);
        let _ = parse_expr(&src);
    }
}
