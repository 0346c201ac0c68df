//! Recursive-descent parser for JDL attribute records and expressions.
//!
//! Grammar (after lexing):
//!
//! ```text
//! ad      := '[' attr* ']' | attr*
//! attr    := IDENT '=' value ';'
//! value   := list | expr
//! list    := '{' (value (',' value)*)? '}'
//! expr    := or ('?' expr ':' expr)?
//! or      := and ('||' and)*
//! and     := cmp ('&&' cmp)*
//! cmp     := add (CMPOP add)?
//! add     := mul (('+'|'-') mul)*
//! mul     := unary (('*'|'/'|'%') unary)*
//! unary   := ('!'|'-') unary | primary
//! primary := literal | IDENT ['.' IDENT] | IDENT '(' args ')' | '(' expr ')'
//! ```
//!
//! Plain literal values are stored as scalars; anything with structure is
//! stored as an unevaluated [`Expr`].
//!
//! The spanned entry points ([`parse_ad_spanned`]) additionally return a
//! [`Span`] tree that mirrors each expression's shape, so the static
//! analyzer in [`crate::analyze`] can attach line/column positions to
//! diagnostics about any subexpression.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::ast::{Ad, Value};
use crate::expr::{BinOp, Expr, Scope};
use crate::lexer::{LexError, Lexer, Pos, Tok};

/// A parse failure with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where (end-of-input errors point just past the last character).
    pub pos: Pos,
    /// What.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: e.message,
        }
    }
}

/// Source positions for an [`Expr`], mirroring its shape: `pos` locates the
/// node itself (operators point at the operator token) and `kids` line up
/// with the expression's children in evaluation order — `[cond, then, else]`
/// for a ternary, `[left, right]` for a binary operator, the argument list
/// for a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position of this node in the source.
    pub pos: Pos,
    /// Child spans, in the same order as the expression's children.
    pub kids: Vec<Span>,
}

impl Span {
    /// A childless span at `pos`.
    pub fn leaf(pos: Pos) -> Span {
        Span {
            pos,
            kids: Vec::new(),
        }
    }

    /// A placeholder span (1:1) for expressions that never came from source
    /// text, e.g. ads built programmatically.
    pub fn synthetic() -> Span {
        Span::leaf(Pos { line: 1, col: 1 })
    }

    /// The `i`-th child span, falling back to `self` when the span tree is
    /// shallower than the expression (synthetic spans have no children).
    pub fn child(&self, i: usize) -> &Span {
        self.kids.get(i).unwrap_or(self)
    }
}

/// Positions for the attributes of a parsed ad: where each attribute name
/// appears and the [`Span`] tree of its value expression.
#[derive(Debug, Clone, Default)]
pub struct AdSpans {
    /// `(lowercased name, name position, value span)`; later duplicates win,
    /// matching [`Ad::set`] overwrite semantics.
    attrs: Vec<(String, Pos, Span)>,
}

impl AdSpans {
    fn find(&self, name: &str) -> Option<&(String, Pos, Span)> {
        self.attrs
            .iter()
            .rev()
            .find(|(n, _, _)| n.eq_ignore_ascii_case(name))
    }

    /// Position of the attribute's name, case-insensitively.
    pub fn name_pos(&self, name: &str) -> Option<Pos> {
        self.find(name).map(|&(_, p, _)| p)
    }

    /// Span tree of the attribute's value, case-insensitively.
    pub fn value_span(&self, name: &str) -> Option<&Span> {
        self.find(name).map(|(_, _, s)| s)
    }
}

/// What a parse records about positions beside the tree it builds: [`Span`]
/// for the spanned entry points, `()` — nothing, at no cost — for the plain
/// ones. The one [`Parser`] is written against this.
trait Positions: Sized {
    /// Positions of an ad's attributes.
    type Attrs: Default;
    /// A childless node at `pos`.
    fn leaf(pos: Pos) -> Self;
    /// A node at `pos` over `kids` (a `Vec<()>` never allocates).
    fn node(pos: Pos, kids: Vec<Self>) -> Self;
    /// A ternary, which sits where its condition does.
    fn ternary(cond: Self, then: Self, otherwise: Self) -> Self;
    /// Notes an attribute of the ad being parsed.
    fn record(attrs: &mut Self::Attrs, name: &str, name_pos: Pos, value: Self);
}

impl Positions for Span {
    type Attrs = AdSpans;

    fn leaf(pos: Pos) -> Span {
        Span::leaf(pos)
    }

    fn node(pos: Pos, kids: Vec<Span>) -> Span {
        Span { pos, kids }
    }

    fn ternary(cond: Span, then: Span, otherwise: Span) -> Span {
        Span {
            pos: cond.pos,
            kids: vec![cond, then, otherwise],
        }
    }

    fn record(attrs: &mut AdSpans, name: &str, name_pos: Pos, value: Span) {
        attrs
            .attrs
            .push((name.to_ascii_lowercase(), name_pos, value));
    }
}

impl Positions for () {
    type Attrs = ();
    fn leaf(_: Pos) {}
    fn node(_: Pos, _: Vec<()>) {}
    fn ternary((): (), (): (), (): ()) {}
    fn record((): &mut (), _: &str, _: Pos, (): ()) {}
}

/// A recursive-descent parser pulling tokens from the [`Lexer`] as it goes,
/// one token ahead. Tokens borrow the source; a slice becomes a `String`
/// only where the tree keeps it.
struct Parser<'a, P> {
    lexer: Lexer<'a>,
    /// The next token and where it starts; `None` at end of input.
    ahead: Option<(Tok<'a>, Pos)>,
    positions: PhantomData<P>,
}

/// Runs `parse` over `src`. Whatever it returns, a lexical error in the part
/// of the source it never reached is reported instead — lexing is, to the
/// caller, a phase that precedes parsing.
fn run<'a, P: Positions, T>(
    src: &'a str,
    parse: impl FnOnce(&mut Parser<'a, P>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut lexer = Lexer::new(src);
    let ahead = lexer.next_token()?;
    let mut parser = Parser {
        lexer,
        ahead,
        positions: PhantomData,
    };
    let result = parse(&mut parser);
    parser.lexer.drain()?;
    result
}

impl<'a, P: Positions> Parser<'a, P> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.ahead.as_ref().map(|(t, _)| t)
    }

    /// Where the next token starts; at end of input, just past the source.
    fn pos(&self) -> Pos {
        self.ahead.as_ref().map_or(self.lexer.pos(), |&(_, p)| p)
    }

    /// Takes the next token, with its position.
    fn next(&mut self) -> Result<Option<(Tok<'a>, Pos)>, ParseError> {
        let following = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.ahead, following))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Tok<'static>) -> Result<(), ParseError> {
        match self.next()? {
            Some((t, _)) if t == *want => Ok(()),
            Some((t, pos)) => Err(ParseError {
                pos,
                message: format!("expected {want}, found {t}"),
            }),
            None => Err(self.error(format!("expected {want}, found end of input"))),
        }
    }

    fn eat(&mut self, want: &Tok<'static>) -> Result<bool, ParseError> {
        let found = self.peek() == Some(want);
        if found {
            self.next()?;
        }
        Ok(found)
    }

    /// Takes the next token if `op_of` makes an operator of it.
    fn eat_op(
        &mut self,
        op_of: impl Fn(&Tok<'a>) -> Option<BinOp>,
    ) -> Result<Option<(BinOp, Pos)>, ParseError> {
        let Some(op) = self.peek().and_then(op_of) else {
            return Ok(None);
        };
        let pos = self.pos();
        self.next()?;
        Ok(Some((op, pos)))
    }

    fn parse_ad(&mut self) -> Result<(Ad, P::Attrs), ParseError> {
        // EDG JDL optionally wraps an ad in `[ ]`, which the lexer maps to
        // the braces; `{ attrs }` is accepted too.
        let bracketed = self.eat(&Tok::LBrace)?;
        let mut ad = Ad::with_capacity(self.lexer.semicolons());
        let mut attrs = P::Attrs::default();
        loop {
            let name_pos = self.pos();
            match self.next()? {
                None if bracketed => return Err(self.error("unterminated ad: missing `}`")),
                None => break,
                Some((Tok::RBrace, _)) if bracketed => break,
                Some((Tok::Ident(name), _)) => {
                    self.expect(&Tok::Assign)?;
                    let (value, vsp) = self.parse_value()?;
                    self.expect(&Tok::Semi)?;
                    P::record(&mut attrs, name, name_pos, vsp);
                    ad.set(name, value);
                }
                Some((t, pos)) => {
                    return Err(ParseError {
                        pos,
                        message: format!("expected attribute name, found {t}"),
                    })
                }
            }
        }
        Ok((ad, attrs))
    }

    fn parse_value(&mut self) -> Result<(Value, P), ParseError> {
        if self.peek() == Some(&Tok::LBrace) {
            return self.parse_list();
        }
        let (expr, sp) = self.parse_expr()?;
        Ok((simplify(expr), sp))
    }

    fn parse_list(&mut self) -> Result<(Value, P), ParseError> {
        let list_pos = self.pos();
        self.expect(&Tok::LBrace)?;
        let mut items = Vec::new();
        let mut kids = Vec::new();
        if !self.eat(&Tok::RBrace)? {
            loop {
                let (v, sp) = self.parse_value()?;
                items.push(v);
                kids.push(sp);
                if self.eat(&Tok::Comma)? {
                    continue;
                }
                self.expect(&Tok::RBrace)?;
                break;
            }
        }
        Ok((Value::List(items.into()), P::node(list_pos, kids)))
    }

    fn parse_expr(&mut self) -> Result<(Expr, P), ParseError> {
        let (cond, csp) = self.parse_or()?;
        if !self.eat(&Tok::Question)? {
            return Ok((cond, csp));
        }
        let (a, asp) = self.parse_expr()?;
        self.expect(&Tok::Colon)?;
        let (b, bsp) = self.parse_expr()?;
        Ok((
            Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
            P::ternary(csp, asp, bsp),
        ))
    }

    /// `operand (op operand)*`, left-associative; each operator's node sits
    /// at the operator token.
    fn parse_left_assoc(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<(Expr, P), ParseError>,
        op_of: impl Fn(&Tok<'a>) -> Option<BinOp>,
    ) -> Result<(Expr, P), ParseError> {
        let (mut e, mut sp) = operand(self)?;
        while let Some((op, op_pos)) = self.eat_op(&op_of)? {
            let (r, rsp) = operand(self)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
            sp = P::node(op_pos, vec![sp, rsp]);
        }
        Ok((e, sp))
    }

    fn parse_or(&mut self) -> Result<(Expr, P), ParseError> {
        self.parse_left_assoc(Self::parse_and, |t| {
            matches!(t, Tok::Or).then_some(BinOp::Or)
        })
    }

    fn parse_and(&mut self) -> Result<(Expr, P), ParseError> {
        self.parse_left_assoc(Self::parse_cmp, |t| {
            matches!(t, Tok::And).then_some(BinOp::And)
        })
    }

    fn parse_cmp(&mut self) -> Result<(Expr, P), ParseError> {
        let (e, sp) = self.parse_add()?;
        let compared = self.eat_op(|t| match t {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        })?;
        let Some((op, op_pos)) = compared else {
            return Ok((e, sp));
        };
        let (r, rsp) = self.parse_add()?;
        Ok((
            Expr::Bin(op, Box::new(e), Box::new(r)),
            P::node(op_pos, vec![sp, rsp]),
        ))
    }

    fn parse_add(&mut self) -> Result<(Expr, P), ParseError> {
        self.parse_left_assoc(Self::parse_mul, |t| match t {
            Tok::Plus => Some(BinOp::Add),
            Tok::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_mul(&mut self) -> Result<(Expr, P), ParseError> {
        self.parse_left_assoc(Self::parse_unary, |t| match t {
            Tok::Star => Some(BinOp::Mul),
            Tok::Slash => Some(BinOp::Div),
            Tok::Percent => Some(BinOp::Mod),
            _ => None,
        })
    }

    fn parse_unary(&mut self) -> Result<(Expr, P), ParseError> {
        let op_pos = self.pos();
        if self.eat(&Tok::Not)? {
            let (e, sp) = self.parse_unary()?;
            return Ok((Expr::Not(Box::new(e)), P::node(op_pos, vec![sp])));
        }
        if self.eat(&Tok::Minus)? {
            // Fold negation into numeric literals.
            let (e, sp) = self.parse_unary()?;
            return Ok(match e {
                Expr::Int(n) => (Expr::Int(-n), P::leaf(op_pos)),
                Expr::Double(x) => (Expr::Double(-x), P::leaf(op_pos)),
                e => (Expr::Neg(Box::new(e)), P::node(op_pos, vec![sp])),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<(Expr, P), ParseError> {
        let start = self.pos();
        let leaf = |e| Ok((e, P::leaf(start)));
        match self.next()? {
            Some((Tok::Str(s), _)) => leaf(Expr::Str(Arc::from(&*s))),
            Some((Tok::Int(n), _)) => leaf(Expr::Int(n)),
            Some((Tok::Double(x), _)) => leaf(Expr::Double(x)),
            Some((Tok::Bool(b), _)) => leaf(Expr::Bool(b)),
            Some((Tok::Undefined, _)) => leaf(Expr::Undefined),
            Some((Tok::LParen, _)) => {
                let (e, sp) = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok((e, sp))
            }
            Some((Tok::Ident(name), _)) => {
                if self.eat(&Tok::LParen)? {
                    let mut args = Vec::new();
                    let mut kids = Vec::new();
                    if !self.eat(&Tok::RParen)? {
                        loop {
                            let (a, sp) = self.parse_expr()?;
                            args.push(a);
                            kids.push(sp);
                            if self.eat(&Tok::Comma)? {
                                continue;
                            }
                            self.expect(&Tok::RParen)?;
                            break;
                        }
                    }
                    return Ok((Expr::Call(name.to_string(), args), P::node(start, kids)));
                }
                if !self.eat(&Tok::Dot)? {
                    return leaf(Expr::Ref {
                        scope: Scope::Bare,
                        name: name.to_string(),
                    });
                }
                match self.next()? {
                    Some((Tok::Ident(attr), _)) => leaf(Expr::Ref {
                        scope: Scope::of(name),
                        name: attr.to_string(),
                    }),
                    // Points past the token it names: that one is consumed.
                    other => Err(self.error(format!(
                        "expected attribute name after `{name}.`, found {}",
                        other.map_or_else(|| "end of input".into(), |(t, _)| t.to_string())
                    ))),
                }
            }
            Some((t, pos)) => Err(ParseError {
                pos,
                message: format!("expected a value, found {t}"),
            }),
            None => Err(self.error("expected a value, found end of input")),
        }
    }
}

/// Literal expressions collapse to scalar values; everything else stays an
/// unevaluated expression.
fn simplify(e: Expr) -> Value {
    match e {
        Expr::Str(s) => Value::Str(s),
        Expr::Int(n) => Value::Int(n),
        Expr::Double(x) => Value::Double(x),
        Expr::Bool(b) => Value::Bool(b),
        other => Value::Expr(other),
    }
}

fn whole_expr<P: Positions>(p: &mut Parser<'_, P>) -> Result<(Expr, P), ParseError> {
    let parsed = p.parse_expr()?;
    if p.peek().is_some() {
        return Err(p.error("trailing input after expression"));
    }
    Ok(parsed)
}

/// Parses a complete attribute record.
pub fn parse_ad(src: &str) -> Result<Ad, ParseError> {
    run(src, Parser::<()>::parse_ad).map(|(ad, ())| ad)
}

/// Parses a complete attribute record, also returning source positions for
/// every attribute and its value expression — the input the static analyzer
/// needs to produce span-accurate diagnostics.
pub fn parse_ad_spanned(src: &str) -> Result<(Ad, AdSpans), ParseError> {
    run(src, Parser::<Span>::parse_ad)
}

/// Parses a standalone expression (e.g. a Requirements string).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    run(src, whole_expr::<()>).map(|(e, ())| e)
}

/// Parses a standalone expression along with its [`Span`] tree.
pub fn parse_expr_spanned(src: &str) -> Result<(Expr, Span), ParseError> {
    run(src, whole_expr::<Span>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Ctx, Cv};

    #[test]
    fn parses_the_papers_figure_2() {
        let ad = parse_ad(
            r#"
            Executable = "interactive_mpich-g2_app";
            JobType = {"interactive", "mpich-g2"};
            NodeNumber = 2;
            Arguments = "-n";
        "#,
        )
        .unwrap();
        assert_eq!(
            ad.get("Executable").unwrap().as_str(),
            Some("interactive_mpich-g2_app")
        );
        assert_eq!(ad.get("NodeNumber").unwrap().as_i64(), Some(2));
        let jt = ad.get("JobType").unwrap().as_list().unwrap();
        assert_eq!(jt.len(), 2);
        assert_eq!(jt[0].as_str(), Some("interactive"));
        assert_eq!(jt[1].as_str(), Some("mpich-g2"));
    }

    #[test]
    fn parses_requirements_expression() {
        let ad = parse_ad(
            r#"
            Requirements = other.Arch == "i686" && other.FreeCpus >= NodeNumber;
            Rank = other.FreeCpus * 2 - other.LoadAvg;
            NodeNumber = 2;
        "#,
        )
        .unwrap();
        let Value::Expr(req) = ad.get("Requirements").unwrap() else {
            panic!("Requirements should stay an expression")
        };
        let mut machine = Ad::new();
        machine
            .set_str("Arch", "i686")
            .set_int("FreeCpus", 3)
            .set_double("LoadAvg", 0.5);
        let ctx = Ctx {
            own: &ad,
            other: &machine,
        };
        assert!(req.eval_requirement(ctx).unwrap());
        let Value::Expr(rank) = ad.get("Rank").unwrap() else {
            panic!()
        };
        assert_eq!(rank.eval_rank(ctx).unwrap(), 5.5);
    }

    #[test]
    fn precedence_is_conventional() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        let empty = Ad::new();
        let ctx = Ctx {
            own: &empty,
            other: &empty,
        };
        assert_eq!(e.eval(ctx).unwrap(), Cv::Val(Value::Bool(true)));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval(ctx).unwrap(), Cv::Val(Value::Int(9)));
        let e = parse_expr("2 - 1 - 1").unwrap();
        assert_eq!(e.eval(ctx).unwrap(), Cv::Val(Value::Int(0)), "left assoc");
    }

    #[test]
    fn unary_folding_and_nesting() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Int(-5));
        assert_eq!(parse_expr("-5.5").unwrap(), Expr::Double(-5.5));
        let e = parse_expr("!!true").unwrap();
        let empty = Ad::new();
        assert_eq!(
            e.eval(Ctx {
                own: &empty,
                other: &empty
            })
            .unwrap(),
            Cv::Val(Value::Bool(true))
        );
    }

    #[test]
    fn nested_lists() {
        let ad = parse_ad(r#"X = {1, {2, 3}, "four"};"#).unwrap();
        let l = ad.get("X").unwrap().as_list().unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l[1].as_list().unwrap().len(), 2);
    }

    #[test]
    fn empty_list_and_empty_ad() {
        let ad = parse_ad("X = {};").unwrap();
        assert_eq!(ad.get("X").unwrap().as_list().unwrap().len(), 0);
        let ad = parse_ad("").unwrap();
        assert!(ad.is_empty());
    }

    #[test]
    fn function_calls_parse() {
        let e = parse_expr(r#"member("MPICH-G2", other.RunTimeEnv)"#).unwrap();
        assert!(matches!(e, Expr::Call(ref name, ref args) if name == "member" && args.len() == 2));
    }

    #[test]
    fn ternary_parses() {
        let e = parse_expr("true ? 1 : 2").unwrap();
        let empty = Ad::new();
        assert_eq!(
            e.eval(Ctx {
                own: &empty,
                other: &empty
            })
            .unwrap(),
            Cv::Val(Value::Int(1))
        );
    }

    #[test]
    fn errors_are_located_and_described() {
        let err = parse_ad("Executable \"app\";").unwrap_err();
        assert!(err.message.contains("expected `=`"), "{}", err.message);
        let err = parse_ad("X = ;").unwrap_err();
        assert!(err.message.contains("expected a value"), "{}", err.message);
        let err = parse_ad("X = 1").unwrap_err();
        assert!(err.message.contains("`;`"), "{}", err.message);
        let err = parse_expr("1 +").unwrap_err();
        assert!(err.message.contains("end of input"), "{}", err.message);
        let err = parse_expr("1 2").unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    #[test]
    fn end_of_input_errors_point_past_the_source() {
        let err = parse_expr("1 +").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 4));
        let err = parse_ad("X = 1").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 6));
    }

    #[test]
    fn scope_refs() {
        let e = parse_expr("other.FreeCpus >= self.NodeNumber").unwrap();
        let mut job = Ad::new();
        job.set_int("NodeNumber", 2);
        let mut machine = Ad::new();
        machine.set_int("FreeCpus", 2);
        assert!(e
            .eval_requirement(Ctx {
                own: &job,
                other: &machine
            })
            .unwrap());
    }

    #[test]
    fn a_scope_prints_lower_cased_and_the_name_as_written() {
        for (src, scope, printed) in [
            ("Cpus", Scope::Bare, "Cpus"),
            ("SELF.Cpus", Scope::Own, "self.Cpus"),
            ("Other.Cpus", Scope::Other, "other.Cpus"),
            ("MyAd.Cpus", Scope::Unknown("myad".into()), "myad.Cpus"),
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(e.to_string(), printed, "{src}");
            assert_eq!(
                e,
                Expr::Ref {
                    scope,
                    name: "Cpus".into()
                },
                "{src}"
            );
        }
    }

    #[test]
    fn round_trip_print_reparse() {
        let src = r#"
            Executable = "app";
            JobType = {"interactive", "mpich-p4"};
            NodeNumber = 4;
            PerformanceLoss = 10;
            Requirements = other.FreeCpus >= 4 && member("CG", other.Tags);
        "#;
        let ad = parse_ad(src).unwrap();
        let printed = ad.to_string();
        // The printed form wraps in [ ] which parse_ad does not consume; strip.
        let inner = printed.trim().trim_start_matches('[').trim_end_matches(']');
        let reparsed = parse_ad(inner).unwrap();
        assert_eq!(ad, reparsed);
    }

    #[test]
    fn spans_mirror_expression_shape() {
        let (e, sp) = parse_expr_spanned("other.FreeCpus >= 2 && !flag").unwrap();
        let Expr::Bin(BinOp::And, _, _) = e else {
            panic!()
        };
        // `&&` is at col 21, `>=` at col 16, the `!` at col 24.
        assert_eq!((sp.pos.line, sp.pos.col), (1, 21));
        assert_eq!(sp.kids.len(), 2);
        assert_eq!(sp.child(0).pos.col, 16);
        assert_eq!(sp.child(0).child(0).pos.col, 1);
        assert_eq!(sp.child(0).child(1).pos.col, 19);
        assert_eq!(sp.child(1).pos.col, 24);
        assert_eq!(sp.child(1).child(0).pos.col, 25);
    }

    #[test]
    fn ad_spans_locate_attribute_names_and_values() {
        let src = "NodeNumber = 2;\nRequirements = other.FreeCpus >= NodeNumber;\n";
        let (_, spans) = parse_ad_spanned(src).unwrap();
        let p = spans.name_pos("requirements").unwrap();
        assert_eq!((p.line, p.col), (2, 1));
        let v = spans.value_span("Requirements").unwrap();
        assert_eq!((v.pos.line, v.pos.col), (2, 31), "points at `>=`");
        assert_eq!(v.child(0).pos.col, 16);
        // Synthetic fallback: asking deeper than the tree goes returns self.
        let leaf = v.child(0);
        assert_eq!(leaf.child(5).pos, leaf.pos);
    }
}
