//! Requirements/Rank expressions — a ClassAd-lite language with tri-state
//! (`undefined`-propagating) semantics, used for matchmaking between job
//! descriptions and machine advertisements.
//!
//! In a job's expression, a bare name refers to the job's own attributes and
//! `other.Name` refers to the candidate machine's — the matchmaking convention
//! of Condor ClassAds, which the EDG/CrossGrid JDL inherited.

use std::cmp::Ordering;
use std::fmt;

use crate::ast::{Ad, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinOp {
    /// `==`, `!=`, `<`, `<=`, `>` or `>=`.
    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// The `undefined` literal.
    Undefined,
    /// Attribute reference; `scope` is `Some("other")` for machine attributes.
    Ref {
        /// `None` = own ad, `Some(scope)` = the named counterpart ad.
        scope: Option<String>,
        /// Attribute name.
        name: String,
    },
    /// Logical negation `!e`.
    Not(Box<Expr>),
    /// Arithmetic negation `-e`.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function call; supported: `member(value, list)`.
    Call(String, Vec<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Str(s) => crate::lexer::write_quoted(f, s),
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Double(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Undefined => write!(f, "undefined"),
            Expr::Ref { scope, name } => match scope {
                Some(s) => write!(f, "{s}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Ternary(c, a, b) => write!(f, "({c} ? {a} : {b})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Result of evaluating an expression: a value or `undefined`.
///
/// Undefined propagates through most operators, but `&&`/`||` short-circuit
/// around it when the defined side decides the result — exactly the ClassAd
/// behaviour that lets `Requirements` survive machines missing an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Cv {
    /// A concrete value.
    Val(Value),
    /// The undefined state.
    Undefined,
}

impl Cv {
    pub(crate) fn bool_or_undef(&self) -> Option<bool> {
        match self {
            Cv::Val(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// An evaluation type error (e.g. `"a" + 1`). Undefined attributes are NOT
/// errors — they evaluate to [`Cv::Undefined`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eval error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

pub(crate) fn err(message: impl Into<String>) -> EvalError {
    EvalError {
        message: message.into(),
    }
}

/// Evaluation context: the expression's own ad plus the counterpart
/// (`other.*`) ad.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The ad the expression belongs to (bare references).
    pub own: &'a Ad,
    /// The counterpart ad (`other.*` references).
    pub other: &'a Ad,
}

impl Expr {
    /// Evaluates the expression in a matchmaking context.
    pub fn eval(&self, ctx: Ctx<'_>) -> Result<Cv, EvalError> {
        match self {
            Expr::Str(s) => Ok(Cv::Val(Value::Str(s.clone()))),
            Expr::Int(n) => Ok(Cv::Val(Value::Int(*n))),
            Expr::Double(x) => Ok(Cv::Val(Value::Double(*x))),
            Expr::Bool(b) => Ok(Cv::Val(Value::Bool(*b))),
            Expr::Undefined => Ok(Cv::Undefined),
            Expr::Ref { scope, name } => {
                let ad = match scope.as_deref() {
                    None | Some("self") => ctx.own,
                    Some("other") => ctx.other,
                    Some(s) => return Err(err(format!("unknown scope `{s}`"))),
                };
                match ad.get(name) {
                    // A stored expression evaluates in the owning ad's frame —
                    // with `own` and `other` swapped when reached via `other.`.
                    Some(Value::Expr(e)) => {
                        let frame = if scope.as_deref() == Some("other") {
                            Ctx {
                                own: ctx.other,
                                other: ctx.own,
                            }
                        } else {
                            ctx
                        };
                        e.eval(frame)
                    }
                    Some(v) => Ok(Cv::Val(v.clone())),
                    None => Ok(Cv::Undefined),
                }
            }
            Expr::Not(e) => match e.eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(Value::Bool(b)) => Ok(Cv::Val(Value::Bool(!b))),
                Cv::Val(v) => Err(err(format!("! applied to non-boolean {v}"))),
            },
            Expr::Neg(e) => match e.eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(Value::Int(n)) => Ok(Cv::Val(Value::Int(-n))),
                Cv::Val(Value::Double(x)) => Ok(Cv::Val(Value::Double(-x))),
                Cv::Val(v) => Err(err(format!("- applied to non-number {v}"))),
            },
            Expr::Bin(op, l, r) => eval_bin(*op, l, r, ctx),
            Expr::Ternary(c, a, b) => match c.eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(Value::Bool(true)) => a.eval(ctx),
                Cv::Val(Value::Bool(false)) => b.eval(ctx),
                Cv::Val(v) => Err(err(format!("ternary condition is non-boolean {v}"))),
            },
            Expr::Call(name, args) => eval_call(name, args, ctx),
        }
    }

    /// Evaluates as a boolean requirement: `true` only when the expression is
    /// defined and true (ClassAd matchmaking treats undefined as no-match).
    pub fn eval_requirement(&self, ctx: Ctx<'_>) -> Result<bool, EvalError> {
        Ok(matches!(self.eval(ctx)?, Cv::Val(Value::Bool(true))))
    }

    /// Evaluates as a rank: a number, with undefined or non-numeric treated
    /// as 0 (ClassAd rank semantics).
    pub fn eval_rank(&self, ctx: Ctx<'_>) -> Result<f64, EvalError> {
        Ok(match self.eval(ctx)? {
            Cv::Val(v) => v.as_f64().unwrap_or(0.0),
            Cv::Undefined => 0.0,
        })
    }
}

fn eval_bin(op: BinOp, l: &Expr, r: &Expr, ctx: Ctx<'_>) -> Result<Cv, EvalError> {
    // Short-circuiting logic with ClassAd undefined-absorption.
    if matches!(op, BinOp::And | BinOp::Or) {
        let lv = l.eval(ctx)?;
        if let Some(short) = logic_short_circuit(op, lv.bool_or_undef()) {
            return Ok(short);
        }
        let rv = r.eval(ctx)?;
        return apply_logic(op, lv, rv);
    }

    let lv = l.eval(ctx)?;
    let rv = r.eval(ctx)?;
    let (a, b) = match (lv, rv) {
        (Cv::Undefined, _) | (_, Cv::Undefined) => return Ok(Cv::Undefined),
        (Cv::Val(a), Cv::Val(b)) => (a, b),
    };
    apply_bin_values(op, &a, &b)
}

/// The `&&`/`||` fast exit after evaluating only the left side (`left` is
/// its value when that is a boolean): a defined `false && …` / `true || …`
/// decides without touching the right side.
pub(crate) fn logic_short_circuit(op: BinOp, left: Option<bool>) -> Option<Cv> {
    match (op, left) {
        (BinOp::And, Some(false)) => Some(Cv::Val(Value::Bool(false))),
        (BinOp::Or, Some(true)) => Some(Cv::Val(Value::Bool(true))),
        _ => None,
    }
}

/// Joins two evaluated operands of `&&`/`||` with ClassAd
/// undefined-absorption. Assumes [`logic_short_circuit`] already ran.
pub(crate) fn apply_logic(op: BinOp, lv: Cv, rv: Cv) -> Result<Cv, EvalError> {
    Ok(match (op, lv, rv) {
        (_, Cv::Val(Value::Bool(a)), Cv::Val(Value::Bool(b))) => {
            let v = if op == BinOp::And { a && b } else { a || b };
            Cv::Val(Value::Bool(v))
        }
        // One side undefined: absorbed only if the defined side decides.
        (BinOp::And, Cv::Undefined, Cv::Val(Value::Bool(false)))
        | (BinOp::And, Cv::Val(Value::Bool(false)), Cv::Undefined) => Cv::Val(Value::Bool(false)),
        (BinOp::Or, Cv::Undefined, Cv::Val(Value::Bool(true)))
        | (BinOp::Or, Cv::Val(Value::Bool(true)), Cv::Undefined) => Cv::Val(Value::Bool(true)),
        (_, Cv::Undefined, _) | (_, _, Cv::Undefined) => Cv::Undefined,
        (_, Cv::Val(a), Cv::Val(b)) => {
            return Err(err(format!("logical op on non-booleans {a} and {b}")))
        }
    })
}

/// ClassAd string ordering: case-insensitive over ASCII, byte-wise otherwise
/// — the order of `a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase())`,
/// folded a byte at a time instead of into two fresh strings.
pub(crate) fn cmp_ignore_ascii_case(a: &str, b: &str) -> Ordering {
    a.bytes()
        .map(|c| c.to_ascii_lowercase())
        .cmp(b.bytes().map(|c| c.to_ascii_lowercase()))
}

/// Applies a comparison or arithmetic operator to two defined values —
/// the shared kernel behind both the AST walker and the compiled form.
pub(crate) fn apply_bin_values(op: BinOp, a: &Value, b: &Value) -> Result<Cv, EvalError> {
    // Comparisons.
    if op.is_comparison() {
        let ord = match (a, b) {
            // ClassAd string comparison is case-insensitive.
            (Value::Str(x), Value::Str(y)) => Some(cmp_ignore_ascii_case(x, y)),
            (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        };
        let Some(ord) = ord else {
            // Cross-type comparisons: == is false, != is true, order is undefined.
            return Ok(match op {
                BinOp::Eq => Cv::Val(Value::Bool(false)),
                BinOp::Ne => Cv::Val(Value::Bool(true)),
                _ => Cv::Undefined,
            });
        };
        let b = match op {
            BinOp::Eq => ord.is_eq(),
            BinOp::Ne => ord.is_ne(),
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Cv::Val(Value::Bool(b)));
    }

    // Arithmetic. Int op Int stays Int (except /, % by zero = undefined).
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            BinOp::Add => Cv::Val(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Cv::Val(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Cv::Val(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Cv::Undefined
                } else {
                    Cv::Val(Value::Int(x.wrapping_div(*y)))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Cv::Undefined
                } else {
                    Cv::Val(Value::Int(x.wrapping_rem(*y)))
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(err(format!("arithmetic on non-numbers {a} and {b}")));
            };
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Ok(Cv::Undefined);
                    }
                    x / y
                }
                BinOp::Mod => {
                    if y == 0.0 {
                        return Ok(Cv::Undefined);
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Ok(Cv::Val(Value::Double(v)))
        }
    }
}

fn eval_call(name: &str, args: &[Expr], ctx: Ctx<'_>) -> Result<Cv, EvalError> {
    match name.to_ascii_lowercase().as_str() {
        "member" => {
            if args.len() != 2 {
                return Err(err("member() takes exactly 2 arguments"));
            }
            let needle = match args[0].eval(ctx)? {
                Cv::Undefined => return Ok(Cv::Undefined),
                Cv::Val(v) => v,
            };
            // The list argument must be a reference to a list-valued attribute
            // or a literal — evaluate the ref manually.
            let list = match &args[1] {
                Expr::Ref { scope, name } => {
                    let ad = match scope.as_deref() {
                        None | Some("self") => ctx.own,
                        Some("other") => ctx.other,
                        Some(s) => return Err(err(format!("unknown scope `{s}`"))),
                    };
                    match ad.get(name) {
                        Some(Value::List(items)) => items.clone(),
                        Some(v) => vec![v.clone()],
                        None => return Ok(Cv::Undefined),
                    }
                }
                other => match other.eval(ctx)? {
                    Cv::Undefined => return Ok(Cv::Undefined),
                    Cv::Val(Value::List(items)) => items,
                    Cv::Val(v) => vec![v],
                },
            };
            Ok(Cv::Val(Value::Bool(member_contains(&list, &needle))))
        }
        "isundefined" => {
            if args.len() != 1 {
                return Err(err("isUndefined() takes exactly 1 argument"));
            }
            Ok(Cv::Val(Value::Bool(matches!(
                args[0].eval(ctx)?,
                Cv::Undefined
            ))))
        }
        "stringlistmember" => {
            // stringListMember("needle", "a,b,c" [, "delims"])
            if !(args.len() == 2 || args.len() == 3) {
                return Err(err("stringListMember() takes 2 or 3 arguments"));
            }
            let needle = match args[0].eval(ctx)? {
                Cv::Undefined => return Ok(Cv::Undefined),
                Cv::Val(Value::Str(s)) => s,
                Cv::Val(v) => {
                    return Err(err(format!(
                        "stringListMember needle must be a string, got {v}"
                    )))
                }
            };
            let list = match args[1].eval(ctx)? {
                Cv::Undefined => return Ok(Cv::Undefined),
                Cv::Val(Value::Str(s)) => s,
                Cv::Val(v) => {
                    return Err(err(format!(
                        "stringListMember list must be a string, got {v}"
                    )))
                }
            };
            let delims = match args.get(2) {
                None => ",".to_string(),
                Some(a) => match a.eval(ctx)? {
                    Cv::Undefined => return Ok(Cv::Undefined),
                    Cv::Val(Value::Str(s)) => s,
                    Cv::Val(v) => return Err(err(format!("delims must be a string, got {v}"))),
                },
            };
            Ok(Cv::Val(Value::Bool(string_list_contains(
                &list, &delims, &needle,
            ))))
        }
        name @ ("floor" | "ceiling" | "round" | "abs") => {
            if args.len() != 1 {
                return Err(err(format!("{name}() takes exactly 1 argument")));
            }
            match args[0].eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(v) => apply_rounding(name, &v),
            }
        }
        name @ ("min" | "max") => {
            if args.is_empty() {
                return Err(err(format!("{name}() needs at least 1 argument")));
            }
            let mut best: Option<f64> = None;
            let mut all_int = true;
            for a in args {
                let v = match a.eval(ctx)? {
                    Cv::Undefined => return Ok(Cv::Undefined),
                    Cv::Val(v) => v,
                };
                if !matches!(v, Value::Int(_)) {
                    all_int = false;
                }
                let x = v
                    .as_f64()
                    .ok_or_else(|| err(format!("{name}() needs numbers, got {v}")))?;
                best = Some(match best {
                    None => x,
                    Some(b) => {
                        if name == "min" {
                            b.min(x)
                        } else {
                            b.max(x)
                        }
                    }
                });
            }
            let x = best.expect("non-empty");
            Ok(Cv::Val(if all_int {
                Value::Int(x as i64)
            } else {
                Value::Double(x)
            }))
        }
        "int" => {
            if args.len() != 1 {
                return Err(err("int() takes exactly 1 argument"));
            }
            match args[0].eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(v) => apply_int_cast(&v),
            }
        }
        "real" => {
            if args.len() != 1 {
                return Err(err("real() takes exactly 1 argument"));
            }
            match args[0].eval(ctx)? {
                Cv::Undefined => Ok(Cv::Undefined),
                Cv::Val(v) => apply_real_cast(&v),
            }
        }
        other => Err(err(format!("unknown function `{other}`"))),
    }
}

/// `member()` membership test over resolved list items: strings compare
/// case-insensitively, numbers by value, everything else structurally.
pub(crate) fn member_contains(list: &[Value], needle: &Value) -> bool {
    list.iter().any(|item| match (item, needle) {
        (Value::Str(a), Value::Str(b)) => a.eq_ignore_ascii_case(b),
        (a, b) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => a == b,
        },
    })
}

/// `stringListMember()` membership test over a delimited string list.
pub(crate) fn string_list_contains(list: &str, delims: &str, needle: &str) -> bool {
    list.split(|c| delims.contains(c))
        .map(str::trim)
        .any(|item| item.eq_ignore_ascii_case(needle))
}

/// `floor`/`ceiling`/`round`/`abs` on a defined value.
pub(crate) fn apply_rounding(name: &str, v: &Value) -> Result<Cv, EvalError> {
    match *v {
        Value::Int(n) => Ok(Cv::Val(Value::Int(if name == "abs" {
            n.wrapping_abs()
        } else {
            n
        }))),
        Value::Double(x) => {
            let y = match name {
                "floor" => x.floor(),
                "ceiling" => x.ceil(),
                "round" => x.round(),
                _ => x.abs(),
            };
            if name == "abs" {
                Ok(Cv::Val(Value::Double(y)))
            } else {
                Ok(Cv::Val(Value::Int(y as i64)))
            }
        }
        ref other => Err(err(format!("{name}() needs a number, got {other}"))),
    }
}

/// `int()` on a defined value.
pub(crate) fn apply_int_cast(v: &Value) -> Result<Cv, EvalError> {
    match v {
        Value::Int(n) => Ok(Cv::Val(Value::Int(*n))),
        Value::Double(x) => Ok(Cv::Val(Value::Int(*x as i64))),
        Value::Bool(b) => Ok(Cv::Val(Value::Int(i64::from(*b)))),
        Value::Str(s) => match s.trim().parse::<i64>() {
            Ok(n) => Ok(Cv::Val(Value::Int(n))),
            Err(_) => Ok(Cv::Undefined),
        },
        v => Err(err(format!("int() cannot convert {v}"))),
    }
}

/// `real()` on a defined value.
pub(crate) fn apply_real_cast(v: &Value) -> Result<Cv, EvalError> {
    match v {
        Value::Int(n) => Ok(Cv::Val(Value::Double(*n as f64))),
        Value::Double(x) => Ok(Cv::Val(Value::Double(*x))),
        Value::Str(s) => match s.trim().parse::<f64>() {
            Ok(x) => Ok(Cv::Val(Value::Double(x))),
            Err(_) => Ok(Cv::Undefined),
        },
        v => Err(err(format!("real() cannot convert {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Ad {
        let mut ad = Ad::new();
        ad.set_str("Arch", "i686")
            .set_str("OpSys", "LINUX")
            .set_int("FreeCpus", 4)
            .set_double("LoadAvg", 0.25)
            .set(
                "RunTimeEnv",
                Value::List(vec![
                    Value::Str("MPICH-G2".into()),
                    Value::Str("CROSSGRID".into()),
                ]),
            );
        ad
    }

    fn job() -> Ad {
        let mut ad = Ad::new();
        ad.set_int("NodeNumber", 2).set_str("VO", "cg");
        ad
    }

    fn eval(src_expr: Expr) -> Cv {
        let j = job();
        let m = machine();
        src_expr.eval(Ctx { own: &j, other: &m }).unwrap()
    }

    fn other_ref(name: &str) -> Expr {
        Expr::Ref {
            scope: Some("other".into()),
            name: name.into(),
        }
    }

    fn own_ref(name: &str) -> Expr {
        Expr::Ref {
            scope: None,
            name: name.into(),
        }
    }

    #[test]
    fn refs_resolve_to_the_right_ad() {
        assert_eq!(eval(other_ref("FreeCpus")), Cv::Val(Value::Int(4)));
        assert_eq!(eval(own_ref("NodeNumber")), Cv::Val(Value::Int(2)));
        assert_eq!(eval(own_ref("FreeCpus")), Cv::Undefined);
    }

    #[test]
    fn comparisons_work_and_strings_fold_case() {
        let e = Expr::Bin(
            BinOp::Ge,
            Box::new(other_ref("FreeCpus")),
            Box::new(own_ref("NodeNumber")),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
        let e = Expr::Bin(
            BinOp::Eq,
            Box::new(other_ref("OpSys")),
            Box::new(Expr::Str("linux".into())),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
    }

    #[test]
    fn string_comparison_folds_case_without_changing_the_order() {
        // The kernel both evaluators share used to lower-case its operands
        // into two fresh strings; folding a byte at a time must order every
        // pair exactly as that did — mixed case, one operand a prefix of the
        // other, bytes on either side of the ASCII letters, and non-ASCII
        // text, which `to_ascii_lowercase` leaves alone ("É" ≠ "é").
        let words = [
            "",
            "a",
            "A",
            "ab",
            "AB",
            "aB",
            "abc",
            "ABD",
            "b",
            "Z",
            "z",
            "[",
            "_",
            "`",
            "{",
            "0",
            "LINUX",
            "linux",
            "LiNuX-2.4",
            "linux-2.6",
            "É",
            "é",
            "éa",
            "Éa",
            "ÉA",
            "eé",
            "ß",
            "ǅ",
            "日本",
            "日本語",
        ];
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        for a in words {
            for b in words {
                let old = a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase());
                assert_eq!(cmp_ignore_ascii_case(a, b), old, "{a:?} vs {b:?}");
                for op in ops {
                    let want = match op {
                        BinOp::Eq => old.is_eq(),
                        BinOp::Ne => old.is_ne(),
                        BinOp::Lt => old.is_lt(),
                        BinOp::Le => old.is_le(),
                        BinOp::Gt => old.is_gt(),
                        _ => old.is_ge(),
                    };
                    let e = Expr::Bin(
                        op,
                        Box::new(Expr::Str(a.into())),
                        Box::new(Expr::Str(b.into())),
                    );
                    assert_eq!(eval(e), Cv::Val(Value::Bool(want)), "{a:?} {op:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn cross_type_equality_is_false_order_undefined() {
        let e = Expr::Bin(
            BinOp::Eq,
            Box::new(Expr::Str("x".into())),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(false)));
        let e = Expr::Bin(
            BinOp::Ne,
            Box::new(Expr::Str("x".into())),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
        let e = Expr::Bin(
            BinOp::Lt,
            Box::new(Expr::Str("x".into())),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(eval(e), Cv::Undefined);
    }

    #[test]
    fn undefined_propagates_through_arithmetic_and_comparison() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(own_ref("missing")),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(eval(e), Cv::Undefined);
        let e = Expr::Bin(
            BinOp::Lt,
            Box::new(own_ref("missing")),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(eval(e), Cv::Undefined);
    }

    #[test]
    fn logic_absorbs_undefined_when_decided() {
        // false && undefined == false
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bool(false)),
            Box::new(own_ref("missing")),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(false)));
        // undefined && false == false
        let e = Expr::Bin(
            BinOp::And,
            Box::new(own_ref("missing")),
            Box::new(Expr::Bool(false)),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(false)));
        // true || undefined == true (short-circuit)
        let e = Expr::Bin(
            BinOp::Or,
            Box::new(Expr::Bool(true)),
            Box::new(own_ref("missing")),
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
        // true && undefined == undefined
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bool(true)),
            Box::new(own_ref("missing")),
        );
        assert_eq!(eval(e), Cv::Undefined);
    }

    #[test]
    fn int_arithmetic_stays_int_division_by_zero_undefined() {
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Int(2)), Box::new(Expr::Int(3)));
        assert_eq!(eval(e), Cv::Val(Value::Int(5)));
        let e = Expr::Bin(BinOp::Div, Box::new(Expr::Int(7)), Box::new(Expr::Int(2)));
        assert_eq!(eval(e), Cv::Val(Value::Int(3)));
        let e = Expr::Bin(BinOp::Div, Box::new(Expr::Int(7)), Box::new(Expr::Int(0)));
        assert_eq!(eval(e), Cv::Undefined);
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Int(2)),
            Box::new(Expr::Double(1.5)),
        );
        assert_eq!(eval(e), Cv::Val(Value::Double(3.0)));
    }

    #[test]
    fn member_checks_runtime_environments() {
        let e = Expr::Call(
            "Member".into(),
            vec![Expr::Str("mpich-g2".into()), other_ref("RunTimeEnv")],
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
        let e = Expr::Call(
            "member".into(),
            vec![Expr::Str("PVM".into()), other_ref("RunTimeEnv")],
        );
        assert_eq!(eval(e), Cv::Val(Value::Bool(false)));
        let e = Expr::Call(
            "member".into(),
            vec![Expr::Str("x".into()), other_ref("NoSuchList")],
        );
        assert_eq!(eval(e), Cv::Undefined);
    }

    #[test]
    fn is_undefined_function() {
        let e = Expr::Call("isUndefined".into(), vec![own_ref("missing")]);
        assert_eq!(eval(e), Cv::Val(Value::Bool(true)));
        let e = Expr::Call("isUndefined".into(), vec![own_ref("NodeNumber")]);
        assert_eq!(eval(e), Cv::Val(Value::Bool(false)));
    }

    #[test]
    fn ternary_branches() {
        let e = Expr::Ternary(
            Box::new(Expr::Bool(true)),
            Box::new(Expr::Int(1)),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(eval(e), Cv::Val(Value::Int(1)));
        let e = Expr::Ternary(
            Box::new(own_ref("missing")),
            Box::new(Expr::Int(1)),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(eval(e), Cv::Undefined);
    }

    #[test]
    fn requirement_and_rank_views() {
        let j = job();
        let m = machine();
        let ctx = Ctx { own: &j, other: &m };
        let req = Expr::Bin(
            BinOp::Ge,
            Box::new(other_ref("FreeCpus")),
            Box::new(Expr::Int(2)),
        );
        assert!(req.eval_requirement(ctx).unwrap());
        let undef = own_ref("missing");
        assert!(
            !undef.eval_requirement(ctx).unwrap(),
            "undefined is no-match"
        );
        let rank = other_ref("FreeCpus");
        assert_eq!(rank.eval_rank(ctx).unwrap(), 4.0);
        assert_eq!(own_ref("missing").eval_rank(ctx).unwrap(), 0.0);
    }

    #[test]
    fn stored_expressions_evaluate_in_owner_frame() {
        // Machine ad stores Requirements = other.VO == "cg"; when the job
        // evaluates other.Requirements, `other` inside that expression must
        // refer back to the job.
        let mut m = machine();
        m.set(
            "Requirements",
            Value::Expr(Expr::Bin(
                BinOp::Eq,
                Box::new(other_ref("VO")),
                Box::new(Expr::Str("cg".into())),
            )),
        );
        let j = job();
        let e = other_ref("Requirements");
        assert_eq!(
            e.eval(Ctx { own: &j, other: &m }).unwrap(),
            Cv::Val(Value::Bool(true))
        );
    }

    #[test]
    fn errors_on_type_misuse() {
        let e = Expr::Not(Box::new(Expr::Int(1)));
        let j = job();
        let m = machine();
        assert!(e.eval(Ctx { own: &j, other: &m }).is_err());
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Str("a".into())),
            Box::new(Expr::Int(1)),
        );
        assert!(e.eval(Ctx { own: &j, other: &m }).is_err());
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bin(
                BinOp::Ge,
                Box::new(other_ref("FreeCpus")),
                Box::new(Expr::Int(2)),
            )),
            Box::new(Expr::Not(Box::new(own_ref("x")))),
        );
        assert_eq!(e.to_string(), "((other.FreeCpus >= 2) && !(x))");
    }
}

#[cfg(test)]
mod function_tests {
    use super::*;
    use crate::parser::parse_expr;

    fn eval_src(src: &str) -> Cv {
        let empty = Ad::new();
        parse_expr(src)
            .unwrap()
            .eval(Ctx {
                own: &empty,
                other: &empty,
            })
            .unwrap()
    }

    #[test]
    fn string_list_member() {
        assert_eq!(
            eval_src(r#"stringListMember("b", "a, b, c")"#),
            Cv::Val(Value::Bool(true))
        );
        assert_eq!(
            eval_src(r#"stringListMember("B", "a,b,c")"#),
            Cv::Val(Value::Bool(true)),
            "case-insensitive like ClassAds"
        );
        assert_eq!(
            eval_src(r#"stringListMember("d", "a,b,c")"#),
            Cv::Val(Value::Bool(false))
        );
        assert_eq!(
            eval_src(r#"stringListMember("b", "a;b;c", ";")"#),
            Cv::Val(Value::Bool(true))
        );
        assert_eq!(eval_src(r#"stringListMember("x", missing)"#), Cv::Undefined);
    }

    #[test]
    fn rounding_functions() {
        assert_eq!(eval_src("floor(2.9)"), Cv::Val(Value::Int(2)));
        assert_eq!(eval_src("ceiling(2.1)"), Cv::Val(Value::Int(3)));
        assert_eq!(eval_src("round(2.5)"), Cv::Val(Value::Int(3)));
        assert_eq!(eval_src("floor(7)"), Cv::Val(Value::Int(7)));
        assert_eq!(eval_src("abs(0 - 4)"), Cv::Val(Value::Int(4)));
        assert_eq!(eval_src("abs(0.0 - 4.5)"), Cv::Val(Value::Double(4.5)));
        assert_eq!(eval_src("floor(missing)"), Cv::Undefined);
    }

    #[test]
    fn min_max() {
        assert_eq!(eval_src("min(3, 1, 2)"), Cv::Val(Value::Int(1)));
        assert_eq!(eval_src("max(3, 1, 2)"), Cv::Val(Value::Int(3)));
        assert_eq!(eval_src("max(1, 2.5)"), Cv::Val(Value::Double(2.5)));
        assert_eq!(eval_src("min(1, missing)"), Cv::Undefined);
    }

    #[test]
    fn casts() {
        assert_eq!(eval_src("int(2.9)"), Cv::Val(Value::Int(2)));
        assert_eq!(eval_src(r#"int("42")"#), Cv::Val(Value::Int(42)));
        assert_eq!(eval_src(r#"int("nope")"#), Cv::Undefined);
        assert_eq!(eval_src("int(true)"), Cv::Val(Value::Int(1)));
        assert_eq!(eval_src("real(2)"), Cv::Val(Value::Double(2.0)));
        assert_eq!(eval_src(r#"real("2.5")"#), Cv::Val(Value::Double(2.5)));
        assert_eq!(eval_src(r#"real("x")"#), Cv::Undefined);
    }

    #[test]
    fn functions_compose_in_rank_expressions() {
        let mut machine = Ad::new();
        machine
            .set_int("FreeCpus", 6)
            .set_double("LoadAvg", 0.31)
            .set_str("Environments", "CROSSGRID, MPICH-G2, GLITE");
        let job = Ad::new();
        let ctx = Ctx {
            own: &job,
            other: &machine,
        };
        let rank = parse_expr(
            r#"stringListMember("mpich-g2", other.Environments)
               ? max(other.FreeCpus - ceiling(other.LoadAvg), 0) : 0"#,
        )
        .unwrap();
        assert_eq!(rank.eval(ctx).unwrap(), Cv::Val(Value::Int(5)));
    }

    #[test]
    fn arity_errors() {
        let empty = Ad::new();
        let ctx = Ctx {
            own: &empty,
            other: &empty,
        };
        for bad in ["floor()", "min()", r"int(1, 2)", r#"stringListMember("a")"#] {
            let e = parse_expr(bad).unwrap();
            assert!(e.eval(ctx).is_err(), "{bad} should be an arity error");
        }
    }
}
