//! Static analysis for JDL ads: schema-driven type checking, constant
//! folding with unsatisfiability detection, and a compiled expression form
//! for the matchmaking hot loop.
//!
//! The broker historically discovered bad `Requirements`/`Rank` expressions
//! at match time, deep inside the scheduling pass. This module moves those
//! failures to submit time, Condor-matchmaker style:
//!
//! 1. **Type checking** ([`Checker`], via [`analyze_ad`]): every [`Expr`] is
//!    typed against a declared attribute [`Schema`] — the job-side vocabulary
//!    plus the site/MDS vocabulary — producing span-carrying [`Diagnostic`]s
//!    for type mismatches, unknown attributes, and arity/operator misuse.
//! 2. **Constant folding + intervals**: ref-free subtrees are evaluated at
//!    compile time with the *exact* runtime kernels from [`crate::expr`],
//!    dead `&&`/`||`/ternary branches are flagged, and conjunctions of
//!    numeric constraints on machine attributes are interval-checked so
//!    trivially-unsatisfiable `Requirements` (e.g. `FreeCpus > 4 &&
//!    FreeCpus < 2`) are rejected before they can silently never match.
//! 3. **Compilation** ([`CompiledExpr`]): the folder's output is a form with
//!    the job's own attributes substituted in and machine lookups
//!    pre-lowercased, which the broker caches per job and evaluates without
//!    re-walking the raw AST — against one machine ad, or bound to a
//!    columnar store of them ([`CompiledExpr::bind`]), where a requirement's
//!    top-level conjuncts run column by column over a bitset of sites. The
//!    evaluator borrows: it clones no string or list out of a constant or an
//!    ad, and allocates only where it hands over to the raw walker (a stored
//!    expression, an unmodelled shape) or words an error.
//!
//! # Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | P001 | error    | lexical error |
//! | P002 | error    | syntax error |
//! | E101 | error    | unknown attribute |
//! | E102 | error    | type mismatch |
//! | E103 | error    | wrong number of function arguments |
//! | E104 | error    | unknown function |
//! | E105 | error    | unknown scope qualifier |
//! | E106 | error    | `Requirements` is not boolean |
//! | E107 | error    | `Rank` cannot be numeric |
//! | E108 | error    | `Requirements` can never match |
//! | E109 | error    | invalid job description |
//! | E110 | error    | cyclic attribute reference |
//! | W201 | warning  | cross-type equality is constant |
//! | W202 | warning  | cross-type ordering is always undefined |
//! | W203 | warning  | `Requirements` is always true |
//! | W204 | warning  | dead branch |
//! | W205 | warning  | reference to a declared-but-unset job attribute |
//! | W206 | warning  | attribute not in the job vocabulary |
//! | W207 | warning  | unknown `SelectionPolicy` name (broker falls back) |

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::ast::{Ad, Value};
use crate::columns::{Column, Columns, SiteSet};
use crate::expr::{
    apply_bin_values, apply_int_cast, apply_logic, apply_real_cast, apply_rounding, err,
    logic_short_circuit, member_contains, string_list_contains, BinOp, Ctx, Cv, EvalError, Expr,
};
use crate::job::{rank_of, requirements_of, JobDescription};
use crate::lexer::{LexError, Pos};
use crate::parser::{parse_ad_spanned, AdSpans, ParseError, Span};
use crate::symbols::{intern, Symbol};

/// How serious a [`Diagnostic`] is. `Error`-severity diagnostics make the
/// broker reject the ad at submit time; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal; the job is still accepted.
    Warning,
    /// The ad is rejected.
    Error,
}

impl Severity {
    /// `"warning"` or `"error"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single analyzer finding, with a stable code and a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`E101`, `W204`, …; see module docs).
    pub code: &'static str,
    /// Where in the source (1:1 for ads built programmatically).
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    fn error(code: &'static str, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            pos,
            message: message.into(),
            help: None,
        }
    }

    fn warning(code: &'static str, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            pos,
            message: message.into(),
            help: None,
        }
    }

    fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Renders a rustc-style report with the offending source line and a
    /// caret under the position. `file` is only used for the `-->` header.
    pub fn render(&self, file: &str, src: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        out.push_str(&format!("  --> {}:{}\n", file, self.pos));
        let line_no = self.pos.line as usize;
        if let Some(line) = src.lines().nth(line_no.saturating_sub(1)) {
            let num = line_no.to_string();
            let pad = " ".repeat(num.len());
            let caret_pad = " ".repeat((self.pos.col as usize).saturating_sub(1));
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{num} | {line}\n"));
            out.push_str(&format!("{pad} | {caret_pad}^\n"));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.pos, self.message
        )
    }
}

impl From<ParseError> for Diagnostic {
    fn from(e: ParseError) -> Diagnostic {
        Diagnostic::error("P002", e.pos, e.message)
    }
}

impl From<LexError> for Diagnostic {
    fn from(e: LexError) -> Diagnostic {
        Diagnostic::error("P001", e.pos, e.message)
    }
}

/// The static type of an expression or attribute, as inferred against a
/// [`Schema`]. `Number` means "`Int` or `Double`"; `Any` means the checker
/// cannot narrow further (e.g. a stored sub-expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// String.
    Str,
    /// Integer.
    Int,
    /// Double.
    Double,
    /// Boolean.
    Bool,
    /// List.
    List,
    /// Statically known to evaluate to `undefined`.
    Undefined,
    /// Either `Int` or `Double`.
    Number,
    /// Unknown.
    Any,
}

impl Ty {
    /// The static type of a concrete [`Value`].
    pub fn of_value(v: &Value) -> Ty {
        match v {
            Value::Str(_) => Ty::Str,
            Value::Int(_) => Ty::Int,
            Value::Double(_) => Ty::Double,
            Value::Bool(_) => Ty::Bool,
            Value::List(_) => Ty::List,
            Value::Expr(_) => Ty::Any,
        }
    }

    fn is_definite(self) -> bool {
        !matches!(self, Ty::Any | Ty::Undefined)
    }

    fn maybe_bool(self) -> bool {
        matches!(self, Ty::Bool | Ty::Any | Ty::Undefined)
    }

    fn maybe_number(self) -> bool {
        matches!(
            self,
            Ty::Int | Ty::Double | Ty::Number | Ty::Any | Ty::Undefined
        )
    }

    fn maybe_str(self) -> bool {
        matches!(self, Ty::Str | Ty::Any | Ty::Undefined)
    }

    fn is_numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Double | Ty::Number)
    }

    fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else if self.is_numeric() && other.is_numeric() {
            Ty::Number
        } else {
            Ty::Any
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ty::Str => "string",
            Ty::Int => "integer",
            Ty::Double => "double",
            Ty::Bool => "boolean",
            Ty::List => "list",
            Ty::Undefined => "undefined",
            Ty::Number => "number",
            Ty::Any => "any",
        })
    }
}

/// A typed attribute vocabulary: lowercased name → (display name, type).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    attrs: BTreeMap<String, (String, Ty)>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Declares an attribute (case-insensitively; later wins).
    pub fn declare(&mut self, name: &str, ty: Ty) -> &mut Schema {
        self.attrs
            .insert(name.to_ascii_lowercase(), (name.to_string(), ty));
        self
    }

    /// Builder-style [`Schema::declare`].
    #[must_use]
    pub fn with(mut self, name: &str, ty: Ty) -> Schema {
        self.declare(name, ty);
        self
    }

    /// The declaration of `name` in any spelling. Keys are stored
    /// lower-cased, so ignoring ASCII case against a key is comparing it
    /// with a lower-cased copy of `name`, without making one; a vocabulary
    /// is a dozen names, most settled by their length.
    fn declared(&self, name: &str) -> Option<&(String, Ty)> {
        self.attrs
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, declared)| declared)
    }

    /// The declared type of an attribute, case-insensitively.
    pub fn get(&self, name: &str) -> Option<Ty> {
        self.declared(name).map(|&(_, ty)| ty)
    }

    /// Declared display names, in lowercase-sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attrs.values().map(|(n, _)| n.as_str())
    }

    /// The declared spelling of an attribute, case-insensitively.
    pub fn display_name<'a>(&'a self, name: &'a str) -> &'a str {
        self.declared(name).map_or(name, |(n, _)| n.as_str())
    }

    /// Number of declared attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Infers a schema from a concrete ad's values — used by `cg-site` to
    /// export its machine-ad vocabulary without hand-maintaining a copy.
    pub fn infer_from_ad(ad: &Ad) -> Schema {
        let mut s = Schema::new();
        for (name, v) in ad.iter() {
            s.declare(name, Ty::of_value(v));
        }
        s
    }

    /// [`Schema::job`], built once per process: what [`analyze_ad`] reads.
    fn shared_job() -> &'static Schema {
        static JOB: OnceLock<Schema> = OnceLock::new();
        JOB.get_or_init(Schema::job)
    }

    /// [`Schema::machine`], built once per process: what
    /// [`JobDescription::analyze`] reads.
    pub(crate) fn shared_machine() -> &'static Schema {
        static MACHINE: OnceLock<Schema> = OnceLock::new();
        MACHINE.get_or_init(Schema::machine)
    }

    /// The job-side attribute vocabulary understood by
    /// [`JobDescription::from_ad`].
    pub fn job() -> Schema {
        Schema::new()
            .with("Executable", Ty::Str)
            .with("Arguments", Ty::Str)
            .with("JobType", Ty::Any) // string or list of strings
            .with("NodeNumber", Ty::Int)
            .with("StreamingMode", Ty::Str)
            .with("MachineAccess", Ty::Str)
            .with("PerformanceLoss", Ty::Int)
            .with("ShadowPort", Ty::Int)
            .with("Requirements", Ty::Bool)
            .with("Rank", Ty::Number)
            .with("User", Ty::Str)
            .with("SelectionPolicy", Ty::Str)
            .with("EstimatedRuntime", Ty::Number)
            .with("InputSandboxSizes", Ty::List)
    }

    /// The machine-ad (MDS/GRIS) vocabulary published by `cg-site` sites.
    /// `cg_site::machine_schema()` derives the same schema from a live ad
    /// and a test over there asserts the two never drift.
    pub fn machine() -> Schema {
        Schema::new()
            .with("Site", Ty::Str)
            .with("Arch", Ty::Str)
            .with("OpSys", Ty::Str)
            .with("TotalCpus", Ty::Int)
            .with("FreeCpus", Ty::Int)
            .with("QueueDepth", Ty::Int)
            .with("MemoryMb", Ty::Int)
            .with("StorageGb", Ty::Int)
            .with("SpeedFactor", Ty::Double)
            .with("AcceptsQueued", Ty::Bool)
            .with("Tags", Ty::List)
    }
}

/// The built-in expression functions, resolved once at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Func {
    Member,
    IsUndefined,
    StringListMember,
    Floor,
    Ceiling,
    Round,
    Abs,
    Min,
    Max,
    Int,
    Real,
}

impl Func {
    const ALL: [Func; 11] = [
        Func::Member,
        Func::IsUndefined,
        Func::StringListMember,
        Func::Floor,
        Func::Ceiling,
        Func::Round,
        Func::Abs,
        Func::Min,
        Func::Max,
        Func::Int,
        Func::Real,
    ];

    fn of(name: &str) -> Option<Func> {
        Func::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }

    fn name(self) -> &'static str {
        match self {
            Func::Member => "member",
            Func::IsUndefined => "isUndefined",
            Func::StringListMember => "stringListMember",
            Func::Floor => "floor",
            Func::Ceiling => "ceiling",
            Func::Round => "round",
            Func::Abs => "abs",
            Func::Min => "min",
            Func::Max => "max",
            Func::Int => "int",
            Func::Real => "real",
        }
    }

    /// Lowercase name as the runtime kernels expect it.
    fn kernel_name(self) -> &'static str {
        match self {
            Func::Ceiling => "ceiling",
            Func::Floor => "floor",
            Func::Round => "round",
            Func::Abs => "abs",
            other => other.name(),
        }
    }

    fn arity_ok(self, n: usize) -> bool {
        match self {
            Func::Member => n == 2,
            Func::IsUndefined
            | Func::Floor
            | Func::Ceiling
            | Func::Round
            | Func::Abs
            | Func::Int
            | Func::Real => n == 1,
            Func::StringListMember => n == 2 || n == 3,
            Func::Min | Func::Max => n >= 1,
        }
    }

    fn arity_desc(self) -> &'static str {
        match self {
            Func::Member => "exactly 2 arguments",
            Func::IsUndefined
            | Func::Floor
            | Func::Ceiling
            | Func::Round
            | Func::Abs
            | Func::Int
            | Func::Real => "exactly 1 argument",
            Func::StringListMember => "2 or 3 arguments",
            Func::Min | Func::Max => "at least 1 argument",
        }
    }
}

const KNOWN_FUNCTIONS: &str =
    "member, isUndefined, stringListMember, floor, ceiling, round, abs, min, max, int, real";

fn scope_ok(scope: Option<&String>) -> bool {
    matches!(scope.map(String::as_str), None | Some("self" | "other"))
}

// ---------------------------------------------------------------------------
// Type checker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    own: &'a Ad,
    job: &'a Schema,
    machine: &'a Schema,
    diags: &'a mut Vec<Diagnostic>,
    /// Own attributes whose stored expressions are on the checking stack,
    /// for cycle detection (a cyclic ad would overflow the stack at eval).
    visiting: Vec<String>,
}

impl Checker<'_> {
    fn check(&mut self, e: &Expr, sp: &Span) -> Ty {
        match e {
            Expr::Str(_) => Ty::Str,
            Expr::Int(_) => Ty::Int,
            Expr::Double(_) => Ty::Double,
            Expr::Bool(_) => Ty::Bool,
            Expr::Undefined => Ty::Undefined,
            Expr::Ref { scope, name } => self.check_ref(scope.as_ref(), name, sp),
            Expr::Not(x) => {
                let t = self.check(x, sp.child(0));
                if !t.maybe_bool() {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.pos,
                        format!("`!` applied to {t}"),
                    ));
                }
                Ty::Bool
            }
            Expr::Neg(x) => {
                let t = self.check(x, sp.child(0));
                if !t.maybe_number() {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.pos,
                        format!("unary `-` applied to {t}"),
                    ));
                }
                match t {
                    Ty::Int | Ty::Double => t,
                    _ => Ty::Number,
                }
            }
            Expr::Bin(op, l, r) => self.check_bin(*op, l, r, sp),
            Expr::Ternary(c, a, b) => {
                let ct = self.check(c, sp.child(0));
                if !ct.maybe_bool() {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.child(0).pos,
                        format!("ternary condition has type {ct}, expected boolean"),
                    ));
                }
                let at = self.check(a, sp.child(1));
                let bt = self.check(b, sp.child(2));
                at.join(bt)
            }
            Expr::Call(name, args) => self.check_call(name, args, sp),
        }
    }

    fn check_ref(&mut self, scope: Option<&String>, name: &str, sp: &Span) -> Ty {
        match scope.map(String::as_str) {
            Some("other") => match self.machine.get(name) {
                Some(ty) => ty,
                None => {
                    self.diags.push(
                        Diagnostic::error(
                            "E101",
                            sp.pos,
                            format!("unknown machine attribute `other.{name}`"),
                        )
                        .with_help(format!(
                            "sites advertise: {}",
                            self.machine.names().collect::<Vec<_>>().join(", ")
                        )),
                    );
                    Ty::Undefined
                }
            },
            None | Some("self") => match self.own.get(name) {
                Some(Value::Expr(inner)) => {
                    let key = name.to_ascii_lowercase();
                    if self.visiting.contains(&key) {
                        let chain = self
                            .visiting
                            .iter()
                            .chain(std::iter::once(&key))
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        self.diags.push(
                            Diagnostic::error(
                                "E110",
                                sp.pos,
                                format!("cyclic attribute reference: {chain}"),
                            )
                            .with_help("evaluating this ad would recurse forever"),
                        );
                        return Ty::Any;
                    }
                    self.visiting.push(key);
                    let t = self.check(inner, &Span::leaf(sp.pos));
                    self.visiting.pop();
                    t
                }
                Some(v) => Ty::of_value(v),
                None => match self.job.get(name) {
                    Some(_) => {
                        self.diags.push(Diagnostic::warning(
                            "W205",
                            sp.pos,
                            format!("job attribute `{name}` is not set in this ad; it evaluates to undefined at match time"),
                        ));
                        Ty::Undefined
                    }
                    None => {
                        self.diags.push(
                            Diagnostic::error(
                                "E101",
                                sp.pos,
                                format!("unknown attribute `{name}`"),
                            )
                            .with_help(
                                "not set in this ad and not a declared job attribute; \
                                 use `other.` for machine attributes",
                            ),
                        );
                        Ty::Undefined
                    }
                },
            },
            Some(s) => {
                self.diags.push(
                    Diagnostic::error("E105", sp.pos, format!("unknown scope `{s}`")).with_help(
                        "use a bare name for job attributes or `other.` for machine attributes",
                    ),
                );
                Ty::Any
            }
        }
    }

    fn check_bin(&mut self, op: BinOp, l: &Expr, r: &Expr, sp: &Span) -> Ty {
        let lt = self.check(l, sp.child(0));
        let rt = self.check(r, sp.child(1));
        match op {
            BinOp::And | BinOp::Or => {
                for t in [lt, rt] {
                    if !t.maybe_bool() {
                        self.diags.push(Diagnostic::error(
                            "E102",
                            sp.pos,
                            format!("`{}` expects boolean operands, found {t}", symbol(op)),
                        ));
                    }
                }
                Ty::Bool
            }
            BinOp::Eq | BinOp::Ne => {
                if !comparable(lt, rt) {
                    let always = if op == BinOp::Eq { "false" } else { "true" };
                    self.diags.push(Diagnostic::warning(
                        "W201",
                        sp.pos,
                        format!("`{}` between {lt} and {rt} is always {always}", symbol(op)),
                    ));
                }
                Ty::Bool
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !comparable(lt, rt) {
                    self.diags.push(Diagnostic::warning(
                        "W202",
                        sp.pos,
                        format!("`{}` between {lt} and {rt} is always undefined", symbol(op)),
                    ));
                }
                Ty::Bool
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                for t in [lt, rt] {
                    if !t.maybe_number() {
                        self.diags.push(Diagnostic::error(
                            "E102",
                            sp.pos,
                            format!("`{}` expects numeric operands, found {t}", symbol(op)),
                        ));
                    }
                }
                if lt == Ty::Int && rt == Ty::Int {
                    Ty::Int
                } else {
                    Ty::Number
                }
            }
        }
    }

    fn check_call(&mut self, name: &str, args: &[Expr], sp: &Span) -> Ty {
        let Some(func) = Func::of(name) else {
            self.diags.push(
                Diagnostic::error("E104", sp.pos, format!("unknown function `{name}`"))
                    .with_help(format!("known functions: {KNOWN_FUNCTIONS}")),
            );
            return Ty::Any;
        };
        if !func.arity_ok(args.len()) {
            self.diags.push(Diagnostic::error(
                "E103",
                sp.pos,
                format!(
                    "{}() takes {}, found {}",
                    func.name(),
                    func.arity_desc(),
                    args.len()
                ),
            ));
            // Still check the arguments we do have for secondary issues.
            for (i, a) in args.iter().enumerate() {
                self.check(a, sp.child(i));
            }
            return func_result_ty(func, args.is_empty().then_some(Ty::Any));
        }
        match func {
            Func::Member => {
                self.check(&args[0], sp.child(0));
                // The list argument may be a reference (resolved without
                // evaluation at runtime) or any value (scalars become
                // singleton lists), so only referential sanity is checked.
                self.check(&args[1], sp.child(1));
                Ty::Bool
            }
            Func::IsUndefined => {
                // Asking whether an attribute is defined is the legitimate
                // way to probe optional attributes — suppress unknown/unset
                // diagnostics for a direct reference argument.
                match &args[0] {
                    Expr::Ref { scope, .. } if scope_ok(scope.as_ref()) => {}
                    arg => {
                        self.check(arg, sp.child(0));
                    }
                }
                Ty::Bool
            }
            Func::StringListMember => {
                for (i, a) in args.iter().enumerate() {
                    let t = self.check(a, sp.child(i));
                    if !t.maybe_str() {
                        self.diags.push(Diagnostic::error(
                            "E102",
                            sp.child(i).pos,
                            format!("stringListMember() arguments must be strings, found {t}"),
                        ));
                    }
                }
                Ty::Bool
            }
            Func::Floor | Func::Ceiling | Func::Round | Func::Abs => {
                let t = self.check(&args[0], sp.child(0));
                if !t.maybe_number() {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.child(0).pos,
                        format!("{}() needs a number, found {t}", func.name()),
                    ));
                }
                func_result_ty(func, Some(t))
            }
            Func::Min | Func::Max => {
                let mut all_int = true;
                for (i, a) in args.iter().enumerate() {
                    let t = self.check(a, sp.child(i));
                    if !t.maybe_number() {
                        self.diags.push(Diagnostic::error(
                            "E102",
                            sp.child(i).pos,
                            format!("{}() needs numbers, found {t}", func.name()),
                        ));
                    }
                    if t != Ty::Int {
                        all_int = false;
                    }
                }
                if all_int {
                    Ty::Int
                } else {
                    Ty::Number
                }
            }
            Func::Int => {
                let t = self.check(&args[0], sp.child(0));
                if t == Ty::List {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.child(0).pos,
                        "int() cannot convert a list",
                    ));
                }
                Ty::Int
            }
            Func::Real => {
                let t = self.check(&args[0], sp.child(0));
                if t == Ty::List || t == Ty::Bool {
                    self.diags.push(Diagnostic::error(
                        "E102",
                        sp.child(0).pos,
                        format!("real() cannot convert {t}"),
                    ));
                }
                Ty::Double
            }
        }
    }
}

fn func_result_ty(func: Func, arg: Option<Ty>) -> Ty {
    match func {
        Func::Member | Func::IsUndefined | Func::StringListMember => Ty::Bool,
        Func::Floor | Func::Ceiling | Func::Round | Func::Int => Ty::Int,
        Func::Real => Ty::Double,
        Func::Abs => match arg {
            Some(t @ (Ty::Int | Ty::Double)) => t,
            _ => Ty::Number,
        },
        Func::Min | Func::Max => Ty::Number,
    }
}

/// Whether two definite types can ever compare as equal/ordered under the
/// runtime rules (numbers with numbers, strings with strings, booleans with
/// booleans; lists never compare). Unknown types are assumed comparable.
fn comparable(a: Ty, b: Ty) -> bool {
    if !a.is_definite() || !b.is_definite() {
        return true;
    }
    (a.is_numeric() && b.is_numeric()) || (a == b && matches!(a, Ty::Str | Ty::Bool))
}

fn symbol(op: BinOp) -> &'static str {
    match op {
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

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// An `other.X` reference: the interned name a whole [`Ad`] is searched by,
/// and the reference's position among its expression's
/// [`CompiledExpr::others`], which is where a pass over a columnar store
/// keeps the column it bound `X` to.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OtherAttr {
    sym: Symbol,
    ix: usize,
}

/// A compiled expression node. Job-side (`own`) scalar attributes are
/// substituted as constants at compile time; machine (`other.*`) lookups
/// carry interned [`Symbol`]s (canonical lowercased names) so the per-site
/// hot loop never allocates for case folding and compares keys by pointer.
#[derive(Debug, Clone, PartialEq)]
enum CExpr {
    Const(Cv),
    /// `other.X`.
    OtherRef(OtherAttr),
    /// `other.X` in `member()` list position: the stored value as it is —
    /// a stored expression is not evaluated. (`member` takes anything but a
    /// list as a list of one.)
    OtherListRef(OtherAttr),
    /// An own attribute holding a stored expression, evaluated lazily in
    /// the owner's frame (name interned).
    OwnExpr(Symbol),
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    Call(Func, Vec<CExpr>),
    /// Fallback for shapes the compiler does not model (unknown scopes,
    /// unknown functions, bad arity) — evaluated by the raw walker so
    /// runtime behaviour is bit-identical.
    Raw(Expr),
}

/// A `Requirements`/`Rank` expression compiled against one job ad, ready
/// for repeated evaluation against machine ads — one at a time
/// ([`CompiledExpr::matches`], [`CompiledExpr::rank`]) or a whole columnar
/// store of them ([`CompiledExpr::bind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    root: CExpr,
    /// The distinct machine attributes the expression reads.
    others: Vec<Symbol>,
}

impl CompiledExpr {
    /// Compiles `expr` against the job's own ad, folding constants. This is
    /// the standalone entry point; [`analyze_ad`] additionally reports the
    /// folder's dead-branch findings as diagnostics.
    pub fn compile(expr: &Expr, own: &Ad) -> CompiledExpr {
        CompiledExpr::compile_at(expr, &Span::synthetic(), own, &mut Vec::new())
    }

    fn compile_at(expr: &Expr, sp: &Span, own: &Ad, diags: &mut Vec<Diagnostic>) -> CompiledExpr {
        let mut compiler = Compiler {
            own,
            diags,
            others: Vec::new(),
        };
        let root = compiler.expr(expr, sp);
        CompiledExpr {
            root,
            others: compiler.others,
        }
    }

    /// Evaluates against a machine ad, with semantics identical to
    /// [`Expr::eval`] on the original expression.
    pub fn eval(&self, own: &Ad, other: &Ad) -> Result<Cv, EvalError> {
        ceval(&self.root, own, other).map(Bv::into_cv)
    }

    /// Requirement view, matching the broker's use of
    /// [`Expr::eval_requirement`]: true only for a defined `true`;
    /// errors and undefined are no-match.
    pub fn matches(&self, own: &Ad, other: &Ad) -> bool {
        is_true(&ceval(&self.root, own, other))
    }

    /// Rank view, matching the broker's `eval_rank(..).unwrap_or(0.0)`:
    /// undefined, non-numeric, and errors all rank 0.
    pub fn rank(&self, own: &Ad, other: &Ad) -> f64 {
        as_rank(&ceval(&self.root, own, other))
    }

    /// Resolves every `other.X` of the expression to its column in
    /// `columns`, once, for a pass over the store; `ads` are the ads the
    /// columns were built from. From then on reading an attribute at a site
    /// is an array index, not a search of the site's ad by name.
    pub fn bind<'a>(
        &'a self,
        own: &'a Ad,
        columns: &'a Columns,
        ads: &'a [Arc<Ad>],
    ) -> BoundExpr<'a> {
        BoundExpr {
            root: &self.root,
            own,
            ads,
            columns: self.others.iter().map(|s| columns.get(*s)).collect(),
        }
    }

    /// The folded constant result, when the whole expression folded away.
    pub fn as_const(&self) -> Option<&Cv> {
        match &self.root {
            CExpr::Const(cv) => Some(cv),
            _ => None,
        }
    }
}

fn empty_ad() -> &'static Ad {
    static EMPTY: OnceLock<Ad> = OnceLock::new();
    EMPTY.get_or_init(Ad::new)
}

fn is_const(c: &CExpr) -> bool {
    matches!(c, CExpr::Const(_))
}

/// Folds a node whose children are all constants by running the runtime
/// evaluator on it; a node that would error at runtime is kept verbatim so
/// compiled and raw evaluation stay bit-identical.
fn try_fold(node: CExpr) -> CExpr {
    let foldable = match &node {
        CExpr::Not(x) | CExpr::Neg(x) => is_const(x),
        CExpr::Bin(_, l, r) => is_const(l) && is_const(r),
        CExpr::Ternary(c, a, b) => is_const(c) && is_const(a) && is_const(b),
        CExpr::Call(_, args) => args.iter().all(is_const),
        _ => false,
    };
    if !foldable {
        return node;
    }
    match ceval(&node, empty_ad(), empty_ad()) {
        Ok(v) => CExpr::Const(v.into_cv()),
        Err(_) => node,
    }
}

/// One compilation: the job's own ad, where the folder's findings go, and
/// the machine attributes met so far.
struct Compiler<'a> {
    own: &'a Ad,
    diags: &'a mut Vec<Diagnostic>,
    others: Vec<Symbol>,
}

impl Compiler<'_> {
    fn other(&mut self, name: &str) -> OtherAttr {
        let sym = intern(name);
        let ix = self
            .others
            .iter()
            .position(|s| *s == sym)
            .unwrap_or_else(|| {
                self.others.push(sym);
                self.others.len() - 1
            });
        OtherAttr { sym, ix }
    }

    fn expr(&mut self, e: &Expr, sp: &Span) -> CExpr {
        match e {
            Expr::Str(s) => CExpr::Const(Cv::Val(Value::Str(s.clone()))),
            Expr::Int(n) => CExpr::Const(Cv::Val(Value::Int(*n))),
            Expr::Double(x) => CExpr::Const(Cv::Val(Value::Double(*x))),
            Expr::Bool(b) => CExpr::Const(Cv::Val(Value::Bool(*b))),
            Expr::Undefined => CExpr::Const(Cv::Undefined),
            Expr::Ref { scope, name } => match scope.as_deref() {
                None | Some("self") => match self.own.get(name) {
                    Some(Value::Expr(_)) => CExpr::OwnExpr(intern(name)),
                    Some(v) => CExpr::Const(Cv::Val(v.clone())),
                    None => CExpr::Const(Cv::Undefined),
                },
                Some("other") => CExpr::OtherRef(self.other(name)),
                Some(_) => CExpr::Raw(e.clone()),
            },
            Expr::Not(x) => try_fold(CExpr::Not(Box::new(self.expr(x, sp.child(0))))),
            Expr::Neg(x) => try_fold(CExpr::Neg(Box::new(self.expr(x, sp.child(0))))),
            Expr::Bin(op, l, r) => {
                let cl = self.expr(l, sp.child(0));
                // A defined-false `&&` / defined-true `||` left side decides the
                // result before the right side is ever evaluated — the right
                // subtree is dead and can be dropped without changing semantics.
                if let CExpr::Const(cv) = &cl {
                    if matches!(op, BinOp::And | BinOp::Or) {
                        if let Some(short) = logic_short_circuit(*op, cv.bool_or_undef()) {
                            self.diags.push(Diagnostic::warning(
                                "W204",
                                sp.child(1).pos,
                                format!(
                                    "right operand of `{}` is never evaluated (left side is always {})",
                                    symbol(*op),
                                    if *op == BinOp::And { "false" } else { "true" },
                                ),
                            ));
                            return CExpr::Const(short);
                        }
                    }
                }
                let cr = self.expr(r, sp.child(1));
                try_fold(CExpr::Bin(*op, Box::new(cl), Box::new(cr)))
            }
            Expr::Ternary(c, a, b) => {
                let cc = self.expr(c, sp.child(0));
                match &cc {
                    CExpr::Const(Cv::Val(Value::Bool(cond))) => {
                        let (live, dead, which) = if *cond {
                            (1usize, 2usize, "else")
                        } else {
                            (2, 1, "then")
                        };
                        self.diags.push(Diagnostic::warning(
                            "W204",
                            sp.child(dead).pos,
                            format!("the {which} branch of this ternary is never taken"),
                        ));
                        let live_expr = if *cond { a } else { b };
                        self.expr(live_expr, sp.child(live))
                    }
                    CExpr::Const(Cv::Undefined) => {
                        self.diags.push(Diagnostic::warning(
                            "W204",
                            sp.child(0).pos,
                            "ternary condition is always undefined; neither branch is ever taken",
                        ));
                        CExpr::Const(Cv::Undefined)
                    }
                    _ => {
                        let ca = self.expr(a, sp.child(1));
                        let cb = self.expr(b, sp.child(2));
                        try_fold(CExpr::Ternary(Box::new(cc), Box::new(ca), Box::new(cb)))
                    }
                }
            }
            Expr::Call(name, args) => {
                let Some(func) = Func::of(name) else {
                    return CExpr::Raw(e.clone()); // runtime "unknown function" error preserved
                };
                if !func.arity_ok(args.len()) {
                    return CExpr::Raw(e.clone()); // runtime arity error preserved
                }
                if func == Func::Member {
                    // The runtime resolves a reference in list position without
                    // evaluating stored expressions, wrapping scalars as
                    // singleton lists; reproduce that resolution here.
                    let needle = self.expr(&args[0], sp.child(0));
                    let list = match &args[1] {
                        Expr::Ref { scope, name } => match scope.as_deref() {
                            None | Some("self") => match self.own.get(name) {
                                Some(Value::List(items)) => {
                                    CExpr::Const(Cv::Val(Value::List(items.clone())))
                                }
                                Some(v) => CExpr::Const(Cv::Val(Value::List(vec![v.clone()]))),
                                None => CExpr::Const(Cv::Undefined),
                            },
                            Some("other") => CExpr::OtherListRef(self.other(name)),
                            Some(_) => return CExpr::Raw(e.clone()), // runtime scope error
                        },
                        other => self.expr(other, sp.child(1)),
                    };
                    return try_fold(CExpr::Call(func, vec![needle, list]));
                }
                let cargs = args
                    .iter()
                    .enumerate()
                    .map(|(i, a)| self.expr(a, sp.child(i)))
                    .collect();
                try_fold(CExpr::Call(func, cargs))
            }
        }
    }
}

/// A value in the middle of a compiled evaluation. Numbers and booleans are
/// carried by value; strings and lists are only ever borrowed — from a
/// constant of the expression or from one of the two ads — because no
/// operator makes a new one. What the raw walker hands back (a stored
/// expression, a [`CExpr::Raw`] fallback) is owned.
enum Bv<'a> {
    Val(Cow<'a, Value>),
    Undefined,
}

impl Bv<'_> {
    fn bool(b: bool) -> Bv<'static> {
        Bv::Val(Cow::Owned(Value::Bool(b)))
    }

    fn into_cv(self) -> Cv {
        match self {
            Bv::Val(v) => Cv::Val(v.into_owned()),
            Bv::Undefined => Cv::Undefined,
        }
    }

    fn bool_or_undef(&self) -> Option<bool> {
        match self {
            Bv::Val(v) => v.as_bool(),
            Bv::Undefined => None,
        }
    }
}

impl From<Cv> for Bv<'static> {
    fn from(cv: Cv) -> Bv<'static> {
        match cv {
            Cv::Val(v) => Bv::Val(Cow::Owned(v)),
            Cv::Undefined => Bv::Undefined,
        }
    }
}

impl<'a> From<Option<Cow<'a, Value>>> for Bv<'a> {
    fn from(v: Option<Cow<'a, Value>>) -> Bv<'a> {
        v.map_or(Bv::Undefined, Bv::Val)
    }
}

fn is_true(result: &Result<Bv<'_>, EvalError>) -> bool {
    matches!(result, Ok(v) if v.bool_or_undef() == Some(true))
}

fn as_rank(result: &Result<Bv<'_>, EvalError>) -> f64 {
    match result {
        Ok(Bv::Val(v)) => v.as_f64().unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Where an evaluation reads `other.X`: a whole machine ad, searched by
/// name, or one [`Row`] of a columnar store, whose columns were bound
/// beforehand.
trait Other<'a>: Copy {
    /// The attribute's stored value; a stored expression is not evaluated.
    fn stored(self, attr: OtherAttr) -> Option<Cow<'a, Value>>;
    /// The machine ad itself — the frame a stored expression or a raw
    /// fallback evaluates in.
    fn ad(self) -> &'a Ad;
}

impl<'a> Other<'a> for &'a Ad {
    fn stored(self, attr: OtherAttr) -> Option<Cow<'a, Value>> {
        self.get_sym(attr.sym).map(Cow::Borrowed)
    }

    fn ad(self) -> &'a Ad {
        self
    }
}

/// One site of a columnar store, as a bound expression reads it.
#[derive(Clone, Copy)]
struct Row<'a> {
    columns: &'a [Option<&'a Column>],
    ad: &'a Ad,
    site: usize,
}

impl<'a> Other<'a> for Row<'a> {
    fn stored(self, attr: OtherAttr) -> Option<Cow<'a, Value>> {
        self.columns[attr.ix]?.cell(self.site).value(self.ad)
    }

    fn ad(self) -> &'a Ad {
        self.ad
    }
}

fn ceval<'a, O: Other<'a>>(e: &'a CExpr, own: &'a Ad, other: O) -> Result<Bv<'a>, EvalError> {
    Ok(match e {
        CExpr::Const(Cv::Val(v)) => Bv::Val(Cow::Borrowed(v)),
        CExpr::Const(Cv::Undefined) => Bv::Undefined,
        CExpr::OtherRef(attr) => match other.stored(*attr) {
            // Stored expressions evaluate in the owner's frame, with the
            // two ads swapped — same as the raw walker.
            Some(v) => match &*v {
                Value::Expr(ex) => ex
                    .eval(Ctx {
                        own: other.ad(),
                        other: own,
                    })?
                    .into(),
                _ => Bv::Val(v),
            },
            None => Bv::Undefined,
        },
        CExpr::OtherListRef(attr) => other.stored(*attr).into(),
        CExpr::OwnExpr(name) => match own.get_sym(*name) {
            Some(Value::Expr(ex)) => ex
                .eval(Ctx {
                    own,
                    other: other.ad(),
                })?
                .into(),
            Some(v) => Bv::Val(Cow::Borrowed(v)),
            None => Bv::Undefined,
        },
        CExpr::Not(x) => match ceval(x, own, other)? {
            Bv::Undefined => Bv::Undefined,
            Bv::Val(v) => match *v {
                Value::Bool(b) => Bv::bool(!b),
                _ => return Err(err(format!("! applied to non-boolean {v}"))),
            },
        },
        CExpr::Neg(x) => match ceval(x, own, other)? {
            Bv::Undefined => Bv::Undefined,
            Bv::Val(v) => match *v {
                Value::Int(n) => Bv::Val(Cow::Owned(Value::Int(-n))),
                Value::Double(x) => Bv::Val(Cow::Owned(Value::Double(-x))),
                _ => return Err(err(format!("- applied to non-number {v}"))),
            },
        },
        CExpr::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
            let lv = ceval(l, own, other)?;
            if let Some(short) = logic_short_circuit(*op, lv.bool_or_undef()) {
                return Ok(short.into());
            }
            let rv = ceval(r, own, other)?;
            // Booleans are copied; anything else is about to be an error.
            apply_logic(*op, lv.into_cv(), rv.into_cv())?.into()
        }
        CExpr::Bin(op, l, r) => match (ceval(l, own, other)?, ceval(r, own, other)?) {
            (Bv::Undefined, _) | (_, Bv::Undefined) => Bv::Undefined,
            (Bv::Val(a), Bv::Val(b)) => apply_bin_values(*op, &a, &b)?.into(),
        },
        CExpr::Ternary(c, a, b) => match ceval(c, own, other)? {
            Bv::Undefined => Bv::Undefined,
            Bv::Val(v) => match *v {
                Value::Bool(true) => ceval(a, own, other)?,
                Value::Bool(false) => ceval(b, own, other)?,
                _ => return Err(err(format!("ternary condition is non-boolean {v}"))),
            },
        },
        CExpr::Call(func, args) => return ceval_call(*func, args, own, other),
        CExpr::Raw(ex) => ex
            .eval(Ctx {
                own,
                other: other.ad(),
            })?
            .into(),
    })
}

/// The string inside `v`, or `what`'s type error.
fn str_arg<'v>(v: &'v Value, what: &str) -> Result<&'v str, EvalError> {
    v.as_str()
        .ok_or_else(|| err(format!("{what} must be a string, got {v}")))
}

fn ceval_call<'a, O: Other<'a>>(
    func: Func,
    args: &'a [CExpr],
    own: &'a Ad,
    other: O,
) -> Result<Bv<'a>, EvalError> {
    // Every function but `isUndefined` is undefined on an undefined argument.
    macro_rules! defined {
        ($arg:expr) => {
            match ceval($arg, own, other)? {
                Bv::Undefined => return Ok(Bv::Undefined),
                Bv::Val(v) => v,
            }
        };
    }
    Ok(match func {
        Func::Member => {
            let needle = defined!(&args[0]);
            let list = defined!(&args[1]);
            let items = match &*list {
                Value::List(items) => items.as_slice(),
                one => std::slice::from_ref(one),
            };
            Bv::bool(member_contains(items, &needle))
        }
        Func::IsUndefined => Bv::bool(matches!(ceval(&args[0], own, other)?, Bv::Undefined)),
        Func::StringListMember => {
            let needle = defined!(&args[0]);
            let needle = str_arg(&needle, "stringListMember needle")?;
            let list = defined!(&args[1]);
            let list = str_arg(&list, "stringListMember list")?;
            let delims = match args.get(2) {
                None => None,
                Some(a) => Some(defined!(a)),
            };
            let delims = match &delims {
                None => ",",
                Some(v) => str_arg(v, "delims")?,
            };
            Bv::bool(string_list_contains(list, delims, needle))
        }
        Func::Floor | Func::Ceiling | Func::Round | Func::Abs => {
            let v = defined!(&args[0]);
            apply_rounding(func.kernel_name(), &v)?.into()
        }
        Func::Min | Func::Max => {
            let name = func.kernel_name();
            let mut best: Option<f64> = None;
            let mut all_int = true;
            for a in args {
                let v = defined!(a);
                if !matches!(*v, Value::Int(_)) {
                    all_int = false;
                }
                let x = v
                    .as_f64()
                    .ok_or_else(|| err(format!("{name}() needs numbers, got {v}")))?;
                best = Some(match best {
                    None => x,
                    Some(b) => {
                        if func == Func::Min {
                            b.min(x)
                        } else {
                            b.max(x)
                        }
                    }
                });
            }
            let x = best.expect("arity checked at compile time");
            Bv::Val(Cow::Owned(if all_int {
                Value::Int(x as i64)
            } else {
                Value::Double(x)
            }))
        }
        Func::Int => {
            let v = defined!(&args[0]);
            apply_int_cast(&v)?.into()
        }
        Func::Real => {
            let v = defined!(&args[0]);
            apply_real_cast(&v)?.into()
        }
    })
}

// ---------------------------------------------------------------------------
// Evaluation over a columnar store
// ---------------------------------------------------------------------------

/// A [`CompiledExpr`] bound to one columnar store by [`CompiledExpr::bind`].
pub struct BoundExpr<'a> {
    root: &'a CExpr,
    own: &'a Ad,
    ads: &'a [Arc<Ad>],
    /// The column of each of the expression's `others`, in that order;
    /// `None` for an attribute no ad of the store carries.
    columns: Vec<Option<&'a Column>>,
}

/// How one top-level conjunct of a requirement is applied to a store.
enum Conjunct<'a> {
    /// `other.X <op> constant`, either way round.
    Compare(OtherAttr, BinOp, &'a Value),
    /// A bare `other.X`.
    Flag(OtherAttr),
    /// `member(constant, other.X)`.
    Member(&'a Value, OtherAttr),
    /// Any other shape: the whole conjunct, evaluated site by site.
    Each,
}

impl<'a> Conjunct<'a> {
    fn of(e: &'a CExpr) -> Conjunct<'a> {
        match e {
            CExpr::Bin(op, l, r) if op.is_comparison() => match (&**l, &**r) {
                (CExpr::OtherRef(x), CExpr::Const(Cv::Val(v))) => Conjunct::Compare(*x, *op, v),
                (CExpr::Const(Cv::Val(v)), CExpr::OtherRef(x)) => {
                    Conjunct::Compare(*x, flip(*op), v)
                }
                _ => Conjunct::Each,
            },
            CExpr::OtherRef(x) => Conjunct::Flag(*x),
            CExpr::Call(Func::Member, args) => match (&args[0], &args[1]) {
                (CExpr::Const(Cv::Val(needle)), CExpr::OtherListRef(x)) => {
                    Conjunct::Member(needle, *x)
                }
                _ => Conjunct::Each,
            },
            _ => Conjunct::Each,
        }
    }

    /// What a site costs, roughly: a cell against a number, a string
    /// compare behind a pointer, a list walk behind two, a tree walk.
    fn cost(&self) -> u8 {
        match self {
            Conjunct::Flag(_) => 0,
            Conjunct::Compare(_, _, Value::Str(_)) => 1,
            Conjunct::Compare(..) => 0,
            Conjunct::Member(..) => 2,
            Conjunct::Each => 3,
        }
    }
}

impl BoundExpr<'_> {
    fn row(&self, site: usize) -> Row<'_> {
        Row {
            columns: &self.columns,
            ad: &self.ads[site],
            site,
        }
    }

    /// Whether `holds` of the attribute's value at `site`. A stored
    /// expression has no value before it is evaluated: its site takes the
    /// tree `walk` of the whole conjunct.
    fn value_holds(
        &self,
        attr: OtherAttr,
        site: usize,
        walk: impl FnOnce(usize) -> bool,
        holds: impl FnOnce(&Value) -> bool,
    ) -> bool {
        match self.row(site).stored(attr) {
            None => false,
            Some(v) if matches!(*v, Value::Expr(_)) => walk(site),
            Some(v) => holds(&v),
        }
    }

    /// Rank view at one site ([`CompiledExpr::rank`]).
    #[must_use]
    pub fn rank(&self, site: usize) -> f64 {
        as_rank(&ceval(self.root, self.own, self.row(site)))
    }

    /// Requirement view over the whole store ([`CompiledExpr::matches`] at
    /// every site of `alive`): removes the sites that do not match.
    ///
    /// A requirement matches iff each of its top-level `&&` conjuncts is, on
    /// its own, a defined `true` — a conjunct that is false, undefined, not
    /// a boolean or an error makes the whole no match whichever side of it
    /// the others stand — so the conjuncts are applied one after another,
    /// cheapest first, each only to the sites the ones before left.
    pub fn retain_matches(&self, alive: &mut SiteSet) {
        let mut conjuncts = Vec::new();
        collect_conjuncts(self.root, &mut conjuncts);
        let mut plan: Vec<(Conjunct<'_>, &CExpr)> = conjuncts
            .into_iter()
            .map(|e| (Conjunct::of(e), e))
            .collect();
        plan.sort_by_key(|(c, _)| c.cost());
        for (conjunct, e) in plan {
            let each = |site: usize| is_true(&ceval(e, self.own, self.row(site)));
            match conjunct {
                Conjunct::Compare(attr, op, constant) => alive.retain(|site| {
                    self.value_holds(attr, site, each, |v| {
                        matches!(
                            apply_bin_values(op, v, constant),
                            Ok(Cv::Val(Value::Bool(true)))
                        )
                    })
                }),
                Conjunct::Flag(attr) => alive.retain(|site| {
                    self.value_holds(attr, site, each, |v| matches!(v, Value::Bool(true)))
                }),
                // In list position a stored expression is an item like any
                // other.
                Conjunct::Member(needle, attr) => alive.retain(|site| {
                    self.row(site).stored(attr).is_some_and(|v| match &*v {
                        Value::List(items) => member_contains(items, needle),
                        one => member_contains(std::slice::from_ref(one), needle),
                    })
                }),
                Conjunct::Each => alive.retain(each),
            }
            if alive.is_empty() {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Unsatisfiability analysis
// ---------------------------------------------------------------------------

/// A numeric interval with open/closed ends, refined per machine attribute
/// from the conjuncts of a compiled requirement.
#[derive(Debug, Clone)]
struct Constraint<'a> {
    lo: f64,
    lo_strict: bool,
    hi: f64,
    hi_strict: bool,
    /// A non-numeric `== const` pin (string/boolean equality).
    eq_other: Option<&'a Value>,
    /// Whether any numeric bound has been applied.
    numeric: bool,
    conflict: bool,
}

impl<'a> Constraint<'a> {
    fn new() -> Self {
        Constraint {
            lo: f64::NEG_INFINITY,
            lo_strict: false,
            hi: f64::INFINITY,
            hi_strict: false,
            eq_other: None,
            numeric: false,
            conflict: false,
        }
    }

    fn clamp_lo(&mut self, x: f64, strict: bool) {
        if x > self.lo || (x == self.lo && strict) {
            self.lo = x;
            self.lo_strict = strict;
        }
    }

    fn clamp_hi(&mut self, x: f64, strict: bool) {
        if x < self.hi || (x == self.hi && strict) {
            self.hi = x;
            self.hi_strict = strict;
        }
    }

    fn apply_numeric(&mut self, op: BinOp, x: f64, is_int_attr: bool) {
        if self.eq_other.is_some() {
            // `a == "x" && a > 5`: whatever the runtime value, one of the
            // two conjuncts is false or undefined — never a match.
            self.conflict = true;
            return;
        }
        self.numeric = true;
        if is_int_attr {
            // Integer attributes let us tighten fractional bounds, catching
            // e.g. `FreeCpus > 4 && FreeCpus < 5`.
            match op {
                BinOp::Gt => self.clamp_lo(x.floor() + 1.0, false),
                BinOp::Ge => self.clamp_lo(x.ceil(), false),
                BinOp::Lt => self.clamp_hi(x.ceil() - 1.0, false),
                BinOp::Le => self.clamp_hi(x.floor(), false),
                BinOp::Eq => {
                    self.clamp_lo(x.ceil(), false);
                    self.clamp_hi(x.floor(), false);
                }
                _ => {}
            }
        } else {
            match op {
                BinOp::Gt => self.clamp_lo(x, true),
                BinOp::Ge => self.clamp_lo(x, false),
                BinOp::Lt => self.clamp_hi(x, true),
                BinOp::Le => self.clamp_hi(x, false),
                BinOp::Eq => {
                    self.clamp_lo(x, false);
                    self.clamp_hi(x, false);
                }
                _ => {}
            }
        }
    }

    fn apply_eq_value(&mut self, v: &'a Value) {
        if self.numeric {
            self.conflict = true;
            return;
        }
        match self.eq_other {
            None => self.eq_other = Some(v),
            Some(prev) => {
                if !values_equal(prev, v) {
                    self.conflict = true;
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.conflict
            || self.lo > self.hi
            || (self.lo == self.hi && (self.lo_strict || self.hi_strict))
    }
}

/// Equality as the runtime `==` sees it: strings case-insensitively,
/// numbers by value, cross-type never equal.
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.eq_ignore_ascii_case(y),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

fn collect_conjuncts<'a>(e: &'a CExpr, out: &mut Vec<&'a CExpr>) {
    if let CExpr::Bin(BinOp::And, l, r) = e {
        collect_conjuncts(l, out);
        collect_conjuncts(r, out);
    } else {
        out.push(e);
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// True when the compiled expression provably never evaluates to a defined
/// `true` — i.e. the requirement can never match any machine ad.
fn never_matches(e: &CExpr, machine: &Schema) -> Option<String> {
    match e {
        CExpr::Const(Cv::Val(Value::Bool(true))) => None,
        CExpr::Const(Cv::Val(Value::Bool(false))) => Some("it is always false".into()),
        CExpr::Const(Cv::Undefined) => {
            Some("it is always undefined, and undefined never matches".into())
        }
        CExpr::Const(Cv::Val(v)) => Some(format!("it always evaluates to {v}, not a boolean")),
        CExpr::Bin(BinOp::And, _, _) => {
            let mut conjuncts = Vec::new();
            collect_conjuncts(e, &mut conjuncts);
            // Any conjunct that can never be true poisons the conjunction.
            for c in &conjuncts {
                if let Some(why) = never_matches(c, machine) {
                    return Some(why);
                }
            }
            // Interval analysis across conjuncts, per machine attribute.
            let mut by_attr: BTreeMap<&str, Constraint<'_>> = BTreeMap::new();
            for c in &conjuncts {
                let CExpr::Bin(op, l, r) = c else { continue };
                let (name, op, value) = match (&**l, &**r) {
                    (CExpr::OtherRef(n), CExpr::Const(Cv::Val(v))) => (n.sym.as_str(), *op, v),
                    (CExpr::Const(Cv::Val(v)), CExpr::OtherRef(n)) => {
                        (n.sym.as_str(), flip(*op), v)
                    }
                    _ => continue,
                };
                let slot = by_attr.entry(name).or_insert_with(Constraint::new);
                match (op, value.as_f64()) {
                    (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq, Some(x)) => {
                        let is_int = machine.get(name) == Some(Ty::Int);
                        slot.apply_numeric(op, x, is_int);
                    }
                    (BinOp::Eq, None) => slot.apply_eq_value(value),
                    _ => {}
                }
            }
            for (name, c) in &by_attr {
                if c.is_empty() {
                    return Some(format!(
                        "the constraints on `other.{}` contradict each other",
                        machine.display_name(name)
                    ));
                }
            }
            None
        }
        CExpr::Bin(BinOp::Or, l, r) => {
            let lw = never_matches(l, machine)?;
            let _rw = never_matches(r, machine)?;
            Some(lw)
        }
        // A comparison or arithmetic against a known-undefined operand is
        // undefined for every machine ad.
        CExpr::Bin(op, l, r)
            if !matches!(op, BinOp::And | BinOp::Or)
                && (matches!(&**l, CExpr::Const(Cv::Undefined))
                    || matches!(&**r, CExpr::Const(Cv::Undefined))) =>
        {
            Some(format!(
                "`{}` against an undefined operand is always undefined",
                symbol(*op)
            ))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The result of analysing an ad: diagnostics plus compiled
/// `Requirements`/`Rank` ready for the matchmaking hot loop.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Compiled `Requirements`, when the ad declares one as an expression.
    pub requirements: Option<CompiledExpr>,
    /// Compiled `Rank`, when the ad declares one as an expression.
    pub rank: Option<CompiledExpr>,
}

impl Analysis {
    /// True when any diagnostic is `Error`-severity; the broker rejects
    /// such ads at submit time.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

/// Registered `SelectionPolicy` names the analyzer accepts without a W207
/// warning. The broker's policy registry (`crossbroker::PolicyKind`) is
/// the source of truth; a test over there asserts the two lists never
/// drift.
pub const SELECTION_POLICIES: &[&str] = &[
    "free-cpus-rank",
    "queue-forecast",
    "network-proximity",
    "lease-backoff",
];

/// Analyses a parsed ad against the job vocabulary and the given machine
/// schema. `spans` (from [`parse_ad_spanned`]) makes diagnostics
/// span-accurate; without it, positions fall back to 1:1.
pub fn analyze_ad(ad: &Ad, spans: Option<&AdSpans>, machine: &Schema) -> Analysis {
    let job = Schema::shared_job();
    let mut diags = Vec::new();

    let name_pos = |name: &str| {
        spans
            .and_then(|s| s.name_pos(name))
            .unwrap_or(Pos { line: 1, col: 1 })
    };
    let synthetic = Span::synthetic();

    // Pass 1: top-level attribute vocabulary and value types.
    for (name, value) in ad.iter() {
        match job.get(name) {
            None => diags.push(
                Diagnostic::warning(
                    "W206",
                    name_pos(name),
                    format!("`{name}` is not a recognised job attribute"),
                )
                .with_help("it is kept in the ad but the broker ignores it"),
            ),
            Some(want) if want != Ty::Any => {
                let got = Ty::of_value(value);
                if got.is_definite() && !assignable(got, want) {
                    diags.push(Diagnostic::error(
                        "E102",
                        name_pos(name),
                        format!("`{name}` should be {want}, found {got}"),
                    ));
                }
            }
            Some(_) => {}
        }
    }

    // Pass 1b: SelectionPolicy value check. The attribute is advisory — an
    // unknown name makes the broker fall back to its configured default —
    // so a bad spelling warns instead of rejecting the ad. A non-string
    // value is already E102 from pass 1.
    if let Some(Value::Str(name)) = ad.get("SelectionPolicy") {
        if !SELECTION_POLICIES.contains(&name.as_str()) {
            diags.push(
                Diagnostic::warning(
                    "W207",
                    name_pos("SelectionPolicy"),
                    format!("unknown selection policy {name:?}"),
                )
                .with_help(format!(
                    "the broker falls back to its default; known policies: {}",
                    SELECTION_POLICIES.join(", ")
                )),
            );
        }
    }

    // Pass 2: Requirements — type check, fold/compile, unsat analysis.
    let mut requirements = None;
    if let Some(req_expr) = requirements_of(ad) {
        let sp = spans
            .and_then(|s| s.value_span("Requirements"))
            .unwrap_or(&synthetic);
        let ty = Checker {
            own: ad,
            job,
            machine,
            diags: &mut diags,
            visiting: Vec::new(),
        }
        .check(&req_expr, sp);
        if ty.is_definite() && ty != Ty::Bool {
            diags.push(Diagnostic::error(
                "E106",
                sp.pos,
                format!("Requirements has type {ty}, expected boolean"),
            ));
        }
        let compiled = CompiledExpr::compile_at(&req_expr, sp, ad, &mut diags);
        if matches!(&compiled.root, CExpr::Const(Cv::Val(Value::Bool(true)))) {
            diags.push(
                Diagnostic::warning("W203", sp.pos, "Requirements is always true")
                    .with_help("every site matches; Rank alone decides placement"),
            );
        } else if let Some(why) = never_matches(&compiled.root, machine) {
            diags.push(
                Diagnostic::error(
                    "E108",
                    sp.pos,
                    format!("Requirements can never match: {why}"),
                )
                .with_help("the job would wait forever; fix the constraint before submitting"),
            );
        }
        requirements = Some(compiled);
    }

    // Pass 3: Rank — type check and compile.
    let mut rank = None;
    if let Some(rank_expr) = rank_of(ad) {
        let sp = spans
            .and_then(|s| s.value_span("Rank"))
            .unwrap_or(&synthetic);
        let ty = Checker {
            own: ad,
            job,
            machine,
            diags: &mut diags,
            visiting: Vec::new(),
        }
        .check(&rank_expr, sp);
        if ty.is_definite() && !ty.is_numeric() {
            diags.push(
                Diagnostic::error(
                    "E107",
                    sp.pos,
                    format!("Rank has type {ty}; rank must be numeric"),
                )
                .with_help("a non-numeric rank silently evaluates to 0 for every site"),
            );
        }
        rank = Some(CompiledExpr::compile_at(&rank_expr, sp, ad, &mut diags));
    }

    diags.sort_by_key(|d| (d.pos.line, d.pos.col, d.code));
    Analysis {
        diagnostics: diags,
        requirements,
        rank,
    }
}

/// Analyses JDL source text end to end: lex/parse failures and
/// [`JobDescription`] validation failures become diagnostics (`P00x`,
/// `E109`) alongside the analyzer's own findings. This is what
/// `cgrun lint` runs.
pub fn analyze_source(src: &str, machine: &Schema) -> Analysis {
    let (ad, spans) = match parse_ad_spanned(src) {
        Ok(parsed) => parsed,
        Err(e) => {
            return Analysis {
                diagnostics: vec![e.into()],
                requirements: None,
                rank: None,
            }
        }
    };
    let mut analysis = analyze_ad(&ad, Some(&spans), machine);
    if let Err(e) = JobDescription::from_ad(ad) {
        analysis.diagnostics.insert(
            0,
            Diagnostic::error(
                "E109",
                Pos { line: 1, col: 1 },
                format!("invalid job description: {}", e.message),
            ),
        );
    }
    analysis
}

fn assignable(got: Ty, want: Ty) -> bool {
    got == want || (want == Ty::Number && matches!(got, Ty::Int | Ty::Double))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn lint(src: &str) -> Analysis {
        analyze_source(src, &Schema::machine())
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    const CLEAN: &str = r#"
        Executable   = "interactive_mpich-g2_app";
        JobType      = {"interactive", "mpich-g2"};
        NodeNumber   = 2;
        Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
        Rank         = other.FreeCpus * other.SpeedFactor;
    "#;

    #[test]
    fn clean_ad_has_no_diagnostics() {
        let a = lint(CLEAN);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.requirements.is_some());
        assert!(a.rank.is_some());
    }

    #[test]
    fn unknown_machine_attribute_is_e101_with_span() {
        let src = "Executable = \"app\";\nRequirements = other.FreeCpu > 1;\n";
        let a = lint(src);
        assert_eq!(codes(&a), vec!["E101"]);
        let d = &a.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!((d.pos.line, d.pos.col), (2, 16));
        assert!(d.message.contains("other.FreeCpu"));
        assert!(d.help.as_deref().unwrap_or("").contains("FreeCpus"));
    }

    #[test]
    fn unknown_own_attribute_is_e101() {
        // The unknown reference compiles to undefined, so the requirement is
        // additionally reported as unsatisfiable.
        let a = lint("Executable = \"app\";\nRequirements = Minimum > 1;\n");
        assert_eq!(codes(&a), vec!["E101", "E108"]);
    }

    #[test]
    fn type_mismatch_in_expression_is_e102() {
        let a = lint("Executable = \"app\";\nRequirements = other.FreeCpus + \"x\" > 2;\n");
        assert_eq!(codes(&a), vec!["E102"]);
        assert_eq!(a.diagnostics[0].pos.line, 2);
    }

    #[test]
    fn top_level_type_mismatch_is_e102() {
        let a = lint("Executable = \"app\";\nNodeNumber = \"two\";\n");
        // E109 from JobDescription validation plus the schema mismatch.
        assert!(codes(&a).contains(&"E102"));
        assert!(codes(&a).contains(&"E109"));
    }

    #[test]
    fn unsatisfiable_interval_is_e108() {
        let a = lint(
            "Executable = \"app\";\nRequirements = other.FreeCpus > 4 && other.FreeCpus < 2;\n",
        );
        assert_eq!(codes(&a), vec!["E108"]);
        assert!(a.diagnostics[0].message.contains("FreeCpus"));
    }

    #[test]
    fn integer_tightening_detects_empty_open_interval() {
        // No integer lies in (4, 5); for a Double attribute this is satisfiable.
        let a = lint(
            "Executable = \"app\";\nRequirements = other.FreeCpus > 4 && other.FreeCpus < 5;\n",
        );
        assert_eq!(codes(&a), vec!["E108"]);
        let b = lint(
            "Executable = \"app\";\nRequirements = other.SpeedFactor > 4 && other.SpeedFactor < 5;\n",
        );
        assert!(codes(&b).is_empty(), "{:?}", b.diagnostics);
    }

    #[test]
    fn contradictory_string_pins_are_e108() {
        let a = lint(
            "Executable = \"app\";\nRequirements = other.OpSys == \"linux\" && other.OpSys == \"aix\";\n",
        );
        assert_eq!(codes(&a), vec!["E108"]);
        // Case-insensitive equality is not a contradiction.
        let b = lint(
            "Executable = \"app\";\nRequirements = other.OpSys == \"linux\" && other.OpSys == \"LINUX\";\n",
        );
        assert!(codes(&b).is_empty());
    }

    #[test]
    fn or_needs_both_arms_unsat() {
        let a = lint(
            "Executable = \"app\";\nRequirements = (other.FreeCpus > 4 && other.FreeCpus < 2) || other.AcceptsQueued;\n",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn requirement_against_unset_attribute_is_unsat() {
        // NodeNumber unset: the comparison is undefined on every site.
        let a = lint("Executable = \"app\";\nRequirements = other.FreeCpus >= NodeNumber;\n");
        assert_eq!(codes(&a), vec!["E108", "W205"]);
    }

    #[test]
    fn constant_false_requirements_is_e108() {
        let a = lint("Executable = \"app\";\nRequirements = false;\n");
        assert_eq!(codes(&a), vec!["E108"]);
    }

    #[test]
    fn tautological_requirements_is_w203() {
        let a = lint("Executable = \"app\";\nRequirements = 1 + 1 == 2;\n");
        assert_eq!(codes(&a), vec!["W203"]);
        assert!(!a.has_errors());
    }

    #[test]
    fn non_numeric_rank_is_e107() {
        let a = lint("Executable = \"app\";\nRank = other.OpSys;\n");
        assert_eq!(codes(&a), vec!["E107"]);
        assert_eq!(a.diagnostics[0].pos.line, 2);
    }

    #[test]
    fn non_boolean_requirements_is_e106() {
        let a = lint("Executable = \"app\";\nRequirements = other.FreeCpus + 1;\n");
        assert!(codes(&a).contains(&"E106"));
    }

    #[test]
    fn dead_branch_is_w204() {
        let a = lint("Executable = \"app\";\nRequirements = false && other.AcceptsQueued;\n");
        assert!(codes(&a).contains(&"W204"));
        assert!(codes(&a).contains(&"E108"));
    }

    #[test]
    fn unknown_function_and_arity() {
        let a = lint("Executable = \"app\";\nRequirements = frobnicate(1) == 1;\n");
        assert_eq!(codes(&a), vec!["E104"]);
        let b = lint("Executable = \"app\";\nRequirements = member(\"x\");\n");
        assert_eq!(codes(&b), vec!["E103"]);
    }

    #[test]
    fn unknown_scope_is_e105() {
        let a = lint("Executable = \"app\";\nRequirements = target.FreeCpus > 1;\n");
        assert!(codes(&a).contains(&"E105"));
    }

    #[test]
    fn vocabulary_warning_is_w206() {
        let a = lint("Executable = \"app\";\nHoldKludge = 3;\n");
        assert_eq!(codes(&a), vec!["W206"]);
        assert_eq!(a.diagnostics[0].pos, Pos { line: 2, col: 1 });
    }

    #[test]
    fn unknown_selection_policy_is_w207() {
        // Known names lint clean.
        for name in SELECTION_POLICIES {
            let a = lint(&format!(
                "Executable = \"app\";\nSelectionPolicy = \"{name}\";\n"
            ));
            assert!(codes(&a).is_empty(), "{name}: {:?}", a.diagnostics);
        }
        // Unknown names warn — the broker will fall back to its default —
        // and the help lists the registry.
        let a = lint("Executable = \"app\";\nSelectionPolicy = \"best-effort\";\n");
        assert_eq!(codes(&a), vec!["W207"]);
        assert_eq!(a.diagnostics[0].severity, Severity::Warning);
        assert_eq!(a.diagnostics[0].pos, Pos { line: 2, col: 1 });
        assert!(a.diagnostics[0]
            .help
            .as_deref()
            .unwrap_or_default()
            .contains("queue-forecast"));
        // A non-string value is a type error (schema pass) plus a typed-view
        // rejection, not a W207 (there is no name to look up).
        let a = lint("Executable = \"app\";\nSelectionPolicy = 3;\n");
        assert!(codes(&a).contains(&"E102"), "{:?}", a.diagnostics);
        assert!(!codes(&a).contains(&"W207"), "{:?}", a.diagnostics);
    }

    #[test]
    fn is_undefined_suppresses_reference_diagnostics() {
        let a = lint(
            "Executable = \"app\";\nRequirements = isUndefined(other.Bogus) || other.FreeCpus > 0;\n",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn cyclic_reference_is_e110() {
        let mut ad = Ad::new();
        ad.set_str("Executable", "app");
        ad.set("A", Value::Expr(parse_expr("B + 1").unwrap()));
        ad.set("B", Value::Expr(parse_expr("A + 1").unwrap()));
        ad.set("Requirements", Value::Expr(parse_expr("A > 0").unwrap()));
        let a = analyze_ad(&ad, None, &Schema::machine());
        assert!(codes(&a).contains(&"E110"), "{:?}", a.diagnostics);
    }

    #[test]
    fn parse_failure_is_p002() {
        let a = lint("Executable = ;");
        assert_eq!(codes(&a), vec!["P002"]);
        assert!(a.has_errors());
    }

    #[test]
    fn render_is_rustc_style() {
        let src = "Executable = \"app\";\nRequirements = other.FreeCpu > 1;\n";
        let a = lint(src);
        let out = a.diagnostics[0].render("job.jdl", src);
        assert!(out.contains("error[E101]"), "{out}");
        assert!(out.contains("--> job.jdl:2:16"), "{out}");
        assert!(out.contains("2 | Requirements"), "{out}");
        assert!(out.lines().any(|l| l.trim_end().ends_with('^')), "{out}");
    }

    #[test]
    fn compiled_matches_agrees_with_raw_eval() {
        let job = crate::JobDescription::parse(CLEAN).unwrap();
        let req = job.requirements().unwrap();
        let rank = job.rank().unwrap();
        let a = job.analyze();
        let creq = a.requirements.as_ref().unwrap();
        let crank = a.rank.as_ref().unwrap();

        let mut site = Ad::new();
        site.set_int("FreeCpus", 4).set_double("SpeedFactor", 1.5);
        site.set(
            "Tags",
            Value::List(vec![Value::Str("crossgrid".into()), Value::Str("x".into())]),
        );
        let ctx = Ctx {
            own: &job.ad,
            other: &site,
        };
        assert!(matches!(req.eval_requirement(ctx), Ok(true)));
        assert!(creq.matches(&job.ad, &site));
        assert_eq!(crank.rank(&job.ad, &site), rank.eval_rank(ctx).unwrap());

        // A site missing Tags: undefined, no match either way.
        let mut bare = Ad::new();
        bare.set_int("FreeCpus", 4);
        let bctx = Ctx {
            own: &job.ad,
            other: &bare,
        };
        assert!(!matches!(req.eval_requirement(bctx), Ok(true)));
        assert!(!creq.matches(&job.ad, &bare));
    }

    #[test]
    fn compiled_form_substitutes_own_attributes() {
        let job = crate::JobDescription::parse(CLEAN).unwrap();
        let a = job.analyze();
        // NodeNumber folded in: the compiled tree has no own-references.
        fn no_own(e: &CExpr) -> bool {
            match e {
                CExpr::OwnExpr(_) | CExpr::Raw(_) => false,
                CExpr::Const(_) | CExpr::OtherRef(_) | CExpr::OtherListRef(_) => true,
                CExpr::Not(x) | CExpr::Neg(x) => no_own(x),
                CExpr::Bin(_, l, r) => no_own(l) && no_own(r),
                CExpr::Ternary(c, x, y) => no_own(c) && no_own(x) && no_own(y),
                CExpr::Call(_, args) => args.iter().all(no_own),
            }
        }
        assert!(no_own(&a.requirements.as_ref().unwrap().root));
    }

    #[test]
    fn compiled_const_requirements_folds_away() {
        let mut ad = Ad::new();
        ad.set("Requirements", Value::Expr(parse_expr("2 > 1").unwrap()));
        let a = analyze_ad(&ad, None, &Schema::machine());
        let c = a.requirements.unwrap();
        assert_eq!(c.as_const(), Some(&Cv::Val(Value::Bool(true))));
    }

    #[test]
    fn runtime_errors_survive_compilation() {
        // `!1` errors at runtime; folding must not hide that.
        let e = parse_expr("!1").unwrap();
        let own = Ad::new();
        let c = CompiledExpr::compile(&e, &own);
        assert!(c.as_const().is_none());
        assert!(c.eval(&own, &Ad::new()).is_err());
        assert!(!c.matches(&own, &Ad::new()));
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        assert_eq!(Schema::machine().get("freecpus"), Some(Ty::Int));
        assert_eq!(Schema::machine().get("FREECPUS"), Some(Ty::Int));
        assert_eq!(Schema::job().get("rank"), Some(Ty::Number));
    }

    #[test]
    fn schema_lookup_folds_ascii_case_only_whatever_the_length() {
        // No fixed-size scratch behind the lookup, and no Unicode folding:
        // `É` and `é` are different names, as they are to `Ad::set`.
        let long = "LongAttribute".repeat(16);
        assert!(long.len() > 200);
        let schema = Schema::new()
            .with(&long, Ty::Int)
            .with("Caf\u{c9}Tables", Ty::Bool);
        assert_eq!(schema.get(&long.to_ascii_uppercase()), Some(Ty::Int));
        assert_eq!(schema.display_name(&long.to_ascii_lowercase()), long);
        assert_eq!(schema.get(&long[1..]), None);
        assert_eq!(schema.get("caf\u{c9}tables"), Some(Ty::Bool));
        assert_eq!(schema.display_name("CAF\u{c9}TABLES"), "Caf\u{c9}Tables");
        assert_eq!(schema.get("caf\u{e9}tables"), None);
    }

    #[test]
    fn infer_from_ad_matches_declared_types() {
        let mut ad = Ad::new();
        ad.set_str("Site", "x").set_int("FreeCpus", 4);
        ad.set_double("SpeedFactor", 1.0)
            .set_bool("AcceptsQueued", true);
        ad.set("Tags", Value::List(vec![]));
        let s = Schema::infer_from_ad(&ad);
        assert_eq!(s.get("site"), Some(Ty::Str));
        assert_eq!(s.get("FreeCpus"), Some(Ty::Int));
        assert_eq!(s.get("speedfactor"), Some(Ty::Double));
        assert_eq!(s.get("AcceptsQueued"), Some(Ty::Bool));
        assert_eq!(s.get("tags"), Some(Ty::List));
    }
}
