//! # cg-jdl — the Job Description Language
//!
//! The EDG/CrossGrid JDL is a ClassAd dialect: jobs are attribute records
//! (`Executable = "app"; JobType = {"interactive", "mpich-g2"}; …`) with
//! `Requirements`/`Rank` matchmaking expressions evaluated against machine
//! advertisements. This crate provides:
//!
//! - [`lex`]/[`parse_ad`]/[`parse_expr`] — tokenizer and recursive-descent
//!   parser with positioned errors;
//! - [`Ad`]/[`Value`] — the attribute-record data model (case-insensitive
//!   names, ordered printing, round-trippable);
//! - [`Expr`] — ClassAd-lite expressions with tri-state (`undefined`)
//!   semantics, `other.*` scoping, `member()`/`isUndefined()`;
//! - [`JobDescription`] — the typed, validated view with the paper's
//!   interactivity attributes: `JobType`, `NodeNumber`, `StreamingMode`
//!   (reliable/fast), `MachineAccess` (exclusive/shared), `PerformanceLoss`
//!   (multiples of 5), `ShadowPort`;
//! - [`analyze`] — static analysis: schema-driven type checking of
//!   `Requirements`/`Rank` against the job and machine vocabularies,
//!   constant folding with unsatisfiability detection, and a compiled
//!   expression form ([`CompiledExpr`]) for the matchmaking hot loop;
//! - [`Columns`]/[`SiteSet`] — the column-oriented counterpart of a list of
//!   ads (one typed [`Cell`] per ad and attribute) and the bitset of ads a
//!   bound expression ([`BoundExpr`]) narrows conjunct by conjunct.
//!
//! ```
//! use cg_jdl::{JobDescription, Interactivity, Parallelism};
//!
//! let job = JobDescription::parse(r#"
//!     Executable  = "interactive_mpich-g2_app";
//!     JobType     = {"interactive", "mpich-g2"};
//!     NodeNumber  = 2;
//!     Arguments   = "-n";
//! "#).unwrap();
//! assert_eq!(job.interactivity, Interactivity::Interactive);
//! assert_eq!(job.parallelism, Parallelism::MpichG2);
//! assert_eq!(job.console_agent_count(), 2);
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod ast;
mod columns;
mod expr;
mod job;
mod lexer;
mod parser;
pub mod symbols;

pub use analyze::{
    analyze_ad, analyze_source, Analysis, BoundExpr, CompiledExpr, Diagnostic, Schema, Severity,
    Ty, SELECTION_POLICIES,
};
pub use ast::{Ad, Value};
pub use columns::{Cell, Column, Columns, SiteSet};
pub use expr::{BinOp, Ctx, Cv, EvalError, Expr, Scope};
pub use job::{Interactivity, JobDescription, JobError, MachineAccess, Parallelism, StreamingMode};
pub use lexer::{lex, LexError, Pos, Tok};
pub use parser::{
    parse_ad, parse_ad_spanned, parse_expr, parse_expr_spanned, AdSpans, ParseError, Span,
};
pub use symbols::{intern, Symbol};
