//! The lint passes. Each works over [`SourceFile`] token streams and emits
//! [`Finding`]s with stable diagnostic codes:
//!
//! | code | pass | meaning |
//! |------|------|---------|
//! | L101 | determinism | wall-clock or ambient RNG in sim-governed code |
//! | L201 | lock discipline | lock guard held across a journal/fsync boundary |
//! | L202 | lock discipline | overlapping lock guards (nested locking) |
//! | L301 | policy purity | interior mutability inside a `SelectionPolicy` impl |
//! | L302 | policy purity | clock or RNG inside a `SelectionPolicy` impl |
//! | L303 | policy purity | I/O inside a `SelectionPolicy` impl |
//! | W501 | hygiene | `#[allow(...)]` attribute without a justifying comment |
//!
//! L1/L2 honor `// cg-lint: allow(<kind>): <reason>` escape hatches on the
//! finding's line or the line above (`wall-clock`, `lock-across-io`,
//! `nested-lock`). L3 is an invariant with no escape hatch. W501 is
//! satisfied by any plain `//` comment on the attribute's line or the line
//! above (doc comments belong to the item, not the allow, and don't count).

use crate::scan::{SourceFile, Tok, TokKind};
use cg_jdl::{Diagnostic, Pos, Severity};

/// One lint finding: a diagnostic anchored to a file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, as scanned.
    pub path: String,
    /// The diagnostic (code, position, message, optional help).
    pub diag: Diagnostic,
}

fn finding(
    path: &str,
    severity: Severity,
    code: &'static str,
    pos: Pos,
    message: String,
    help: Option<String>,
) -> Finding {
    Finding {
        path: path.to_string(),
        diag: Diagnostic {
            severity,
            code,
            pos,
            message,
            help,
        },
    }
}

/// Runs every pass over `files` and returns the findings sorted by
/// (path, line, col, code) so output is deterministic.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !exempt_from_determinism(&f.path) {
            determinism(f, &mut out);
        }
        lock_discipline(f, &mut out);
        policy_purity(f, &mut out);
        allow_hygiene(f, &mut out);
    }
    out.sort_by(|a, b| {
        (
            a.path.as_str(),
            a.diag.pos.line,
            a.diag.pos.col,
            a.diag.code,
        )
            .cmp(&(
                b.path.as_str(),
                b.diag.pos.line,
                b.diag.pos.col,
                b.diag.code,
            ))
    });
    out
}

/// The bench harness measures real elapsed time on purpose; it is the one
/// place wall clocks are the point.
fn exempt_from_determinism(path: &str) -> bool {
    path.split(['/', '\\']).any(|c| c == "bench")
}

// ── L1: determinism ─────────────────────────────────────────────────────

fn determinism(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        let hit: Option<(&str, Pos)> = if toks[i].kind == TokKind::Ident
            && (toks[i].text == "Instant" || toks[i].text == "SystemTime")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("::"))
            && matches!(toks.get(i + 2), Some(t) if t.is_ident("now"))
        {
            Some((
                if toks[i].text == "Instant" {
                    "Instant::now"
                } else {
                    "SystemTime::now"
                },
                toks[i].pos,
            ))
        } else if toks[i].is_ident("thread_rng")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("("))
        {
            Some(("thread_rng", toks[i].pos))
        } else {
            None
        };
        if let Some((what, pos)) = hit {
            if f.has_allow(pos.line, "wall-clock") {
                continue;
            }
            out.push(finding(
                &f.path,
                Severity::Error,
                "L101",
                pos,
                format!(
                    "`{what}` in sim-governed code: outcomes must be deterministic and replayable"
                ),
                Some(
                    "route time through the sim clock (`SimTime`) or RNG through a seeded \
                     per-job generator; if this genuinely needs real time, annotate with \
                     `// cg-lint: allow(wall-clock): <reason>`"
                        .to_string(),
                ),
            ));
        }
    }
}

// ── L2: lock discipline ─────────────────────────────────────────────────

/// Calls that cross a durable-I/O boundary: holding a lock guard across one
/// serializes unrelated work behind the disk.
const IO_BOUNDARY: &[&str] = &["sync_all", "sync_data", "fsync"];

#[derive(Debug)]
struct Guard {
    name: String,
    depth: u32,
    pos: Pos,
}

/// Token-level guard tracking: a `let`-binding whose initializer calls
/// `.lock()` or `.shard(` creates a guard; the guard lives until its block
/// closes or it is `drop(..)`ed. While at least one guard is live, an
/// [`IO_BOUNDARY`] call is L201 and a second overlapping guard is L202.
fn lock_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let mut depth: u32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("drop") && matches!(toks.get(i + 1), Some(n) if n.is_punct("(")) {
            // drop(name) or drop((a, b)): release every named guard.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(")") && !toks[j].is_punct(";") {
                if toks[j].kind == TokKind::Ident {
                    let name = toks[j].text.clone();
                    guards.retain(|g| g.name != name);
                }
                j += 1;
            }
        } else if t.is_ident("let")
            && !(i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")))
        {
            if let Some((names, init_start, init_end)) = let_binding(toks, i) {
                let init = &toks[init_start..init_end];
                if calls_lock(init) {
                    let pos = toks[i].pos;
                    if let Some(prev) = guards.last() {
                        if !f.has_allow(pos.line, "nested-lock") {
                            out.push(finding(
                                &f.path,
                                Severity::Error,
                                "L202",
                                pos,
                                format!(
                                    "lock guard acquired while guard `{}` (line {}) is still held",
                                    prev.name, prev.pos.line
                                ),
                                Some(
                                    "overlapping guards risk lock-order deadlock; release the \
                                     outer guard first, or annotate the documented order with \
                                     `// cg-lint: allow(nested-lock): <reason>`"
                                        .to_string(),
                                ),
                            ));
                        }
                    }
                    for name in names {
                        guards.push(Guard { name, depth, pos });
                    }
                    // Fall through token-by-token so the outer brace depth
                    // stays consistent even when the initializer contains
                    // blocks.
                }
            }
        } else if !guards.is_empty()
            && t.kind == TokKind::Ident
            && IO_BOUNDARY.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
            && i > 0
            && toks[i - 1].is_punct(".")
        {
            let g = guards.last().expect("non-empty");
            if !f.has_allow(t.pos.line, "lock-across-io") {
                out.push(finding(
                    &f.path,
                    Severity::Error,
                    "L201",
                    t.pos,
                    format!(
                        "`{}` called while lock guard `{}` (line {}) is held",
                        t.text, g.name, g.pos.line
                    ),
                    Some(
                        "holding a lock across a durable-I/O boundary serializes every other \
                         holder behind the disk; move the I/O outside the critical section, or \
                         annotate a deliberate single-writer design with \
                         `// cg-lint: allow(lock-across-io): <reason>`"
                            .to_string(),
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Parses `let <pattern> = <init>;` starting at the `let` token. Returns the
/// bound names (pattern idents, wrappers like `Ok`/`Some`/`mut` excluded)
/// and the token range of the initializer (up to but excluding the closing
/// `;`/`else` at the binding's paren/brace level).
fn let_binding(toks: &[Tok], let_idx: usize) -> Option<(Vec<String>, usize, usize)> {
    let mut names = Vec::new();
    let mut i = let_idx + 1;
    let mut depth = 0i32;
    // Pattern: until `=` at depth 0 (skip `==`… not possible in a pattern).
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct("=") && depth <= 0 {
            break;
        } else if t.is_punct(";") {
            return None;
        } else if t.kind == TokKind::Ident
            && !matches!(
                t.text.as_str(),
                "mut" | "ref" | "Ok" | "Err" | "Some" | "None" | "box"
            )
            // A type ascription ident (after `:`) is not a binding.
            && !(i > let_idx + 1 && toks[i - 1].is_punct(":"))
        {
            names.push(t.text.clone());
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let init_start = i + 1;
    let mut j = init_start;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if (t.is_punct(";") || t.is_ident("else")) && depth <= 0 {
            break;
        }
        j += 1;
    }
    Some((names, init_start, j))
}

/// True when the initializer calls `.lock()` or `.shard(` at its top level.
/// Calls nested inside parens/braces (closure bodies, match arms, function
/// arguments) belong to some other expression, not to this binding — a
/// `thread::spawn(move || { … lock() … })` handle is not a guard.
fn calls_lock(toks: &[Tok]) -> bool {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0
            && t.is_punct(".")
            && matches!(toks.get(k + 1), Some(a) if a.is_ident("lock") || a.is_ident("shard"))
            && matches!(toks.get(k + 2), Some(b) if b.is_punct("("))
        {
            return true;
        }
    }
    false
}

// ── L3: policy purity ───────────────────────────────────────────────────

const INTERIOR_MUT: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicU8",
    "AtomicU32",
    "AtomicU64",
    "AtomicI64",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "compare_exchange",
];
const CLOCK_RNG: &[&str] = &["Instant", "SystemTime", "thread_rng", "random", "rand"];
const IO_MARKERS: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "UdpSocket",
    "stdin",
    "stdout",
    "stderr",
    "println",
    "eprintln",
    "write_all",
    "read_to_string",
    "read_to_end",
];

/// Scans every `impl … SelectionPolicy for …` block: the scoring path must
/// be a pure function of its arguments (DESIGN §7f), so interior
/// mutability, clocks/RNG, and I/O are all structural errors — no escape
/// hatch.
fn policy_purity(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("SelectionPolicy")
            && toks[..i].iter().rev().take(8).any(|t| t.is_ident("impl"))
            && matches!(toks.get(i + 1), Some(t) if t.is_ident("for"))
        {
            // Find the impl block's braces.
            let open = toks[i..].iter().position(|t| t.is_punct("{"));
            let Some(open) = open.map(|o| i + o) else {
                i += 1;
                continue;
            };
            let close = matching_brace(toks, open);
            for t in &toks[open + 1..close] {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let (code, what) = if INTERIOR_MUT.contains(&t.text.as_str()) {
                    ("L301", "interior mutability")
                } else if CLOCK_RNG.contains(&t.text.as_str()) {
                    ("L302", "a clock or RNG")
                } else if IO_MARKERS.contains(&t.text.as_str()) {
                    ("L303", "I/O")
                } else {
                    continue;
                };
                out.push(finding(
                    &f.path,
                    Severity::Error,
                    code,
                    t.pos,
                    format!(
                        "`{}` inside a `SelectionPolicy` impl: scoring uses {what}, breaking \
                         the pure-function contract",
                        t.text
                    ),
                    Some(
                        "policies must be pure functions of (Candidate, SiteSignals); \
                         precompute state outside the policy and pass it in via SiteSignals"
                            .to_string(),
                    ),
                ));
            }
            i = close;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ── W501: allow hygiene ─────────────────────────────────────────────────

/// Flags `#[allow(...)]` / `#![allow(...)]` attributes with no plain
/// comment on the attribute's line or the line above. The pedantic-clippy
/// baseline (PR 2) stays tight only if every exception says why it exists.
fn allow_hygiene(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        if !toks[i].is_punct("#") {
            continue;
        }
        let mut j = i + 1;
        let inner = matches!(toks.get(j), Some(t) if t.is_punct("!"));
        if inner {
            j += 1;
        }
        if !(matches!(toks.get(j), Some(t) if t.is_punct("["))
            && matches!(toks.get(j + 1), Some(t) if t.is_ident("allow")))
        {
            continue;
        }
        let pos = toks[i].pos;
        // Outer attributes need a plain `//` reason (the `///` above them
        // documents the item, not the waiver); inner `#![allow]` may be
        // justified by the module's own `//!` docs.
        let justified = if inner {
            f.comments
                .iter()
                .any(|c| !c.text.is_empty() && (c.line == pos.line || c.line + 1 == pos.line))
        } else {
            f.has_plain_comment_near(pos.line)
        };
        if justified {
            continue;
        }
        out.push(finding(
            &f.path,
            Severity::Warning,
            "W501",
            pos,
            "unjustified `#[allow(...)]`: no comment explains why the lint is waived".to_string(),
            Some(
                "add a `// <reason>` comment on the attribute's line or the line above, \
                 or fix the code and drop the allow"
                    .to_string(),
            ),
        ));
    }
}
