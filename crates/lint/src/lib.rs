//! `cg-lint`: workspace-level static analysis for the CrossBroker
//! reproduction.
//!
//! The broker's headline claims — deterministic replay, bit-identical
//! matchmaking across evaluators, crash recovery to identical outcomes —
//! rest on source-level invariants that no compiler checks: no wall clocks in
//! sim-governed code, no lock guards held across durable I/O, and pure
//! selection policies. This crate enforces them statically, with
//! rustc-style diagnostics rendered through the same machinery as the JDL
//! analyzer (`cg-jdl`'s [`Diagnostic`]/[`Pos`] span shape). (The event
//! codec needs no pass: `cg-trace` generates it from one table.)
//!
//! There is no `syn` in this fully-offline workspace, so the analysis works
//! over a hand-rolled token stream ([`scan`]) rather than an AST; the
//! passes ([`passes`]) are written to be exact over this codebase's idiom
//! and conservative elsewhere. See the pass table in [`passes`] for the
//! diagnostic codes and the `// cg-lint: allow(...)` escape-hatch syntax.
//!
//! Entry points: [`lint_root`] scans a directory tree, [`lint_files`] a
//! pre-parsed set (used by fixture tests); `cgrun lint-src` is the CLI.

pub mod passes;
pub mod scan;

pub use cg_jdl::{Diagnostic, Pos, Severity};
pub use passes::{run_all, Finding};
pub use scan::SourceFile;

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, the vendored external-API
/// shims (not first-party code), lint fixtures (deliberately bad), VCS.
const SKIP_DIRS: &[&str] = &["target", "compat", "examples", ".git", "node_modules"];

/// Collects every `.rs` file under `root`, skipping [`SKIP_DIRS`], sorted
/// for deterministic output.
///
/// # Errors
/// Propagates filesystem errors from the walk.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Report from a lint run: the findings plus everything needed to render
/// them with source context.
pub struct Report {
    /// Findings, sorted by (path, line, col, code).
    pub findings: Vec<Finding>,
    /// The scanned files (for [`Report::render`]'s source excerpts).
    pub files: Vec<SourceFile>,
}

impl Report {
    /// True when any finding is `Error`-severity.
    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.diag.severity == Severity::Error)
    }

    /// Renders every finding rustc-style (source line + caret + help),
    /// followed by a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let src = self
                .files
                .iter()
                .find(|s| s.path == f.path)
                .map_or("", |s| s.src.as_str());
            out.push_str(&f.diag.render(&f.path, src));
            out.push('\n');
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.diag.severity == Severity::Error)
            .count();
        let warnings = self.findings.len() - errors;
        out.push_str(&format!(
            "{} error(s), {} warning(s) across {} file(s)\n",
            errors,
            warnings,
            self.files.len()
        ));
        out
    }
}

/// Lints every first-party `.rs` file under `root`.
///
/// # Errors
/// Propagates filesystem errors; unreadable files fail the run rather than
/// being silently skipped.
pub fn lint_root(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        // Report paths relative to the root: stable across checkouts.
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(rel, src));
    }
    Ok(lint_files(files))
}

/// Lints an in-memory file set (fixture tests feed this directly).
pub fn lint_files(files: Vec<SourceFile>) -> Report {
    let findings = passes::run_all(&files);
    Report { findings, files }
}
