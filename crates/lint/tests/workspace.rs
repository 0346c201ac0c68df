//! The source gates in the default test run: the workspace's own sources
//! lint clean with warnings fatal, exactly as `cgrun lint-src --check .`
//! requires (one clock door L101, lock discipline L2, policy purity L3,
//! allow hygiene W501), and no core module passes CI's 800-line budget.

use cg_lint::lint_root;
use std::fs;
use std::path::Path;

#[test]
fn the_workspace_lints_clean_with_warnings_fatal() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_root(&root).expect("workspace readable");
    assert!(
        report.files.len() > 100,
        "scanned only {} files",
        report.files.len()
    );
    assert!(report.findings.is_empty(), "{}", report.render());
}

/// CI's "core module size gate": no file under `crates/core/src` may pass
/// 800 lines (newlines, as `wc -l` counts them).
#[test]
fn no_core_module_is_over_800_lines() {
    const MAX_LINES: usize = 800;
    let mut dirs = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src")];
    let (mut scanned, mut over) = (0, Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("source directory readable") {
            let path = entry.expect("directory entry readable").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                scanned += 1;
                let source = fs::read_to_string(&path).expect("source file readable");
                let lines = source.matches('\n').count();
                if lines > MAX_LINES {
                    over.push(format!("{}: {lines} lines", path.display()));
                }
            }
        }
    }
    assert!(scanned > 20, "scanned only {scanned} files");
    assert!(
        over.is_empty(),
        "files over {MAX_LINES} lines:\n{}",
        over.join("\n")
    );
}
