//! The source gate in the default test run: the workspace's own sources
//! lint clean with warnings fatal, exactly as `cgrun lint-src --check .`
//! requires (one clock door L101, lock discipline L2, policy purity L3,
//! allow hygiene W501).

use cg_lint::lint_root;
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
