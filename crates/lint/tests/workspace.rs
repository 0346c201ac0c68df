//! The source gates, in the default test run and nowhere else: the
//! workspace's own sources lint clean with warnings fatal, exactly as
//! `cgrun lint-src --check .` requires (one clock door L101, lock
//! discipline L2, policy purity L3, allow hygiene W501), no core module
//! passes the 800-line budget, the `un`-`safe` keyword stays in its two
//! allowed files, no first-party source names one of the retired `compat/`
//! shims, CI runs no tier-1 test a second time, and every `DESIGN §…`
//! reference names a section DESIGN.md has.

use cg_lint::lint_root;
use std::fs;
use std::path::{Path, PathBuf};

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

/// The core module size gate: no file under `crates/core/src` may pass
/// 800 lines (newlines, as `wc -l` counts them).
#[test]
fn no_core_module_is_over_800_lines() {
    const MAX_LINES: usize = 800;
    let mut files = Vec::new();
    rust_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src"),
        &mut files,
    );
    let mut over = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path).expect("source file readable");
        let lines = source.matches('\n').count();
        if lines > MAX_LINES {
            over.push(format!("{}: {lines} lines", path.display()));
        }
    }
    assert!(files.len() > 20, "scanned only {} files", files.len());
    assert!(
        over.is_empty(),
        "files over {MAX_LINES} lines:\n{}",
        over.join("\n")
    );
}

/// The `.rs` files under `dir`, recursively (none when it does not exist).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The first-party sources: the `.rs` files under `src/`, `tests/`,
/// `crates/*/src/`, `crates/*/tests/` and `examples/`, named relative to
/// `root`.
fn first_party_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    for krate in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let krate = krate.expect("directory entry readable").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    files
        .iter()
        .map(|path| {
            let name = path.strip_prefix(root).expect("under the root");
            let source = fs::read_to_string(path).expect("source file readable");
            (name.to_string_lossy().into_owned(), source)
        })
        .collect()
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `line` holds `word` as a whole word, as `grep -w` matches it.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].chars().next_back().is_some_and(is_word)
            && !line[at + word.len()..].chars().next().is_some_and(is_word)
    })
}

/// The keyword gate: the keyword (spelled
/// `un` + `safe` here, so this file does not hold it) appears in the
/// first-party sources only in the journal CRC's kernel call and the
/// counting allocator, and every line of the CRC file that holds it has a
/// `// SAFETY:` line directly above.
#[test]
fn no_unsafe_outside_its_two_allowed_files() {
    const CRC: &str = "crates/trace/src/journal/crc.rs";
    const ALLOC: &str = "tests/support/counting_alloc.rs";
    let keyword = concat!("un", "safe");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut stray = Vec::new();
    for (name, source) in first_party_sources(&root) {
        let lines: Vec<&str> = source.lines().collect();
        for (n, line) in lines
            .iter()
            .enumerate()
            .filter(|(_, l)| has_word(l, keyword))
        {
            let guarded = n > 0 && lines[n - 1].trim_start().starts_with("// SAFETY:");
            match name.as_ref() {
                ALLOC => {}
                CRC if guarded => {}
                CRC => stray.push(format!("{name}:{}: no // SAFETY: line above", n + 1)),
                _ => stray.push(format!("{name}:{}: {}", n + 1, line.trim())),
            }
        }
    }
    assert!(
        stray.is_empty(),
        "{keyword} outside {CRC} and {ALLOC}:\n{}",
        stray.join("\n")
    );
}

/// The offline shims under `compat/` that stand in for external crates no
/// first-party source uses: they are still declared only because removing
/// a manifest line rewrites `perf/Cargo.lock`.
const RETIRED_SHIMS: [&str; 4] = ["serde", "crossbeam", "bytes", "parking_lot"];

/// Whether `line` names the crate `krate`: a path through it
/// (`krate` then `::`) or a `use`/`extern crate` of it.
fn names_crate(line: &str, krate: &str) -> bool {
    line.match_indices(krate).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + krate.len()..]);
        let last_word = before.trim_end().rsplit(|c| !is_word(c)).next();
        !before.chars().next_back().is_some_and(is_word)
            && !after.chars().next().is_some_and(is_word)
            && (after.starts_with("::") || matches!(last_word, Some("use" | "crate")))
    })
}

/// No first-party source uses a retired shim, so deleting the shims and
/// their manifest lines needs no change to the code.
#[test]
fn no_first_party_source_uses_a_retired_shim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut uses = Vec::new();
    for (name, source) in first_party_sources(&root) {
        for (n, line) in source.lines().enumerate() {
            if RETIRED_SHIMS.iter().any(|shim| names_crate(line, shim)) {
                uses.push(format!("{name}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        uses.is_empty(),
        "first-party sources use a retired shim ({}):\n{}",
        RETIRED_SHIMS.join(", "),
        uses.join("\n")
    );
}

/// The lines are built from the names, so this file names no shim itself.
#[test]
fn names_crate_matches_uses_and_paths_only() {
    for shim in RETIRED_SHIMS {
        for line in [
            format!("use {shim}::channel::{{unbounded, Sender}};"),
            format!("    pub use {shim}::Mutex;"),
            format!("#[derive({shim}::Serialize)]"),
            format!("extern crate {shim};"),
            format!("let (tx, rx) = {shim}::channel::unbounded();"),
        ] {
            assert!(names_crate(&line, shim), "{line}");
        }
        for line in [
            format!("out.extend_from_slice(&v.to_le_{shim}());"),
            format!("let n = u32::from_le_{shim}(b);"),
            format!("// because {shim} arrive in order"),
            format!("use cg_{shim}::Frame;"),
            format!("let {shim}_like = {shim}.len();"),
        ] {
            assert!(!names_crate(&line, shim), "{line}");
        }
    }
}

/// The commands of `ci`'s `run:` steps, one per shell line: an inline
/// value with its quotes taken off, and each line of a `|` or `>` block.
fn run_commands(ci: &str) -> Vec<String> {
    let mut commands = Vec::new();
    let mut block_indent = None;
    for line in ci.lines() {
        let indent = line.len() - line.trim_start().len();
        if let Some(key_indent) = block_indent {
            if line.trim().is_empty() {
                continue;
            }
            if indent > key_indent {
                commands.push(line.trim().to_string());
                continue;
            }
            block_indent = None;
        }
        let item = line.trim_start().trim_start_matches("- ");
        let Some(value) = item.strip_prefix("run:") else {
            continue;
        };
        let value = value.trim();
        if value.starts_with('|') || value.starts_with('>') {
            block_indent = Some(indent);
        } else {
            commands.push(value.trim_matches(|c| c == '"' || c == '\'').to_string());
        }
    }
    commands
}

/// The one run of every tier-1 test.
const TIER1: &str = "cargo test --workspace --release";

/// What makes a `cargo test` run something [`TIER1`] does not.
const WIDENING: [&str; 4] = [
    "PROPTEST_CASES=",
    "RUSTFLAGS=",
    "--ignored",
    "--manifest-path perf/Cargo.toml",
];

/// Whether a `cargo test` selects only property tests: every `--test`
/// target it names is a `*proptests` file, and it names one, or a `--lib`
/// test-name filter.
fn names_property_targets(segment: &str) -> bool {
    let words: Vec<&str> = segment.split_whitespace().collect();
    let mut named = false;
    for pair in words.windows(2) {
        match pair[0] {
            "--test" if !pair[1].ends_with("proptests") => return false,
            "--test" => named = true,
            "--lib" => named |= !pair[1].starts_with('-'),
            _ => {}
        }
    }
    named
}

/// Why `command` runs a tier-1 test a second time, if it does. A
/// `cargo test` other than [`TIER1`] re-runs what that run already ran
/// unless it changes what runs: more proptest cases (over property-test
/// targets only), another `cfg`, the ignored tests, or the separate `perf/`
/// package. `check_gates` runs `churn_suite --check` and
/// `policy_ab --check`.
fn tier1_rerun(command: &str) -> Option<&'static str> {
    let segments = command.split(['&', '|', ';']);
    for segment in segments.map(str::trim) {
        if segment.contains("cargo test") {
            if segment.contains("PROPTEST_CASES=") && !names_property_targets(segment) {
                return Some("re-runs more than the crate's property tests");
            }
            let widened = WIDENING.iter().any(|flag| segment.contains(flag));
            if segment != TIER1 && !widened {
                return Some("re-runs tests that the workspace test runs");
            }
        } else if segment.contains("cargo run")
            && (segment.contains("churn_suite")
                || (segment.contains("policy_ab") && segment.contains("--check")))
        {
            return Some("is a --check gate that check_gates runs");
        }
    }
    None
}

/// CI runs each tier-1 test once, in its one workspace test; every other
/// `cargo test` or gate it runs does what that run cannot.
#[test]
fn ci_reruns_no_tier1_test() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
    let ci = fs::read_to_string(&path).expect("ci.yml readable");
    let commands = run_commands(&ci);
    assert!(commands.len() > 10, "read only {} commands", commands.len());
    let reruns: Vec<String> = commands
        .iter()
        .filter_map(|c| tier1_rerun(c).map(|why| format!("`{c}` {why}")))
        .collect();
    assert!(
        reruns.is_empty(),
        "ci.yml runs tier-1 tests again:\n{}",
        reruns.join("\n")
    );
    let runs = commands.iter().filter(|c| *c == TIER1).count();
    assert_eq!(runs, 1, "ci.yml runs `{TIER1}` {runs} times");
}

/// The guard reads inline, quoted and block steps, and flags a narrowed
/// re-run or a `--check` gate that `check_gates` runs, but no run that
/// widens what tier-1 runs.
#[test]
fn ci_rerun_guard_flags_narrowed_reruns_only() {
    let ci = r#"
jobs:
  a:
    steps:
      - uses: actions/checkout@v4
      - run: cargo test --workspace --release
      - run: cargo test --release -p cg-net
      - run: "PROPTEST_CASES=4096 cargo test --release -p cg-console --lib stream::"
      - run: PROPTEST_CASES=4096 cargo test --release -p cg-jdl
      - name: block
        run: |
          RUSTFLAGS="--cfg cg_loom" cargo test --release -p cg-trace --test loom_model
          cargo build --bin cgrun && cargo test -p cg-lint

          cargo test --release -p cg-console -- --ignored
      - run: cargo test --release --locked --manifest-path perf/Cargo.toml
      - run: cargo run -p cg-bench --release --bin churn_suite -- --check
      - run: cargo run -p cg-bench --release --bin policy_ab -- --check
      - run: cargo run -p cg-bench --release --bin policy_ab
      - run: cargo run -p cg-bench --release --bin selection_scaling -- --check
"#;
    let commands = run_commands(ci);
    assert_eq!(commands.len(), 12, "{commands:#?}");
    let flagged: Vec<&String> = commands
        .iter()
        .filter(|c| tier1_rerun(c).is_some())
        .collect();
    assert_eq!(
        flagged,
        [
            "cargo test --release -p cg-net",
            "PROPTEST_CASES=4096 cargo test --release -p cg-jdl",
            "cargo build --bin cgrun && cargo test -p cg-lint",
            "cargo run -p cg-bench --release --bin churn_suite -- --check",
            "cargo run -p cg-bench --release --bin policy_ab -- --check",
        ]
    );
}

/// The first-party `.rs`, `.toml`, `.yml` and `.md` files under `dir`,
/// recursively, past build output, git's files and the `compat/` shims.
fn doc_bearing_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("directory readable") {
        let path = entry.expect("directory entry readable").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            let skip = ["target", "out", "compat", ".git", ".bench_build"];
            if !skip.contains(&name.as_ref()) {
                doc_bearing_files(&path, out);
            }
        } else if [".rs", ".toml", ".yml", ".md"]
            .iter()
            .any(|e| name.ends_with(e))
        {
            out.push(path);
        }
    }
}

/// The section ids that `DESIGN §X` / `DESIGN.md §X` (the file name
/// optionally in backticks) cites in `text`: a number and an optional
/// lower-case letter, as DESIGN.md numbers its `## X.` headings.
fn design_refs(text: &str) -> Vec<&str> {
    let mut refs = Vec::new();
    for (at, _) in text.match_indices('§') {
        let before = text[..at].trim_end_matches(' ');
        if !["DESIGN", "DESIGN.md", "DESIGN.md`"]
            .iter()
            .any(|name| before.ends_with(name))
        {
            continue;
        }
        let id = &text[at + '§'.len_utf8()..];
        let digits = id.find(|c: char| !c.is_ascii_digit()).unwrap_or(id.len());
        let letter = id[digits..].starts_with(|c: char| c.is_ascii_lowercase());
        if digits > 0 {
            refs.push(&id[..digits + usize::from(letter)]);
        }
    }
    refs
}

#[test]
fn every_design_section_reference_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    let heads: Vec<&str> = design
        .lines()
        .filter_map(|line| line.strip_prefix("## ")?.split_once('.'))
        .map(|(id, _)| id)
        .collect();
    let mut files = Vec::new();
    doc_bearing_files(&root, &mut files);
    let (mut refs, mut dangling) = (0, Vec::new());
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        for id in design_refs(&text) {
            refs += 1;
            if !heads.contains(&id) {
                let name = path.strip_prefix(&root).unwrap_or(path);
                dangling.push(format!("{}: DESIGN §{id}", name.display()));
            }
        }
    }
    assert!(refs > 20, "found only {refs} references");
    assert!(
        dangling.is_empty(),
        "no such DESIGN.md heading:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn design_refs_reads_each_spelling() {
    // §10b does not exist: spelled in two halves, so the scan of this file
    // does not read it.
    let text = concat!(
        "DESIGN §7d, `DESIGN.md` §7m. DESIGN.md §8; §3; DESIGN ",
        "§10b."
    );
    assert_eq!(design_refs(text), ["7d", "7m", "8", "10b"]);
}
