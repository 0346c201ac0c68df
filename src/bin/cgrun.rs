//! `cgrun` — run any command under Grid Console split execution.
//!
//! The practical face of the library: a shadow on your terminal, an agent
//! around an unmodified command, real TCP in between. Three modes:
//!
//! ```text
//! cgrun shadow --secret-file S [--port P] [--ranks N] [--reliable DIR]
//!     Start a Console Shadow. Prints the address; your stdin is broadcast
//!     to the job, the job's stdout/stderr appear here. Exits with the
//!     job's exit code once every rank has finished.
//!
//! cgrun agent --shadow HOST:PORT --secret-file S [--rank K] [--reliable DIR] -- CMD ARGS…
//!     Wrap CMD under a Console Agent and stream it to the shadow.
//!
//! cgrun local [--reliable DIR] -- CMD ARGS…
//!     Both halves in one process (loopback demo): your terminal talks to
//!     CMD through the full agent↔shadow protocol.
//!
//! cgrun lint FILE.jdl…
//!     Statically analyse job descriptions the way the broker does at
//!     submit time; prints rustc-style diagnostics and exits non-zero when
//!     any file carries an error.
//!
//! cgrun lint-src [--check] [ROOT]
//!     Statically analyse the workspace's own Rust sources: determinism
//!     (L1), lock discipline (L2), selection-policy purity (L3),
//!     allow-attribute hygiene (W5). Exits non-zero on errors (with
//!     --check, on warnings too).
//!
//! cgrun journal-dump FILE
//!     Decode a broker journal: snapshot/torn-tail summary on stderr, one
//!     JSON object per event on stdout. Exits 1 on corruption.
//!
//! cgrun churn-report FILE.jsonl
//!     Summarize site churn from a `CG_TRACE_JSONL` event dump: per-site
//!     membership transitions (suspect/dead/rejoin, time spent down) and
//!     live-query retry/timeout counts, plus degraded-matchmaking totals.
//!
//! cgrun recover FILE [--spool-dir DIR]
//!     Fold a broker journal into its recovered state, print a per-job
//!     summary, and run the recovery invariants offline. With --spool-dir,
//!     cross-checks journaled spool watermarks against the on-disk `.ack`
//!     sidecars (each one CRC'd watermark frame). Exits 1 when any check
//!     fails, 2 on a usage or I/O error or a sidecar that is not one whole
//!     watermark frame.
//!
//! cgrun backends
//!     List the execution backends a site can run (`SiteConfig::backend`),
//!     with the label each stamps on `JobDispatched` trace events.
//! ```
//!
//! The secret file is any byte string shared by both sides (the GSI proxy
//! stand-in). Create one with e.g. `head -c 32 /dev/urandom > secret`.

use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use crossgrid::console::{
    run_agent, AgentConfig, ConsoleShadow, Mode, Secret, ShadowConfig, ShadowEvent, StreamKind,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("shadow") => cmd_shadow(&args[1..]),
        Some("agent") => cmd_agent(&args[1..]),
        Some("local") => cmd_local(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("lint-src") => cmd_lint_src(&args[1..]),
        Some("journal-dump") => cmd_journal_dump(&args[1..]),
        Some("churn-report") => cmd_churn_report(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("backends") => cmd_backends(),
        Some("--help" | "-h") | None => {
            eprint!("{}", USAGE);
            0
        }
        Some(other) => {
            eprintln!("cgrun: unknown subcommand {other:?}\n");
            eprint!("{}", USAGE);
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
cgrun — run a command under Grid Console split execution

USAGE:
  cgrun shadow --secret-file S [--port P] [--ranks N] [--reliable DIR]
  cgrun agent  --shadow HOST:PORT --secret-file S [--rank K] [--reliable DIR] -- CMD ARGS…
  cgrun local  [--reliable DIR] -- CMD ARGS…
  cgrun lint   FILE.jdl…
  cgrun lint-src [--check] [ROOT]
  cgrun journal-dump FILE
  cgrun churn-report FILE.jsonl
  cgrun recover FILE [--spool-dir DIR]
  cgrun backends
";

struct Flags {
    secret_file: Option<PathBuf>,
    port: u16,
    ranks: u32,
    rank: u32,
    shadow: Option<SocketAddr>,
    reliable: Option<PathBuf>,
    command: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        secret_file: None,
        port: 0,
        ranks: 1,
        rank: 0,
        shadow: None,
        reliable: None,
        command: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--secret-file" => f.secret_file = Some(PathBuf::from(value("--secret-file")?)),
            "--port" => {
                f.port = value("--port")?
                    .parse()
                    .map_err(|_| "--port must be a number".to_string())?;
            }
            "--ranks" => {
                f.ranks = value("--ranks")?
                    .parse()
                    .map_err(|_| "--ranks must be a number".to_string())?;
            }
            "--rank" => {
                f.rank = value("--rank")?
                    .parse()
                    .map_err(|_| "--rank must be a number".to_string())?;
            }
            "--shadow" => {
                f.shadow = Some(
                    value("--shadow")?
                        .parse()
                        .map_err(|_| "--shadow must be HOST:PORT".to_string())?,
                );
            }
            "--reliable" => f.reliable = Some(PathBuf::from(value("--reliable")?)),
            "--" => {
                f.command = it.cloned().collect();
                break;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(f)
}

fn load_secret(f: &Flags) -> Result<Secret, String> {
    match &f.secret_file {
        Some(path) => std::fs::read(path)
            .map(Secret::new)
            .map_err(|e| format!("cannot read secret file {}: {e}", path.display())),
        None => Err("--secret-file is required (shared by shadow and agent)".into()),
    }
}

fn mode_of(f: &Flags) -> Result<Mode, String> {
    match &f.reliable {
        None => Ok(Mode::Fast),
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create spool dir {}: {e}", dir.display()))?;
            Ok(Mode::Reliable {
                spool_dir: dir.clone(),
            })
        }
    }
}

/// `cgrun lint FILE…`: run the submit-time JDL analyzer over each file,
/// printing rustc-style diagnostics. Exit 0 = clean (warnings allowed),
/// 1 = at least one error-severity finding, 2 = usage or I/O failure.
fn cmd_lint(args: &[String]) -> i32 {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: cgrun lint FILE.jdl…");
        return 2;
    }
    let machine = cg_site::machine_schema();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for path in args {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cgrun lint: cannot read {path}: {e}");
                return 2;
            }
        };
        let analysis = cg_jdl::analyze_source(&src, &machine);
        for d in &analysis.diagnostics {
            print!("{}", d.render(path, &src));
        }
        errors += analysis.error_count();
        warnings += analysis.diagnostics.len() - analysis.error_count();
    }
    match (errors, warnings) {
        (0, 0) => println!("cgrun lint: {} file(s) clean", args.len()),
        (e, w) => println!("cgrun lint: {e} error(s), {w} warning(s)"),
    }
    i32::from(errors > 0)
}

/// `cgrun lint-src [--check] [ROOT]`: run the cg-lint passes over the
/// workspace's own sources (default ROOT: the current directory). Exit 0 =
/// clean, 1 = findings (errors; with `--check`, warnings count too), 2 =
/// usage or I/O failure.
fn cmd_lint_src(args: &[String]) -> i32 {
    let mut check = false;
    let mut root: Option<PathBuf> = None;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("usage: cgrun lint-src [--check] [ROOT]");
                return 2;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("cgrun lint-src: unexpected argument {other:?}");
                return 2;
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match crossgrid::lint::lint_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cgrun lint-src: cannot scan {}: {e}", root.display());
            return 2;
        }
    };
    print!("{}", report.render());
    let fail = report.has_errors() || (check && !report.findings.is_empty());
    i32::from(fail)
}

/// `cgrun journal-dump FILE`: decode a broker journal. Summary (snapshot,
/// torn tail) goes to stderr; events stream to stdout as JSON Lines. Exit
/// 0 = decoded cleanly, 1 = corruption detected, 2 = usage or I/O failure.
fn cmd_journal_dump(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("usage: cgrun journal-dump FILE");
        return 2;
    };
    let loaded = match crossgrid::trace::journal::open_journal(path) {
        Ok(l) => l,
        Err(crossgrid::trace::journal::JournalError::Io(e)) => {
            eprintln!("cgrun journal-dump: cannot read {path}: {e}");
            return 2;
        }
        Err(e) => {
            eprintln!("cgrun journal-dump: {e}");
            return 1;
        }
    };
    if let Some(snap) = &loaded.snapshot {
        eprintln!(
            "cgrun journal-dump: snapshot through seq {} ({} state bytes)",
            snap.through_seq,
            snap.state.len()
        );
    }
    if loaded.truncated_bytes > 0 {
        eprintln!(
            "cgrun journal-dump: torn tail, {} byte(s) truncated",
            loaded.truncated_bytes
        );
    }
    eprintln!("cgrun journal-dump: {} tail event(s)", loaded.events.len());
    let mut out = String::new();
    for ev in &loaded.events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    print!("{out}");
    0
}

/// Extracts the value of a flat string field (`"key":"value"`) from one
/// JSONL line. Decodes exactly the escapes the event stream's JSON writer
/// emits (`\"`, `\\`, `\n`, `\r`, `\t` and `\uXXXX`); returns `None` when
/// the key is absent or the value is malformed. The event stream writes
/// every key exactly once per line, so the first match is the field.
fn jsonl_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                c @ ('"' | '\\') => c,
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let rest = chars.as_str();
                    let code = u32::from_str_radix(rest.get(..4)?, 16).ok()?;
                    chars = rest[4..].chars();
                    char::from_u32(code)?
                }
                _ => return None,
            }),
            c => out.push(c),
        }
    }
    None
}

/// Extracts a flat unsigned numeric field (`"key":123`) from a JSONL line.
fn jsonl_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `cgrun churn-report FILE.jsonl`: summarize membership churn from an
/// event dump (`CG_TRACE_JSONL=out.jsonl` on any bench bin, or
/// `journal-dump` output). Per site: suspect/dead/rejoin transitions, total
/// time outside `Alive`, live-query retries and timeouts; plus the
/// stream-wide degraded-matchmaking total. Exit 0 = report printed (even when the
/// stream carries no churn), 2 = usage or I/O failure.
fn cmd_churn_report(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("usage: cgrun churn-report FILE.jsonl");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgrun churn-report: cannot read {path}: {e}");
            return 2;
        }
    };

    #[derive(Default)]
    struct SiteChurn {
        suspects: u64,
        deads: u64,
        rejoins: u64,
        down_ns: u64,
        retries: u64,
        timeouts: u64,
    }
    let mut sites: std::collections::BTreeMap<String, SiteChurn> =
        std::collections::BTreeMap::new();
    let mut degraded = 0u64;
    let mut max_staleness_ns = 0u64;
    let mut events = 0u64;
    for line in src.lines() {
        let Some(kind) = jsonl_str(line, "event") else {
            continue;
        };
        events += 1;
        match kind.as_str() {
            "SiteSuspect" => {
                if let Some(site) = jsonl_str(line, "site") {
                    sites.entry(site).or_default().suspects += 1;
                }
            }
            "SiteDead" => {
                if let Some(site) = jsonl_str(line, "site") {
                    sites.entry(site).or_default().deads += 1;
                }
            }
            "SiteRejoin" => {
                if let Some(site) = jsonl_str(line, "site") {
                    let e = sites.entry(site).or_default();
                    e.rejoins += 1;
                    e.down_ns += jsonl_u64(line, "down_ns").unwrap_or(0);
                }
            }
            "QueryRetry" => {
                if let Some(site) = jsonl_str(line, "site") {
                    sites.entry(site).or_default().retries += 1;
                }
            }
            "LiveQueryTimeout" => {
                if let Some(site) = jsonl_str(line, "site") {
                    sites.entry(site).or_default().timeouts += 1;
                }
            }
            "DegradedMatch" => {
                degraded += 1;
                max_staleness_ns =
                    max_staleness_ns.max(jsonl_u64(line, "staleness_ns").unwrap_or(0));
            }
            _ => {}
        }
    }

    if sites.is_empty() && degraded == 0 {
        println!("churn-report: {events} event(s), no membership churn in the stream");
        return 0;
    }
    if !sites.is_empty() {
        println!(
            "{:<18} {:>7} {:>5} {:>6} {:>9} {:>7} {:>8}",
            "site", "suspect", "dead", "rejoin", "down_s", "retries", "timeouts"
        );
        let mut totals = SiteChurn::default();
        for (name, c) in &sites {
            println!(
                "{:<18} {:>7} {:>5} {:>6} {:>9.1} {:>7} {:>8}",
                name,
                c.suspects,
                c.deads,
                c.rejoins,
                c.down_ns as f64 / 1e9,
                c.retries,
                c.timeouts
            );
            totals.suspects += c.suspects;
            totals.deads += c.deads;
            totals.rejoins += c.rejoins;
            totals.down_ns += c.down_ns;
            totals.retries += c.retries;
            totals.timeouts += c.timeouts;
        }
        println!(
            "{:<18} {:>7} {:>5} {:>6} {:>9.1} {:>7} {:>8}",
            "total",
            totals.suspects,
            totals.deads,
            totals.rejoins,
            totals.down_ns as f64 / 1e9,
            totals.retries,
            totals.timeouts
        );
    }
    if degraded > 0 {
        println!(
            "degraded matches: {degraded} (max snapshot staleness {:.1} s)",
            max_staleness_ns as f64 / 1e9
        );
    }
    0
}

/// `cgrun backends`: the execution backends a site can run, and the label
/// each one stamps on `JobDispatched` trace events (visible in `cgrun
/// journal-dump` output).
fn cmd_backends() -> i32 {
    use crossgrid::site::BackendKind;
    println!("execution backends (SiteConfig::backend):\n");
    for (kind, config, what) in [
        (
            BackendKind::SimLrms,
            "Sim",
            "simulated batch scheduler (default; bit-identical replays)",
        ),
        (
            BackendKind::Process,
            "Process { program }",
            "spawns and reaps one external process per started job",
        ),
    ] {
        println!("  {:<12} BackendSpec::{config:<24} {what}", kind.as_str());
    }
    println!(
        "\nboth are the one deterministic LRMS core; `process` adds a hook that \
         hears a\njob id on start and on its terminal event, and reports only \
         into its own\ncounters via mono_ns() (DESIGN §7k)."
    );
    0
}

/// `cgrun recover FILE [--spool-dir DIR]`: fold a journal into the state a
/// broker restart would rebuild, print it, and validate it offline — the
/// whole-stream invariants when the journal carries the complete prefix,
/// the recovery rules that read the journal alone always (there is no
/// rebuilt broker to compare), and (with `--spool-dir`) the journaled spool
/// watermarks against the on-disk `.ack` sidecars, each one CRC'd
/// watermark frame. Exit 0 = consistent, 1 = violations found, 2 = usage or
/// I/O failure, or a sidecar that is not one whole watermark frame (the
/// error names it).
fn cmd_recover(args: &[String]) -> i32 {
    use crossgrid::trace::journal::{open_journal, JournalError};
    use crossgrid::trace::{check_invariants, check_stream_recovery_invariants};

    let (path, spool_dir) = match args {
        [path] => (path, None),
        [path, flag, dir] if flag == "--spool-dir" => (path, Some(PathBuf::from(dir))),
        _ => {
            eprintln!("usage: cgrun recover FILE [--spool-dir DIR]");
            return 2;
        }
    };
    let loaded = match open_journal(path) {
        Ok(l) => l,
        Err(JournalError::Io(e)) => {
            eprintln!("cgrun recover: cannot read {path}: {e}");
            return 2;
        }
        Err(e) => {
            eprintln!("cgrun recover: {e}");
            return 1;
        }
    };
    let state = match loaded.replay_state() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgrun recover: {e}");
            return 1;
        }
    };

    println!(
        "journal: {} tail event(s){}{}, last seq {}, crash at {:.3} s",
        loaded.events.len(),
        if loaded.snapshot.is_some() {
            " after snapshot"
        } else {
            ""
        },
        if loaded.truncated_bytes > 0 {
            ", torn tail truncated"
        } else {
            ""
        },
        loaded.last_seq().map_or(0, |s| s),
        state.last_at_ns as f64 / 1e9,
    );
    for (id, job) in &state.jobs {
        println!(
            "job {id}: user={} phase={:?}{}{}",
            job.user,
            job.phase,
            if job.jdl.is_some() {
                ""
            } else {
                " (no commit record: restart aborts it)"
            },
            job.fail_reason
                .as_deref()
                .map(|r| format!(" reason={r:?}"))
                .unwrap_or_default(),
        );
    }
    let alive = state.agents.values().filter(|a| a.alive).count();
    println!(
        "agents: {} journaled, {alive} alive at crash (all lost with the broker)",
        state.agents.len()
    );
    for (stream, mark) in &state.spools {
        println!(
            "spool {stream}: appended through {} acked through {}",
            mark.appended, mark.acked
        );
    }

    let mut violations = Vec::new();
    if loaded.snapshot.is_none() {
        violations.extend(check_invariants(&loaded.events));
    }
    violations.extend(check_stream_recovery_invariants(&loaded.events, &state));
    if let Some(dir) = spool_dir {
        match crossgrid::console::recover_watermarks(&dir) {
            Ok(marks) => {
                let on_disk: std::collections::HashMap<String, u64> = marks.into_iter().collect();
                for (stream, mark) in &state.spools {
                    let disk = on_disk.get(&**stream).copied().unwrap_or(0);
                    if disk < mark.acked {
                        violations.push(format!(
                            "spool {stream}: on-disk watermark {disk} is behind journaled ack {}",
                            mark.acked
                        ));
                    }
                }
            }
            Err(e) => {
                eprintln!("cgrun recover: cannot scan {}: {e}", dir.display());
                return 2;
            }
        }
    }
    if violations.is_empty() {
        println!("recovery checks: ok");
        0
    } else {
        for v in &violations {
            println!("violation: {v}");
        }
        1
    }
}

fn cmd_shadow(args: &[String]) -> i32 {
    match shadow_impl(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cgrun shadow: {e}");
            2
        }
    }
}

fn shadow_impl(args: &[String]) -> Result<i32, String> {
    let f = parse(args)?;
    let secret = load_secret(&f)?;
    let mut config = ShadowConfig::local(secret);
    config.bind = format!("0.0.0.0:{}", f.port)
        .parse()
        .expect("valid bind literal");
    config.expected_ranks = f.ranks;
    config.mode = mode_of(&f)?;
    let shadow = ConsoleShadow::start(config).map_err(|e| e.to_string())?;
    println!("cgrun: shadow listening on {}", shadow.addr());
    println!("cgrun: run the agent with: cgrun agent --shadow <this-host>:{} --secret-file <same file> -- CMD", shadow.addr().port());
    Ok(run_shadow_terminal(shadow, f.ranks))
}

fn cmd_agent(args: &[String]) -> i32 {
    let f = match parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cgrun agent: {e}");
            return 2;
        }
    };
    let Some(addr) = f.shadow else {
        eprintln!("cgrun agent: --shadow HOST:PORT is required");
        return 2;
    };
    if f.command.is_empty() {
        eprintln!("cgrun agent: no command given (use `-- CMD ARGS…`)");
        return 2;
    }
    let secret = match load_secret(&f) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgrun agent: {e}");
            return 2;
        }
    };
    let mode = match mode_of(&f) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cgrun agent: {e}");
            return 2;
        }
    };
    let mut config = AgentConfig::fast(format!("cgrun-{}", std::process::id()), addr, secret);
    config.rank = f.rank;
    config.mode = mode;
    let mut cmd = Command::new(&f.command[0]);
    cmd.args(&f.command[1..]);
    match run_agent(config, cmd) {
        Ok(report) => {
            if report.gave_up {
                eprintln!("cgrun agent: gave up reaching the shadow; job killed");
                return 70;
            }
            if !report.delivered_all {
                eprintln!("cgrun agent: warning: some output was lost (fast mode)");
            }
            report.exit_code
        }
        Err(e) => {
            eprintln!("cgrun agent: {e}");
            66
        }
    }
}

fn cmd_local(args: &[String]) -> i32 {
    let f = match parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cgrun local: {e}");
            return 2;
        }
    };
    if f.command.is_empty() {
        eprintln!("cgrun local: no command given (use `-- CMD ARGS…`)");
        return 2;
    }
    let secret = Secret::random();
    let mut config = ShadowConfig::local(secret.clone());
    config.mode = match mode_of(&f) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cgrun local: {e}");
            return 2;
        }
    };
    let shadow = match ConsoleShadow::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgrun local: {e}");
            return 2;
        }
    };
    let addr = shadow.addr();
    let mode = match mode_of(&f) {
        Ok(m) => m,
        Err(_) => Mode::Fast,
    };
    let command = f.command.clone();
    let agent = std::thread::spawn(move || {
        let mut config =
            AgentConfig::fast(format!("cgrun-local-{}", std::process::id()), addr, secret);
        config.mode = mode;
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..]);
        run_agent(config, cmd)
    });
    let code = run_shadow_terminal(shadow, 1);
    match agent.join() {
        Ok(Ok(report)) => {
            if report.exit_code != code {
                return report.exit_code;
            }
            code
        }
        Ok(Err(e)) => {
            eprintln!("cgrun local: agent failed: {e}");
            66
        }
        Err(_) => 70,
    }
}

/// The shadow-side terminal loop: stdin broadcast in, rank-attributed
/// output out, exit once every rank finished.
fn run_shadow_terminal(shadow: ConsoleShadow, ranks: u32) -> i32 {
    let shadow = std::sync::Arc::new(shadow);
    // stdin pump.
    {
        let s = std::sync::Arc::clone(&shadow);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if s.send_stdin_line(&line).is_err() {
                    break;
                }
            }
            s.close_stdin();
        });
    }
    let mut exits: std::collections::HashMap<u32, i32> = std::collections::HashMap::new();
    loop {
        match shadow.next_event(Duration::from_millis(200)) {
            Ok(ShadowEvent::Output { rank, stream, data }) => {
                let prefix = if ranks > 1 {
                    format!("[{rank}] ")
                } else {
                    String::new()
                };
                let text = String::from_utf8_lossy(&data).into_owned();
                if stream == StreamKind::Stderr {
                    eprint!("{prefix}{text}");
                    let _ = std::io::stderr().flush();
                } else {
                    print!("{prefix}{text}");
                    let _ = std::io::stdout().flush();
                }
            }
            Ok(ShadowEvent::AgentConnected {
                rank, reconnect, ..
            }) => {
                if reconnect {
                    eprintln!("cgrun: rank {rank} reconnected");
                }
            }
            Ok(ShadowEvent::AgentDisconnected { rank }) => {
                eprintln!("cgrun: rank {rank} disconnected (agent will retry)");
            }
            Ok(ShadowEvent::Exit { rank, code }) => {
                exits.insert(rank, code);
                if exits.len() as u32 >= ranks {
                    // cg-lint: allow(wall-clock): draining a real terminal after job exit
                    let until = std::time::Instant::now() + Duration::from_millis(300);
                    // cg-lint: allow(wall-clock): same real-terminal drain window
                    while std::time::Instant::now() < until {
                        if let Ok(ShadowEvent::Output { data, .. }) =
                            shadow.next_event(Duration::from_millis(50))
                        {
                            print!("{}", String::from_utf8_lossy(&data));
                            let _ = std::io::stdout().flush();
                        }
                    }
                    return exits
                        .get(&0)
                        .copied()
                        .or_else(|| exits.values().copied().find(|&c| c != 0))
                        .unwrap_or(0);
                }
            }
            Ok(ShadowEvent::AuthFailure { peer }) => {
                eprintln!("cgrun: authentication failure from {peer}");
            }
            Ok(ShadowEvent::Eof { .. }) => {}
            Err(_) => {}
        }
    }
}
