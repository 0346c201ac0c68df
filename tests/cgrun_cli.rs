//! Integration tests of the `cgrun` CLI binary: real processes, real pipes,
//! real TCP.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cgrun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cgrun"))
}

#[test]
fn local_mode_round_trips_stdio_and_exit_code() {
    let mut child = cgrun()
        .args(["local", "--", "sh", "-c", "read x; echo got:$x; exit 5"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"ping\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), "got:ping\n");
    assert_eq!(out.status.code(), Some(5), "exit code propagates");
}

#[test]
fn local_mode_reliable_flag_spools_to_disk() {
    let spool = std::env::temp_dir().join(format!("cgrun-test-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let out = cgrun()
        .args([
            "local",
            "--reliable",
            spool.to_str().unwrap(),
            "--",
            "echo",
            "durable",
        ])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), "durable\n");
    assert!(out.status.success());
    // Spool files were created (agent stdout spool at least).
    let entries: Vec<_> = std::fs::read_dir(&spool).unwrap().collect();
    assert!(!entries.is_empty(), "spool dir should contain files");
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn shadow_and_agent_as_separate_processes() {
    let dir = std::env::temp_dir().join(format!("cgrun-test-sep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let secret_path = dir.join("secret");
    std::fs::write(&secret_path, b"cgrun-integration-secret").unwrap();

    // Shadow process.
    let mut shadow = cgrun()
        .args(["shadow", "--secret-file", secret_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Parse "shadow listening on 0.0.0.0:PORT" from its stdout.
    let mut reader = BufReader::new(shadow.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let port: u16 = line
        .rsplit(':')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("no port in {line:?}"));
    // Swallow the hint line.
    let mut hint = String::new();
    reader.read_line(&mut hint).unwrap();

    // Agent process wrapping `cat`-like echo.
    let mut agent = cgrun()
        .args([
            "agent",
            "--shadow",
            &format!("127.0.0.1:{port}"),
            "--secret-file",
            secret_path.to_str().unwrap(),
            "--",
            "sh",
            "-c",
            "read a; echo reply:$a",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Type into the shadow; expect the job's reply on the shadow's stdout.
    shadow
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"over-tcp\n")
        .unwrap();
    let mut reply = String::new();
    // cg-lint: allow(wall-clock): bounded wait for a real subprocess over real TCP
    let deadline = Instant::now() + Duration::from_secs(15);
    // cg-lint: allow(wall-clock): same real-TCP reply deadline
    while Instant::now() < deadline && !reply.contains("reply:over-tcp") {
        let mut l = String::new();
        if reader.read_line(&mut l).unwrap() == 0 {
            break;
        }
        reply.push_str(&l);
    }
    assert!(reply.contains("reply:over-tcp"), "shadow printed {reply:?}");

    let agent_status = agent.wait().unwrap();
    assert!(agent_status.success());
    let shadow_status = shadow.wait().unwrap();
    assert!(shadow_status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_and_errors() {
    let out = cgrun().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = cgrun().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = cgrun().args(["agent", "--", "true"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing --shadow rejected");

    let out = cgrun().args(["local"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing command rejected");
}

#[test]
fn journal_dump_and_recover_subcommands() {
    use crossgrid::sim::SimTime;
    use crossgrid::trace::journal::{Journal, JournalConfig};
    use crossgrid::trace::{Event, EventLog};

    let dir = std::env::temp_dir().join(format!("cgrun-test-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broker.journal");

    // Build a small, internally consistent journal with the library.
    let log = EventLog::new(64);
    log.set_journal(Journal::create(&path, JournalConfig::default()).unwrap());
    log.record(
        SimTime::from_secs(1),
        Event::JobSubmitted {
            job: 0,
            user: "alice".into(),
            interactive: true,
        },
    );
    log.record(
        SimTime::from_secs(1),
        Event::JobAd {
            job: 0,
            jdl: r#"Executable = "viz"; JobType = "interactive"; User = "alice";"#.into(),
            runtime_ns: 5_000_000_000,
        },
    );
    log.record(SimTime::from_secs(2), Event::JobStarted { job: 0 });
    log.record(SimTime::from_secs(7), Event::JobFinished { job: 0 });
    log.journal().unwrap().sync().unwrap();

    // journal-dump: JSONL on stdout, one line per event, exit 0.
    let out = cgrun()
        .args(["journal-dump", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 4);
    assert!(stdout.contains("JobSubmitted"), "{stdout}");
    assert!(stdout.contains("JobFinished"), "{stdout}");

    // recover: per-job summary plus a clean bill of health, exit 0.
    let out = cgrun()
        .args(["recover", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("job 0"), "{stdout}");
    assert!(stdout.contains("Finished"), "{stdout}");
    assert!(stdout.contains("recovery checks: ok"), "{stdout}");

    // Corruption must exit 1 with a typed message, not crash.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let bad = dir.join("corrupt.journal");
    std::fs::write(&bad, &bytes).unwrap();
    let dump = cgrun()
        .args(["journal-dump", bad.to_str().unwrap()])
        .output()
        .unwrap();
    let rec = cgrun()
        .args(["recover", bad.to_str().unwrap()])
        .output()
        .unwrap();
    for out in [&dump, &rec] {
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "corruption must be handled, not crash: {out:?}"
        );
    }
    assert!(
        dump.status.code() == Some(1) || rec.status.code() == Some(1) || {
            // The flip may land in a record length and read as a torn tail.
            String::from_utf8_lossy(&dump.stderr).contains("torn tail")
        },
        "flip was silently ignored: {dump:?} {rec:?}"
    );

    // Usage errors exit 2.
    let out = cgrun().arg("journal-dump").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cgrun()
        .args(["recover", dir.join("absent.journal").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "missing file is an I/O error");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `cgrun recover` has no rebuilt broker, so it runs only the recovery
/// rules that read the journal: a glide-in alive at the crash is not a
/// resurrection, and a leased job on the queue is reported once.
#[test]
fn recover_checks_the_journal_without_a_rebuilt_broker() {
    use crossgrid::sim::SimTime;
    use crossgrid::trace::journal::{Journal, JournalConfig};
    use crossgrid::trace::{Event, EventLog};

    let dir = std::env::temp_dir().join(format!("cgrun-test-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, events: Vec<Event>| {
        let path = dir.join(name);
        let log = EventLog::new(64);
        log.set_journal(Journal::create(&path, JournalConfig::default()).unwrap());
        for (secs, event) in (1..).zip(events) {
            log.record(SimTime::from_secs(secs), event);
        }
        log.journal().unwrap().sync().unwrap();
        path
    };
    let recover = |path: &std::path::Path| cgrun().arg("recover").arg(path).output().unwrap();

    let alive = write(
        "alive.journal",
        vec![Event::AgentDeployed {
            agent: 4,
            site: "cesga".into(),
        }],
    );
    let out = recover(&alive);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("1 alive at crash"), "{stdout}");
    assert!(stdout.contains("recovery checks: ok"), "{stdout}");

    let queued = write(
        "queued.journal",
        vec![
            Event::JobSubmitted {
                job: 0,
                user: "alice".into(),
                interactive: false,
            },
            Event::LeaseGranted {
                job: 0,
                target: "site:cesga".into(),
                until_ns: u64::MAX,
            },
            Event::JobQueued { job: 0 },
        ],
    );
    let out = recover(&queued);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let violations: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("violation:"))
        .collect();
    assert_eq!(
        violations,
        ["violation: stream: job 0 is on the broker queue while holding a live lease"],
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.ack` sidecar whose watermark frame has a flipped bit is not a
/// watermark: `cgrun recover --spool-dir` exits 2 and names the file.
#[test]
fn recover_rejects_a_corrupt_spool_sidecar() {
    use crossgrid::console::Spool;
    use crossgrid::sim::SimTime;
    use crossgrid::trace::journal::{Journal, JournalConfig};
    use crossgrid::trace::{Event, EventLog};

    let dir = std::env::temp_dir().join(format!("cgrun-test-sidecar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spools = dir.join("spool");
    std::fs::create_dir_all(&spools).unwrap();
    let journal = dir.join("broker.journal");
    let log = EventLog::new(64);
    log.set_journal(Journal::create(&journal, JournalConfig::default()).unwrap());
    log.record(
        SimTime::from_secs(1),
        Event::JobSubmitted {
            job: 0,
            user: "alice".into(),
            interactive: true,
        },
    );
    log.journal().unwrap().sync().unwrap();

    let mut spool = Spool::open(spools.join("stdout-r0")).unwrap();
    spool.append(1, b"out").unwrap();
    spool.ack(1).unwrap();
    let ack = spools.join("stdout-r0.ack");
    let mut frame = std::fs::read(&ack).unwrap();
    *frame.last_mut().unwrap() ^= 1;
    std::fs::write(&ack, &frame).unwrap();

    let out = cgrun()
        .args(["recover", journal.to_str().unwrap(), "--spool-dir"])
        .arg(&spools)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stdout-r0.ack"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_report_summarizes_membership_transitions() {
    let dir = std::env::temp_dir().join(format!("cgrun-test-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("day.jsonl");

    // A hand-written slice of a CG_TRACE_JSONL dump: one site suspected,
    // killed and rejoined (with retries along the way), a second site only
    // suspected, plus a degraded match and unrelated lifecycle noise.
    std::fs::write(
        &path,
        concat!(
            "{\"at_ns\":1000000000,\"seq\":0,\"event\":\"JobSubmitted\",\"job\":1,\"user\":\"u0\",\"interactive\":true}\n",
            "{\"at_ns\":2000000000,\"seq\":1,\"event\":\"QueryRetry\",\"job\":1,\"site\":\"ifca\",\"attempt\":2,\"delay_ns\":500000000}\n",
            "{\"at_ns\":3000000000,\"seq\":2,\"event\":\"LiveQueryTimeout\",\"job\":1,\"site\":\"ifca\",\"attempt\":2}\n",
            "{\"at_ns\":4000000000,\"seq\":3,\"event\":\"SiteSuspect\",\"site\":\"ifca\",\"missed_refreshes\":2,\"failed_queries\":0}\n",
            "{\"at_ns\":5000000000,\"seq\":4,\"event\":\"SiteDead\",\"site\":\"ifca\",\"in_flight\":1}\n",
            "{\"at_ns\":6000000000,\"seq\":5,\"event\":\"SiteSuspect\",\"site\":\"uab\",\"missed_refreshes\":2,\"failed_queries\":1}\n",
            "{\"at_ns\":7000000000,\"seq\":6,\"event\":\"SiteRejoin\",\"site\":\"ifca\",\"down_ns\":3000000000}\n",
            "{\"at_ns\":8000000000,\"seq\":7,\"event\":\"DegradedMatch\",\"job\":2,\"staleness_ns\":120000000000}\n",
        ),
    )
    .unwrap();

    let out = cgrun()
        .args(["churn-report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "report run: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ifca = stdout.lines().find(|l| l.starts_with("ifca")).unwrap();
    let cols: Vec<&str> = ifca.split_whitespace().collect();
    assert_eq!(
        cols,
        ["ifca", "1", "1", "1", "3.0", "1", "1"],
        "per-site churn row:\n{stdout}"
    );
    let uab = stdout.lines().find(|l| l.starts_with("uab")).unwrap();
    assert!(uab.split_whitespace().nth(1) == Some("1"), "{stdout}");
    let total = stdout.lines().find(|l| l.starts_with("total")).unwrap();
    assert_eq!(
        total.split_whitespace().collect::<Vec<_>>(),
        ["total", "2", "1", "1", "3.0", "1", "1"],
        "{stdout}"
    );
    assert!(
        stdout.contains("degraded matches: 1 (max snapshot staleness 120.0 s)"),
        "{stdout}"
    );

    // A dump with no churn still reports, loudly but cleanly.
    let quiet = dir.join("quiet.jsonl");
    std::fs::write(
        &quiet,
        "{\"at_ns\":1,\"seq\":0,\"event\":\"JobStarted\",\"job\":1}\n",
    )
    .unwrap();
    let out = cgrun()
        .args(["churn-report", quiet.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("no membership churn"),
        "{out:?}"
    );

    // Usage and I/O failures exit 2.
    let out = cgrun().arg("churn-report").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cgrun()
        .args(["churn-report", dir.join("absent.jsonl").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_report_keeps_escaped_site_names_apart() {
    let dir = std::env::temp_dir().join(format!("cgrun-test-escapes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("escapes.jsonl");
    // `a<TAB>b` and `atb`, `x<U+0001>y` and `xu0001y`: four sites, each
    // suspected once, whose JSON spellings differ only by an escape.
    std::fs::write(
        &path,
        concat!(
            "{\"at_ns\":1,\"seq\":0,\"event\":\"SiteSuspect\",\"site\":\"a\\tb\",\"missed_refreshes\":2,\"failed_queries\":0}\n",
            "{\"at_ns\":2,\"seq\":1,\"event\":\"SiteSuspect\",\"site\":\"atb\",\"missed_refreshes\":2,\"failed_queries\":0}\n",
            "{\"at_ns\":3,\"seq\":2,\"event\":\"SiteSuspect\",\"site\":\"x\\u0001y\",\"missed_refreshes\":2,\"failed_queries\":0}\n",
            "{\"at_ns\":4,\"seq\":3,\"event\":\"SiteSuspect\",\"site\":\"xu0001y\",\"missed_refreshes\":2,\"failed_queries\":0}\n",
        ),
    )
    .unwrap();

    let out = cgrun()
        .args(["churn-report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "report run: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let suspects = |name: &str| -> Vec<String> {
        stdout
            .lines()
            .filter_map(|l| l.strip_prefix(name))
            .filter(|rest| rest.starts_with(' '))
            .map(|rest| rest.split_whitespace().next().unwrap().to_string())
            .collect()
    };
    for name in ["a\tb", "atb", "x\u{1}y", "xu0001y"] {
        assert_eq!(suspects(name), ["1"], "one row for {name:?}:\n{stdout}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_src_exit_codes_follow_the_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = |name: &str| root.join("examples/lint").join(name);

    // A clean tree (the linter's own sources) exits 0 and says so.
    let good = cgrun()
        .args(["lint-src", root.join("crates/lint/src").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(good.status.code(), Some(0), "clean tree: {good:?}");
    assert!(String::from_utf8_lossy(&good.stdout).contains("0 error(s), 0 warning(s)"));

    // Error-severity findings exit 1 and carry their codes.
    let bad = cgrun()
        .args(["lint-src", fixture("l2_locks").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "errors must fail: {bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("L201"), "missing L201:\n{stdout}");
    assert!(stdout.contains("L202"), "missing L202:\n{stdout}");

    // Warnings alone pass by default but fail under --check (the CI gate).
    let warn = cgrun()
        .args(["lint-src", fixture("w5_allow").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(warn.status.code(), Some(0), "warnings alone: {warn:?}");
    let strict = cgrun()
        .args(["lint-src", "--check", fixture("w5_allow").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--check escalates: {strict:?}"
    );
    assert!(String::from_utf8_lossy(&strict.stdout).contains("W501"));

    // Usage errors exit 2.
    let usage = cgrun().args(["lint-src", "--bogus"]).output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
}
