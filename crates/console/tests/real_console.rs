//! End-to-end tests of the real Grid Console: actual child processes, real
//! TCP on loopback, injected connection failures.
//!
//! Every test here but `shadow_shutdown_is_clean` waits on a wall-clock
//! deadline and is `#[ignore]`d; run them with
//! `cargo test --release -p cg-console -- --ignored`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cg_console::{
    run_agent, AgentConfig, ConsoleShadow, FlushPolicy, Mode, Secret, ShadowConfig, ShadowEvent,
    StreamKind,
};

#[path = "support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// Collects shadow events until `pred` says stop or the deadline passes.
fn drain_until(
    shadow: &ConsoleShadow,
    deadline: Duration,
    mut pred: impl FnMut(&[ShadowEvent]) -> bool,
) -> Vec<ShadowEvent> {
    // cg-lint: allow(wall-clock): deadline on real TCP shadow events
    let start = Instant::now();
    let mut events = Vec::new();
    while start.elapsed() < deadline {
        match shadow.events().recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => {
                events.push(ev);
                if pred(&events) {
                    break;
                }
            }
            Err(_) => {
                if pred(&events) {
                    break;
                }
            }
        }
    }
    events
}

fn stdout_of(events: &[ShadowEvent], rank: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for ev in events {
        if let ShadowEvent::Output {
            rank: r,
            stream: StreamKind::Stdout,
            data,
        } = ev
        {
            if *r == rank {
                out.extend_from_slice(data);
            }
        }
    }
    out
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn echo_session_round_trips_bytes_exactly() {
    let secret = Secret::random();
    let shadow = ConsoleShadow::start(ShadowConfig::local(secret.clone())).unwrap();
    let addr = shadow.addr();

    // `cat` echoes stdin to stdout — an unmodified interactive "application".
    let agent = std::thread::spawn(move || {
        run_agent(
            AgentConfig::fast("echo-job", addr, secret),
            Command::new("cat"),
        )
        .unwrap()
    });

    // Wait for the agent, type two lines, close stdin.
    drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter()
            .any(|e| matches!(e, ShadowEvent::AgentConnected { .. }))
    });
    shadow.send_stdin_line("hello grid").unwrap();
    shadow.send_stdin_line("second line").unwrap();
    shadow.close_stdin();

    let events = drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter().any(|e| matches!(e, ShadowEvent::Exit { .. }))
    });
    let report = agent.join().unwrap();

    assert_eq!(report.exit_code, 0);
    assert!(report.delivered_all, "fast mode on a clean link delivers");
    assert_eq!(stdout_of(&events, 0), b"hello grid\nsecond line\n");
    assert!(events.iter().any(|e| matches!(
        e,
        ShadowEvent::Eof {
            stream: StreamKind::Stdout,
            ..
        }
    )));
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn stderr_and_exit_code_propagate() {
    let secret = Secret::random();
    let shadow = ConsoleShadow::start(ShadowConfig::local(secret.clone())).unwrap();
    let addr = shadow.addr();

    let agent = std::thread::spawn(move || {
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg("echo out-line; echo err-line >&2; exit 3");
        run_agent(AgentConfig::fast("exit3", addr, secret), cmd).unwrap()
    });

    let events = drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter().any(|e| matches!(e, ShadowEvent::Exit { .. }))
    });
    let report = agent.join().unwrap();
    assert_eq!(report.exit_code, 3);
    assert!(events
        .iter()
        .any(|e| matches!(e, ShadowEvent::Exit { code: 3, .. })));
    assert_eq!(stdout_of(&events, 0), b"out-line\n");
    let err: Vec<u8> = events
        .iter()
        .filter_map(|e| match e {
            ShadowEvent::Output {
                stream: StreamKind::Stderr,
                data,
                ..
            } => Some(data.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(err, b"err-line\n");
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn multiple_ranks_fan_in_like_mpich_g2() {
    let secret = Secret::random();
    let mut config = ShadowConfig::local(secret.clone());
    config.expected_ranks = 3;
    let shadow = ConsoleShadow::start(config).unwrap();
    let addr = shadow.addr();

    // Three subjobs, each printing its identity — one CA per subjob (§4).
    let agents: Vec<_> = (0..3u32)
        .map(|rank| {
            let secret = secret.clone();
            std::thread::spawn(move || {
                let mut cfg = AgentConfig::fast(format!("mpi-{rank}"), addr, secret);
                cfg.rank = rank;
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg(format!("echo rank-{rank}-reporting"));
                run_agent(cfg, cmd).unwrap()
            })
        })
        .collect();

    let events = drain_until(&shadow, Duration::from_secs(15), |evs| {
        evs.iter()
            .filter(|e| matches!(e, ShadowEvent::Exit { .. }))
            .count()
            == 3
    });
    for a in agents {
        let r = a.join().unwrap();
        assert_eq!(r.exit_code, 0);
    }
    for rank in 0..3 {
        assert_eq!(
            stdout_of(&events, rank),
            format!("rank-{rank}-reporting\n").as_bytes(),
            "each subjob's output is attributed to its rank"
        );
    }
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn stdin_broadcast_reaches_every_rank() {
    let secret = Secret::random();
    let mut config = ShadowConfig::local(secret.clone());
    config.expected_ranks = 2;
    let shadow = ConsoleShadow::start(config).unwrap();
    let addr = shadow.addr();

    let agents: Vec<_> = (0..2u32)
        .map(|rank| {
            let secret = secret.clone();
            std::thread::spawn(move || {
                let mut cfg = AgentConfig::fast(format!("bc-{rank}"), addr, secret);
                cfg.rank = rank;
                // Each rank tags what it read — proving the broadcast.
                let mut cmd = Command::new("sh");
                cmd.arg("-c")
                    .arg(format!("read line; echo \"rank{rank}:$line\""));
                run_agent(cfg, cmd).unwrap()
            })
        })
        .collect();

    drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter()
            .filter(|e| matches!(e, ShadowEvent::AgentConnected { .. }))
            .count()
            == 2
    });
    shadow.send_stdin_line("steer-param=7").unwrap();

    let events = drain_until(&shadow, Duration::from_secs(15), |evs| {
        evs.iter()
            .filter(|e| matches!(e, ShadowEvent::Exit { .. }))
            .count()
            == 2
    });
    for a in agents {
        a.join().unwrap();
    }
    assert_eq!(stdout_of(&events, 0), b"rank0:steer-param=7\n");
    assert_eq!(stdout_of(&events, 1), b"rank1:steer-param=7\n");
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn wrong_secret_is_rejected() {
    let shadow = ConsoleShadow::start(ShadowConfig::local(Secret::new(b"right".to_vec()))).unwrap();
    let addr = shadow.addr();

    let agent = std::thread::spawn(move || {
        let mut cfg = AgentConfig::fast("intruder", addr, Secret::new(b"wrong".to_vec()));
        cfg.max_retries = 1;
        cfg.retry_interval = Duration::from_millis(100);
        run_agent(cfg, Command::new("cat")).unwrap()
    });

    let events = drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter()
            .any(|e| matches!(e, ShadowEvent::AuthFailure { .. }))
    });
    assert!(events
        .iter()
        .any(|e| matches!(e, ShadowEvent::AuthFailure { .. })));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ShadowEvent::AgentConnected { .. })),
        "no session for a bad secret"
    );
    let report = agent.join().unwrap();
    assert!(
        report.gave_up,
        "agent gives up on auth failure and kills the job"
    );
}

/// A TCP proxy whose connections we can kill on demand — the network-failure
/// injector for reliable-mode tests.
struct ChaosProxy {
    addr: SocketAddr,
    kill: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(target: SocketAddr) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let kill = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let k = Arc::clone(&kill);
        let s = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut pipes: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !s.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        if k.load(Ordering::SeqCst) {
                            drop(client); // refuse while "down"
                            continue;
                        }
                        let Ok(server) = TcpStream::connect(target) else {
                            continue;
                        };
                        for (mut a, mut b) in [
                            (client.try_clone().unwrap(), server.try_clone().unwrap()),
                            (server, client),
                        ] {
                            let k2 = Arc::clone(&k);
                            pipes.push(std::thread::spawn(move || {
                                a.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                                let mut buf = [0u8; 8192];
                                loop {
                                    if k2.load(Ordering::SeqCst) {
                                        let _ = a.shutdown(std::net::Shutdown::Both);
                                        let _ = b.shutdown(std::net::Shutdown::Both);
                                        return;
                                    }
                                    match std::io::Read::read(&mut a, &mut buf) {
                                        Ok(0) => return,
                                        Ok(n) => {
                                            if std::io::Write::write_all(&mut b, &buf[..n]).is_err()
                                            {
                                                return;
                                            }
                                        }
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                                        Err(_) => return,
                                    }
                                }
                            }));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
            }
            for p in pipes {
                let _ = p.join();
            }
        });
        ChaosProxy {
            addr,
            kill,
            stop,
            handle: Some(handle),
        }
    }

    /// Kills live connections and refuses new ones.
    fn go_down(&self) {
        self.kill.store(true, Ordering::SeqCst);
    }

    /// Accepts connections again.
    fn go_up(&self) {
        self.kill.store(false, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.kill.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn reliable_mode_survives_connection_loss_byte_exactly() {
    let secret = Secret::random();
    let spool = TempDir::new("cg-console-it", "reliable");
    let mut config = ShadowConfig::local(secret.clone());
    config.mode = Mode::Reliable {
        spool_dir: spool.path().to_path_buf(),
    };
    // Tiny timeout so output flushes promptly.
    config.flush = FlushPolicy {
        capacity: 64 * 1024,
        timeout_ns: 5_000_000,
        on_eol: true,
    };
    let shadow = ConsoleShadow::start(config).unwrap();
    let proxy = ChaosProxy::start(shadow.addr());
    let agent_addr = proxy.addr;

    let spool2 = spool.path().to_path_buf();
    let agent = std::thread::spawn(move || {
        let mut cfg = AgentConfig::reliable("survivor", agent_addr, secret, spool2);
        cfg.retry_interval = Duration::from_millis(200);
        cfg.max_retries = 100;
        // The app prints 30 numbered lines, 1 every 100 ms, then exits.
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg("i=0; while [ $i -lt 30 ]; do echo line-$i; i=$((i+1)); sleep 0.1; done");
        run_agent(cfg, cmd).unwrap()
    });

    // Let some output flow, then cut the network for ~1.5 s mid-stream.
    let mut all = drain_until(&shadow, Duration::from_secs(10), |evs| {
        !stdout_of(evs, 0).is_empty()
    });
    proxy.go_down();
    std::thread::sleep(Duration::from_millis(1_500));
    proxy.go_up();

    let events = drain_until(&shadow, Duration::from_secs(30), |evs| {
        evs.iter().any(|e| matches!(e, ShadowEvent::Exit { .. }))
    });
    let report = agent.join().unwrap();

    assert!(
        report.delivered_all,
        "reliable mode delivers everything: {report:?}"
    );
    assert!(report.reconnects >= 1, "the outage forced a reconnect");
    assert!(!report.gave_up);

    // Byte-exact, duplicate-free, ordered output despite the outage. The
    // shadow may still be draining its buffers after Exit, so merge a final
    // drain before judging.
    all.extend(events);
    all.extend(drain_until(&shadow, Duration::from_millis(600), |_| false));
    let out = stdout_of(&all, 0);
    let expected: Vec<u8> = (0..30)
        .flat_map(|i| format!("line-{i}\n").into_bytes())
        .collect();
    assert_eq!(
        String::from_utf8_lossy(&out),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn reliable_stdin_typed_during_outage_is_replayed() {
    let secret = Secret::random();
    let spool = TempDir::new("cg-console-it", "stdin-replay");
    let mut config = ShadowConfig::local(secret.clone());
    config.mode = Mode::Reliable {
        spool_dir: spool.path().to_path_buf(),
    };
    let shadow = ConsoleShadow::start(config).unwrap();
    let proxy = ChaosProxy::start(shadow.addr());
    let agent_addr = proxy.addr;

    let spool2 = spool.path().to_path_buf();
    let agent = std::thread::spawn(move || {
        let mut cfg = AgentConfig::reliable("stdin-replay", agent_addr, secret, spool2);
        cfg.retry_interval = Duration::from_millis(200);
        cfg.max_retries = 100;
        run_agent(cfg, Command::new("cat")).unwrap()
    });

    drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter()
            .any(|e| matches!(e, ShadowEvent::AgentConnected { .. }))
    });
    shadow.send_stdin_line("before outage").unwrap();
    // Cut the link only once the echo is back: the agent then has nothing
    // in flight and must notice the dead connection without a failed write.
    let mut all = drain_until(&shadow, Duration::from_secs(10), |evs| {
        stdout_of(evs, 0) == b"before outage\n"
    });

    proxy.go_down();
    // Typed once the shadow saw the link die: must be spooled and replayed.
    all.extend(drain_until(&shadow, Duration::from_secs(10), |evs| {
        evs.iter()
            .any(|e| matches!(e, ShadowEvent::AgentDisconnected { .. }))
    }));
    shadow.send_stdin_line("during outage").unwrap();
    std::thread::sleep(Duration::from_millis(800));
    proxy.go_up();

    drain_until(&shadow, Duration::from_secs(15), |evs| {
        evs.iter().any(|e| {
            matches!(
                e,
                ShadowEvent::AgentConnected {
                    reconnect: true,
                    ..
                }
            )
        })
    });
    shadow.send_stdin_line("after outage").unwrap();
    shadow.close_stdin();

    let events = drain_until(&shadow, Duration::from_secs(15), |evs| {
        evs.iter().any(|e| matches!(e, ShadowEvent::Exit { .. }))
    });
    let report = agent.join().unwrap();
    assert!(report.delivered_all);

    all.extend(events);
    all.extend(drain_until(&shadow, Duration::from_millis(600), |_| false));
    assert_eq!(
        String::from_utf8_lossy(&stdout_of(&all, 0)),
        "before outage\nduring outage\nafter outage\n"
    );
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn agent_gives_up_and_kills_the_job_when_retries_exhaust() {
    // Shadow never exists: connect always fails.
    let secret = Secret::random();
    let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
    // cg-lint: allow(wall-clock): measures real retry backoff on a real socket
    let start = Instant::now();
    let mut cfg = AgentConfig::fast("doomed", dead_addr, secret);
    cfg.retry_interval = Duration::from_millis(100);
    cfg.max_retries = 3;
    // A long-running job that must be killed by the give-up path (§4).
    let mut cmd = Command::new("sleep");
    cmd.arg("60");
    let report = run_agent(cfg, cmd).unwrap();
    assert!(report.gave_up);
    assert_eq!(report.exit_code, -1, "killed, not exited");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "gave up promptly rather than sleeping 60s"
    );
}

#[test]
fn shadow_shutdown_is_clean() {
    let shadow = ConsoleShadow::start(ShadowConfig::local(Secret::random())).unwrap();
    let addr = shadow.addr();
    shadow.shutdown();
    // Port released (eventually) — a new shadow can bind a fresh port and
    // nothing deadlocks.
    let again = ConsoleShadow::start(ShadowConfig::local(Secret::random())).unwrap();
    assert_ne!(again.addr().port(), 0);
    again.shutdown();
    let _ = addr;
}

#[test]
#[ignore = "real sockets and wall-clock deadlines"]
fn reliable_mode_is_byte_exact_for_megabytes_across_two_outages() {
    let secret = Secret::random();
    let spool = TempDir::new("cg-console-it", "stress");
    let mut config = ShadowConfig::local(secret.clone());
    config.mode = Mode::Reliable {
        spool_dir: spool.path().to_path_buf(),
    };
    config.flush = FlushPolicy {
        capacity: 32 * 1024,
        timeout_ns: 5_000_000,
        on_eol: false, // binary-ish stream: no line structure
    };
    let shadow = ConsoleShadow::start(config).unwrap();
    let proxy = ChaosProxy::start(shadow.addr());
    let agent_addr = proxy.addr;

    const LINES: usize = 20_000; // ~1.5 MB of structured output
    let spool2 = spool.path().to_path_buf();
    let agent = std::thread::spawn(move || {
        let mut cfg = AgentConfig::reliable("stress", agent_addr, secret, spool2);
        cfg.retry_interval = Duration::from_millis(150);
        cfg.max_retries = 300;
        cfg.flush = FlushPolicy {
            capacity: 32 * 1024,
            timeout_ns: 5_000_000,
            on_eol: false,
        };
        // Paced producer: 20 blocks of LINES/20 numbered lines (~76 B each)
        // with short sleeps, so the injected outages land mid-stream.
        let per = LINES / 20;
        let awk_prog = concat!(
            "BEGIN { for (i = S; i < E; i++) ",
            "printf \"%07d:abcdefghijklmnopqrstuvwxyz0123456789",
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ!?\\n\", i; }"
        );
        let script = String::from("b=0; while [ $b -lt 20 ]; do ")
            + "awk -v S=$((b * "
            + &per.to_string()
            + ")) -v E=$(( (b + 1) * "
            + &per.to_string()
            + " )) '"
            + awk_prog
            + "'; sleep 0.12; b=$((b+1)); done";
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        run_agent(cfg, cmd).unwrap()
    });

    // Two outages while the stream is in flight.
    let mut all: Vec<ShadowEvent> = Vec::new();
    all.extend(drain_until(&shadow, Duration::from_millis(400), |_| false));
    proxy.go_down();
    std::thread::sleep(Duration::from_millis(500));
    proxy.go_up();
    all.extend(drain_until(&shadow, Duration::from_millis(600), |_| false));
    proxy.go_down();
    std::thread::sleep(Duration::from_millis(500));
    proxy.go_up();

    let deadline = Duration::from_mins(1);
    all.extend(drain_until(&shadow, deadline, |evs| {
        evs.iter().any(|e| matches!(e, ShadowEvent::Exit { .. }))
    }));
    let report = agent.join().unwrap();
    assert!(report.delivered_all, "{report:?}");
    assert!(report.reconnects >= 1);

    all.extend(drain_until(&shadow, Duration::from_millis(800), |_| false));
    let out = stdout_of(&all, 0);
    // Verify exact content without building the expected 1.5 MB in memory
    // line by line: every line present once, in order.
    let text = String::from_utf8(out).expect("utf8");
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        assert_eq!(
            line,
            format!("{i:07}:abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ!?"),
            "line {i} corrupted"
        );
        count += 1;
    }
    assert_eq!(count, LINES, "every line delivered exactly once");
    shadow.shutdown();
}
