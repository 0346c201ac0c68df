//! The reliable streaming mode surviving a real network outage: a TCP proxy
//! between agent and shadow is killed mid-stream and the session recovers
//! byte-exactly from the disk spools — §4's "keep processes running … try the
//! network connection again … transfer any buffered data … resume normal
//! operation", live.
//!
//! ```text
//! cargo run --release --example reliable_recovery
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossgrid::console::{
    run_agent, AgentConfig, ConsoleShadow, Secret, ShadowConfig, ShadowEvent, StreamKind,
};

fn main() {
    let secret = Secret::random();
    let spool = std::env::temp_dir().join(format!("cg-recovery-spool-{}", std::process::id()));
    std::fs::create_dir_all(&spool).unwrap();

    let mut config = ShadowConfig::local(secret.clone());
    config.mode = crossgrid::console::Mode::Reliable {
        spool_dir: spool.clone(),
    };
    let shadow = ConsoleShadow::start(config).unwrap();

    // The killable network: a TCP proxy standing in for the flaky WAN.
    let proxy = Proxy::start(shadow.addr());
    println!(
        "shadow on {}, agent connects via flaky proxy {}",
        shadow.addr(),
        proxy.addr
    );

    let agent = {
        let secret = secret.clone();
        let spool = spool.clone();
        let addr = proxy.addr;
        std::thread::spawn(move || {
            let mut cfg = AgentConfig::reliable("recovery-demo", addr, secret, spool);
            cfg.retry_interval = Duration::from_millis(250);
            cfg.max_retries = 200;
            let mut cmd = Command::new("sh");
            cmd.arg("-c")
                .arg("i=0; while [ $i -lt 40 ]; do echo tick-$i; i=$((i+1)); sleep 0.05; done");
            run_agent(cfg, cmd).unwrap()
        })
    };

    // Let output flow, then cut the line for a second mid-stream.
    let mut received = String::new();
    drain(&shadow, &mut received, Duration::from_millis(600));
    println!("\n--- network outage injected (proxy killed) ---");
    proxy.down();
    std::thread::sleep(Duration::from_secs(1));
    println!("--- network restored ---\n");
    proxy.up();

    // Drain until the job exits and everything arrived.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut exited = false;
    while Instant::now() < deadline {
        match shadow.next_event(Duration::from_millis(200)) {
            Ok(ShadowEvent::Output {
                stream: StreamKind::Stdout,
                data,
                ..
            }) => received.push_str(&String::from_utf8_lossy(&data)),
            Ok(ShadowEvent::Exit { .. }) => exited = true,
            Ok(ShadowEvent::AgentConnected {
                reconnect: true, ..
            }) => {
                println!("(agent reconnected and replayed its spool)");
            }
            _ => {}
        }
        if exited && received.matches('\n').count() == 40 {
            break;
        }
    }
    let report = agent.join().unwrap();
    shadow.shutdown();

    let expected = (0..40).fold(String::new(), |mut s, i| {
        use std::fmt::Write as _;
        let _ = writeln!(s, "tick-{i}");
        s
    });
    assert_eq!(received, expected, "byte-exact despite the outage");
    assert!(report.delivered_all);
    assert!(report.reconnects >= 1, "the outage forced a reconnection");
    println!(
        "all 40 lines delivered byte-exactly across the outage ({} reconnect(s)).",
        report.reconnects
    );
}

fn drain(shadow: &ConsoleShadow, into: &mut String, for_long: Duration) {
    let until = Instant::now() + for_long;
    while Instant::now() < until {
        if let Ok(ShadowEvent::Output {
            stream: StreamKind::Stdout,
            data,
            ..
        }) = shadow.next_event(Duration::from_millis(100))
        {
            into.push_str(&String::from_utf8_lossy(&data));
        }
    }
}

/// Minimal killable TCP proxy.
struct Proxy {
    addr: SocketAddr,
    kill: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
}

impl Proxy {
    fn start(target: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let kill = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let (k, s) = (Arc::clone(&kill), Arc::clone(&stop));
        std::thread::spawn(move || loop {
            if s.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((client, _)) if !k.load(Ordering::SeqCst) => {
                    if let Ok(server) = TcpStream::connect(target) {
                        for (mut from, mut to) in [
                            (client.try_clone().unwrap(), server.try_clone().unwrap()),
                            (server, client),
                        ] {
                            let k2 = Arc::clone(&k);
                            std::thread::spawn(move || {
                                from.set_read_timeout(Some(Duration::from_millis(50)))
                                    .unwrap();
                                let mut buf = [0u8; 4096];
                                loop {
                                    if k2.load(Ordering::SeqCst) {
                                        let _ = from.shutdown(std::net::Shutdown::Both);
                                        let _ = to.shutdown(std::net::Shutdown::Both);
                                        return;
                                    }
                                    match from.read(&mut buf) {
                                        Ok(0) => return,
                                        Ok(n) => {
                                            if to.write_all(&buf[..n]).is_err() {
                                                return;
                                            }
                                        }
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                                        Err(_) => return,
                                    }
                                }
                            });
                        }
                    }
                }
                Ok((refused, _)) => drop(refused),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => return,
            }
        });
        Proxy { addr, kill, stop }
    }

    fn down(&self) {
        self.kill.store(true, Ordering::SeqCst);
    }

    fn up(&self) {
        self.kill.store(false, Ordering::SeqCst);
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.kill.store(true, Ordering::SeqCst);
    }
}
