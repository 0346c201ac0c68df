//! Runtime steering of an MPICH-G2-style parallel job: one Console Agent per
//! subjob, all fanned into a single shadow; stdin is broadcast to every rank
//! and only rank 0 consumes it (the paper's §4 convention), while every rank
//! streams output home.
//!
//! Real processes, real TCP — this is the paper's Figure 4 topology on
//! loopback.
//!
//! ```text
//! cargo run --release --example mpi_steering
//! ```

use std::process::Command;
use std::time::{Duration, Instant};

use crossgrid::console::{
    run_agent, AgentConfig, ConsoleShadow, Secret, ShadowConfig, ShadowEvent, StreamKind,
};

const RANKS: u32 = 3;

fn main() {
    let secret = Secret::random();
    let mut config = ShadowConfig::local(secret.clone());
    config.expected_ranks = RANKS;
    let shadow = ConsoleShadow::start(config).unwrap();
    let addr = shadow.addr();
    println!("job shadow up on {addr}; launching {RANKS} subjobs…");

    // One agent per subjob. Rank 0 reads steering input; the others ignore
    // stdin (exactly how MPI applications check their rank before reading).
    let agents: Vec<_> = (0..RANKS)
        .map(|rank| {
            let secret = secret.clone();
            std::thread::spawn(move || {
                let mut cfg = AgentConfig::fast(format!("mpi-demo/{rank}"), addr, secret);
                cfg.rank = rank;
                let mut cmd = Command::new("sh");
                if rank == 0 {
                    cmd.arg("-c").arg(
                        r#"echo "rank 0: coordinator online";
                           read param;
                           echo "rank 0: broadcasting $param";
                           sleep 0.2;
                           echo "rank 0: converged with $param""#,
                    );
                } else {
                    cmd.arg("-c").arg(format!(
                        r#"echo "rank {rank}: worker online";
                           sleep 0.5;
                           echo "rank {rank}: partial result {rank}00""#,
                    ));
                }
                run_agent(cfg, cmd).unwrap()
            })
        })
        .collect();

    // Wait for all ranks to report in.
    collect_until(&shadow, |log| {
        (0..RANKS).all(|r| {
            log.iter()
                .any(|(rank, line)| *rank == r && line.contains("online"))
        })
    });
    println!("\nall ranks online — user steers: tolerance=1e-6");
    shadow.send_stdin_line("tolerance=1e-6").unwrap();

    let log = collect_until(&shadow, |log| {
        log.iter().any(|(_, line)| line.contains("converged"))
            && (1..RANKS).all(|r| {
                log.iter()
                    .any(|(rank, l)| *rank == r && l.contains("partial"))
            })
    });

    for a in agents {
        let report = a.join().unwrap();
        assert_eq!(report.exit_code, 0);
    }
    shadow.shutdown();

    println!("\nmerged output stream (rank-attributed, §4's single console):");
    for (rank, line) in &log {
        println!("  rank{rank} | {}", line.trim_end());
    }
    assert!(
        log.iter()
            .any(|(r, l)| *r == 0 && l.contains("tolerance=1e-6")),
        "rank 0 consumed the broadcast steering input"
    );
    println!("\nsteering reached rank 0 only; all ranks' output fanned into one shadow.");
}

/// Collects `(rank, line)` output until `done` says stop.
fn collect_until(
    shadow: &ConsoleShadow,
    done: impl Fn(&[(u32, String)]) -> bool,
) -> Vec<(u32, String)> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut log: Vec<(u32, String)> = Vec::new();
    let mut partial: std::collections::HashMap<u32, String> = std::collections::HashMap::new();
    while Instant::now() < deadline {
        if done(&log) {
            return log;
        }
        if let Ok(ShadowEvent::Output {
            rank,
            stream: StreamKind::Stdout,
            data,
        }) = shadow.next_event(Duration::from_millis(100))
        {
            let buf = partial.entry(rank).or_default();
            buf.push_str(&String::from_utf8_lossy(&data));
            while let Some(pos) = buf.find('\n') {
                let line: String = buf.drain(..=pos).collect();
                log.push((rank, line));
            }
        }
    }
    panic!("timed out; collected so far: {log:?}");
}
