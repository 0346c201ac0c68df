//! A REAL Grid Console session: actual TCP on loopback, an actual unmodified
//! child process (`bc`-style calculator implemented with `sh`), reliable-mode
//! disk spooling, mutual GSI-lite authentication.
//!
//! The Console Shadow plays the user's terminal; the Console Agent wraps the
//! application exactly as §4 describes — the binary is untouched, its
//! stdin/stdout/stderr are intercepted and streamed home.
//!
//! ```text
//! cargo run --release --example interactive_session
//! ```

use std::process::Command;
use std::time::{Duration, Instant};

use crossgrid::console::{
    run_agent, AgentConfig, ConsoleShadow, Secret, ShadowConfig, ShadowEvent, StreamKind,
};

fn main() {
    // Shared secret — the paper's GSI proxy delegation stand-in.
    let secret = Secret::random();

    // 1. The shadow starts on the "user machine" (a randomly selected port,
    //    §4) and waits for the job's Console Agent to call home.
    let shadow = ConsoleShadow::start(ShadowConfig::local(secret.clone())).unwrap();
    let addr = shadow.addr();
    println!("console shadow listening on {addr}");

    // 2. The "worker node": the agent spawns an unmodified interactive
    //    application. Here: a tiny read-eval loop in sh.
    let agent = std::thread::spawn(move || {
        let spool = std::env::temp_dir().join(format!("cg-example-spool-{}", std::process::id()));
        std::fs::create_dir_all(&spool).unwrap();
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(
            r#"echo "simulation ready — type parameters";
               while read line; do
                 case "$line" in
                   quit) echo "shutting down"; exit 0;;
                   *) echo "steered: $line accepted";;
                 esac
               done"#,
        );
        run_agent(
            AgentConfig::reliable("interactive-session-demo", addr, secret, spool),
            cmd,
        )
        .unwrap()
    });

    // 3. The user interacts: wait for output, steer, quit.
    wait_for_output(&shadow, "simulation ready");
    println!("user types: energy=42");
    shadow.send_stdin_line("energy=42").unwrap();
    wait_for_output(&shadow, "steered: energy=42 accepted");
    println!("user types: quit");
    shadow.send_stdin_line("quit").unwrap();
    wait_for_output(&shadow, "shutting down");

    let report = agent.join().unwrap();
    println!(
        "\nagent report: exit_code={} delivered_all={} bytes_out={}",
        report.exit_code, report.delivered_all, report.bytes_stdout
    );
    assert_eq!(report.exit_code, 0);
    assert!(report.delivered_all);
    shadow.shutdown();
    println!("session closed cleanly — every byte crossed a real TCP socket.");
}

/// Drains shadow events until stdout contains `needle`, echoing output.
fn wait_for_output(shadow: &ConsoleShadow, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut seen = String::new();
    while Instant::now() < deadline {
        match shadow.next_event(Duration::from_millis(200)) {
            Ok(ShadowEvent::Output {
                stream: StreamKind::Stdout,
                data,
                ..
            }) => {
                let text = String::from_utf8_lossy(&data).into_owned();
                print!("  [remote stdout] {text}");
                seen.push_str(&text);
                if seen.contains(needle) {
                    return;
                }
            }
            Ok(_) | Err(_) => {
                if seen.contains(needle) {
                    return;
                }
            }
        }
    }
    panic!("timed out waiting for {needle:?}; saw {seen:?}");
}
