//! The real Console Agent: split execution over TCP.
//!
//! The agent owns an **unmodified** child process's standard streams (the
//! interposition point — the paper trapped the same three streams with a
//! preloaded library) and forwards them to the Console Shadow on the user's
//! machine. Reliable mode spools every chunk to disk before transmission and
//! survives connection loss by replaying after the shadow's resume point;
//! fast mode sends directly and loses in-flight data on failure. If the
//! connection cannot be re-established within the configured retries the
//! agent gives up and kills the process, exactly as §4 prescribes.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};

use crate::buffer::{FlushPolicy, OutputBuffer};
use crate::frame::{Frame, ResumePoint, StreamKind};
use crate::gsi::{nonce, Secret};
use crate::stream::{StreamReceiver, StreamSender};
use crate::wire::{drive, spawn_writer, FrameReader, Machine, ReadEvent};

/// Streaming mode of the real transport.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Direct forwarding; data in flight is lost on connection failure.
    Fast,
    /// Spool to disk in `spool_dir`, replay after reconnects.
    Reliable {
        /// Directory for the spool files (must exist).
        spool_dir: PathBuf,
    },
}

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Job identifier reported to the shadow.
    pub job_id: String,
    /// MPI rank of this subjob (0 for sequential jobs).
    pub rank: u32,
    /// Where the Console Shadow listens.
    pub shadow_addr: SocketAddr,
    /// Shared authentication secret.
    pub secret: Secret,
    /// Fast or reliable.
    pub mode: Mode,
    /// Wait between reconnection attempts.
    pub retry_interval: Duration,
    /// Failed attempts tolerated before killing the job (§4).
    pub max_retries: u32,
    /// Output buffering policy (full/timeout/EOL triggers).
    pub flush: FlushPolicy,
    /// Optional lifecycle event sink (buffer flushes, spool append/ack/replay).
    pub trace: Option<cg_trace::EventLog>,
}

impl AgentConfig {
    /// A fast-mode config with library defaults.
    pub fn fast(job_id: impl Into<String>, shadow_addr: SocketAddr, secret: Secret) -> Self {
        AgentConfig {
            job_id: job_id.into(),
            rank: 0,
            shadow_addr,
            secret,
            mode: Mode::Fast,
            retry_interval: Duration::from_millis(500),
            max_retries: 10,
            flush: FlushPolicy::default(),
            trace: None,
        }
    }

    /// A reliable-mode config spooling into `spool_dir`.
    pub fn reliable(
        job_id: impl Into<String>,
        shadow_addr: SocketAddr,
        secret: Secret,
        spool_dir: impl Into<PathBuf>,
    ) -> Self {
        AgentConfig {
            mode: Mode::Reliable {
                spool_dir: spool_dir.into(),
            },
            ..AgentConfig::fast(job_id, shadow_addr, secret)
        }
    }
}

/// What the agent reports when the job is over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitReport {
    /// Child exit code (-1 when signal-killed).
    pub exit_code: i32,
    /// Whether every output byte was acknowledged by the shadow.
    pub delivered_all: bool,
    /// Times the connection was re-established after the first success.
    pub reconnects: u32,
    /// Whether the agent gave up (retries exhausted) and killed the job.
    pub gave_up: bool,
    /// stdout payload bytes produced by the child.
    pub bytes_stdout: u64,
    /// stderr payload bytes produced by the child.
    pub bytes_stderr: u64,
}

/// One thing that happened to the agent; its step machine takes one at a time.
pub(crate) enum AgentInput {
    Out(StreamKind, Vec<u8>),
    PumpEof(StreamKind),
    ChildExited(i32),
    /// A socket is open: the machine queues the `Hello` with this nonce.
    Dialed(Sender<Frame>, [u8; 16]),
    /// The handshake completed at the shadow's resume point.
    ConnUp(Sender<Frame>, ResumePoint),
    Frame(Frame),
    ConnDown,
    GiveUp,
}

/// A finished agent's wait for the writer to put its last frames on the wire.
pub(crate) const LINGER_NS: u64 = 250_000_000;

/// Runs `command` under the agent, blocking until the job finishes and the
/// output is delivered (or the retry budget is exhausted). The child's
/// stdin/stdout/stderr are owned by the agent; the binary itself is
/// untouched — the paper's transparency requirement.
pub fn run_agent(config: AgentConfig, mut command: Command) -> io::Result<ExitReport> {
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = command.spawn()?;
    let child_stdin = child.stdin.take().expect("piped stdin");
    let child_stdout = child.stdout.take().expect("piped stdout");
    let child_stderr = child.stderr.take().expect("piped stderr");
    let kill_child = Arc::new(AtomicBool::new(false));
    let machine = AgentMachine::new(&config, child_stdin, Arc::clone(&kill_child))?;

    let (tx, rx) = unbounded::<AgentInput>();
    let stop = Arc::new(AtomicBool::new(false));

    // Pumps: child stdout/stderr → the machine.
    let pumps = [
        spawn_pump(child_stdout, StreamKind::Stdout, tx.clone()),
        spawn_pump(child_stderr, StreamKind::Stderr, tx.clone()),
    ];

    // Waiter: reaps the child, honours kill requests.
    let waiter = {
        let tx = tx.clone();
        let kill_child = Arc::clone(&kill_child);
        std::thread::spawn(move || waiter_loop(child, tx, kill_child))
    };

    // Network manager: maintains the connection to the shadow.
    let net = {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let config = config.clone();
        std::thread::spawn(move || net_manager(config, tx, stop))
    };

    let report = drive(machine, &rx)?;

    stop.store(true, Ordering::SeqCst);
    kill_child.store(true, Ordering::SeqCst); // belt and braces; no-op if reaped
    let _ = net.join();
    let _ = waiter.join();
    for p in pumps {
        let _ = p.join();
    }
    Ok(report)
}

fn spawn_pump(
    mut src: impl Read + Send + 'static,
    stream: StreamKind,
    tx: Sender<AgentInput>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = [0u8; 8 * 1024];
        loop {
            match src.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = tx.send(AgentInput::PumpEof(stream));
                    return;
                }
                Ok(n) => {
                    if tx.send(AgentInput::Out(stream, buf[..n].to_vec())).is_err() {
                        return;
                    }
                }
            }
        }
    })
}

fn waiter_loop(mut child: Child, tx: Sender<AgentInput>, kill: Arc<AtomicBool>) {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                let code = status.code().unwrap_or(-1);
                let _ = tx.send(AgentInput::ChildExited(code));
                return;
            }
            Ok(None) => {
                if kill.load(Ordering::SeqCst) {
                    let _ = child.kill();
                    // Next try_wait reaps it.
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => {
                let _ = tx.send(AgentInput::ChildExited(-1));
                return;
            }
        }
    }
}

/// The agent's state; `W` is the child's stdin pipe.
pub(crate) struct AgentMachine<W> {
    job_id: String,
    rank: u32,
    /// Each stream's flush-policy buffer and sender, keyed in frame order:
    /// a (re)connection resends stdout before stderr.
    streams: BTreeMap<StreamKind, (OutputBuffer, StreamSender)>,
    stdin: StreamReceiver,
    child_stdin: Option<W>,
    kill_child: Arc<AtomicBool>,
    conn: Option<Sender<Frame>>,
    conn_count: u32,
    exit_code: Option<i32>,
    /// The live connection has the `Exit` frame.
    exit_sent: bool,
    gave_up: bool,
    /// When all work was last seen done; the report waits [`LINGER_NS`].
    done_since: Option<u64>,
}

impl<W: Write> AgentMachine<W> {
    pub(crate) fn new(
        config: &AgentConfig,
        child_stdin: W,
        kill_child: Arc<AtomicBool>,
    ) -> io::Result<Self> {
        let mut streams = BTreeMap::new();
        for (kind, name) in [
            (StreamKind::Stdout, "stdout"),
            (StreamKind::Stderr, "stderr"),
        ] {
            let label = format!("agent-{}-r{}-{name}", sanitize(&config.job_id), config.rank);
            let mut buffer = OutputBuffer::new(config.flush);
            if let Some(log) = &config.trace {
                buffer.set_trace(log.clone(), label.as_str());
            }
            let sender = StreamSender::open(kind, &config.mode, &label, config.trace.as_ref())?;
            streams.insert(kind, (buffer, sender));
        }
        Ok(AgentMachine {
            job_id: config.job_id.clone(),
            rank: config.rank,
            streams,
            stdin: StreamReceiver::new(&[StreamKind::Stdin]),
            child_stdin: Some(child_stdin),
            kill_child,
            conn: None,
            conn_count: 0,
            exit_code: None,
            exit_sent: false,
            gave_up: false,
            done_since: None,
        })
    }

    /// The report, once the retry budget died (at once: an abort has no
    /// live connection to flush) or [`LINGER_NS`] after all work was done.
    fn report(&self, now_ns: u64) -> Option<ExitReport> {
        let lingered = self
            .done_since
            .is_some_and(|t| now_ns.saturating_sub(t) >= LINGER_NS);
        if !(self.gave_up || lingered) {
            return None;
        }
        let delivered = self.streams.values().all(|(_, s)| s.is_settled());
        Some(ExitReport {
            exit_code: self.exit_code.unwrap_or(-1),
            delivered_all: delivered
                && !self.streams.values().any(|(_, s)| s.lost_data())
                && !self.gave_up,
            reconnects: self.conn_count.saturating_sub(1),
            gave_up: self.gave_up,
            bytes_stdout: self.streams[&StreamKind::Stdout].1.bytes(),
            bytes_stderr: self.streams[&StreamKind::Stderr].1.bytes(),
        })
    }
}

impl<W: Write> Machine for AgentMachine<W> {
    type Input = AgentInput;
    type Outcome = ExitReport;

    fn handle(&mut self, input: Option<AgentInput>, now_ns: u64) -> io::Result<Option<ExitReport>> {
        for (buffer, sender) in self.streams.values_mut() {
            sender.set_now(now_ns);
            if let Some((data, _)) = buffer.poll_timeout(now_ns) {
                sender.send(data)?;
            }
        }
        match input {
            None => {}
            Some(AgentInput::Out(kind, data)) => {
                let (buffer, sender) = self.streams.get_mut(&kind).expect("stream exists");
                for (chunk, _) in buffer.push(&data, now_ns) {
                    sender.send(chunk)?;
                }
            }
            Some(AgentInput::PumpEof(kind)) => {
                let (buffer, sender) = self.streams.get_mut(&kind).expect("stream exists");
                if let Some((data, _)) = buffer.flush(now_ns) {
                    sender.send(data)?;
                }
                sender.close();
            }
            Some(AgentInput::ChildExited(code)) => self.exit_code = Some(code),
            Some(AgentInput::Dialed(conn, nonce)) => {
                let _ = conn.send(Frame::Hello {
                    job_id: self.job_id.clone(),
                    rank: self.rank,
                    resume: self.stdin.resume(),
                    nonce,
                });
            }
            Some(AgentInput::ConnUp(conn, resume)) => {
                self.conn_count += 1;
                for (kind, (_, sender)) in &mut self.streams {
                    let after = if *kind == StreamKind::Stdout {
                        resume.stdout_received
                    } else {
                        resume.stderr_received
                    };
                    sender.connected(after, &conn)?;
                }
                self.conn = Some(conn);
                self.exit_sent = false;
            }
            Some(AgentInput::Frame(Frame::Ack { stream, seq })) => {
                if let Some((_, sender)) = self.streams.get_mut(&stream) {
                    sender.ack(seq)?;
                }
            }
            Some(AgentInput::Frame(frame)) => match self.stdin.take(frame, self.conn.as_ref()) {
                Some(Frame::Data { payload, .. }) => {
                    if let Some(w) = self.child_stdin.as_mut() {
                        if w.write_all(&payload).and_then(|()| w.flush()).is_err() {
                            self.child_stdin = None; // child closed its stdin
                        }
                    }
                }
                Some(Frame::Eof { .. }) => self.child_stdin = None, // the child sees EOF
                _ => {}
            },
            Some(AgentInput::ConnDown) => {
                self.conn = None;
                for (_, sender) in self.streams.values_mut() {
                    sender.disconnected();
                }
            }
            Some(AgentInput::GiveUp) => {
                self.gave_up = true;
                if self.exit_code.is_none() {
                    self.kill_child.store(true, Ordering::SeqCst);
                }
            }
        }
        if let (Some(code), Some(conn), false) = (self.exit_code, &self.conn, self.exit_sent) {
            let _ = conn.send(Frame::Exit { code });
            self.exit_sent = true;
        }
        // The session is over when the child exited, both pumps hit EOF,
        // every output byte is acknowledged (fast mode writes off bytes lost
        // to a dead connection), and a live connection has the Exit frame.
        let finished = self.exit_sent
            && self.conn.is_some()
            && self
                .streams
                .values()
                .all(|(_, s)| s.is_closed() && s.is_settled());
        self.done_since = finished.then(|| self.done_since.unwrap_or(now_ns));
        Ok(self.report(now_ns))
    }

    fn next_deadline(&self) -> Option<u64> {
        let linger_end = self.done_since.map(|t| t + LINGER_NS);
        self.streams
            .values()
            .filter_map(|(buffer, _)| buffer.timeout_deadline())
            .chain(linger_end)
            .min()
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn net_manager(config: AgentConfig, mux: Sender<AgentInput>, stop: Arc<AtomicBool>) {
    let mut attempts: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        let sock = TcpStream::connect_timeout(&config.shadow_addr, Duration::from_secs(2));
        let Ok(sock) = sock else {
            attempts += 1;
            if attempts > config.max_retries {
                let _ = mux.send(AgentInput::GiveUp);
                return;
            }
            sleep_interruptible(config.retry_interval, &stop);
            continue;
        };
        let _ = sock.set_nodelay(true);
        match session(&config, sock, &mux, &stop) {
            SessionEnd::Fatal => {
                let _ = mux.send(AgentInput::GiveUp);
                return;
            }
            SessionEnd::Retry { was_established } => {
                if was_established {
                    attempts = 0;
                }
                attempts += 1;
                if attempts > config.max_retries {
                    let _ = mux.send(AgentInput::GiveUp);
                    return;
                }
                sleep_interruptible(config.retry_interval, &stop);
            }
            SessionEnd::Stopped => return,
        }
    }
}

enum SessionEnd {
    Retry { was_established: bool },
    Fatal,
    Stopped,
}

/// One connection: the handshake, then frames to the machine.
fn session(
    config: &AgentConfig,
    sock: TcpStream,
    mux: &Sender<AgentInput>,
    stop: &AtomicBool,
) -> SessionEnd {
    let Ok(write_sock) = sock.try_clone() else {
        return SessionEnd::Retry {
            was_established: false,
        };
    };
    let Ok(mut reader) = FrameReader::new(sock) else {
        return SessionEnd::Retry {
            was_established: false,
        };
    };
    let (conn, writer) = spawn_writer(write_sock);
    let end = match handshake(config, &mut reader, &conn, mux) {
        Err(end) => end,
        Ok(resume) => {
            let _ = mux.send(AgentInput::ConnUp(conn.clone(), resume));
            let end = loop {
                if stop.load(Ordering::SeqCst) {
                    break SessionEnd::Stopped;
                }
                match reader.poll() {
                    Ok(ReadEvent::Idle) => {}
                    Ok(ReadEvent::Closed) | Err(_) => {
                        break SessionEnd::Retry {
                            was_established: true,
                        }
                    }
                    Ok(ReadEvent::Frame(Frame::AuthFailed)) => break SessionEnd::Fatal,
                    Ok(ReadEvent::Frame(frame)) => {
                        let _ = mux.send(AgentInput::Frame(frame));
                    }
                }
            };
            // Makes the machine drop its senders, so the writer ends.
            let _ = mux.send(AgentInput::ConnDown);
            end
        }
    };
    drop(conn);
    let _ = writer.join();
    end
}

/// The mutual handshake; the shadow's resume point once it welcomes us.
fn handshake(
    config: &AgentConfig,
    reader: &mut FrameReader,
    conn: &Sender<Frame>,
    mux: &Sender<AgentInput>,
) -> Result<ResumePoint, SessionEnd> {
    let my_nonce = nonce();
    let dialed = AgentInput::Dialed(conn.clone(), my_nonce);
    mux.send(dialed).map_err(|_| SessionEnd::Stopped)?;
    let challenge = match reader.next_frame_timeout(Duration::from_secs(5)) {
        Ok(Frame::Challenge { nonce, proof }) => {
            if !config.secret.verify(&my_nonce, &proof) {
                // Shadow failed OUR challenge; tell it before aborting so
                // the user side surfaces an AuthFailure event too.
                let _ = conn.send(Frame::AuthFailed);
                return Err(SessionEnd::Fatal);
            }
            nonce
        }
        Ok(Frame::AuthFailed) => return Err(SessionEnd::Fatal),
        Ok(_) | Err(_) => {
            return Err(SessionEnd::Retry {
                was_established: false,
            })
        }
    };
    let _ = conn.send(Frame::AuthResponse {
        proof: config.secret.prove(&challenge),
    });
    match reader.next_frame_timeout(Duration::from_secs(5)) {
        Ok(Frame::Welcome { resume }) => Ok(resume),
        Ok(Frame::AuthFailed) => Err(SessionEnd::Fatal),
        Ok(_) | Err(_) => Err(SessionEnd::Retry {
            was_established: false,
        }),
    }
}

fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let step = Duration::from_millis(50);
    let mut left = total;
    while left > Duration::ZERO {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let d = left.min(step);
        std::thread::sleep(d);
        left -= d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retry budget dying ends the session at once: the machine kills
    /// the child and reports without lingering.
    #[test]
    fn giving_up_reports_at_once_and_kills_the_child() {
        let config = AgentConfig::fast("job", ([127, 0, 0, 1], 9).into(), Secret::new("s"));
        let kill = Arc::new(AtomicBool::new(false));
        let mut agent = AgentMachine::new(&config, io::sink(), Arc::clone(&kill)).unwrap();
        let out = AgentInput::Out(StreamKind::Stdout, b"lost\n".to_vec());
        assert_eq!(agent.handle(Some(out), 7).unwrap(), None);
        let report = agent.handle(Some(AgentInput::GiveUp), 7).unwrap();
        assert!(kill.load(Ordering::SeqCst), "the child is not killed");
        assert_eq!(
            report,
            Some(ExitReport {
                exit_code: -1,
                delivered_all: false,
                reconnects: 0,
                gave_up: true,
                bytes_stdout: 5,
                bytes_stderr: 0,
            })
        );
    }
}
