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

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::buffer::{FlushPolicy, OutputBuffer};
use crate::frame::{Frame, ResumePoint, StreamKind};
use crate::gsi::{nonce, Secret};
use crate::spool::Spool;
use crate::wire::{mono_ns, write_frame, FrameReader, ReadEvent};

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

enum Msg {
    Out(StreamKind, Vec<u8>),
    PumpEof(StreamKind),
    ChildExited(i32),
    Ack(StreamKind, u64),
    Stdin(u64, Vec<u8>),
    StdinEof,
    ConnUp {
        tx: Sender<Frame>,
        resume: ResumePoint,
    },
    ConnDown,
    GiveUp,
}

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

    let (tx, rx) = unbounded::<Msg>();
    let stop = Arc::new(AtomicBool::new(false));
    let kill_child = Arc::new(AtomicBool::new(false));
    let stdin_received = Arc::new(AtomicU64::new(0));

    // Pumps: child stdout/stderr → mux.
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
        let stdin_received = Arc::clone(&stdin_received);
        let config = config.clone();
        std::thread::spawn(move || net_manager(config, tx, stop, stdin_received))
    };

    let report = mux_loop(&config, rx, child_stdin, &stdin_received, &kill_child)?;

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
    tx: Sender<Msg>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = [0u8; 8 * 1024];
        loop {
            match src.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = tx.send(Msg::PumpEof(stream));
                    return;
                }
                Ok(n) => {
                    if tx.send(Msg::Out(stream, buf[..n].to_vec())).is_err() {
                        return;
                    }
                }
            }
        }
    })
}

fn waiter_loop(mut child: Child, tx: Sender<Msg>, kill: Arc<AtomicBool>) {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                let code = status.code().unwrap_or(-1);
                let _ = tx.send(Msg::ChildExited(code));
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
                let _ = tx.send(Msg::ChildExited(-1));
                return;
            }
        }
    }
}

struct OutStream {
    buffer: OutputBuffer,
    spool: Option<Spool>,
    next_seq: u64,
    acked: u64,
    eof: bool,
    bytes: u64,
    /// Fast mode only: frames emitted before the FIRST connection — the
    /// analogue of data sitting in a not-yet-connected socket buffer. Data is
    /// only "lost" in fast mode once an established connection dies.
    preconn: Vec<(u64, Vec<u8>)>,
}

impl OutStream {
    fn highest_seq(&self) -> u64 {
        self.next_seq - 1
    }
}

fn mux_loop(
    config: &AgentConfig,
    rx: Receiver<Msg>,
    child_stdin: impl Write,
    stdin_received: &AtomicU64,
    kill_child: &AtomicBool,
) -> io::Result<ExitReport> {
    let mut stdin_handle = Some(child_stdin);
    let mut conn: Option<Sender<Frame>> = None;
    let mut conn_count: u32 = 0;
    let mut exit_code: Option<i32> = None;
    let mut exit_sent = false;
    let mut gave_up = false;
    let mut lost_fast_data = false;

    let mk_stream = |kind: StreamKind| -> io::Result<OutStream> {
        let name = match kind {
            StreamKind::Stdout => "stdout",
            StreamKind::Stderr => "stderr",
            StreamKind::Stdin => unreachable!("agent does not spool stdin"),
        };
        let label = format!("agent-{}-r{}-{name}", sanitize(&config.job_id), config.rank);
        let mut spool = match &config.mode {
            Mode::Fast => None,
            Mode::Reliable { spool_dir } => {
                Some(Spool::open(spool_dir.join(format!("{label}.spool")))?)
            }
        };
        let mut buffer = OutputBuffer::new(config.flush);
        if let Some(log) = &config.trace {
            let label: std::sync::Arc<str> = label.into();
            buffer.set_trace(log.clone(), std::sync::Arc::clone(&label));
            if let Some(spool) = spool.as_mut() {
                spool.set_trace(log.clone(), label);
            }
        }
        Ok(OutStream {
            buffer,
            spool,
            next_seq: 1,
            acked: 0,
            eof: false,
            bytes: 0,
            preconn: Vec::new(),
        })
    };
    let mut streams: HashMap<StreamKind, OutStream> = HashMap::new();
    streams.insert(StreamKind::Stdout, mk_stream(StreamKind::Stdout)?);
    streams.insert(StreamKind::Stderr, mk_stream(StreamKind::Stderr)?);

    fn emit(
        stream_kind: StreamKind,
        st: &mut OutStream,
        data: Vec<u8>,
        conn: Option<&Sender<Frame>>,
        ever_connected: bool,
        lost_fast_data: &mut bool,
    ) -> io::Result<()> {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.bytes += data.len() as u64;
        if let Some(spool) = st.spool.as_mut() {
            spool.append(seq, &data)?;
        }
        match conn {
            Some(tx) => {
                let _ = tx.send(Frame::Data {
                    stream: stream_kind,
                    seq,
                    payload: data.into(),
                });
            }
            None if st.spool.is_some() => {} // reliable: replayed from spool
            None if !ever_connected => st.preconn.push((seq, data)),
            None => {
                // Fast mode after a connection died: the byte is gone.
                *lost_fast_data = true;
                st.acked = st.acked.max(seq);
            }
        }
        Ok(())
    }

    // When set (a `mono_ns` reading), all work is done and we only linger
    // briefly so the writer thread flushes the trailing Eof/Exit frames onto
    // the wire.
    let mut done_since: Option<u64> = None;
    const LINGER: Duration = Duration::from_millis(250);

    loop {
        // Completion check. The session is over when the child exited, both
        // pumps hit EOF, every output byte is acknowledged (fast mode writes
        // off bytes lost to a dead connection), and the Exit frame has been
        // handed to a live connection — or when the retry budget died.
        let child_done = exit_code.is_some();
        let eofs_done = streams.values().all(|s| s.eof);
        let delivered = streams.values().all(|s| s.acked >= s.highest_seq());
        let finished =
            gave_up || (child_done && eofs_done && delivered && exit_sent && conn.is_some());
        done_since = if finished {
            Some(done_since.unwrap_or_else(mono_ns))
        } else {
            None
        };
        // An abort has no live connection to flush: it reports at once.
        let lingered = done_since.is_some_and(|t| Duration::from_nanos(mono_ns() - t) >= LINGER);
        if gave_up || lingered {
            return Ok(ExitReport {
                exit_code: exit_code.unwrap_or(-1),
                delivered_all: delivered && !lost_fast_data && !gave_up,
                reconnects: conn_count.saturating_sub(1),
                gave_up,
                bytes_stdout: streams[&StreamKind::Stdout].bytes,
                bytes_stderr: streams[&StreamKind::Stderr].bytes,
            });
        }

        // Wait for work, bounded by the earliest flush deadline.
        let now = mono_ns();
        let deadline_ns = streams
            .values()
            .filter_map(|s| s.buffer.timeout_deadline())
            .min();
        let wait = match deadline_ns {
            Some(d) if d > now => Duration::from_nanos((d - now).min(50_000_000)),
            Some(_) => Duration::from_millis(0),
            None => Duration::from_millis(50),
        };
        let msg = match rx.recv_timeout(wait) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::other("agent channels died"))
            }
        };

        // Timeout-triggered flushes.
        let now = mono_ns();
        for kind in [StreamKind::Stdout, StreamKind::Stderr] {
            let st = streams.get_mut(&kind).expect("stream exists");
            if let Some((data, _)) = st.buffer.poll_timeout(now) {
                emit(
                    kind,
                    st,
                    data,
                    conn.as_ref(),
                    conn_count > 0,
                    &mut lost_fast_data,
                )?;
            }
        }

        let Some(msg) = msg else { continue };
        match msg {
            Msg::Out(kind, data) => {
                let st = streams.get_mut(&kind).expect("stream exists");
                let chunks = st.buffer.push(&data, mono_ns());
                for (chunk, _) in chunks {
                    emit(
                        kind,
                        st,
                        chunk,
                        conn.as_ref(),
                        conn_count > 0,
                        &mut lost_fast_data,
                    )?;
                }
            }
            Msg::PumpEof(kind) => {
                let st = streams.get_mut(&kind).expect("stream exists");
                if let Some((data, _)) = st.buffer.flush(mono_ns()) {
                    emit(
                        kind,
                        st,
                        data,
                        conn.as_ref(),
                        conn_count > 0,
                        &mut lost_fast_data,
                    )?;
                }
                st.eof = true;
                if let Some(tx) = &conn {
                    let _ = tx.send(Frame::Eof { stream: kind });
                }
            }
            Msg::ChildExited(code) => {
                exit_code = Some(code);
                if let Some(tx) = &conn {
                    let _ = tx.send(Frame::Exit { code });
                    exit_sent = true;
                }
            }
            Msg::Ack(kind, seq) => {
                if let Some(st) = streams.get_mut(&kind) {
                    st.acked = st.acked.max(seq);
                    if let Some(spool) = st.spool.as_mut() {
                        spool.ack(seq)?;
                    }
                }
            }
            Msg::Stdin(seq, data) => {
                let seen = stdin_received.load(Ordering::SeqCst);
                if seq > seen {
                    if let Some(w) = stdin_handle.as_mut() {
                        if w.write_all(&data).and_then(|()| w.flush()).is_err() {
                            stdin_handle = None; // child closed its stdin
                        }
                    }
                    stdin_received.store(seq, Ordering::SeqCst);
                }
                if let Some(tx) = &conn {
                    let _ = tx.send(Frame::Ack {
                        stream: StreamKind::Stdin,
                        seq,
                    });
                }
            }
            Msg::StdinEof => {
                stdin_handle = None; // closes the pipe; child sees EOF
            }
            Msg::ConnUp { tx, resume } => {
                conn_count += 1;
                // Replay everything the shadow has not seen.
                for kind in [StreamKind::Stdout, StreamKind::Stderr] {
                    let after = match kind {
                        StreamKind::Stdout => resume.stdout_received,
                        StreamKind::Stderr => resume.stderr_received,
                        StreamKind::Stdin => unreachable!(),
                    };
                    let st = streams.get_mut(&kind).expect("stream exists");
                    st.acked = st.acked.max(after);
                    if let Some(spool) = st.spool.as_mut() {
                        spool.ack(after)?;
                        for (seq, data) in spool.replay_after(after)? {
                            let _ = tx.send(Frame::Data {
                                stream: kind,
                                seq,
                                payload: data.into(),
                            });
                        }
                    } else {
                        // Fast mode: flush the pre-connection backlog; any
                        // frame from a previous (dead) connection is gone.
                        for (seq, data) in st.preconn.drain(..) {
                            let _ = tx.send(Frame::Data {
                                stream: kind,
                                seq,
                                payload: data.into(),
                            });
                        }
                    }
                    if st.eof {
                        let _ = tx.send(Frame::Eof { stream: kind });
                    }
                }
                if let Some(code) = exit_code {
                    let _ = tx.send(Frame::Exit { code });
                    exit_sent = true;
                }
                conn = Some(tx);
            }
            Msg::ConnDown => {
                conn = None;
                // Fast mode: whatever was not acknowledged died with the
                // connection; write it off so completion does not wait on it.
                for st in streams.values_mut() {
                    if st.spool.is_none() && st.acked < st.highest_seq() {
                        lost_fast_data = true;
                        st.acked = st.highest_seq();
                    }
                }
            }
            Msg::GiveUp => {
                gave_up = true;
                if exit_code.is_none() {
                    kill_child.store(true, Ordering::SeqCst);
                }
            }
        }
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

fn net_manager(
    config: AgentConfig,
    mux: Sender<Msg>,
    stop: Arc<AtomicBool>,
    stdin_received: Arc<AtomicU64>,
) {
    let mut attempts: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        let sock = TcpStream::connect_timeout(&config.shadow_addr, Duration::from_secs(2));
        let Ok(sock) = sock else {
            attempts += 1;
            if attempts > config.max_retries {
                let _ = mux.send(Msg::GiveUp);
                return;
            }
            sleep_interruptible(config.retry_interval, &stop);
            continue;
        };
        let _ = sock.set_nodelay(true);
        match session(&config, sock, &mux, &stop, &stdin_received) {
            SessionEnd::Fatal => {
                let _ = mux.send(Msg::GiveUp);
                return;
            }
            SessionEnd::Retry { was_established } => {
                if was_established {
                    attempts = 0;
                    let _ = mux.send(Msg::ConnDown);
                }
                attempts += 1;
                if attempts > config.max_retries {
                    let _ = mux.send(Msg::GiveUp);
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

fn session(
    config: &AgentConfig,
    sock: TcpStream,
    mux: &Sender<Msg>,
    stop: &AtomicBool,
    stdin_received: &AtomicU64,
) -> SessionEnd {
    let Ok(mut write_sock) = sock.try_clone() else {
        return SessionEnd::Retry {
            was_established: false,
        };
    };
    let Ok(mut reader) = FrameReader::new(sock) else {
        return SessionEnd::Retry {
            was_established: false,
        };
    };

    // Mutual handshake.
    let my_nonce = nonce();
    let hello = Frame::Hello {
        job_id: config.job_id.clone(),
        rank: config.rank,
        resume: ResumePoint {
            stdin_received: stdin_received.load(Ordering::SeqCst),
            stdout_received: 0,
            stderr_received: 0,
        },
        nonce: my_nonce,
    };
    if write_frame(&mut write_sock, &hello).is_err() {
        return SessionEnd::Retry {
            was_established: false,
        };
    }
    let challenge = match reader.next_frame_timeout(Duration::from_secs(5)) {
        Ok(Frame::Challenge { nonce, proof }) => {
            if !config.secret.verify(&my_nonce, &proof) {
                // Shadow failed OUR challenge; tell it before aborting so
                // the user side surfaces an AuthFailure event too.
                let _ = write_frame(&mut write_sock, &Frame::AuthFailed);
                return SessionEnd::Fatal;
            }
            nonce
        }
        Ok(Frame::AuthFailed) => return SessionEnd::Fatal,
        Ok(_) | Err(_) => {
            return SessionEnd::Retry {
                was_established: false,
            }
        }
    };
    let response = Frame::AuthResponse {
        proof: config.secret.prove(&challenge),
    };
    if write_frame(&mut write_sock, &response).is_err() {
        return SessionEnd::Retry {
            was_established: false,
        };
    }
    let resume = match reader.next_frame_timeout(Duration::from_secs(5)) {
        Ok(Frame::Welcome { resume }) => resume,
        Ok(Frame::AuthFailed) => return SessionEnd::Fatal,
        Ok(_) | Err(_) => {
            return SessionEnd::Retry {
                was_established: false,
            }
        }
    };

    // Writer thread drains the per-connection queue.
    let (tx, frame_rx) = unbounded::<Frame>();
    let writer = std::thread::spawn(move || {
        for frame in frame_rx {
            if write_frame(&mut write_sock, &frame).is_err() {
                return;
            }
        }
        let _ = write_sock.shutdown(std::net::Shutdown::Write);
    });
    let _ = mux.send(Msg::ConnUp {
        tx: tx.clone(),
        resume,
    });

    // Read until the connection dies or we are stopped.
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
            Ok(ReadEvent::Frame(frame)) => match frame {
                Frame::Data {
                    stream: StreamKind::Stdin,
                    seq,
                    payload,
                } => {
                    let _ = mux.send(Msg::Stdin(seq, payload.to_vec()));
                }
                Frame::Ack { stream, seq } => {
                    let _ = mux.send(Msg::Ack(stream, seq));
                }
                Frame::Eof {
                    stream: StreamKind::Stdin,
                } => {
                    let _ = mux.send(Msg::StdinEof);
                }
                Frame::AuthFailed => break SessionEnd::Fatal,
                _ => {} // tolerate unexpected frames
            },
        }
    };
    drop(tx);
    let _ = writer.join();
    if matches!(end, SessionEnd::Stopped) {
        let _ = mux.send(Msg::ConnDown);
    }
    end
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

    /// The retry budget dying ends the session at once: the mux kills the
    /// child and reports without lingering. The channel is closed behind
    /// `GiveUp`, so one more pass of the loop would fail the call.
    #[test]
    fn giving_up_reports_at_once_and_kills_the_child() {
        let config = AgentConfig::fast("job", ([127, 0, 0, 1], 9).into(), Secret::new("s"));
        let (tx, rx) = unbounded();
        for msg in [
            Msg::Out(StreamKind::Stdout, b"lost\n".to_vec()),
            Msg::GiveUp,
        ] {
            assert!(tx.send(msg).is_ok());
        }
        drop(tx);
        let kill = AtomicBool::new(false);
        let report = mux_loop(&config, rx, io::sink(), &AtomicU64::new(0), &kill).unwrap();
        assert!(kill.load(Ordering::SeqCst), "the child is not killed");
        assert_eq!(
            report,
            ExitReport {
                exit_code: -1,
                delivered_all: false,
                reconnects: 0,
                gave_up: true,
                bytes_stdout: 5,
                bytes_stderr: 0,
            }
        );
    }
}
