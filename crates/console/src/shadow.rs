//! The real Console Shadow: the user-side half of the Grid Console.
//!
//! Listens for Console Agent connections (one per subjob for MPICH-G2 jobs),
//! authenticates them with the GSI-lite handshake, delivers their
//! stdout/stderr through the user-side output buffer (flushing on full /
//! timeout / end-of-line, §4), and broadcasts typed stdin to every subjob.
//! In reliable mode stdin is spooled per rank so input typed during an
//! outage reaches the job after reconnection.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::agent::Mode;
use crate::buffer::{FlushPolicy, OutputBuffer};
use crate::frame::{Frame, ResumePoint, StreamKind};
use crate::gsi::{nonce, Secret};
use crate::spool::Spool;
use crate::wire::{write_frame, FrameReader, ReadEvent};

/// Shadow configuration.
#[derive(Debug, Clone)]
pub struct ShadowConfig {
    /// Bind address. Port 0 = "randomly selected port" (§4); use a fixed
    /// port when a firewall hole is pre-opened.
    pub bind: SocketAddr,
    /// Shared authentication secret.
    pub secret: Secret,
    /// Fast or reliable (reliable spools stdin per rank).
    pub mode: Mode,
    /// User-side output buffer policy.
    pub flush: FlushPolicy,
    /// Number of subjobs expected (MPICH-G2: one agent per subjob).
    pub expected_ranks: u32,
    /// Optional lifecycle event sink (connections, flushes, stdin spool).
    pub trace: Option<cg_trace::EventLog>,
}

impl ShadowConfig {
    /// Loopback shadow on a random port, fast mode, one rank.
    pub fn local(secret: Secret) -> Self {
        ShadowConfig {
            bind: "127.0.0.1:0".parse().expect("valid literal"),
            secret,
            mode: Mode::Fast,
            flush: FlushPolicy::default(),
            expected_ranks: 1,
            trace: None,
        }
    }
}

/// What the shadow reports to the interactive user.
#[derive(Debug, Clone, PartialEq)]
pub enum ShadowEvent {
    /// An agent completed the handshake.
    AgentConnected {
        /// Subjob rank.
        rank: u32,
        /// Job id it announced.
        job_id: String,
        /// True when this rank had connected before (reconnection).
        reconnect: bool,
    },
    /// An agent's connection dropped.
    AgentDisconnected {
        /// Subjob rank.
        rank: u32,
    },
    /// Output ready for the screen (post flush policy).
    Output {
        /// Subjob rank that produced it.
        rank: u32,
        /// stdout or stderr.
        stream: StreamKind,
        /// The bytes.
        data: Vec<u8>,
    },
    /// A stream will produce no more data.
    Eof {
        /// Subjob rank.
        rank: u32,
        /// Which stream ended.
        stream: StreamKind,
    },
    /// The subjob terminated.
    Exit {
        /// Subjob rank.
        rank: u32,
        /// Exit code.
        code: i32,
    },
    /// A peer failed authentication.
    AuthFailure {
        /// Its address.
        peer: SocketAddr,
    },
}

struct RankState {
    stdin_next_seq: u64,
    stdin_spool: Option<Spool>,
    /// Fast mode only: stdin typed before this rank's FIRST connection —
    /// the analogue of bytes waiting in a not-yet-connected socket. Data is
    /// only lost in fast mode once an established connection dies.
    pre_stdin: Vec<(u64, Vec<u8>)>,
    stdout_received: u64,
    stderr_received: u64,
    conn: Option<Sender<Frame>>,
    buffers: HashMap<StreamKind, OutputBuffer>,
    connected_before: bool,
    exit_code: Option<i32>,
    eof_sent: HashMap<StreamKind, bool>,
    stdin_closed: bool,
}

struct State {
    ranks: HashMap<u32, RankState>,
    config: ShadowConfig,
    events: Sender<ShadowEvent>,
}

impl State {
    fn rank_mut(&mut self, rank: u32) -> io::Result<&mut RankState> {
        if !self.ranks.contains_key(&rank) {
            let mut stdin_spool = match &self.config.mode {
                Mode::Fast => None,
                Mode::Reliable { spool_dir } => Some(Spool::open(
                    spool_dir.join(format!("shadow-stdin-r{rank}.spool")),
                )?),
            };
            let mut buffers = HashMap::new();
            buffers.insert(StreamKind::Stdout, OutputBuffer::new(self.config.flush));
            buffers.insert(StreamKind::Stderr, OutputBuffer::new(self.config.flush));
            if let Some(log) = &self.config.trace {
                if let Some(spool) = stdin_spool.as_mut() {
                    spool.set_trace(log.clone(), format!("shadow-stdin-r{rank}"));
                }
                for (kind, buffer) in &mut buffers {
                    let name = if *kind == StreamKind::Stdout {
                        "stdout"
                    } else {
                        "stderr"
                    };
                    buffer.set_trace(log.clone(), format!("shadow-{name}-r{rank}"));
                }
            }
            self.ranks.insert(
                rank,
                RankState {
                    stdin_next_seq: 1,
                    stdin_spool,
                    pre_stdin: Vec::new(),
                    stdout_received: 0,
                    stderr_received: 0,
                    conn: None,
                    buffers,
                    connected_before: false,
                    exit_code: None,
                    eof_sent: HashMap::new(),
                    stdin_closed: false,
                },
            );
        }
        Ok(self.ranks.get_mut(&rank).expect("just inserted"))
    }
}

/// The user-side console endpoint.
pub struct ConsoleShadow {
    addr: SocketAddr,
    state: Arc<Mutex<State>>,
    events_rx: Receiver<ShadowEvent>,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ConsoleShadow {
    /// Binds and starts listening. Returns once the port is open, so agents
    /// can be pointed at [`ConsoleShadow::addr`] immediately.
    pub fn start(config: ShadowConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (events_tx, events_rx) = unbounded();
        let state = Arc::new(Mutex::new(State {
            ranks: HashMap::new(),
            config: config.clone(),
            events: events_tx,
        }));
        // Pre-create the expected ranks so stdin typed before any agent
        // connects is spooled for all of them.
        {
            let mut st = state.lock();
            for rank in 0..config.expected_ranks {
                st.rank_mut(rank)?;
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let shadow = ConsoleShadow {
            addr,
            state: Arc::clone(&state),
            events_rx,
            stop: Arc::clone(&stop),
            threads: Mutex::new(Vec::new()),
        };

        // Accept loop.
        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let conn_threads2 = Arc::clone(&conn_threads);
        let secret = config.secret.clone();
        let acceptor = std::thread::spawn(move || {
            loop {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((sock, peer)) => {
                        let st = Arc::clone(&accept_state);
                        let stop = Arc::clone(&accept_stop);
                        let secret = secret.clone();
                        let h = std::thread::spawn(move || {
                            let _ = serve_connection(sock, peer, st, stop, secret);
                        });
                        conn_threads2.lock().push(h);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            // Join connection threads on the way out.
            for h in conn_threads2.lock().drain(..) {
                let _ = h.join();
            }
        });

        // Ticker: drives the timeout flush trigger on the user-side buffers.
        let tick_state = Arc::clone(&state);
        let tick_stop = Arc::clone(&stop);
        let ticker = std::thread::spawn(move || {
            while !tick_stop.load(Ordering::SeqCst) {
                {
                    let mut st = tick_state.lock();
                    let now = crate::wire::mono_ns();
                    let mut out = Vec::new();
                    for (&rank, rs) in &mut st.ranks {
                        for (&stream, buffer) in &mut rs.buffers {
                            if let Some((data, _)) = buffer.poll_timeout(now) {
                                out.push(ShadowEvent::Output { rank, stream, data });
                            }
                        }
                    }
                    for ev in out {
                        let _ = st.events.send(ev);
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        shadow.threads.lock().extend([acceptor, ticker]);
        Ok(shadow)
    }

    /// The address agents must connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The event stream (output, connections, exits).
    pub fn events(&self) -> &Receiver<ShadowEvent> {
        &self.events_rx
    }

    /// Sends stdin bytes to **every** rank (the paper broadcasts input to all
    /// subjobs; applications read on one rank by checking the MPI rank, §4).
    pub fn send_stdin(&self, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        let ranks: Vec<u32> = st.ranks.keys().copied().collect();
        for rank in ranks {
            let rs = st.rank_mut(rank)?;
            if rs.stdin_closed {
                continue;
            }
            let seq = rs.stdin_next_seq;
            rs.stdin_next_seq += 1;
            if let Some(spool) = rs.stdin_spool.as_mut() {
                spool.append(seq, data)?;
            }
            match &rs.conn {
                Some(tx) => {
                    let _ = tx.send(Frame::Data {
                        stream: StreamKind::Stdin,
                        seq,
                        payload: data.to_vec().into(),
                    });
                }
                None if rs.stdin_spool.is_none() && !rs.connected_before => {
                    rs.pre_stdin.push((seq, data.to_vec()));
                }
                None => {} // reliable replays from spool; fast post-connect loses
            }
        }
        Ok(())
    }

    /// Convenience: sends a line of input (appends the newline the Enter key
    /// would produce).
    pub fn send_stdin_line(&self, line: &str) -> io::Result<()> {
        let mut data = line.as_bytes().to_vec();
        data.push(b'\n');
        self.send_stdin(&data)
    }

    /// Closes stdin on every rank; jobs reading stdin see EOF.
    pub fn close_stdin(&self) {
        let mut st = self.state.lock();
        for rs in st.ranks.values_mut() {
            rs.stdin_closed = true;
            if let Some(tx) = &rs.conn {
                let _ = tx.send(Frame::Eof {
                    stream: StreamKind::Stdin,
                });
            }
        }
    }

    /// Stops listening and joins all threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Drop senders so agent writer threads unblock.
        {
            let mut st = self.state.lock();
            for rs in st.ranks.values_mut() {
                rs.conn = None;
            }
        }
        let mut threads = self.threads.lock();
        for h in threads.drain(..) {
            let _ = h.join();
        }
    }
}

fn serve_connection(
    sock: TcpStream,
    peer: SocketAddr,
    state: Arc<Mutex<State>>,
    stop: Arc<AtomicBool>,
    secret: Secret,
) -> io::Result<()> {
    let _ = sock.set_nodelay(true);
    let mut write_sock = sock.try_clone()?;
    let mut reader = FrameReader::new(sock)?;

    // Handshake.
    let (job_id, rank, agent_resume) = match reader.next_frame_timeout(Duration::from_secs(5))? {
        Frame::Hello {
            job_id,
            rank,
            resume,
            nonce: agent_nonce,
        } => {
            let my_nonce = nonce();
            write_frame(
                &mut write_sock,
                &Frame::Challenge {
                    nonce: my_nonce,
                    proof: secret.prove(&agent_nonce),
                },
            )?;
            match reader.next_frame_timeout(Duration::from_secs(5))? {
                Frame::AuthResponse { proof } if secret.verify(&my_nonce, &proof) => {
                    (job_id, rank, resume)
                }
                _ => {
                    let _ = write_frame(&mut write_sock, &Frame::AuthFailed);
                    let st = state.lock();
                    let _ = st.events.send(ShadowEvent::AuthFailure { peer });
                    return Ok(());
                }
            }
        }
        _ => return Ok(()), // not an agent
    };

    // Install the connection and replay spooled stdin.
    let (tx, frame_rx) = unbounded::<Frame>();
    {
        let mut st = state.lock();
        let rs = st.rank_mut(rank)?;
        let resume = ResumePoint {
            stdin_received: 0,
            stdout_received: rs.stdout_received,
            stderr_received: rs.stderr_received,
        };
        write_frame(&mut write_sock, &Frame::Welcome { resume })?;
        let reconnect = rs.connected_before;
        rs.connected_before = true;
        rs.conn = Some(tx.clone());
        if let Some(spool) = rs.stdin_spool.as_mut() {
            spool.ack(agent_resume.stdin_received)?;
            for (seq, data) in spool.replay_after(agent_resume.stdin_received)? {
                let _ = tx.send(Frame::Data {
                    stream: StreamKind::Stdin,
                    seq,
                    payload: data.into(),
                });
            }
        } else {
            // Fast mode: deliver input typed before the first connection.
            for (seq, data) in rs.pre_stdin.drain(..) {
                if seq > agent_resume.stdin_received {
                    let _ = tx.send(Frame::Data {
                        stream: StreamKind::Stdin,
                        seq,
                        payload: data.into(),
                    });
                }
            }
        }
        if rs.stdin_closed {
            let _ = tx.send(Frame::Eof {
                stream: StreamKind::Stdin,
            });
        }
        let _ = st.events.send(ShadowEvent::AgentConnected {
            rank,
            job_id,
            reconnect,
        });
        if let Some(log) = &st.config.trace {
            log.record(
                cg_sim::SimTime::from_nanos(crate::wire::mono_ns()),
                cg_trace::Event::ShadowConnected { rank },
            );
        }
    }

    // Writer thread.
    let writer = std::thread::spawn(move || {
        for frame in frame_rx {
            if write_frame(&mut write_sock, &frame).is_err() {
                return;
            }
        }
    });

    // Read loop.
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll() {
            Ok(ReadEvent::Idle) => {}
            Ok(ReadEvent::Closed) | Err(_) => break,
            Ok(ReadEvent::Frame(frame)) => {
                let mut st = state.lock();
                match frame {
                    Frame::Data {
                        stream,
                        seq,
                        payload,
                    } if stream != StreamKind::Stdin => {
                        let rs = st.rank_mut(rank)?;
                        let received = match stream {
                            StreamKind::Stdout => &mut rs.stdout_received,
                            StreamKind::Stderr => &mut rs.stderr_received,
                            StreamKind::Stdin => unreachable!(),
                        };
                        let fresh = seq > *received;
                        if fresh {
                            *received = seq;
                        }
                        // Ack cumulatively even for replayed duplicates.
                        if let Some(txc) = &rs.conn {
                            let _ = txc.send(Frame::Ack { stream, seq });
                        }
                        if fresh {
                            let now = crate::wire::mono_ns();
                            let buffer = rs.buffers.get_mut(&stream).expect("buffer exists");
                            let chunks = buffer.push(&payload, now);
                            for (data, _) in chunks {
                                let _ = st.events.send(ShadowEvent::Output { rank, stream, data });
                            }
                        }
                    }
                    Frame::Eof { stream } if stream != StreamKind::Stdin => {
                        let rs = st.rank_mut(rank)?;
                        let already = rs.eof_sent.insert(stream, true).unwrap_or(false);
                        let flushed = rs
                            .buffers
                            .get_mut(&stream)
                            .and_then(|b| b.flush(crate::wire::mono_ns()))
                            .map(|(data, _)| data);
                        if let Some(data) = flushed {
                            let _ = st.events.send(ShadowEvent::Output { rank, stream, data });
                        }
                        if !already {
                            let _ = st.events.send(ShadowEvent::Eof { rank, stream });
                        }
                    }
                    Frame::Exit { code } => {
                        let rs = st.rank_mut(rank)?;
                        let first = rs.exit_code.is_none();
                        rs.exit_code = Some(code);
                        if first {
                            let _ = st.events.send(ShadowEvent::Exit { rank, code });
                        }
                    }
                    Frame::Ack {
                        stream: StreamKind::Stdin,
                        seq,
                    } => {
                        let rs = st.rank_mut(rank)?;
                        if let Some(spool) = rs.stdin_spool.as_mut() {
                            spool.ack(seq)?;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Tear down this connection (a newer one may already have replaced us —
    // only clear the slot if it is still ours).
    {
        let mut st = state.lock();
        if let Some(rs) = st.ranks.get_mut(&rank) {
            if rs.conn.as_ref().is_some_and(|c| c.same_channel(&tx)) {
                rs.conn = None;
                let _ = st.events.send(ShadowEvent::AgentDisconnected { rank });
                if let Some(log) = &st.config.trace {
                    log.record(
                        cg_sim::SimTime::from_nanos(crate::wire::mono_ns()),
                        cg_trace::Event::ShadowDisconnected { rank },
                    );
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}
