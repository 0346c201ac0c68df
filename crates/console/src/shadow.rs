//! The real Console Shadow: the user-side half of the Grid Console.
//!
//! Listens for Console Agent connections (one per subjob for MPICH-G2 jobs),
//! authenticates them with the GSI-lite handshake, delivers their
//! stdout/stderr through the user-side output buffer (flushing on full /
//! timeout / end-of-line, §4), and broadcasts typed stdin to every subjob.
//! In reliable mode stdin is spooled per rank so input typed during an
//! outage reaches the job after reconnection.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::agent::Mode;
use crate::buffer::{FlushPolicy, OutputBuffer};
use crate::frame::{Frame, StreamKind};
use crate::gsi::{nonce, Secret};
use crate::stream::{StreamReceiver, StreamSender};
use crate::wire::{drive, spawn_writer, write_frame, FrameReader, Machine, ReadEvent};

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

/// One thing that happened to the shadow; its step machine takes one at a time.
pub(crate) enum ShadowInput {
    /// `rank`'s agent passed the handshake on connection `serial` and holds
    /// stdin up to `stdin_after`; `accepted` hears once its stdin is replayed.
    Connected {
        rank: u32,
        serial: u64,
        job_id: String,
        stdin_after: u64,
        conn: Sender<Frame>,
        accepted: Sender<()>,
    },
    Frame(u32, Frame),
    /// Connection `serial` of this rank died.
    Down(u32, u64),
    AuthFailure(SocketAddr),
    /// Input for every rank; whether the spools took it goes back on the reply.
    Stdin(Vec<u8>, Sender<io::Result<()>>),
    CloseStdin,
    Shutdown,
}

const STDIN: StreamKind = StreamKind::Stdin;
const OUTPUTS: [StreamKind; 2] = [StreamKind::Stdout, StreamKind::Stderr];

struct Rank {
    stdin: StreamSender,
    received: StreamReceiver,
    /// The user-side output buffers, in `OUTPUTS` order.
    buffers: [OutputBuffer; 2],
    conn: Option<Sender<Frame>>,
    /// The serial of the connection `conn` holds.
    serial: u64,
    connected_before: bool,
}

/// The shadow's state: every rank's streams and connection.
pub(crate) struct ShadowMachine {
    ranks: BTreeMap<u32, Rank>,
    config: ShadowConfig,
    events: Sender<ShadowEvent>,
    stopped: bool,
}

impl ShadowMachine {
    pub(crate) fn new(config: &ShadowConfig, events: Sender<ShadowEvent>) -> io::Result<Self> {
        let mut machine = ShadowMachine {
            ranks: BTreeMap::new(),
            config: config.clone(),
            events,
            stopped: false,
        };
        // Pre-create the expected ranks so stdin typed before any agent
        // connects is spooled for all of them.
        for rank in 0..config.expected_ranks {
            machine.rank(rank, 0)?;
        }
        Ok(machine)
    }

    /// `rank`'s state, opened (its stdin spool too) on first use at `now_ns`.
    fn rank(&mut self, rank: u32, now_ns: u64) -> io::Result<&mut Rank> {
        let config = &self.config;
        if let Entry::Vacant(slot) = self.ranks.entry(rank) {
            let label = format!("shadow-stdin-r{rank}");
            let trace = config.trace.as_ref();
            let mut stdin = StreamSender::open(STDIN, &config.mode, &label, trace)?;
            stdin.set_now(now_ns);
            let buffers = ["stdout", "stderr"].map(|name| {
                let mut buffer = OutputBuffer::new(config.flush);
                if let Some(log) = trace {
                    buffer.set_trace(log.clone(), format!("shadow-{name}-r{rank}"));
                }
                buffer
            });
            slot.insert(Rank {
                stdin,
                received: StreamReceiver::new(&OUTPUTS),
                buffers,
                conn: None,
                serial: 0,
                connected_before: false,
            });
        }
        Ok(self.ranks.get_mut(&rank).expect("just inserted"))
    }

    /// Fast mode lost some of `rank`'s stdin to a dead connection.
    #[cfg(test)]
    pub(crate) fn stdin_lost(&self, rank: u32) -> bool {
        self.ranks[&rank].stdin.lost_data()
    }

    fn record(&self, now_ns: u64, event: cg_trace::Event) {
        if let Some(log) = &self.config.trace {
            log.record(cg_sim::SimTime::from_nanos(now_ns), event);
        }
    }

    fn step(&mut self, input: ShadowInput, now_ns: u64) -> io::Result<()> {
        let events = self.events.clone();
        let emit = |event| {
            let _ = events.send(event);
        };
        match input {
            ShadowInput::Connected {
                rank,
                serial,
                job_id,
                stdin_after,
                conn,
                accepted,
            } => {
                let r = self.rank(rank, now_ns)?;
                let _ = conn.send(Frame::Welcome {
                    resume: r.received.resume(),
                });
                // On an error the machine holds neither `conn` nor
                // `accepted`, so the connection closes.
                r.stdin.connected(stdin_after, &conn)?;
                let _ = accepted.send(());
                let reconnect = std::mem::replace(&mut r.connected_before, true);
                r.conn = Some(conn);
                r.serial = serial;
                emit(ShadowEvent::AgentConnected {
                    rank,
                    job_id,
                    reconnect,
                });
                self.record(now_ns, cg_trace::Event::ShadowConnected { rank });
            }
            ShadowInput::Frame(rank, frame) => {
                let r = self.rank(rank, now_ns)?;
                if let Frame::Ack { stream: STDIN, seq } = frame {
                    return r.stdin.ack(seq);
                }
                match r.received.take(frame, r.conn.as_ref()) {
                    Some(Frame::Data {
                        stream, payload, ..
                    }) => {
                        let buffer = &mut r.buffers[stream as usize - 1];
                        for (data, _) in buffer.push(&payload, now_ns) {
                            emit(ShadowEvent::Output { rank, stream, data });
                        }
                    }
                    Some(Frame::Eof { stream }) => {
                        if let Some((data, _)) = r.buffers[stream as usize - 1].flush(now_ns) {
                            emit(ShadowEvent::Output { rank, stream, data });
                        }
                        emit(ShadowEvent::Eof { rank, stream });
                    }
                    Some(Frame::Exit { code }) => emit(ShadowEvent::Exit { rank, code }),
                    _ => {}
                }
            }
            ShadowInput::Down(rank, serial) => {
                let Some(r) = self.ranks.get_mut(&rank) else {
                    return Ok(());
                };
                // A newer connection may already have replaced this one.
                if r.conn.is_some() && r.serial == serial {
                    r.conn = None;
                    r.stdin.disconnected();
                    emit(ShadowEvent::AgentDisconnected { rank });
                    self.record(now_ns, cg_trace::Event::ShadowDisconnected { rank });
                }
            }
            ShadowInput::AuthFailure(peer) => emit(ShadowEvent::AuthFailure { peer }),
            ShadowInput::Stdin(data, reply) => {
                let mut ranks = self.ranks.values_mut();
                let _ = reply.send(ranks.try_for_each(|r| r.stdin.send(data.clone())));
            }
            ShadowInput::CloseStdin => self.ranks.values_mut().for_each(|r| r.stdin.close()),
            // `drive` then drops the machine and with it every frame
            // queue, so the agents' writer threads end.
            ShadowInput::Shutdown => self.stopped = true,
        }
        Ok(())
    }
}

impl Machine for ShadowMachine {
    type Input = ShadowInput;
    type Outcome = ();

    /// A failed spool operation ends only the input that hit it: a stdin
    /// request hears of it on its reply, a connection whose stdin replay
    /// failed is closed, and a failed stdin ack leaves only the `.ack` file
    /// behind the acknowledgement the machine holds.
    fn handle(&mut self, input: Option<ShadowInput>, now_ns: u64) -> io::Result<Option<()>> {
        for (&rank, r) in &mut self.ranks {
            r.stdin.set_now(now_ns);
            for (stream, buffer) in OUTPUTS.into_iter().zip(&mut r.buffers) {
                if let Some((data, _)) = buffer.poll_timeout(now_ns) {
                    let _ = self.events.send(ShadowEvent::Output { rank, stream, data });
                }
            }
        }
        if let Some(input) = input {
            let _ = self.step(input, now_ns);
        }
        Ok(self.stopped.then_some(()))
    }

    fn next_deadline(&self) -> Option<u64> {
        self.ranks
            .values()
            .flat_map(|r| &r.buffers)
            .filter_map(OutputBuffer::timeout_deadline)
            .min()
    }
}

/// The user-side console endpoint.
pub struct ConsoleShadow {
    addr: SocketAddr,
    inputs: Sender<ShadowInput>,
    /// Locked so that a shared shadow can take stdin on one thread while
    /// another reads its events.
    events: Mutex<Receiver<ShadowEvent>>,
    stop: Arc<AtomicBool>,
    /// The thread running the machine, and the accept loop.
    threads: [JoinHandle<()>; 2],
}

impl ConsoleShadow {
    /// Binds and starts listening. Returns once the port is open, so agents
    /// can be pointed at [`ConsoleShadow::addr`] immediately.
    pub fn start(config: ShadowConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (events_tx, events_rx) = channel();
        let machine = ShadowMachine::new(&config, events_tx)?;
        let (inputs, rx) = channel();
        let runner = std::thread::spawn(move || {
            let _ = drive(machine, &rx);
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (accept_inputs, accept_stop) = (inputs.clone(), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut connections = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((sock, peer)) => {
                        let (inputs, stop) = (accept_inputs.clone(), Arc::clone(&accept_stop));
                        let secret = config.secret.clone();
                        let serial = connections.len() as u64;
                        connections.push(std::thread::spawn(move || {
                            let _ = serve_connection(sock, peer, serial, &inputs, &stop, &secret);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            for h in connections {
                let _ = h.join();
            }
        });
        Ok(ConsoleShadow {
            addr,
            inputs,
            events: Mutex::new(events_rx),
            stop,
            threads: [runner, acceptor],
        })
    }

    /// The address agents must connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The next event (output, connections, exits), waiting at most
    /// `timeout` for it.
    pub fn next_event(&self, timeout: Duration) -> Result<ShadowEvent, RecvTimeoutError> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        events.recv_timeout(timeout)
    }

    /// Sends stdin bytes to **every** rank (the paper broadcasts input to all
    /// subjobs; applications read on one rank by checking the MPI rank, §4).
    pub fn send_stdin(&self, data: &[u8]) -> io::Result<()> {
        let stopped = || io::Error::other("console shadow stopped");
        let (reply, verdict) = channel();
        self.inputs
            .send(ShadowInput::Stdin(data.to_vec(), reply))
            .map_err(|_| stopped())?;
        verdict.recv().map_err(|_| stopped())?
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
        let _ = self.inputs.send(ShadowInput::CloseStdin);
    }

    /// Stops listening and joins all threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.inputs.send(ShadowInput::Shutdown);
        for h in self.threads {
            let _ = h.join();
        }
    }
}

/// One agent connection, the `serial`th accepted: the handshake, then its
/// frames to the machine.
fn serve_connection(
    sock: TcpStream,
    peer: SocketAddr,
    serial: u64,
    inputs: &Sender<ShadowInput>,
    stop: &AtomicBool,
    secret: &Secret,
) -> io::Result<()> {
    let _ = sock.set_nodelay(true);
    let mut write_sock = sock.try_clone()?;
    let mut reader = FrameReader::new(sock)?;

    // Handshake.
    let Frame::Hello {
        job_id,
        rank,
        resume,
        nonce: agent_nonce,
    } = reader.next_frame_timeout(Duration::from_secs(5))?
    else {
        return Ok(()); // not an agent
    };
    let my_nonce = nonce();
    let challenge = Frame::Challenge {
        nonce: my_nonce,
        proof: secret.prove(&agent_nonce),
    };
    write_frame(&mut write_sock, &challenge)?;
    match reader.next_frame_timeout(Duration::from_secs(5))? {
        Frame::AuthResponse { proof } if secret.verify(&my_nonce, &proof) => {}
        _ => {
            let _ = write_frame(&mut write_sock, &Frame::AuthFailed);
            let _ = inputs.send(ShadowInput::AuthFailure(peer));
            return Ok(());
        }
    }

    // The machine queues the Welcome ahead of any stdin it replays. If it
    // could not replay, dropping `conn` ends the writer, which shuts the
    // socket.
    let (conn, writer) = spawn_writer(write_sock);
    let (accepted, replayed) = channel();
    let _ = inputs.send(ShadowInput::Connected {
        rank,
        serial,
        job_id,
        stdin_after: resume.stdin_received,
        conn: conn.clone(),
        accepted,
    });
    if replayed.recv().is_err() {
        return Ok(());
    }
    while !stop.load(Ordering::SeqCst) {
        match reader.poll() {
            Ok(ReadEvent::Idle) => {}
            Ok(ReadEvent::Closed) | Err(_) => break,
            Ok(ReadEvent::Frame(frame)) => {
                let _ = inputs.send(ShadowInput::Frame(rank, frame));
            }
        }
    }
    let _ = inputs.send(ShadowInput::Down(rank, serial));
    drop(conn);
    let _ = writer.join();
    Ok(())
}
