//! The two console ends back to back: the agent's and the shadow's step
//! machines wired over in-memory frame queues under a manual clock. No
//! socket, thread or sleep: each test decides when frames cross, when a
//! connection dies, and what time it is. The connection threads' part (the
//! GSI-lite handshake) is left out: a connection starts with the agent's
//! `Hello` and the shadow's `Welcome`, as the machines queue them.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;

use proptest::prelude::*;

use crate::agent::{AgentConfig, AgentInput, AgentMachine, ExitReport, Mode, LINGER_NS};
use crate::buffer::FlushPolicy;
use crate::frame::{Frame, StreamKind};
use crate::gsi::Secret;
use crate::shadow::{ShadowConfig, ShadowEvent, ShadowInput, ShadowMachine};
use crate::temp_dir::TempDir;
use crate::wire::Machine;

const OUT: StreamKind = StreamKind::Stdout;
const ERR: StreamKind = StreamKind::Stderr;
const MS: u64 = 1_000_000;

/// A child's stdin pipe: what reached it, and whether the agent closed it.
#[derive(Clone, Default)]
struct Pipe(Rc<RefCell<Vec<u8>>>);

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Pipe {
    fn bytes(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }

    /// The agent dropped its end.
    fn closed(&self) -> bool {
        Rc::strong_count(&self.0) == 1
    }
}

/// What is queued on `rx` now.
fn queued<T>(rx: &Receiver<T>) -> impl Iterator<Item = T> + '_ {
    std::iter::from_fn(|| rx.try_recv().ok())
}

/// One live connection: each end's frame queue, and the serial the
/// shadow knows it by.
struct Link {
    to_shadow: Receiver<Frame>,
    to_agent: Receiver<Frame>,
    serial: u64,
}

struct Agent {
    machine: AgentMachine<Pipe>,
    stdin: Pipe,
    link: Option<Link>,
}

struct Console {
    now: u64,
    shadow: ShadowMachine,
    events: Receiver<ShadowEvent>,
    seen: Vec<ShadowEvent>,
    agents: Vec<Agent>,
    /// Frames a dead connection's reader has yet to hand the shadow.
    stale: Vec<(u32, Frame)>,
    /// Connections opened so far: the next one's serial.
    connections: u64,
    _spools: Option<TempDir>,
}

impl Console {
    /// `ranks` agents and a shadow, all on `flush`, none connected.
    fn new(ranks: u32, spools: Option<TempDir>, flush: FlushPolicy) -> Console {
        let mode = spools.as_ref().map_or(Mode::Fast, |dir| Mode::Reliable {
            spool_dir: dir.path().to_path_buf(),
        });
        let secret = Secret::new("b2b");
        let config = ShadowConfig {
            mode: mode.clone(),
            flush,
            expected_ranks: ranks,
            ..ShadowConfig::local(secret.clone())
        };
        let (events_tx, events) = channel();
        let shadow = ShadowMachine::new(&config, events_tx).unwrap();
        let agents = (0..ranks)
            .map(|rank| {
                let config = AgentConfig {
                    rank,
                    mode: mode.clone(),
                    flush,
                    ..AgentConfig::fast("job", config.bind, secret.clone())
                };
                let stdin = Pipe::default();
                let kill = Arc::new(AtomicBool::new(false));
                let machine = AgentMachine::new(&config, stdin.clone(), kill).unwrap();
                Agent {
                    machine,
                    stdin,
                    link: None,
                }
            })
            .collect();
        Console {
            now: 0,
            shadow,
            events,
            seen: Vec::new(),
            agents,
            stale: Vec::new(),
            connections: 0,
            _spools: spools,
        }
    }

    fn fast(ranks: u32) -> Console {
        Console::new(ranks, None, FlushPolicy::default())
    }

    fn reliable(ranks: u32, name: &str) -> Console {
        let dir = TempDir::new("cg-b2b", name);
        Console::new(ranks, Some(dir), FlushPolicy::default())
    }

    fn agent_takes(&mut self, rank: u32, input: AgentInput) {
        let agent = &mut self.agents[rank as usize].machine;
        agent.handle(Some(input), self.now).unwrap();
    }

    fn shadow_takes(&mut self, input: ShadowInput) {
        self.shadow.handle(Some(input), self.now).unwrap();
        self.seen.extend(queued(&self.events));
    }

    /// The child writes `data` on `stream`.
    fn output(&mut self, rank: u32, stream: StreamKind, data: &[u8]) {
        self.agent_takes(rank, AgentInput::Out(stream, data.to_vec()));
    }

    /// The child closes stdout and stderr and exits with `code`.
    fn exit(&mut self, rank: u32, code: i32) {
        self.agent_takes(rank, AgentInput::PumpEof(OUT));
        self.agent_takes(rank, AgentInput::PumpEof(ERR));
        self.agent_takes(rank, AgentInput::ChildExited(code));
    }

    /// The user types `data`.
    fn stdin(&mut self, data: &[u8]) {
        let (reply, verdict) = channel();
        self.shadow_takes(ShadowInput::Stdin(data.to_vec(), reply));
        verdict.recv().unwrap().unwrap();
    }

    /// A connection opens: the agent's `Hello` reaches the shadow, whose
    /// `Welcome` reaches the agent.
    fn connect(&mut self, rank: u32) {
        assert!(self.agents[rank as usize].link.is_none());
        let (agent_conn, to_shadow) = channel();
        self.agent_takes(rank, AgentInput::Dialed(agent_conn.clone(), [0; 16]));
        let Ok(Frame::Hello {
            job_id,
            rank: hello_rank,
            resume,
            ..
        }) = to_shadow.try_recv()
        else {
            panic!("the agent's first frame is its Hello");
        };
        assert_eq!(hello_rank, rank);
        let (shadow_conn, to_agent) = channel();
        let (accepted, replayed) = channel();
        let serial = self.connections;
        self.connections += 1;
        self.shadow_takes(ShadowInput::Connected {
            rank,
            serial,
            job_id,
            stdin_after: resume.stdin_received,
            conn: shadow_conn,
            accepted,
        });
        assert!(
            replayed.try_recv().is_ok(),
            "the shadow accepts rank {rank}"
        );
        let Ok(Frame::Welcome { resume }) = to_agent.try_recv() else {
            panic!("the shadow's first frame is its Welcome");
        };
        self.agent_takes(rank, AgentInput::ConnUp(agent_conn, resume));
        self.agents[rank as usize].link = Some(Link {
            to_shadow,
            to_agent,
            serial,
        });
    }

    /// The connection dies; what was in flight on it is lost.
    fn cut(&mut self, rank: u32) {
        if let Some(link) = self.agents[rank as usize].link.take() {
            self.agent_takes(rank, AgentInput::ConnDown);
            self.shadow_takes(ShadowInput::Down(rank, link.serial));
        }
    }

    /// The connection dies, but its reader still holds what the agent sent
    /// on it: [`Console::deliver_stale`] hands that to the shadow later.
    fn stall(&mut self, rank: u32) {
        if let Some(link) = &self.agents[rank as usize].link {
            self.stale
                .extend(queued(&link.to_shadow).map(|frame| (rank, frame)));
        }
        self.cut(rank);
    }

    fn deliver_stale(&mut self) {
        for (rank, frame) in std::mem::take(&mut self.stale) {
            self.shadow_takes(ShadowInput::Frame(rank, frame));
        }
    }

    /// Delivers up to `limit` frames the agent sent; how many it delivered.
    fn deliver_up(&mut self, rank: u32, limit: usize) -> usize {
        let Some(link) = &self.agents[rank as usize].link else {
            return 0;
        };
        let frames: Vec<Frame> = queued(&link.to_shadow).take(limit).collect();
        let n = frames.len();
        for frame in frames {
            self.shadow_takes(ShadowInput::Frame(rank, frame));
        }
        n
    }

    /// Delivers every frame the shadow sent `rank`; how many it delivered.
    fn deliver_down(&mut self, rank: u32) -> usize {
        let Some(link) = &self.agents[rank as usize].link else {
            return 0;
        };
        let frames: Vec<Frame> = queued(&link.to_agent).collect();
        let n = frames.len();
        for frame in frames {
            self.agent_takes(rank, AgentInput::Frame(frame));
        }
        n
    }

    /// Delivers frames both ways on every connection until none is left.
    fn settle(&mut self) {
        while (0..self.agents.len() as u32)
            .map(|r| self.deliver_up(r, usize::MAX) + self.deliver_down(r))
            .sum::<usize>()
            > 0
        {}
    }

    /// Moves the clock to `at` and lets every machine fire what is due.
    fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
        for agent in &mut self.agents {
            agent.machine.handle(None, self.now).unwrap();
        }
        self.shadow.handle(None, self.now).unwrap();
        self.seen.extend(queued(&self.events));
    }

    fn next_deadline(&self) -> Option<u64> {
        let agents = self.agents.iter().filter_map(|a| a.machine.next_deadline());
        agents.chain(self.shadow.next_deadline()).min()
    }

    /// The agent's report, if it has one now.
    fn report(&mut self, rank: u32) -> Option<ExitReport> {
        self.agents[rank as usize]
            .machine
            .handle(None, self.now)
            .unwrap()
    }

    /// Settles and runs the clock from deadline to deadline until every
    /// agent has reported; the reports in rank order.
    fn finish(&mut self) -> Vec<ExitReport> {
        self.deliver_stale();
        for _ in 0..1_000 {
            self.settle();
            let reports: Option<Vec<_>> = (0..self.agents.len() as u32)
                .map(|r| self.report(r))
                .collect();
            if let Some(reports) = reports {
                return reports;
            }
            let next = self.next_deadline().expect("an agent waits on nothing");
            self.advance_to(next);
        }
        panic!("the console never finished");
    }

    /// Everything the shadow showed for `rank`'s `stream`.
    fn shown(&self, rank: u32, stream: StreamKind) -> Vec<u8> {
        let mut out = Vec::new();
        for event in &self.seen {
            if let ShadowEvent::Output {
                rank: r,
                stream: s,
                data,
            } = event
            {
                if (*r, *s) == (rank, stream) {
                    out.extend_from_slice(data);
                }
            }
        }
        out
    }

    fn count(&self, event: &ShadowEvent) -> usize {
        self.seen.iter().filter(|e| *e == event).count()
    }
}

#[test]
fn an_echo_round_trips_bytes_exactly() {
    let mut console = Console::fast(1);
    console.connect(0);
    console.stdin(b"hello grid\n");
    console.stdin(b"second line\n");
    console.shadow_takes(ShadowInput::CloseStdin);
    console.settle();
    let typed = console.agents[0].stdin.bytes();
    assert_eq!(typed, b"hello grid\nsecond line\n");
    assert!(console.agents[0].stdin.closed(), "the child sees EOF");
    // The child is `cat`.
    console.output(0, OUT, &typed);
    console.exit(0, 0);
    let reports = console.finish();
    assert_eq!(console.shown(0, OUT), b"hello grid\nsecond line\n");
    assert_eq!(
        console.count(&ShadowEvent::Eof {
            rank: 0,
            stream: OUT
        }),
        1
    );
    assert_eq!(reports[0].exit_code, 0);
    assert!(reports[0].delivered_all);
    assert_eq!(reports[0].bytes_stdout, 23);
}

#[test]
fn stderr_and_the_exit_code_reach_the_shadow() {
    let mut console = Console::fast(1);
    // Written before the first connection: it waits for it.
    console.output(0, OUT, b"out-line\n");
    console.output(0, ERR, b"err-line\n");
    console.exit(0, 3);
    console.connect(0);
    let reports = console.finish();
    assert_eq!(console.shown(0, OUT), b"out-line\n");
    assert_eq!(console.shown(0, ERR), b"err-line\n");
    assert_eq!(console.count(&ShadowEvent::Exit { rank: 0, code: 3 }), 1);
    assert_eq!(reports[0].exit_code, 3);
    assert_eq!(reports[0].bytes_stderr, 9);
}

#[test]
fn several_ranks_fan_in() {
    let mut console = Console::fast(3);
    for rank in 0..3 {
        console.connect(rank);
        console.output(rank, OUT, format!("rank {rank} of 3\n").as_bytes());
    }
    for rank in 0..3 {
        console.exit(rank, 0);
    }
    console.finish();
    for rank in 0..3 {
        assert_eq!(
            console.shown(rank, OUT),
            format!("rank {rank} of 3\n").as_bytes()
        );
        let connected = ShadowEvent::AgentConnected {
            rank,
            job_id: "job".into(),
            reconnect: false,
        };
        assert_eq!(console.count(&connected), 1);
    }
}

#[test]
fn stdin_is_broadcast_to_every_rank() {
    let mut console = Console::fast(3);
    console.connect(0);
    console.connect(1);
    console.stdin(b"tolerance=1e-6\n");
    // Rank 2 connects late: what was typed waits for it.
    console.connect(2);
    console.stdin(b"go\n");
    console.settle();
    for agent in &console.agents {
        assert_eq!(agent.stdin.bytes(), b"tolerance=1e-6\ngo\n");
    }
}

#[test]
fn reliable_output_and_stdin_survive_a_connection_loss() {
    let mut console = Console::reliable(1, "loss");
    console.connect(0);
    console.output(0, OUT, b"line-0\n");
    console.stdin(b"before\n");
    console.settle();
    // In flight when the connection dies: the stdin is lost on the wire,
    // and the dead connection's reader hands line-1 to the shadow only
    // after the reconnection has replayed it.
    console.output(0, OUT, b"line-1\n");
    console.stdin(b"in flight\n");
    console.stall(0);
    console.output(0, OUT, b"line-2\n");
    console.stdin(b"during\n");
    console.connect(0);
    console.settle();
    console.deliver_stale();
    console.output(0, OUT, b"line-3\n");
    console.stdin(b"after\n");
    console.shadow_takes(ShadowInput::CloseStdin);
    console.exit(0, 0);
    let reports = console.finish();
    assert_eq!(console.shown(0, OUT), b"line-0\nline-1\nline-2\nline-3\n");
    assert_eq!(
        console.agents[0].stdin.bytes(),
        b"before\nin flight\nduring\nafter\n"
    );
    assert!(reports[0].delivered_all, "{:?}", reports[0]);
    assert_eq!(reports[0].reconnects, 1);
    let reconnected = ShadowEvent::AgentConnected {
        rank: 0,
        job_id: "job".into(),
        reconnect: true,
    };
    assert_eq!(console.count(&reconnected), 1);
}

#[test]
fn a_fast_mode_loss_is_flagged() {
    let mut console = Console::fast(1);
    console.connect(0);
    console.output(0, OUT, b"kept\n");
    console.settle();
    console.output(0, OUT, b"lost\n");
    console.cut(0);
    console.connect(0);
    console.exit(0, 0);
    let reports = console.finish();
    assert_eq!(console.shown(0, OUT), b"kept\n");
    assert!(!reports[0].delivered_all, "the lost line is flagged");
}

#[test]
fn a_timeout_flush_fires_at_its_deadline_and_not_before() {
    let flush = FlushPolicy {
        capacity: 64 * 1024,
        timeout_ns: 5 * MS,
        on_eol: false,
    };
    let mut console = Console::new(1, None, flush);
    console.connect(0);
    console.advance_to(MS);
    console.output(0, OUT, b"prompt> ");
    // The agent's buffer holds the bytes until its deadline.
    assert_eq!(console.next_deadline(), Some(6 * MS));
    console.advance_to(6 * MS - 1);
    assert_eq!(console.deliver_up(0, usize::MAX), 0);
    console.advance_to(6 * MS);
    assert_eq!(console.deliver_up(0, usize::MAX), 1);
    // Then the shadow's buffer does, from their arrival.
    assert_eq!(console.next_deadline(), Some(11 * MS));
    console.advance_to(11 * MS - 1);
    assert!(console.shown(0, OUT).is_empty());
    console.advance_to(11 * MS);
    assert_eq!(console.shown(0, OUT), b"prompt> ");
    assert_eq!(console.next_deadline(), None);
}

#[test]
fn the_agent_reports_only_after_linger() {
    let mut console = Console::fast(1);
    console.connect(0);
    console.advance_to(7 * MS);
    console.exit(0, 0);
    console.settle();
    // Everything is delivered at 7 ms; the report waits for the linger.
    assert_eq!(console.next_deadline(), Some(7 * MS + LINGER_NS));
    console.advance_to(7 * MS + LINGER_NS - 1);
    assert_eq!(console.report(0), None);
    console.advance_to(7 * MS + LINGER_NS);
    assert!(console.report(0).is_some_and(|r| r.delivered_all));
}

/// A reliable shadow expecting one rank, tracing into the returned log.
fn traced_reliable_shadow(name: &str) -> (ShadowMachine, cg_trace::EventLog, TempDir) {
    let dir = TempDir::new("cg-b2b", name);
    let log = cg_trace::EventLog::new(64);
    let config = ShadowConfig {
        mode: Mode::Reliable {
            spool_dir: dir.path().to_path_buf(),
        },
        trace: Some(log.clone()),
        ..ShadowConfig::local(Secret::new("b2b"))
    };
    let shadow = ShadowMachine::new(&config, channel().0).unwrap();
    (shadow, log, dir)
}

#[test]
fn a_rank_first_seen_mid_run_stamps_its_spool_trace_then() {
    let (mut shadow, log, _dir) = traced_reliable_shadow("late-rank");
    let (conn, _to_agent) = channel();
    let (accepted, _replayed) = channel();
    let connected = ShadowInput::Connected {
        rank: 3,
        serial: 0,
        job_id: "job".into(),
        stdin_after: 0,
        conn,
        accepted,
    };
    shadow.handle(Some(connected), 9 * MS).unwrap();
    let events = log.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, cg_trace::Event::SpoolAck { .. })),
        "rank 3's spool is traced: {events:?}"
    );
    for e in &events {
        assert_eq!(e.at.as_nanos(), 9 * MS, "{e:?}");
    }
}

#[test]
fn a_connection_whose_stdin_replay_fails_is_dropped() {
    let (mut shadow, log, dir) = traced_reliable_shadow("failed-replay");
    // The agent claims stdin up to 5, so the replay writes the `.ack` file,
    // into a directory that is gone.
    std::fs::remove_dir_all(dir.path()).unwrap();
    let (conn, to_agent) = channel();
    let (accepted, replayed) = channel();
    let connected = ShadowInput::Connected {
        rank: 0,
        serial: 0,
        job_id: "job".into(),
        stdin_after: 5,
        conn: conn.clone(),
        accepted,
    };
    shadow.handle(Some(connected), MS).unwrap();
    let refused = replayed.try_recv();
    assert!(
        matches!(refused, Err(TryRecvError::Disconnected)),
        "{refused:?}"
    );
    drop(conn);
    assert!(matches!(to_agent.try_recv(), Ok(Frame::Welcome { .. })));
    let closed = to_agent.try_recv();
    assert!(
        matches!(closed, Err(TryRecvError::Disconnected)),
        "{closed:?}"
    );
    assert!(!log
        .snapshot()
        .iter()
        .any(|e| matches!(e.event, cg_trace::Event::ShadowConnected { .. })));
}

/// Runs a random schedule on `ranks` ranks. Op codes: 0–1 the child
/// writes (stdout or stderr), 2 the user types, 3 connect, 4 cut, 5–6
/// deliver some of the agent's frames, 7 deliver the shadow's, 8 advance
/// the clock, 9 stall, 10 deliver what stalled connections held. Then
/// every child exits, stdin closes, every rank connects and the console
/// runs until every agent has reported.
fn run_schedule(mut console: Console, ops: &[(u8, u8, u8)]) -> Model {
    let ranks = console.agents.len() as u32;
    let mut model = Model::new(ranks);
    for (n, &(op, a, b)) in ops.iter().enumerate() {
        let rank = u32::from(a) % ranks;
        let mut payload = format!("<{n}>").into_bytes();
        if b % 3 == 0 {
            payload.push(b'\n');
        }
        match op {
            0 | 1 => {
                let stream = if op == 0 { OUT } else { ERR };
                console.output(rank, stream, &payload);
                model.written[rank as usize][op as usize].extend_from_slice(&payload);
            }
            2 => {
                console.stdin(&payload);
                model.typed.extend_from_slice(&payload);
            }
            3 if console.agents[rank as usize].link.is_none() => console.connect(rank),
            4 => console.cut(rank),
            5 | 6 => {
                console.deliver_up(rank, usize::from(b % 4));
            }
            7 => {
                console.deliver_down(rank);
            }
            8 => console.advance_to(console.now + u64::from(b) * MS / 4),
            9 => console.stall(rank),
            10 => console.deliver_stale(),
            _ => {}
        }
    }
    console.shadow_takes(ShadowInput::CloseStdin);
    for rank in 0..ranks {
        console.exit(rank, rank as i32);
        if console.agents[rank as usize].link.is_none() {
            console.connect(rank);
        }
    }
    model.reports = console.finish();
    for rank in 0..ranks {
        model.stdin_lost.push(console.shadow.stdin_lost(rank));
        model
            .piped
            .push(console.agents[rank as usize].stdin.bytes());
    }
    model.console = Some(console);
    model
}

/// What a schedule sent, and what the console made of it.
struct Model {
    /// Per rank: what the child wrote on stdout and stderr.
    written: Vec<[Vec<u8>; 2]>,
    typed: Vec<u8>,
    reports: Vec<ExitReport>,
    stdin_lost: Vec<bool>,
    piped: Vec<Vec<u8>>,
    console: Option<Console>,
}

impl Model {
    fn new(ranks: u32) -> Model {
        Model {
            written: vec![[Vec::new(), Vec::new()]; ranks as usize],
            typed: Vec::new(),
            reports: Vec::new(),
            stdin_lost: Vec::new(),
            piped: Vec::new(),
            console: None,
        }
    }

    /// Every byte arrived exactly once and in order, in both directions,
    /// wherever no loss was flagged; every rank's EOFs and exit were
    /// reported once.
    fn check(&self) {
        let console = self.console.as_ref().expect("ran");
        for (rank, written) in (0u32..).zip(&self.written) {
            let report = &self.reports[rank as usize];
            if report.delivered_all {
                assert_eq!(console.shown(rank, OUT), written[0], "rank {rank} stdout");
                assert_eq!(console.shown(rank, ERR), written[1], "rank {rank} stderr");
            }
            if !self.stdin_lost[rank as usize] {
                assert_eq!(self.piped[rank as usize], self.typed, "rank {rank} stdin");
            }
            for stream in [OUT, ERR] {
                assert_eq!(console.count(&ShadowEvent::Eof { rank, stream }), 1);
            }
            let code = rank as i32;
            assert_eq!(console.count(&ShadowEvent::Exit { rank, code }), 1);
            assert_eq!(report.exit_code, code);
        }
    }
}

fn schedule() -> impl Strategy<Value = (u32, FlushPolicy, Vec<(u8, u8, u8)>)> {
    let flush =
        (4usize..64, 1u64..20, any::<bool>()).prop_map(|(capacity, ms, on_eol)| FlushPolicy {
            capacity,
            timeout_ns: ms * MS,
            on_eol,
        });
    let ops = prop::collection::vec((0u8..12, any::<u8>(), any::<u8>()), 0..60);
    (1u32..4, flush, ops)
}

proptest! {
    #[test]
    fn reliable_mode_delivers_every_byte_once_in_order((ranks, flush, ops) in schedule()) {
        let dir = TempDir::new("cg-b2b", "model");
        let model = run_schedule(Console::new(ranks, Some(dir), flush), &ops);
        for report in &model.reports {
            prop_assert!(report.delivered_all, "{report:?}");
        }
        prop_assert!(!model.stdin_lost.iter().any(|&lost| lost));
        model.check();
    }

    #[test]
    fn fast_mode_flags_every_loss((ranks, flush, ops) in schedule()) {
        run_schedule(Console::new(ranks, None, flush), &ops).check();
    }
}
