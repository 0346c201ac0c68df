//! The two ends of the console streams: §4's delivery rule written once.
//! A [`StreamSender`] sends the agent's stdout/stderr and the shadow's
//! per-rank stdin; a [`StreamReceiver`] takes them in at the other end.
//!
//! Reliable mode appends every chunk to a disk [`Spool`] before it goes on
//! the wire; a (re)connection acknowledges the peer's resume point and
//! replays what lies after it. Fast mode buffers nothing: a chunk sent with
//! no connection up is lost, and so is whatever the peer had not
//! acknowledged when a connection died. Data produced before the *first*
//! connection waits for it, like bytes in a not-yet-connected socket.

use std::io;
use std::sync::mpsc::Sender;

use cg_trace::EventLog;

use crate::agent::Mode;
use crate::frame::{Frame, ResumePoint, StreamKind};
use crate::spool::Spool;

pub(crate) struct StreamSender {
    stream: StreamKind,
    next_seq: u64,
    /// Reliable mode only.
    spool: Option<Spool>,
    /// Fast mode only: chunks sent before the first connection.
    backlog: Vec<(u64, Vec<u8>)>,
    /// The live connection's frame queue.
    conn: Option<Sender<Frame>>,
    ever_connected: bool,
    /// Highest sequence the peer acknowledged (fast mode: or that was lost).
    acked: u64,
    closed: bool,
    lost: bool,
    bytes: u64,
}

impl StreamSender {
    /// The sending end of `stream`. In reliable mode it spools to
    /// `{spool_dir}/{label}.spool`, traced under `label`.
    pub(crate) fn open(
        stream: StreamKind,
        mode: &Mode,
        label: &str,
        trace: Option<&EventLog>,
    ) -> io::Result<Self> {
        let spool = match mode {
            Mode::Fast => None,
            Mode::Reliable { spool_dir } => {
                let mut spool = Spool::open(spool_dir.join(format!("{label}.spool")))?;
                if let Some(log) = trace {
                    spool.set_trace(log.clone(), label);
                }
                Some(spool)
            }
        };
        Ok(StreamSender {
            stream,
            next_seq: 1,
            spool,
            backlog: Vec::new(),
            conn: None,
            ever_connected: false,
            acked: 0,
            closed: false,
            lost: false,
            bytes: 0,
        })
    }

    /// Sends the next chunk; ignored once the stream is closed.
    pub(crate) fn send(&mut self, data: Vec<u8>) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.bytes += data.len() as u64;
        if let Some(spool) = self.spool.as_mut() {
            spool.append(seq, &data)?;
        }
        match &self.conn {
            Some(tx) => transmit(tx, self.stream, seq, data),
            None if self.spool.is_some() => {} // replayed from the spool
            None if !self.ever_connected => self.backlog.push((seq, data)),
            None => {
                self.lost = true;
                self.acked = self.acked.max(seq);
            }
        }
        Ok(())
    }

    /// A connection is up and its peer holds everything up to `after`:
    /// resend the rest (and `Eof` if the stream is closed) on `conn`.
    pub(crate) fn connected(&mut self, after: u64, conn: &Sender<Frame>) -> io::Result<()> {
        self.ever_connected = true;
        self.acked = self.acked.max(after);
        let resend = match self.spool.as_mut() {
            Some(spool) => {
                spool.ack(after)?;
                spool.replay_after(after)?
            }
            None => {
                let mut backlog = std::mem::take(&mut self.backlog);
                backlog.retain(|&(seq, _)| seq > after);
                backlog
            }
        };
        for (seq, data) in resend {
            transmit(conn, self.stream, seq, data);
        }
        if self.closed {
            let _ = conn.send(Frame::Eof {
                stream: self.stream,
            });
        }
        self.conn = Some(conn.clone());
        Ok(())
    }

    /// The peer acknowledged everything up to `seq`.
    pub(crate) fn ack(&mut self, seq: u64) -> io::Result<()> {
        self.acked = self.acked.max(seq);
        match self.spool.as_mut() {
            Some(spool) => spool.ack(seq),
            None => Ok(()),
        }
    }

    /// The connection died. Fast mode writes off what it had not delivered.
    pub(crate) fn disconnected(&mut self) {
        self.conn = None;
        let highest = self.next_seq - 1;
        if self.spool.is_none() && self.acked < highest {
            self.lost = true;
            self.acked = highest;
        }
    }

    /// No more data: tells the peer, now or on the next connection.
    pub(crate) fn close(&mut self) {
        self.closed = true;
        if let Some(tx) = &self.conn {
            let _ = tx.send(Frame::Eof {
                stream: self.stream,
            });
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Every chunk sent so far is acknowledged or (fast mode) written off.
    pub(crate) fn is_settled(&self) -> bool {
        self.acked >= self.next_seq - 1
    }

    /// Fast mode lost data to a dead connection.
    pub(crate) fn lost_data(&self) -> bool {
        self.lost
    }

    /// Payload bytes sent.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The owner's clock reading, which stamps the spool's trace events.
    pub(crate) fn set_now(&mut self, now_ns: u64) {
        if let Some(spool) = self.spool.as_mut() {
            spool.set_now(now_ns);
        }
    }
}

/// The receiving end of one console connection's peer, for every stream
/// it sends: the agent's stdin, or one rank's stdout/stderr at the shadow.
#[derive(Default)]
pub(crate) struct StreamReceiver {
    /// The streams this end receives; data on any other is not its own.
    incoming: &'static [StreamKind],
    /// Per stream, in `StreamKind` order: the highest sequence taken.
    received: [u64; 3],
    eof: [bool; 3],
    exited: bool,
}

impl StreamReceiver {
    pub(crate) fn new(incoming: &'static [StreamKind]) -> Self {
        StreamReceiver {
            incoming,
            ..Self::default()
        }
    }

    /// Passes on a frame from the peer only if it is new: data past the
    /// watermark (each data frame is acked on `conn`), `Eof` and `Exit` once.
    pub(crate) fn take(&mut self, frame: Frame, conn: Option<&Sender<Frame>>) -> Option<Frame> {
        match frame {
            Frame::Data { stream, seq, .. } if self.incoming.contains(&stream) => {
                let received = &mut self.received[stream as usize];
                let fresh = seq > *received;
                *received = (*received).max(seq);
                if let Some(conn) = conn {
                    let _ = conn.send(Frame::Ack { stream, seq });
                }
                fresh.then_some(frame)
            }
            Frame::Eof { stream } if self.incoming.contains(&stream) => {
                let seen = std::mem::replace(&mut self.eof[stream as usize], true);
                (!seen).then_some(frame)
            }
            Frame::Exit { .. } => (!std::mem::replace(&mut self.exited, true)).then_some(frame),
            _ => None,
        }
    }

    /// Where the peer resumes after a (re)connection: everything taken.
    pub(crate) fn resume(&self) -> ResumePoint {
        let [stdin_received, stdout_received, stderr_received] = self.received;
        ResumePoint {
            stdin_received,
            stdout_received,
            stderr_received,
        }
    }
}

fn transmit(conn: &Sender<Frame>, stream: StreamKind, seq: u64, data: Vec<u8>) {
    let _ = conn.send(Frame::Data {
        stream,
        seq,
        payload: data,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use proptest::prelude::*;
    use std::sync::mpsc::{channel, Receiver};

    const OUT: StreamKind = StreamKind::Stdout;

    fn fast() -> StreamSender {
        StreamSender::open(OUT, &Mode::Fast, "fast", None).unwrap()
    }

    fn reliable(dir: &TempDir) -> StreamSender {
        let mode = Mode::Reliable {
            spool_dir: dir.path().to_path_buf(),
        };
        StreamSender::open(OUT, &mode, "out", None).unwrap()
    }

    fn data(seq: u64, payload: &[u8]) -> Frame {
        Frame::Data {
            stream: OUT,
            seq,
            payload: payload.to_vec(),
        }
    }

    /// Everything queued on `rx` so far.
    fn frames(rx: &Receiver<Frame>) -> Vec<Frame> {
        std::iter::from_fn(|| rx.try_recv().ok()).collect()
    }

    #[test]
    fn fast_mode_delivers_the_preconnection_backlog_on_first_connect() {
        let mut s = fast();
        s.send(b"a".to_vec()).unwrap();
        s.send(b"b".to_vec()).unwrap();
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        s.send(b"c".to_vec()).unwrap();
        assert_eq!(frames(&rx), [data(1, b"a"), data(2, b"b"), data(3, b"c")]);
        assert!(!s.lost_data());
        assert_eq!(s.bytes(), 3);
    }

    #[test]
    fn fast_mode_loses_and_flags_what_a_dead_connection_held() {
        let mut s = fast();
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        s.send(b"acked".to_vec()).unwrap();
        s.ack(1).unwrap();
        s.send(b"in flight".to_vec()).unwrap();
        drop(frames(&rx));
        s.disconnected();
        assert!(
            s.lost_data(),
            "unacknowledged data died with the connection"
        );
        assert!(s.is_settled(), "lost data is written off, not awaited");
        s.send(b"no connection".to_vec()).unwrap();
        let (tx, rx) = channel();
        s.connected(1, &tx).unwrap();
        assert!(frames(&rx).is_empty(), "fast mode resends nothing");
        s.send(b"fresh".to_vec()).unwrap();
        assert_eq!(frames(&rx), [data(4, b"fresh")]);
    }

    #[test]
    fn reliable_mode_replays_what_lies_after_the_resume_point() {
        let dir = TempDir::new("cg-spool-test", "sender-replay");
        let mut s = reliable(&dir);
        for payload in [b"1", b"2", b"3"] {
            s.send(payload.to_vec()).unwrap();
        }
        let (tx, rx) = channel();
        s.connected(1, &tx).unwrap();
        assert_eq!(frames(&rx), [data(2, b"2"), data(3, b"3")]);
        s.send(b"4".to_vec()).unwrap();
        s.disconnected();
        s.send(b"5".to_vec()).unwrap();
        let (tx, rx) = channel();
        s.connected(3, &tx).unwrap();
        assert_eq!(frames(&rx), [data(4, b"4"), data(5, b"5")]);
        assert!(!s.lost_data());
        assert!(!s.is_settled());
    }

    #[test]
    fn an_ack_trims_the_spool() {
        let dir = TempDir::new("cg-spool-test", "sender-ack");
        let mut s = reliable(&dir);
        s.send(b"x".to_vec()).unwrap();
        s.send(b"y".to_vec()).unwrap();
        s.ack(2).unwrap();
        assert!(s.is_settled());
        let spool = dir.path().join("out.spool");
        assert_eq!(std::fs::metadata(&spool).unwrap().len(), 0);
        assert_eq!(Spool::open(&spool).unwrap().acked(), 2);
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        assert!(frames(&rx).is_empty(), "acknowledged data is not replayed");
    }

    #[test]
    fn eof_is_resent_on_reconnect() {
        let dir = TempDir::new("cg-spool-test", "sender-eof");
        let mut s = reliable(&dir);
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        s.send(b"last".to_vec()).unwrap();
        s.close();
        assert_eq!(frames(&rx), [data(1, b"last"), Frame::Eof { stream: OUT }]);
        s.disconnected();
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        assert_eq!(frames(&rx), [data(1, b"last"), Frame::Eof { stream: OUT }]);
    }

    #[test]
    fn a_send_after_close_is_dropped() {
        let mut s = fast();
        s.close();
        s.send(b"late".to_vec()).unwrap();
        let (tx, rx) = channel();
        s.connected(0, &tx).unwrap();
        assert_eq!(frames(&rx), [Frame::Eof { stream: OUT }]);
        assert_eq!(s.bytes(), 0);
    }

    /// The receiving side of the model: keeps each sequence once, in order.
    #[derive(Default)]
    struct Peer {
        received: u64,
        held: Vec<Vec<u8>>,
    }

    impl Peer {
        fn take(&mut self, rx: &Receiver<Frame>) {
            for frame in frames(rx) {
                if let Frame::Data { seq, payload, .. } = frame {
                    if seq > self.received {
                        self.received = seq;
                        self.held.push(payload);
                    }
                }
            }
        }
    }

    /// Runs `ops` against a sender and a model peer, then connects once
    /// more from the peer's resume point. Op codes: 0–3 send, 4 connect
    /// (resume ≤ what the peer holds), 5 deliver what is in flight, 6 peer
    /// ack, 7 disconnect (in-flight frames are lost), 8 close.
    fn drive(mut s: StreamSender, ops: &[(u8, u8)]) -> (StreamSender, Peer, Vec<Vec<u8>>) {
        let mut peer = Peer::default();
        let mut sent = Vec::new();
        let mut conn: Option<Receiver<Frame>> = None;
        let mut closed = false;
        for &(op, arg) in ops {
            match op {
                0..=3 => {
                    let payload = vec![arg; usize::from(op)];
                    s.send(payload.clone()).unwrap();
                    if !closed {
                        sent.push(payload);
                    }
                }
                4 if conn.is_none() => {
                    let (tx, rx) = channel();
                    s.connected(u64::from(arg) % (peer.received + 1), &tx)
                        .unwrap();
                    conn = Some(rx);
                }
                5 => {
                    if let Some(rx) = &conn {
                        peer.take(rx);
                    }
                }
                6 => s.ack(u64::from(arg) % (peer.received + 1)).unwrap(),
                7 if conn.is_some() => {
                    conn = None;
                    s.disconnected();
                }
                8 => {
                    s.close();
                    closed = true;
                }
                _ => {}
            }
        }
        if let Some(rx) = &conn {
            peer.take(rx);
            s.disconnected();
        }
        let (tx, rx) = channel();
        s.connected(peer.received, &tx).unwrap();
        peer.take(&rx);
        (s, peer, sent)
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
        prop::collection::vec((0u8..9, any::<u8>()), 0..40)
    }

    proptest! {
        #[test]
        fn reliable_mode_delivers_every_payload_in_order(ops in ops()) {
            let dir = TempDir::new("cg-spool-test", "sender-model");
            let (_, peer, sent) = drive(reliable(&dir), &ops);
            prop_assert_eq!(peer.held, sent);
        }

        #[test]
        fn fast_mode_flags_every_loss(ops in ops()) {
            let (s, peer, sent) = drive(fast(), &ops);
            if !s.lost_data() {
                prop_assert_eq!(peer.held, sent);
            }
        }
    }
}
