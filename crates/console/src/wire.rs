//! Blocking-socket helpers shared by the real agent and shadow, and the one
//! loop that drives either end's step machine on the real clock.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::frame::{Decoder, Frame, FrameError};

/// Read poll granularity: sockets use short read timeouts so loops can check
/// stop flags without async machinery.
pub const READ_POLL: Duration = Duration::from_millis(100);

/// Writes one frame to the socket.
pub fn write_frame(sock: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    sock.write_all(&frame.encode())
}

/// Starts one connection's writer: a thread that writes the frames queued
/// on the returned sender in order and half-closes the socket once the queue
/// closes (every sender dropped). A failed write ends it early.
pub(crate) fn spawn_writer(mut sock: TcpStream) -> (Sender<Frame>, JoinHandle<()>) {
    let (tx, queue) = channel::<Frame>();
    let writer = std::thread::spawn(move || {
        for frame in queue {
            if write_frame(&mut sock, &frame).is_err() {
                return;
            }
        }
        let _ = sock.shutdown(Shutdown::Write);
    });
    (tx, writer)
}

/// A frame reader over a blocking socket with poll-style timeouts.
pub struct FrameReader {
    sock: TcpStream,
    decoder: Decoder,
    buf: [u8; 16 * 1024],
}

/// What one poll of the reader produced.
pub enum ReadEvent {
    /// A complete frame.
    Frame(Frame),
    /// The read timed out; check stop flags and poll again.
    Idle,
    /// The peer closed the connection.
    Closed,
}

impl FrameReader {
    /// Wraps a socket, installing the poll read-timeout.
    pub fn new(sock: TcpStream) -> io::Result<Self> {
        sock.set_read_timeout(Some(READ_POLL))?;
        Ok(FrameReader {
            sock,
            decoder: Decoder::new(),
            buf: [0u8; 16 * 1024],
        })
    }

    /// Polls for the next event. Protocol violations surface as
    /// `io::ErrorKind::InvalidData`.
    pub fn poll(&mut self) -> io::Result<ReadEvent> {
        // Drain already-buffered frames first.
        if let Some(frame) = self.decode_next()? {
            return Ok(ReadEvent::Frame(frame));
        }
        match self.sock.read(&mut self.buf) {
            Ok(0) => Ok(ReadEvent::Closed),
            Ok(n) => {
                self.decoder.feed(&self.buf[..n]);
                match self.decode_next()? {
                    Some(frame) => Ok(ReadEvent::Frame(frame)),
                    None => Ok(ReadEvent::Idle),
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(ReadEvent::Idle)
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks (with an overall deadline) until a full frame arrives — used
    /// during handshakes.
    pub fn next_frame_timeout(&mut self, deadline: Duration) -> io::Result<Frame> {
        let start = mono_ns();
        loop {
            match self.poll()? {
                ReadEvent::Frame(f) => return Ok(f),
                ReadEvent::Closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed during handshake",
                    ))
                }
                ReadEvent::Idle => {
                    if Duration::from_nanos(mono_ns() - start) > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "handshake timed out",
                        ));
                    }
                }
            }
        }
    }

    fn decode_next(&mut self) -> io::Result<Option<Frame>> {
        self.decoder
            .next_frame()
            .map_err(|e: FrameError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// One console end (agent or shadow) as a step machine: its state changes
/// only in [`Machine::handle`], and time enters only as that call's `now`.
pub(crate) trait Machine {
    type Input;
    type Outcome;
    /// Takes `input` (`None`: a deadline passed) at `now`, after firing
    /// every flush timeout due by then; the outcome once the end is done.
    fn handle(&mut self, input: Option<Self::Input>, now: u64)
        -> io::Result<Option<Self::Outcome>>;
    /// When [`Machine::handle`] next has work without an input.
    fn next_deadline(&self) -> Option<u64>;
}

/// Runs `machine` on the calling thread until it is done: each input is
/// handled at its arrival's [`mono_ns`], and each wait for one ends at the
/// machine's next deadline.
pub(crate) fn drive<M: Machine>(mut machine: M, rx: &Receiver<M::Input>) -> io::Result<M::Outcome> {
    loop {
        let wait = machine.next_deadline().map_or(Duration::MAX, |at| {
            Duration::from_nanos(at.saturating_sub(mono_ns()))
        });
        let input = rx.recv_timeout(wait);
        if matches!(input, Err(RecvTimeoutError::Disconnected)) {
            return Err(io::Error::other("console inputs closed"));
        }
        if let Some(outcome) = machine.handle(input.ok(), mono_ns())? {
            return Ok(outcome);
        }
    }
}

/// Monotonic nanoseconds since an arbitrary process-local epoch: the one
/// clock of the real-console transport and its single wall-clock
/// chokepoint. Only the loop that runs the step machines and the handshake
/// deadline read it; machines, buffers and spools take the time as an
/// argument.
pub fn mono_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // cg-lint: allow(wall-clock): real-TCP transport epoch, the console's one clock
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StreamKind;
    use std::net::TcpListener;

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut sock = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut sock,
                &Frame::Ack {
                    stream: StreamKind::Stdout,
                    seq: 42,
                },
            )
            .unwrap();
            write_frame(&mut sock, &Frame::Exit { code: 7 }).unwrap();
        });
        let (sock, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(sock).unwrap();
        let f1 = reader.next_frame_timeout(Duration::from_secs(5)).unwrap();
        let f2 = reader.next_frame_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            f1,
            Frame::Ack {
                stream: StreamKind::Stdout,
                seq: 42
            }
        );
        assert_eq!(f2, Frame::Exit { code: 7 });
        sender.join().unwrap();
    }

    #[test]
    fn closed_peer_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let _sock = TcpStream::connect(addr).unwrap();
            // Dropped immediately.
        });
        let (sock, _) = listener.accept().unwrap();
        t.join().unwrap();
        let mut reader = FrameReader::new(sock).unwrap();
        loop {
            match reader.poll().unwrap() {
                ReadEvent::Closed => break,
                ReadEvent::Idle => {}
                ReadEvent::Frame(f) => panic!("unexpected frame {f:?}"),
            }
        }
    }

    #[test]
    fn handshake_timeout_fires() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep_open = TcpStream::connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(sock).unwrap();
        let err = reader
            .next_frame_timeout(Duration::from_millis(250))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(keep_open);
    }

    #[test]
    fn mono_ns_is_monotone() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
    }
}
