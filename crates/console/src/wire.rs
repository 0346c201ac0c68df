//! Blocking-socket helpers shared by the real agent and shadow.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::frame::{Decoder, Frame, FrameError};

/// Read poll granularity: sockets use short read timeouts so loops can check
/// stop flags without async machinery.
pub const READ_POLL: Duration = Duration::from_millis(100);

/// Writes one frame to the socket.
pub fn write_frame(sock: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    sock.write_all(&frame.encode())
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

/// Monotonic nanoseconds since an arbitrary process-local epoch: the one
/// clock of the real-console transport (flush-policy buffers, spool and
/// shadow trace stamps, the agent's linger, handshake deadlines) and its
/// single wall-clock chokepoint.
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
