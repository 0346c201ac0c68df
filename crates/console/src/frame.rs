//! Wire protocol between Console Agent and Console Shadow.
//!
//! Frames are length-prefixed binary records. The same codec is used by the
//! real TCP transport and by tests; the encoding is fixed (little-endian,
//! explicit magic and version) so captures are debuggable. Fields are
//! written and read with `cg_trace::codec`'s primitives, the ones the
//! journal uses: a string is a `u32 LE` length then its UTF-8 bytes.
//!
//! ```text
//! +-------+---------+------+---------+----------------+
//! | magic | version | type | len u32 | payload (len)  |
//! | 0xC6A7| 0x01    | u8   |         |                |
//! +-------+---------+------+---------+----------------+
//! ```

use cg_trace::codec::{put_str, put_u32, put_u64, put_u8, CodecError, Cursor};

/// Protocol magic (identifies Grid Console traffic).
pub const MAGIC: u16 = 0xC6A7;
/// Protocol version.
pub const VERSION: u8 = 1;
/// Hard cap on payload size — a corrupt length prefix must not allocate GBs.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Which standard stream a data frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamKind {
    /// Standard input (shadow → agent).
    Stdin,
    /// Standard output (agent → shadow).
    Stdout,
    /// Standard error (agent → shadow).
    Stderr,
}

impl StreamKind {
    fn to_byte(self) -> u8 {
        match self {
            StreamKind::Stdin => 0,
            StreamKind::Stdout => 1,
            StreamKind::Stderr => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            0 => StreamKind::Stdin,
            1 => StreamKind::Stdout,
            2 => StreamKind::Stderr,
            other => return Err(FrameError::BadStream(other)),
        })
    }

    /// All three streams.
    pub const ALL: [StreamKind; 3] = [StreamKind::Stdin, StreamKind::Stdout, StreamKind::Stderr];
}

/// Per-stream sequence positions, exchanged at (re)connection so each side
/// can replay exactly the frames the other has not seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumePoint {
    /// Highest stdin seq the agent has received (shadow replays after this).
    pub stdin_received: u64,
    /// Highest stdout seq the shadow has received.
    pub stdout_received: u64,
    /// Highest stderr seq the shadow has received.
    pub stderr_received: u64,
}

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Agent introduces itself: job id, MPI rank, its resume point, and a
    /// random nonce challenging the shadow to prove it knows the secret.
    Hello {
        /// Job identifier the agent belongs to.
        job_id: String,
        /// MPI rank of the subjob (0 for sequential).
        rank: u32,
        /// What the agent has already received (for stdin replay).
        resume: ResumePoint,
        /// Challenge nonce for mutual authentication.
        nonce: [u8; 16],
    },
    /// Shadow's reply: its own challenge nonce plus the keyed digest
    /// answering the agent's challenge.
    Challenge {
        /// Shadow's challenge nonce.
        nonce: [u8; 16],
        /// Digest over the agent's nonce with the shared secret.
        proof: [u8; 16],
    },
    /// Agent's answer to the shadow's challenge.
    AuthResponse {
        /// Digest over the shadow's nonce with the shared secret.
        proof: [u8; 16],
    },
    /// Shadow accepts the session and reports what it has received
    /// (for stdout/stderr replay).
    Welcome {
        /// Shadow-side resume point.
        resume: ResumePoint,
    },
    /// Stream payload.
    Data {
        /// Which stream.
        stream: StreamKind,
        /// Per-stream sequence number, starting at 1.
        seq: u64,
        /// The bytes.
        payload: Vec<u8>,
    },
    /// Receiver acknowledges everything up to `seq` on `stream`.
    Ack {
        /// Which stream.
        stream: StreamKind,
        /// Cumulative acknowledged sequence.
        seq: u64,
    },
    /// No more data will follow on `stream`.
    Eof {
        /// Which stream.
        stream: StreamKind,
    },
    /// The job terminated with this exit code.
    Exit {
        /// Process exit code (or -1 when killed by signal).
        code: i32,
    },
    /// Authentication rejected; the connection closes.
    AuthFailed,
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Bad magic bytes — not Grid Console traffic.
    BadMagic(u16),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadType(u8),
    /// Unknown stream byte.
    BadStream(u8),
    /// Declared length exceeds the 16 MiB payload cap.
    TooLarge(u32),
    /// Payload shorter than its type requires.
    Truncated,
    /// Embedded string is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::BadStream(s) => write!(f, "unknown stream {s}"),
            FrameError::TooLarge(n) => write!(f, "payload length {n} exceeds cap"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    /// A [`Cursor`] fails only on a short buffer or a bad string.
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadUtf8 => FrameError::BadUtf8,
            _ => FrameError::Truncated,
        }
    }
}

/// Magic, version, type and payload length.
const HEADER: usize = 8;

const T_HELLO: u8 = 1;
const T_CHALLENGE: u8 = 2;
const T_AUTH_RESPONSE: u8 = 3;
const T_WELCOME: u8 = 4;
const T_DATA: u8 = 5;
const T_ACK: u8 = 6;
const T_EOF: u8 = 7;
const T_EXIT: u8 = 8;
const T_AUTH_FAILED: u8 = 9;

fn put_resume(out: &mut Vec<u8>, r: &ResumePoint) {
    put_u64(out, r.stdin_received);
    put_u64(out, r.stdout_received);
    put_u64(out, r.stderr_received);
}

fn read_resume(c: &mut Cursor<'_>) -> Result<ResumePoint, CodecError> {
    Ok(ResumePoint {
        stdin_received: c.u64()?,
        stdout_received: c.u64()?,
        stderr_received: c.u64()?,
    })
}

impl Frame {
    /// Encodes the frame, including the header.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = MAGIC.to_le_bytes().to_vec();
        put_u8(&mut out, VERSION);
        // The type and the payload length are set once the payload is written.
        out.resize(HEADER, 0);
        out[3] = match self {
            Frame::Hello {
                job_id,
                rank,
                resume,
                nonce,
            } => {
                put_u32(&mut out, *rank);
                put_resume(&mut out, resume);
                out.extend_from_slice(nonce);
                put_str(&mut out, job_id);
                T_HELLO
            }
            Frame::Challenge { nonce, proof } => {
                out.extend_from_slice(nonce);
                out.extend_from_slice(proof);
                T_CHALLENGE
            }
            Frame::AuthResponse { proof } => {
                out.extend_from_slice(proof);
                T_AUTH_RESPONSE
            }
            Frame::Welcome { resume } => {
                put_resume(&mut out, resume);
                T_WELCOME
            }
            Frame::Data {
                stream,
                seq,
                payload,
            } => {
                put_u8(&mut out, stream.to_byte());
                put_u64(&mut out, *seq);
                out.extend_from_slice(payload);
                T_DATA
            }
            Frame::Ack { stream, seq } => {
                put_u8(&mut out, stream.to_byte());
                put_u64(&mut out, *seq);
                T_ACK
            }
            Frame::Eof { stream } => {
                put_u8(&mut out, stream.to_byte());
                T_EOF
            }
            Frame::Exit { code } => {
                out.extend_from_slice(&code.to_le_bytes());
                T_EXIT
            }
            Frame::AuthFailed => T_AUTH_FAILED,
        };
        let len = (out.len() - HEADER) as u32;
        out[4..HEADER].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decodes one frame's body given its type byte and payload. Bytes
    /// past the fields a type needs are ignored (a `Data` frame's are its
    /// payload).
    fn decode_body(ty: u8, body: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor::new(body);
        Ok(match ty {
            T_HELLO => Frame::Hello {
                rank: c.u32()?,
                resume: read_resume(&mut c)?,
                nonce: c.array()?,
                job_id: c.str()?,
            },
            T_CHALLENGE => Frame::Challenge {
                nonce: c.array()?,
                proof: c.array()?,
            },
            T_AUTH_RESPONSE => Frame::AuthResponse { proof: c.array()? },
            T_WELCOME => Frame::Welcome {
                resume: read_resume(&mut c)?,
            },
            // The stream byte is checked only once `seq` is known to be
            // there: a short frame is `Truncated` whatever its stream byte.
            T_DATA => {
                let (stream, seq) = (c.u8()?, c.u64()?);
                Frame::Data {
                    stream: StreamKind::from_byte(stream)?,
                    seq,
                    payload: c.rest().to_vec(),
                }
            }
            T_ACK => {
                let (stream, seq) = (c.u8()?, c.u64()?);
                Frame::Ack {
                    stream: StreamKind::from_byte(stream)?,
                    seq,
                }
            }
            T_EOF => Frame::Eof {
                stream: StreamKind::from_byte(c.u8()?)?,
            },
            T_EXIT => Frame::Exit { code: c.i32()? },
            T_AUTH_FAILED => Frame::AuthFailed,
            other => return Err(FrameError::BadType(other)),
        })
    }
}

/// Incremental decoder: feed bytes, pull frames.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded; dropped at the next `feed`.
    head: usize,
}

impl Decoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(data);
    }

    /// Pulls the next complete frame, if buffered. `Ok(None)` = need more
    /// bytes. Errors are fatal for the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.head..];
        if pending.len() < HEADER {
            return Ok(None);
        }
        let mut c = Cursor::new(pending);
        let magic = c.u16()?;
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = c.u8()?;
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let ty = c.u8()?;
        let len = c.u32()?;
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        let Some(body) = c.rest().get(..len as usize) else {
            return Ok(None);
        };
        let frame = Frame::decode_body(ty, body);
        self.head += HEADER + body.len();
        frame.map(Some)
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: Frame) {
        let encoded = f.encode();
        let mut d = Decoder::new();
        d.feed(&encoded);
        let got = d.next_frame().unwrap().expect("one frame");
        assert_eq!(got, f);
        assert_eq!(d.buffered(), 0);
        assert!(d.next_frame().unwrap().is_none());
    }

    #[test]
    fn all_frame_types_round_trip() {
        round_trip(Frame::Hello {
            job_id: "job-42/subjob-1".into(),
            rank: 1,
            resume: ResumePoint {
                stdin_received: 7,
                stdout_received: 0,
                stderr_received: 3,
            },
            nonce: [9u8; 16],
        });
        round_trip(Frame::Challenge {
            nonce: [1u8; 16],
            proof: [2u8; 16],
        });
        round_trip(Frame::AuthResponse { proof: [3u8; 16] });
        round_trip(Frame::Welcome {
            resume: ResumePoint::default(),
        });
        round_trip(Frame::Data {
            stream: StreamKind::Stdout,
            seq: 99,
            payload: b"hello world\n".to_vec(),
        });
        round_trip(Frame::Data {
            stream: StreamKind::Stdin,
            seq: 1,
            payload: Vec::new(),
        });
        round_trip(Frame::Ack {
            stream: StreamKind::Stderr,
            seq: u64::MAX,
        });
        round_trip(Frame::Eof {
            stream: StreamKind::Stdout,
        });
        round_trip(Frame::Exit { code: -1 });
        round_trip(Frame::AuthFailed);
    }

    /// The exact bytes of one frame of every type, and that they decode
    /// back: the wire agents and shadows of any build speak to each other.
    #[test]
    fn the_wire_bytes_are_pinned() {
        use std::fmt::Write;
        // Generic over the payload's type, so the pin reads the same
        // whatever buffer type `Frame::Data` holds.
        fn bytes_of<T: From<Vec<u8>>>(b: &[u8]) -> T {
            T::from(b.to_vec())
        }
        let resume = ResumePoint {
            stdin_received: 7,
            stdout_received: 0x0102,
            stderr_received: u64::MAX,
        };
        let cases = [
            (
                Frame::Hello {
                    job_id: "job-42/é".into(),
                    rank: 3,
                    resume,
                    nonce: [0xA5; 16],
                },
                "a7c60101390000000300000007000000000000000201000000000000ffffffffffffffffa5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5090000006a6f622d34322fc3a9",
            ),
            (
                Frame::Challenge {
                    nonce: [1; 16],
                    proof: [2; 16],
                },
                "a7c60102200000000101010101010101010101010101010102020202020202020202020202020202",
            ),
            (Frame::AuthResponse { proof: [0xFE; 16] }, "a7c6010310000000fefefefefefefefefefefefefefefefe"),
            (Frame::Welcome { resume }, "a7c601041800000007000000000000000201000000000000ffffffffffffffff"),
            (
                Frame::Data {
                    stream: StreamKind::Stderr,
                    seq: 0x1234_5678_9ABC,
                    payload: bytes_of(b"out\n"),
                },
                "a7c601050d00000002bc9a7856341200006f75740a",
            ),
            (
                Frame::Ack {
                    stream: StreamKind::Stdout,
                    seq: 42,
                },
                "a7c6010609000000012a00000000000000",
            ),
            (
                Frame::Eof {
                    stream: StreamKind::Stdin,
                },
                "a7c601070100000000",
            ),
            (Frame::Exit { code: -2 }, "a7c6010804000000feffffff"),
            (Frame::AuthFailed, "a7c6010900000000"),
        ];
        for (frame, want) in cases {
            let encoded = frame.encode();
            let hex = encoded.iter().fold(String::new(), |mut hex, b| {
                write!(hex, "{b:02x}").unwrap();
                hex
            });
            assert_eq!(hex, want, "{frame:?}");
            let mut d = Decoder::new();
            d.feed(&encoded);
            assert_eq!(d.next_frame(), Ok(Some(frame)));
        }
    }

    #[test]
    fn decoder_handles_fragmentation() {
        let f = Frame::Data {
            stream: StreamKind::Stdout,
            seq: 5,
            payload: b"fragmented payload".to_vec(),
        };
        let encoded = f.encode();
        let mut d = Decoder::new();
        // Feed one byte at a time.
        for &b in &encoded {
            assert!(d.next_frame().unwrap().is_none());
            d.feed(&[b]);
        }
        assert_eq!(d.next_frame().unwrap(), Some(f));
    }

    #[test]
    fn decoder_handles_coalesced_frames() {
        let a = Frame::Ack {
            stream: StreamKind::Stdout,
            seq: 1,
        };
        let b = Frame::Eof {
            stream: StreamKind::Stderr,
        };
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame().unwrap(), Some(a));
        assert_eq!(d.next_frame().unwrap(), Some(b));
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut d = Decoder::new();
        d.feed(&[0xFF; 16]);
        assert!(matches!(d.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut d = Decoder::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(VERSION);
        bytes.push(T_DATA);
        bytes.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        d.feed(&bytes);
        assert!(matches!(d.next_frame(), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn truncated_bodies_rejected() {
        // A Data frame whose payload is shorter than stream+seq.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(VERSION);
        bytes.push(T_DATA);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::Truncated));
    }

    #[test]
    fn unknown_type_and_stream_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(VERSION);
        bytes.push(200);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::BadType(200)));

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(VERSION);
        bytes.push(T_EOF);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(7);
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::BadStream(7)));
    }

    #[test]
    fn version_mismatch_rejected() {
        let f = Frame::Exit { code: 0 };
        let mut bytes = f.encode();
        bytes[2] = 99;
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::BadVersion(99)));
    }
}
