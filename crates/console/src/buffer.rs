//! Output and input buffering with the paper's flush triggers.
//!
//! §4: "This flushing is produced in 3 cases: when the output buffer on the
//! user machine is full; when a timeout occurs; when an 'end of line' is
//! found." Input "forwarding is produced when the 'enter' key is hit."
//!
//! The buffers are time-agnostic (callers pass a monotonic nanosecond clock)
//! so the same policy code runs under the real agent threads and under the
//! discrete-event simulation.

use std::sync::Arc;

/// When an output buffer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Emit when this many bytes accumulate.
    pub capacity: usize,
    /// Emit when the oldest buffered byte is this old, nanoseconds.
    pub timeout_ns: u64,
    /// Emit up to the last newline as soon as one is buffered.
    pub on_eol: bool,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        // 64 KiB buffers — "our method uses larger internal buffers" (§6.2) —
        // with a 50 ms interactivity timeout.
        FlushPolicy {
            capacity: 64 * 1024,
            timeout_ns: 50_000_000,
            on_eol: true,
        }
    }
}

/// Why a chunk was emitted (observable for tests and metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The buffer reached capacity.
    Full,
    /// The timeout elapsed.
    Timeout,
    /// A newline was seen.
    Eol,
    /// An explicit flush (shutdown, EOF).
    Explicit,
}

impl FlushReason {
    /// Stable lower-case label (trace/metrics field value).
    pub fn as_str(&self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Timeout => "timeout",
            FlushReason::Eol => "eol",
            FlushReason::Explicit => "explicit",
        }
    }
}

/// Buffers one output stream (stdout or stderr) at either end.
#[derive(Debug)]
pub struct OutputBuffer {
    policy: FlushPolicy,
    buf: Vec<u8>,
    /// Clock reading when the oldest unbuffered byte arrived.
    oldest_ns: Option<u64>,
    emitted_chunks: u64,
    /// Lifecycle event sink and this buffer's stream label.
    trace: Option<(cg_trace::EventLog, Arc<str>)>,
}

impl OutputBuffer {
    /// Creates a buffer with the given policy.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(policy: FlushPolicy) -> Self {
        assert!(policy.capacity > 0, "zero-capacity output buffer");
        OutputBuffer {
            policy,
            buf: Vec::with_capacity(policy.capacity.min(64 * 1024)),
            oldest_ns: None,
            emitted_chunks: 0,
            trace: None,
        }
    }

    /// Routes this buffer's flushes into `log` under the label `stream`.
    pub fn set_trace(&mut self, log: cg_trace::EventLog, stream: impl Into<Arc<str>>) {
        self.trace = Some((log, stream.into()));
    }

    fn trace_flush(&self, reason: FlushReason, bytes: usize, now_ns: u64) {
        if let Some((log, stream)) = &self.trace {
            log.record(
                cg_sim::SimTime::from_nanos(now_ns),
                cg_trace::Event::BufferFlush {
                    stream: Arc::clone(stream),
                    reason: reason.as_str().to_string(),
                    bytes: bytes as u64,
                },
            );
        }
    }

    /// Appends bytes at clock reading `now_ns`; returns chunks that the
    /// policy says must be emitted now, in order.
    pub fn push(&mut self, data: &[u8], now_ns: u64) -> Vec<(Vec<u8>, FlushReason)> {
        if data.is_empty() {
            return Vec::new();
        }
        if self.buf.is_empty() {
            self.oldest_ns = Some(now_ns);
        }
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        // Capacity-triggered chunks first (may produce several for big writes).
        while self.buf.len() >= self.policy.capacity {
            let chunk: Vec<u8> = self.buf.drain(..self.policy.capacity).collect();
            out.push((chunk, FlushReason::Full));
        }
        // EOL: emit up to and including the last newline still buffered.
        if self.policy.on_eol {
            if let Some(pos) = self.buf.iter().rposition(|&b| b == b'\n') {
                let chunk: Vec<u8> = self.buf.drain(..=pos).collect();
                out.push((chunk, FlushReason::Eol));
            }
        }
        if self.buf.is_empty() {
            self.oldest_ns = None;
        } else if !out.is_empty() {
            // Remaining bytes restart the timeout clock.
            self.oldest_ns = Some(now_ns);
        }
        self.emitted_chunks += out.len() as u64;
        for (chunk, reason) in &out {
            self.trace_flush(*reason, chunk.len(), now_ns);
        }
        out
    }

    /// Checks the timeout trigger; returns the buffered bytes when expired.
    pub fn poll_timeout(&mut self, now_ns: u64) -> Option<(Vec<u8>, FlushReason)> {
        let oldest = self.oldest_ns?;
        if now_ns.saturating_sub(oldest) >= self.policy.timeout_ns && !self.buf.is_empty() {
            self.oldest_ns = None;
            self.emitted_chunks += 1;
            self.trace_flush(FlushReason::Timeout, self.buf.len(), now_ns);
            Some((std::mem::take(&mut self.buf), FlushReason::Timeout))
        } else {
            None
        }
    }

    /// The next clock reading at which the timeout could fire, if any bytes
    /// are buffered — lets pump threads sleep precisely.
    pub fn timeout_deadline(&self) -> Option<u64> {
        self.oldest_ns.map(|t| t + self.policy.timeout_ns)
    }

    /// Empties the buffer unconditionally (EOF/shutdown) at clock reading
    /// `now_ns`. The caller supplies the clock — this type never reads one,
    /// so sim-driven harnesses stay deterministic.
    pub fn flush(&mut self, now_ns: u64) -> Option<(Vec<u8>, FlushReason)> {
        if self.buf.is_empty() {
            return None;
        }
        self.oldest_ns = None;
        self.emitted_chunks += 1;
        self.trace_flush(FlushReason::Explicit, self.buf.len(), now_ns);
        Some((std::mem::take(&mut self.buf), FlushReason::Explicit))
    }

    /// Bytes currently held.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Chunks emitted so far (all triggers).
    pub fn emitted_chunks(&self) -> u64 {
        self.emitted_chunks
    }
}

/// Buffers typed input on the user side; a full line is forwarded per Enter.
#[derive(Debug, Default)]
pub struct InputBuffer {
    buf: Vec<u8>,
}

impl InputBuffer {
    /// A fresh input buffer.
    pub fn new() -> Self {
        InputBuffer::default()
    }

    /// Appends typed bytes; returns complete lines (each including its
    /// newline), in order.
    pub fn push(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            out.push(self.buf.drain(..=pos).collect());
        }
        out
    }

    /// Unterminated bytes still buffered (the line being typed).
    pub fn pending(&self) -> &[u8] {
        &self.buf
    }

    /// Emits any incomplete line (console shutdown).
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.buf.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.buf))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(capacity: usize, timeout_ns: u64, on_eol: bool) -> FlushPolicy {
        FlushPolicy {
            capacity,
            timeout_ns,
            on_eol,
        }
    }

    #[test]
    fn eol_triggers_immediate_flush() {
        let mut b = OutputBuffer::new(policy(1024, u64::MAX, true));
        let out = b.push(b"partial", 0);
        assert!(out.is_empty(), "no newline yet");
        let out = b.push(b" line\nrest", 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b"partial line\n");
        assert_eq!(out[0].1, FlushReason::Eol);
        assert_eq!(b.pending(), 4, "\"rest\" stays");
    }

    #[test]
    fn multiple_newlines_flush_to_last() {
        let mut b = OutputBuffer::new(policy(1024, u64::MAX, true));
        let out = b.push(b"a\nb\nc", 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b"a\nb\n");
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn capacity_triggers_chunked_flush() {
        let mut b = OutputBuffer::new(policy(4, u64::MAX, false));
        let out = b.push(b"0123456789", 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, b"0123");
        assert_eq!(out[0].1, FlushReason::Full);
        assert_eq!(out[1].0, b"4567");
        assert_eq!(b.pending(), 2);
    }

    #[test]
    fn timeout_fires_only_after_deadline() {
        let mut b = OutputBuffer::new(policy(1024, 1_000, false));
        b.push(b"xyz", 100);
        assert_eq!(b.timeout_deadline(), Some(1_100));
        assert!(b.poll_timeout(1_000).is_none());
        let (data, reason) = b.poll_timeout(1_100).unwrap();
        assert_eq!(data, b"xyz");
        assert_eq!(reason, FlushReason::Timeout);
        assert_eq!(b.pending(), 0);
        assert!(b.poll_timeout(10_000).is_none(), "nothing left");
    }

    #[test]
    fn eol_flush_restarts_timeout_clock() {
        let mut b = OutputBuffer::new(policy(1024, 1_000, true));
        b.push(b"line\ntail", 0);
        // The tail arrived at t=0 but the flush reset the clock to t=0 (push
        // time); deadline tracks the remainder.
        assert_eq!(b.timeout_deadline(), Some(1_000));
        assert!(b.poll_timeout(999).is_none());
        assert!(b.poll_timeout(1_001).is_some());
    }

    #[test]
    fn explicit_flush_empties() {
        let mut b = OutputBuffer::new(policy(1024, u64::MAX, false));
        assert!(b.flush(0).is_none());
        b.push(b"tail", 0);
        let (data, reason) = b.flush(0).unwrap();
        assert_eq!(data, b"tail");
        assert_eq!(reason, FlushReason::Explicit);
    }

    #[test]
    fn emitted_chunk_accounting() {
        let mut b = OutputBuffer::new(policy(4, u64::MAX, true));
        b.push(b"0123456789\n", 0);
        // 2 full chunks (0123, 4567) + eol chunk (89\n).
        assert_eq!(b.emitted_chunks(), 3);
    }

    #[test]
    fn empty_push_is_noop() {
        let mut b = OutputBuffer::new(FlushPolicy::default());
        assert!(b.push(b"", 0).is_empty());
        assert_eq!(b.pending(), 0);
        assert_eq!(b.timeout_deadline(), None);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        OutputBuffer::new(policy(0, 0, false));
    }

    #[test]
    fn input_buffer_emits_on_enter() {
        let mut b = InputBuffer::new();
        assert!(b.push(b"hel").is_empty());
        assert_eq!(b.pending(), b"hel");
        let lines = b.push(b"lo\nwor");
        assert_eq!(lines, vec![b"hello\n".to_vec()]);
        assert_eq!(b.pending(), b"wor");
        let lines = b.push(b"ld\nsecond\n");
        assert_eq!(lines, vec![b"world\n".to_vec(), b"second\n".to_vec()]);
    }

    #[test]
    fn input_buffer_flush() {
        let mut b = InputBuffer::new();
        assert!(b.flush().is_none());
        b.push(b"unterminated");
        assert_eq!(b.flush().unwrap(), b"unterminated");
        assert!(b.pending().is_empty());
    }
}
