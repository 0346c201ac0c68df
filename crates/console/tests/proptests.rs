//! Property tests on the Grid Console's data-integrity invariants.

use cg_console::{Decoder, FlushPolicy, Frame, InputBuffer, OutputBuffer, Spool, StreamKind};
use proptest::prelude::*;

proptest! {
    /// Whatever the write pattern, the concatenation of emitted chunks plus
    /// the still-buffered tail equals the input byte stream exactly — the
    /// buffer may never lose, duplicate, or reorder bytes.
    #[test]
    fn output_buffer_conserves_bytes(
        writes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..50),
        capacity in 1usize..300,
        on_eol in any::<bool>(),
    ) {
        let mut buffer = OutputBuffer::new(FlushPolicy {
            capacity,
            timeout_ns: u64::MAX,
            on_eol,
        });
        let mut emitted: Vec<u8> = Vec::new();
        let mut expected: Vec<u8> = Vec::new();
        for (i, w) in writes.iter().enumerate() {
            expected.extend_from_slice(w);
            for (chunk, _) in buffer.push(w, i as u64) {
                emitted.extend_from_slice(&chunk);
            }
        }
        if let Some((tail, _)) = buffer.flush(0) {
            emitted.extend_from_slice(&tail);
        }
        prop_assert_eq!(emitted, expected);
        prop_assert_eq!(buffer.pending(), 0);
    }

    /// Capacity is a hard bound: no emitted chunk exceeds it (EOL chunks are
    /// bounded too because capacity flushes happen first).
    #[test]
    fn output_buffer_chunks_respect_capacity(
        writes in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..300), 1..30),
        capacity in 1usize..128,
    ) {
        let mut buffer = OutputBuffer::new(FlushPolicy {
            capacity,
            timeout_ns: u64::MAX,
            on_eol: true,
        });
        for w in &writes {
            for (chunk, _) in buffer.push(w, 0) {
                prop_assert!(chunk.len() <= capacity + w.len().min(capacity),
                    "chunk {} vs capacity {capacity}", chunk.len());
            }
        }
    }

    /// Input buffer: lines out = bytes in, split exactly at newlines.
    #[test]
    fn input_buffer_conserves_and_splits(
        typed in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..60), 0..30)
    ) {
        let mut buffer = InputBuffer::new();
        let mut lines_out: Vec<u8> = Vec::new();
        let mut expected: Vec<u8> = Vec::new();
        for t in &typed {
            expected.extend_from_slice(t);
            for line in buffer.push(t) {
                prop_assert!(line.ends_with(b"\n"));
                #[allow(clippy::naive_bytecount)] // no bytecount crate in the offline workspace
                let newlines = line.iter().filter(|&&b| b == b'\n').count();
                prop_assert_eq!(newlines, 1);
                lines_out.extend_from_slice(&line);
            }
        }
        if let Some(tail) = buffer.flush() {
            prop_assert!(!tail.contains(&b'\n'));
            lines_out.extend_from_slice(&tail);
        }
        prop_assert_eq!(lines_out, expected);
    }

    /// Frame codec round-trips arbitrary data frames through arbitrary
    /// fragmentation of the byte stream.
    #[test]
    fn frames_survive_arbitrary_fragmentation(
        frames in prop::collection::vec(
            (0u8..3, any::<u64>(), prop::collection::vec(any::<u8>(), 0..500)),
            1..10
        ),
        cut in 1usize..64,
    ) {
        let originals: Vec<Frame> = frames
            .into_iter()
            .map(|(s, seq, payload)| Frame::Data {
                stream: match s { 0 => StreamKind::Stdin, 1 => StreamKind::Stdout, _ => StreamKind::Stderr },
                seq,
                payload,
            })
            .collect();
        let mut wire = Vec::new();
        for f in &originals {
            wire.extend_from_slice(&f.encode());
        }
        let mut decoder = Decoder::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(cut) {
            decoder.feed(piece);
            while let Some(f) = decoder.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, originals);
    }

    /// The decoder never panics on arbitrary garbage (errors are fine).
    #[test]
    fn decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut d = Decoder::new();
        d.feed(&bytes);
        while let Ok(Some(_)) = d.next_frame() {}
    }

    /// Spool: for any append sequence, cut point, and reopen, the replay
    /// after the cut returns exactly the records with larger sequence
    /// numbers, byte for byte.
    #[test]
    fn spool_replay_is_exact_across_reopen(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..30),
        cut_frac in 0.0f64..1.0,
        reopen in any::<bool>(),
    ) {
        let path = std::env::temp_dir().join(format!(
            "cg-spool-prop-{}-{:x}",
            std::process::id(),
            payloads.len() as u64 ^ (cut_frac.to_bits())
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut spool = Spool::open(&path).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                spool.append((i + 1) as u64, p).unwrap();
            }
            let cut = (cut_frac * payloads.len() as f64) as u64;
            let mut spool = if reopen {
                drop(spool);
                Spool::open(&path).unwrap()
            } else {
                spool
            };
            let got = spool.replay_after(cut).unwrap();
            let expected: Vec<(u64, Vec<u8>)> = payloads
                .iter()
                .enumerate()
                .skip(cut as usize)
                .map(|(i, p)| ((i + 1) as u64, p.clone()))
                .collect();
            prop_assert_eq!(got, expected);
        }
        let _ = std::fs::remove_file(&path);
    }
}
