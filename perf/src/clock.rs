//! The host clock — the one place this package reads wall time.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic host nanoseconds since the first call.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    // cg-lint: allow(wall-clock): the benchmark's host clock; sim outcomes never read it
    let start = *START.get_or_init(Instant::now);
    // cg-lint: allow(wall-clock): the benchmark's host clock; sim outcomes never read it
    Instant::now().duration_since(start).as_nanos() as u64
}

/// Runs `f` and returns its result with the host nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = now_ns();
    let r = f();
    (r, now_ns() - t0)
}
