//! A real-thread demonstration of the Performance-Loss mechanism.
//!
//! The simulated scheduler in [`crate::share`] produces Figure 8; this module
//! shows the same mechanism with actual OS threads: a supervisor grants the
//! single "virtual CPU" to the interactive worker by default and hands the
//! batch worker one quantum whenever its accrued `PerformanceLoss` credit
//! covers one — the agent's priority manipulation in miniature. Work only
//! progresses on the thread that holds the turn, which serializes the two
//! workers exactly like the paper's single-CPU worker nodes regardless of how
//! many cores the host has.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TURN_INTERACTIVE: u8 = 0;
const TURN_BATCH: u8 = 1;

/// Result of a real-thread sharing run.
#[derive(Debug, Clone, Copy)]
pub struct RealShareResult {
    /// Wall time the interactive workload took.
    pub interactive_elapsed: Duration,
    /// Quanta granted to the batch worker.
    pub batch_quanta: u64,
    /// Work units the batch worker completed.
    pub batch_units: u64,
}

/// The supervisor's credit rule as a pure step over quanta of the virtual
/// CPU: the agent's priority logic, without threads or a clock.
struct Supervisor {
    quantum: Duration,
    performance_loss: u8,
    /// Batch credit not yet paid out.
    credit: Duration,
    /// Who holds the quantum that is running.
    turn: u8,
}

impl Supervisor {
    fn new(performance_loss: u8, quantum: Duration) -> Self {
        Supervisor {
            quantum,
            performance_loss,
            credit: Duration::ZERO,
            turn: TURN_INTERACTIVE,
        }
    }

    /// The running quantum is over: who holds the next one. An interactive
    /// quantum accrues `PerformanceLoss`% of itself as batch credit, and
    /// credit that covers a whole quantum is paid out as one batch turn; a
    /// batch quantum always hands the CPU back.
    fn step(&mut self) -> u8 {
        self.turn = if self.turn == TURN_INTERACTIVE {
            self.credit += self.quantum * u32::from(self.performance_loss) / 100;
            if self.credit >= self.quantum {
                self.credit -= self.quantum;
                TURN_BATCH
            } else {
                TURN_INTERACTIVE
            }
        } else {
            TURN_INTERACTIVE
        };
        self.turn
    }
}

/// One unit of CPU work (~tens of microseconds). `#[inline(never)]` plus a
/// volatile-ish accumulator keeps the optimizer from deleting it.
#[inline(never)]
fn work_unit(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..8_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        acc ^= acc >> 29;
    }
    acc
}

/// Runs `interactive_units` of work on the interactive worker while a batch
/// worker shares the virtual CPU with the given `performance_loss`.
/// `performance_loss = 0` measures the baseline (the batch worker never gets
/// a turn).
pub fn run_real_share(
    performance_loss: u8,
    interactive_units: u64,
    quantum: Duration,
) -> RealShareResult {
    assert!(performance_loss <= 100);
    let turn = Arc::new(AtomicU8::new(TURN_INTERACTIVE));
    let done = Arc::new(AtomicBool::new(false));

    // Interactive worker: performs its units only while it holds the turn.
    let iv = {
        let turn = Arc::clone(&turn);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // cg-lint: allow(wall-clock): real-thread CPU-share demo measures actual elapsed time
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..interactive_units {
                while turn.load(Ordering::Acquire) != TURN_INTERACTIVE {
                    std::hint::spin_loop();
                }
                acc = acc.wrapping_add(work_unit(i));
            }
            done.store(true, Ordering::Release);
            (start.elapsed(), acc)
        })
    };

    // Batch worker: works only on its turns.
    let batch = {
        let turn = Arc::clone(&turn);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut units = 0u64;
            let mut acc = 0u64;
            while !done.load(Ordering::Acquire) {
                if turn.load(Ordering::Acquire) == TURN_BATCH {
                    acc = acc.wrapping_add(work_unit(units));
                    units += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            (units, acc)
        })
    };

    // Supervisor: the agent's priority logic. Each quantum is slept
    // through, then the credit rule names the next holder.
    let mut supervisor = Supervisor::new(performance_loss, quantum);
    let mut batch_quanta = 0u64;
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(quantum);
        let next = supervisor.step();
        if done.load(Ordering::Acquire) {
            break;
        }
        batch_quanta += u64::from(next == TURN_BATCH);
        turn.store(next, Ordering::Release);
    }
    turn.store(TURN_INTERACTIVE, Ordering::Release);

    let (interactive_elapsed, _) = iv.join().expect("interactive worker");
    let (batch_units, _) = batch.join().expect("batch worker");
    RealShareResult {
        interactive_elapsed,
        batch_quanta,
        batch_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These run real threads with real sleeps; keep them short and the
    // assertions loose — CI machines are noisy. The precise numbers come
    // from the simulated scheduler; this is the mechanism demonstrator.
    // The two that assert on elapsed wall time are opt-in (`-- --ignored`);
    // the baseline is deterministic, since PL 0 never accrues batch credit.

    /// The holders of `n` quanta after the first (interactive) one.
    fn turns(performance_loss: u8, n: usize) -> Vec<u8> {
        let mut supervisor = Supervisor::new(performance_loss, Duration::from_millis(2));
        (0..n).map(|_| supervisor.step()).collect()
    }

    #[test]
    fn pl_zero_never_grants_the_batch_worker_a_quantum() {
        assert!(turns(0, 10_000).iter().all(|t| *t == TURN_INTERACTIVE));
    }

    #[test]
    fn pl_p_grants_the_batch_worker_its_exact_share_of_quanta() {
        for pl in [1, 10, 25, 30, 50, 75, 90, 100] {
            // After every step, the batch worker has had exactly PL% of the
            // interactive quanta that ran, in whole quanta.
            let (mut ran, mut batch, mut previous) = (0u64, 0u64, TURN_INTERACTIVE);
            for next in turns(pl, 20_000) {
                ran += u64::from(previous == TURN_INTERACTIVE);
                batch += u64::from(next == TURN_BATCH);
                assert_eq!(batch, ran * u64::from(pl) / 100, "PL {pl}");
                previous = next;
            }
            assert!(batch >= 100, "PL {pl}");
        }
    }

    #[test]
    fn the_turn_always_returns_to_the_interactive_worker() {
        for pl in [1, 50, 99, 100] {
            let held = turns(pl, 10_000);
            assert!(
                held.windows(2)
                    .all(|w| w[0] == TURN_INTERACTIVE || w[1] == TURN_INTERACTIVE),
                "PL {pl}: a batch quantum was followed by another"
            );
        }
    }

    #[test]
    fn baseline_runs_without_batch_turns() {
        let r = run_real_share(0, 400, Duration::from_millis(2));
        assert_eq!(r.batch_quanta, 0);
        assert!(r.interactive_elapsed > Duration::ZERO);
    }

    #[test]
    #[ignore = "real threads and wall-clock sleeps"]
    fn batch_gets_turns_under_performance_loss() {
        let r = run_real_share(25, 400, Duration::from_millis(2));
        assert!(r.batch_quanta > 0, "batch never ran");
        assert!(r.batch_units > 0, "batch made no progress");
    }

    #[test]
    #[ignore = "real threads and wall-clock sleeps"]
    fn interactive_slows_roughly_by_the_loss() {
        // Median of a few runs to shrug off scheduler noise.
        let measure = |pl: u8| {
            let mut xs: Vec<f64> = (0..3)
                .map(|_| {
                    run_real_share(pl, 600, Duration::from_millis(2))
                        .interactive_elapsed
                        .as_secs_f64()
                })
                .collect();
            xs.sort_by(f64::total_cmp);
            xs[1]
        };
        let base = measure(0);
        let shared = measure(50);
        let slowdown = shared / base;
        // PL=50 nominal slowdown is ~1.5–2.0 depending on accounting; accept
        // a broad band that still distinguishes "shared" from "alone".
        assert!(
            slowdown > 1.15,
            "PL=50 should visibly slow the interactive job: {slowdown}"
        );
        assert!(slowdown < 4.0, "slowdown implausibly large: {slowdown}");
    }
}
