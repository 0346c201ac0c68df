//! CPU sharing between the interactive and batch slots — the mechanism
//! behind Figure 8.
//!
//! The agent runs one OS image and splits the machine into two execution
//! slots (§5.2). The interactive job runs at higher priority; the batch job
//! is entitled to `PerformanceLoss`% of the CPU. This module simulates that
//! with a quantum-granularity priority scheduler whose one rule is the
//! [`Credit`] step:
//!
//! - the batch slot accrues *credit* at [`share`]`(eff, PL) = eff × PL/100`
//!   per unit of CPU the interactive job runs (the efficiency factor,
//!   [`SHARE_EFFICIENCY`], models how Unix nice-level priorities
//!   under-deliver a nominal proportional share — exactly why the paper
//!   measures 8% and 22% for PL = 10 and 25);
//! - while the interactive job waits on I/O the batch job runs and its
//!   credit is *charged*, which is why slowdowns land below nominal: part of
//!   the batch share is absorbed by gaps the interactive job wasn't using;
//! - credit that covers a whole quantum is *claimed* as one batch quantum;
//! - an I/O completion finds the batch job mid-quantum half the time, so
//!   I/O ops see an expected residual-quantum delay — the paper's smaller
//!   I/O repercussion.
//!
//! The broker's VMs ([`crate::VmMachine`]) give the batch task the fluid
//! rate `share(eff, max PL)` instead; DESIGN §8 records how the two differ.

use cg_sim::{SampleSet, SimDuration, SimRng};

/// Fraction of the nominal `PL/100` share that priority scheduling
/// delivers to the batch slot, calibrated on Figure 8. Every shared machine
/// uses it: the loop app's scheduler, the broker's agents and the ablations.
pub const SHARE_EFFICIENCY: f64 = 0.92;
const _: () = assert!(SHARE_EFFICIENCY >= 0.5 && SHARE_EFFICIENCY <= 1.0);

/// The batch slot's share of the CPU while an interactive job with
/// `performance_loss` runs beside it.
pub(crate) fn share(eff: f64, performance_loss: u8) -> f64 {
    eff * (f64::from(performance_loss) / 100.0)
}

/// The batch slot's credit under the quantum scheduler: CPU seconds it is
/// owed. Three moves change it and nothing else does: [`Credit::step`]
/// claims a whole quantum or accrues the batch share of an interactive
/// one, [`Credit::charge`] charges an I/O wait.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Credit {
    share: f64,
    quantum: f64,
    owed: f64,
}

impl Credit {
    pub(crate) fn new(share: f64, quantum: f64) -> Self {
        Credit {
            share,
            quantum,
            owed: 0.0,
        }
    }

    /// The next quantum of a CPU burst with `work` seconds left. Credit
    /// that covers a whole quantum claims it for the batch slot (`None`);
    /// otherwise the interactive job runs `Some(run)` seconds of it, and the
    /// batch slot accrues its share of them.
    pub(crate) fn step(&mut self, work: f64) -> Option<f64> {
        if self.owed >= self.quantum {
            self.owed -= self.quantum;
            return None;
        }
        let run = work.min(self.quantum);
        self.owed += self.share * run;
        Some(run)
    }

    /// The batch slot ran `wait` seconds while the interactive job waited
    /// on I/O: entitlement it would otherwise claim during the burst.
    pub(crate) fn charge(&mut self, wait: f64) {
        self.owed -= wait;
    }
}

/// Scheduler parameters (calibration constants, swept by the ablations).
#[derive(Debug, Clone)]
pub struct ShareConfig {
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// Fraction of the nominal `PL/100` share that priority scheduling
    /// actually delivers to the batch slot.
    pub share_efficiency: f64,
    /// Multiplicative overhead of merely running under the agent
    /// (shared-alone mode) — measured "negligible" in the paper.
    pub agent_overhead: f64,
    /// Relative iteration-to-iteration noise of CPU bursts (σ/mean).
    pub cpu_noise: f64,
    /// Relative noise of I/O operations.
    pub io_noise: f64,
}

impl Default for ShareConfig {
    fn default() -> Self {
        ShareConfig {
            quantum: SimDuration::from_millis(5),
            share_efficiency: SHARE_EFFICIENCY,
            agent_overhead: 0.0004,
            cpu_noise: 0.0011, // paper: σ=0.001 s on a 0.921 s burst
            io_noise: 0.0114,  // paper: σ=6.9e-5 s on a 6.06 ms op
        }
    }
}

/// How the interactive application runs on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Alone on an idle machine, no agent (paper's baseline).
    Exclusive,
    /// On the interactive VM with the agent present but no batch job.
    SharedAlone,
    /// Co-resident with a batch job leaving it `performance_loss`% CPU.
    Shared {
        /// The job's `PerformanceLoss` attribute (0–100).
        performance_loss: u8,
    },
}

/// The §6.3 test application: iterates `iterations` times, each iteration an
/// I/O operation followed by a CPU burst.
#[derive(Debug, Clone, Copy)]
pub struct LoopAppSpec {
    /// Number of iterations (paper: 1 000).
    pub iterations: u32,
    /// Nominal CPU burst per iteration (paper: 0.921 s).
    pub cpu_burst: SimDuration,
    /// Nominal I/O operation time per iteration (paper: 6.06 ms).
    pub io_op: SimDuration,
}

impl LoopAppSpec {
    /// The paper's exact §6.3 workload.
    pub fn paper() -> Self {
        LoopAppSpec {
            iterations: 1_000,
            cpu_burst: SimDuration::from_secs_f64(0.921),
            io_op: SimDuration::from_secs_f64(0.00606),
        }
    }
}

/// Per-iteration measurements of a loop-app run.
#[derive(Debug, Clone)]
pub struct LoopAppResult {
    /// Elapsed CPU-burst times, seconds (Figure 8 left).
    pub cpu: SampleSet,
    /// Elapsed I/O times, seconds (Figure 8 right).
    pub io: SampleSet,
    /// CPU time the co-resident batch job received, seconds.
    pub batch_cpu: f64,
    /// Total wall-clock of the run, seconds.
    pub wall: f64,
}

impl LoopAppResult {
    /// Measured CPU slowdown vs a reference mean.
    pub fn cpu_loss_vs(&self, reference_mean: f64) -> f64 {
        self.cpu.mean() / reference_mean - 1.0
    }

    /// Measured I/O slowdown vs a reference mean.
    pub fn io_loss_vs(&self, reference_mean: f64) -> f64 {
        self.io.mean() / reference_mean - 1.0
    }
}

/// Runs the loop application under the quantum scheduler.
pub fn run_loop_app(
    spec: LoopAppSpec,
    mode: RunMode,
    config: &ShareConfig,
    rng: &mut SimRng,
) -> LoopAppResult {
    let q = config.quantum.as_secs_f64();
    let (agent_present, pl) = match mode {
        RunMode::Exclusive => (false, 0),
        RunMode::SharedAlone => (true, 0),
        RunMode::Shared { performance_loss } => (true, performance_loss),
    };
    let eff_share = share(config.share_efficiency, pl);
    let mut credit = Credit::new(eff_share, q);
    let overhead = if agent_present {
        1.0 + config.agent_overhead
    } else {
        1.0
    };

    let mut cpu_samples = SampleSet::new();
    let mut io_samples = SampleSet::new();
    let mut batch_cpu = 0.0f64;
    let mut wall = 0.0f64;

    for _ in 0..spec.iterations {
        // --- I/O phase -----------------------------------------------------
        let io_nominal = spec.io_op.as_secs_f64()
            * (1.0 + config.io_noise * rng.std_normal()).max(0.0)
            * overhead;
        // While the interactive job waits, the batch job soaks up CPU and is
        // charged for it.
        let mut io_elapsed = io_nominal;
        if pl > 0 {
            batch_cpu += io_nominal;
            credit.charge(io_nominal);
            // The I/O completion interrupts a batch quantum in flight; the
            // interactive job waits out the residual half-quantum in
            // expectation, scaled by how often batch actually holds the CPU.
            let residual = eff_share * q / 2.0;
            io_elapsed += residual * (1.0 + 0.3 * rng.std_normal()).max(0.0);
        }
        io_samples.record(io_elapsed);
        wall += io_elapsed;

        // --- CPU burst, quantum by quantum ---------------------------------
        let mut work = spec.cpu_burst.as_secs_f64()
            * (1.0 + config.cpu_noise * rng.std_normal()).max(0.0)
            * overhead;
        let mut elapsed = 0.0f64;
        while work > 1e-12 {
            if let Some(run) = credit.step(work) {
                work -= run;
                elapsed += run;
            } else {
                batch_cpu += q;
                elapsed += q;
            }
        }
        cpu_samples.record(elapsed);
        wall += elapsed;
    }

    LoopAppResult {
        cpu: cpu_samples,
        io: io_samples,
        batch_cpu,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmMachine;
    use cg_sim::Sim;

    fn cfg() -> ShareConfig {
        ShareConfig::default()
    }

    /// Runs reference + target and reports the measured losses — the
    /// Figure 8 summary numbers.
    fn measure_loss(
        spec: LoopAppSpec,
        mode: RunMode,
        config: &ShareConfig,
        seed: u64,
    ) -> (LoopAppResult, f64, f64) {
        let mut rng = SimRng::new(seed);
        let reference = run_loop_app(spec, RunMode::Exclusive, config, &mut rng);
        let mut rng = SimRng::new(seed);
        let target = run_loop_app(spec, mode, config, &mut rng);
        let cpu_loss = target.cpu_loss_vs(reference.cpu.mean());
        let io_loss = target.io_loss_vs(reference.io.mean());
        (target, cpu_loss, io_loss)
    }

    /// Who holds each of `n` quanta of an endless burst with no I/O:
    /// `true` for a batch quantum.
    fn turns(eff: f64, performance_loss: u8, n: usize) -> Vec<bool> {
        let mut credit = Credit::new(share(eff, performance_loss), 0.005);
        (0..n)
            .map(|_| credit.step(f64::INFINITY).is_none())
            .collect()
    }

    #[test]
    fn pl_zero_never_grants_the_batch_slot_a_quantum() {
        for eff in [1.0, SHARE_EFFICIENCY] {
            assert!(turns(eff, 0, 10_000).iter().all(|batch| !batch));
        }
    }

    #[test]
    fn pl_p_grants_the_batch_slot_its_share_of_quanta_within_one() {
        for pl in [1, 10, 25, 30, 50, 75, 90, 100] {
            // After every step, the batch slot has had PL% of the
            // interactive quanta that ran, in whole quanta, give or take the
            // one it claims on the step after its credit covers it.
            let (mut ran, mut batch) = (0u64, 0u64);
            for is_batch in turns(1.0, pl, 20_000) {
                if is_batch {
                    batch += 1;
                } else {
                    ran += 1;
                }
                let owed = ran * u64::from(pl) / 100;
                assert!(batch.abs_diff(owed) <= 1, "PL {pl}: {batch} vs {owed}");
            }
            assert!(batch >= 100, "PL {pl}");
        }
    }

    #[test]
    fn a_batch_quantum_is_never_followed_by_another() {
        for pl in [1, 50, 99, 100] {
            assert!(
                !turns(1.0, pl, 10_000).windows(2).any(|w| w[0] && w[1]),
                "PL {pl}: a batch quantum was followed by another"
            );
        }
    }

    /// The loop app's step and the broker's fluid rate are two readings of
    /// one rule: with no I/O the step gives the batch slot `s/(1+s)` of the
    /// CPU, the fluid rate gives it `s`. Choosing one is a model change;
    /// until then neither may drift.
    #[test]
    fn the_step_and_the_fluid_rate_keep_their_relation() {
        let n = 10_000;
        for pl in 0..=100 {
            let s = share(SHARE_EFFICIENCY, pl);
            let batch = turns(SHARE_EFFICIENCY, pl, n)
                .iter()
                .filter(|b| **b)
                .count();
            let fraction = batch as f64 / n as f64;
            assert!(
                (fraction - s / (1.0 + s)).abs() <= 2.0 / n as f64,
                "PL {pl}: step gives {fraction}, s/(1+s) is {}",
                s / (1.0 + s)
            );

            let mut sim = Sim::new(1);
            let vm = VmMachine::new(SHARE_EFFICIENCY);
            vm.run_batch(&mut sim, SimDuration::from_secs(1_000), |_| {})
                .unwrap();
            vm.run_interactive(&mut sim, SimDuration::from_secs(10), pl, |_| {})
                .unwrap();
            assert_eq!(vm.batch_rate(), Some(s), "PL {pl}");
        }
    }

    #[test]
    fn exclusive_matches_the_papers_reference_numbers() {
        let mut rng = SimRng::new(1);
        let r = run_loop_app(LoopAppSpec::paper(), RunMode::Exclusive, &cfg(), &mut rng);
        assert_eq!(r.cpu.len(), 1_000);
        // Paper: mean CPU 0.921 s (σ 0.001), I/O 6.06 ms (σ 6.9e-5).
        assert!(
            (r.cpu.mean() - 0.921).abs() < 0.001,
            "cpu mean {}",
            r.cpu.mean()
        );
        assert!(
            (r.cpu.std_dev() - 0.001).abs() < 0.0005,
            "cpu sd {}",
            r.cpu.std_dev()
        );
        assert!(
            (r.io.mean() - 0.00606).abs() < 0.0001,
            "io mean {}",
            r.io.mean()
        );
        assert_eq!(r.batch_cpu, 0.0);
    }

    #[test]
    fn shared_alone_is_indistinguishable_from_exclusive() {
        // "The times obtained by the job running in exclusive mode and the
        // job running in shared mode alone are nearly the same. Both curves
        // are indistinguishable." (§6.3)
        let mut rng = SimRng::new(2);
        let excl = run_loop_app(LoopAppSpec::paper(), RunMode::Exclusive, &cfg(), &mut rng);
        let mut rng = SimRng::new(2);
        let alone = run_loop_app(LoopAppSpec::paper(), RunMode::SharedAlone, &cfg(), &mut rng);
        let cpu_gap = (alone.cpu.mean() / excl.cpu.mean() - 1.0).abs();
        let io_gap = (alone.io.mean() / excl.io.mean() - 1.0).abs();
        assert!(cpu_gap < 0.002, "agent CPU overhead visible: {cpu_gap}");
        assert!(io_gap < 0.002, "agent I/O overhead visible: {io_gap}");
    }

    #[test]
    fn pl10_lands_on_the_papers_figure8_numbers() {
        let (r, cpu_loss, io_loss) = measure_loss(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 10,
            },
            &cfg(),
            42,
        );
        // Paper: CPU 1.004 s (+8–9 %), I/O 6.32 ms (+4–5 %).
        assert!(
            (r.cpu.mean() - 1.004).abs() < 0.012,
            "cpu mean {}",
            r.cpu.mean()
        );
        assert!((0.06..0.11).contains(&cpu_loss), "cpu loss {cpu_loss}");
        assert!((0.02..0.07).contains(&io_loss), "io loss {io_loss}");
        assert!(
            cpu_loss < 0.10 + 1e-9,
            "measured loss stays at or below nominal PL"
        );
    }

    #[test]
    fn pl25_lands_on_the_papers_figure8_numbers() {
        let (r, cpu_loss, io_loss) = measure_loss(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 25,
            },
            &cfg(),
            42,
        );
        // Paper: CPU 1.132 s (+22 %), I/O 6.61 ms (+10 %).
        assert!(
            (r.cpu.mean() - 1.132).abs() < 0.02,
            "cpu mean {}",
            r.cpu.mean()
        );
        assert!((0.19..0.25).contains(&cpu_loss), "cpu loss {cpu_loss}");
        assert!((0.07..0.13).contains(&io_loss), "io loss {io_loss}");
    }

    #[test]
    fn batch_receives_close_to_its_entitlement() {
        let mut rng = SimRng::new(3);
        let r = run_loop_app(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 25,
            },
            &cfg(),
            &mut rng,
        );
        let share = r.batch_cpu / r.wall;
        // Entitlement 25% × efficiency 0.92 ≈ 23%; I/O borrowing shifts a
        // little; the delivered share must be near but not above nominal.
        assert!((0.17..=0.25).contains(&share), "batch share {share}");
    }

    #[test]
    fn loss_is_monotone_in_performance_loss() {
        let mut prev = 0.0;
        for pl in [0u8, 5, 10, 15, 25, 50] {
            let (_, cpu_loss, _) = measure_loss(
                LoopAppSpec::paper(),
                RunMode::Shared {
                    performance_loss: pl,
                },
                &cfg(),
                7,
            );
            assert!(
                cpu_loss >= prev - 0.005,
                "loss must grow with PL: pl={pl} loss={cpu_loss} prev={prev}"
            );
            prev = cpu_loss;
        }
    }

    #[test]
    fn io_loss_is_smaller_than_cpu_loss() {
        // "the priority adjustment has a lower repercussion on I/O
        // performance" (§6.3)
        for pl in [10u8, 25, 50] {
            let (_, cpu_loss, io_loss) = measure_loss(
                LoopAppSpec::paper(),
                RunMode::Shared {
                    performance_loss: pl,
                },
                &cfg(),
                11,
            );
            assert!(
                io_loss < cpu_loss,
                "pl={pl}: io {io_loss} vs cpu {cpu_loss}"
            );
        }
    }

    #[test]
    fn pl_zero_shared_equals_shared_alone() {
        let mut rng = SimRng::new(9);
        let zero = run_loop_app(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 0,
            },
            &cfg(),
            &mut rng,
        );
        let mut rng = SimRng::new(9);
        let alone = run_loop_app(LoopAppSpec::paper(), RunMode::SharedAlone, &cfg(), &mut rng);
        assert!((zero.cpu.mean() - alone.cpu.mean()).abs() < 1e-9);
        // PL=0 batch job gets only the I/O gaps it borrowed (never repaid).
        assert_eq!(zero.io.mean(), alone.io.mean());
    }

    #[test]
    fn determinism_under_seed() {
        let (a, la, _) = measure_loss(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 10,
            },
            &cfg(),
            123,
        );
        let (b, lb, _) = measure_loss(
            LoopAppSpec::paper(),
            RunMode::Shared {
                performance_loss: 10,
            },
            &cfg(),
            123,
        );
        assert_eq!(a.cpu.mean(), b.cpu.mean());
        assert_eq!(la, lb);
    }
}
