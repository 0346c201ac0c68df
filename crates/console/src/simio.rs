//! Simulated I/O streaming — the cost model behind Figures 6 and 7.
//!
//! Every method (our fast/reliable modes here; ssh and Glogin in
//! `cg-baselines`) is described by a [`MethodCosts`] record: endpoint CPU
//! costs, internal buffer (chunk) size, per-chunk overheads, and optional
//! disk spooling. The experiment measures the round trip of a coordinated
//! write/read sequence (§6.2) over a [`LinkProfile`].
//!
//! The cost structure is what produces the paper's shapes:
//! - *fast* has tiny endpoint costs and one large chunk → wins on campus;
//! - *reliable* adds spool writes at both ends → slowest at 10 B, but its
//!   large buffers mean one disk op where ssh's small buffers mean several
//!   chunk overheads → crossover at 10 KB;
//! - methods that exchange synchronous per-chunk round trips (Glogin's GSI
//!   token wrapping) collapse at 10 KB on the WAN.

use cg_net::LinkProfile;
use cg_sim::{SimDuration, SimRng};

/// Frame/packet overhead added per chunk on the wire.
const FRAME_OVERHEAD_BYTES: u64 = 64;

/// Cost model of one streaming method.
#[derive(Debug, Clone)]
pub struct MethodCosts {
    /// Method name for reports.
    pub name: String,
    /// Fixed endpoint cost per write or read operation, seconds
    /// (syscall + interposition trap).
    pub fixed_s: f64,
    /// Per-byte endpoint cost, seconds (copying, encryption).
    pub per_byte_s: f64,
    /// Internal buffer size: payloads larger than this are chunked.
    pub chunk_bytes: u64,
    /// Fixed cost per chunk beyond the first (framing, window bookkeeping).
    pub per_chunk_s: f64,
    /// Synchronous round trips paid per chunk beyond the first (protocols
    /// that wait for a token/ack per record). Multiplied by the link's
    /// nominal RTT.
    pub per_chunk_rtts: f64,
    /// Disk spool cost per operation at EACH end, seconds (0 = no spooling).
    pub disk_per_op_s: f64,
    /// Disk spool cost per byte at each end, seconds.
    pub disk_per_byte_s: f64,
    /// Log-normal sigma multiplying the whole one-way delivery time. The
    /// method's forwarding machinery sits on the critical path of the
    /// transfer, so endpoint scheduling stalls dilate the delivery as a
    /// whole; buffered methods smooth those stalls (small sigma) while the
    /// unbuffered fast mode exposes them fully (the paper notes fast mode
    /// "exhibits a higher variance").
    pub jitter_sigma: f64,
}

impl MethodCosts {
    /// Our *fast* streaming mode: interposition agent forwarding directly,
    /// no intermediate buffering (§3).
    pub fn fast() -> Self {
        MethodCosts {
            name: "fast".into(),
            fixed_s: 25e-6,
            per_byte_s: 2e-9,
            chunk_bytes: 64 * 1024,
            per_chunk_s: 15e-6,
            per_chunk_rtts: 0.0,
            disk_per_op_s: 0.0,
            disk_per_byte_s: 0.0,
            jitter_sigma: 0.35,
        }
    }

    /// Our *reliable* streaming mode: fast plus disk spooling at both ends
    /// with 64 KiB buffers (§3, §6.2).
    pub fn reliable() -> Self {
        MethodCosts {
            name: "reliable".into(),
            fixed_s: 30e-6,
            per_byte_s: 3e-9,
            chunk_bytes: 64 * 1024,
            per_chunk_s: 20e-6,
            per_chunk_rtts: 0.0,
            disk_per_op_s: 260e-6, // 2006-era disk: seek-avoiding append
            disk_per_byte_s: 8e-9,
            jitter_sigma: 0.12,
        }
    }

    /// Reliable mode with a custom spool buffer size (the buffer-size
    /// ablation that explains the Figure 6 crossover).
    pub fn reliable_with_buffer(chunk_bytes: u64) -> Self {
        MethodCosts {
            name: format!("reliable-{}B", chunk_bytes),
            chunk_bytes,
            ..Self::reliable()
        }
    }

    /// Chunks needed for a payload.
    pub fn chunks(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.chunk_bytes)
        }
    }

    /// Samples the time for one one-way transfer of `bytes` over `profile`:
    /// sender endpoint work, chunking overheads, spooling at both ends, and
    /// the wire time.
    pub fn one_way(&self, rng: &mut SimRng, profile: &LinkProfile, bytes: u64) -> SimDuration {
        let n = self.chunks(bytes);
        let endpoint = self.fixed_s + bytes as f64 * self.per_byte_s;
        let chunking = (n - 1) as f64
            * (self.per_chunk_s + self.per_chunk_rtts * profile.nominal_rtt().as_secs_f64());
        // Spooling happens at the sender (before transmit) and the receiver
        // (on arrival): one disk op per chunk at each end.
        let disk = 2.0 * (n as f64 * self.disk_per_op_s + bytes as f64 * self.disk_per_byte_s);
        let jitter = if self.jitter_sigma > 0.0 {
            (self.jitter_sigma * rng.std_normal()).exp()
        } else {
            1.0
        };
        let wire = profile.one_way(rng, bytes + n * FRAME_OVERHEAD_BYTES);
        // The jitter dilates the whole delivery, not just the endpoint work:
        // while the forwarding process is descheduled the in-flight transfer
        // stalls with it. This is what keeps fast mode's variance visible
        // even on the WAN, where wire time dwarfs the endpoint costs.
        SimDuration::from_secs_f64((endpoint + chunking + disk + wire.as_secs_f64()) * jitter)
    }

    /// Samples one §6.2 sequence: client writes `bytes`, server reads it and
    /// writes `bytes` back, client reads. Two one-ways plus the read-side
    /// fixed costs.
    pub fn sequence_rtt(&self, rng: &mut SimRng, profile: &LinkProfile, bytes: u64) -> SimDuration {
        let read_cost = SimDuration::from_secs_f64(2.0 * self.fixed_s);
        self.one_way(rng, profile, bytes) + self.one_way(rng, profile, bytes) + read_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rtt(costs: &MethodCosts, profile: &LinkProfile, bytes: u64) -> f64 {
        let mut rng = SimRng::new(1234);
        let n = 2_000;
        (0..n)
            .map(|_| costs.sequence_rtt(&mut rng, profile, bytes).as_secs_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn fast_beats_reliable_at_small_sizes_on_campus() {
        let campus = LinkProfile::campus();
        let fast = mean_rtt(&MethodCosts::fast(), &campus, 10);
        let reliable = mean_rtt(&MethodCosts::reliable(), &campus, 10);
        assert!(
            reliable > 1.5 * fast,
            "reliable ({reliable}) should pay visible disk cost vs fast ({fast})"
        );
    }

    #[test]
    fn chunk_counting() {
        let c = MethodCosts::reliable_with_buffer(4096);
        assert_eq!(c.chunks(0), 1);
        assert_eq!(c.chunks(1), 1);
        assert_eq!(c.chunks(4096), 1);
        assert_eq!(c.chunks(4097), 2);
        assert_eq!(c.chunks(10_240), 3);
    }

    #[test]
    fn small_buffers_mean_more_disk_ops_and_slower_large_transfers() {
        // The paper's explanation of the reliable@10KB result: larger
        // internal buffers → fewer I/O operations.
        let campus = LinkProfile::campus();
        let big = mean_rtt(
            &MethodCosts::reliable_with_buffer(64 * 1024),
            &campus,
            10_240,
        );
        let small = mean_rtt(&MethodCosts::reliable_with_buffer(1024), &campus, 10_240);
        assert!(small > 1.5 * big, "small buffers {small} vs big {big}");
    }

    #[test]
    fn per_chunk_rtts_dominate_on_wan() {
        // A Glogin-shaped method: synchronous token per 1 KiB chunk.
        let mut glogin_like = MethodCosts::fast();
        glogin_like.chunk_bytes = 1024;
        glogin_like.per_chunk_rtts = 0.5;
        let wan = LinkProfile::wan_ifca();
        let with_tokens = mean_rtt(&glogin_like, &wan, 10_240);
        let fast = mean_rtt(&MethodCosts::fast(), &wan, 10_240);
        assert!(
            with_tokens > 2.0 * fast,
            "per-chunk round trips must collapse at 10KB on WAN: {with_tokens} vs {fast}"
        );
    }

    #[test]
    fn fast_mode_has_higher_variance() {
        let campus = LinkProfile::campus();
        let sd = |c: &MethodCosts| {
            let mut rng = SimRng::new(5);
            let xs: Vec<f64> = (0..3_000)
                .map(|_| c.sequence_rtt(&mut rng, &campus, 1024).as_secs_f64())
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let sd = (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
            sd / m // relative
        };
        assert!(
            sd(&MethodCosts::fast()) > sd(&MethodCosts::reliable()),
            "paper: fast mode exhibits higher variance"
        );
    }
}
