//! The ssh comparator (§6.2).
//!
//! "We established a regular ssh session between the submission machine and
//! the execution machine and we started the client and server processes
//! manually. … this mechanism is commonly used in local area networks but is
//! not available, in general, in a grid due to restrictions imposed on remote
//! machines."
//!
//! Cost structure that matters for the figures: per-packet encryption
//! (2006-era 3DES/AES-128 on Pentium-class CPUs) and the **small internal
//! channel buffers** of OpenSSH — which is why the paper's reliable mode,
//! with its larger buffers and therefore fewer I/O operations, overtakes ssh
//! at 10 KB payloads despite paying for disk.

use cg_console::MethodCosts;

/// Streaming cost model of an established ssh session.
pub fn ssh_method() -> MethodCosts {
    MethodCosts {
        name: "ssh".into(),
        fixed_s: 90e-6,        // channel write path + syscall
        per_byte_s: 14e-9,     // encryption on a 2006 CPU
        chunk_bytes: 4 * 1024, // OpenSSH channel packet size
        per_chunk_s: 260e-6,   // per-packet MAC + framing + window bookkeeping
        per_chunk_rtts: 0.0,   // windows large enough not to stall at 10 KB
        disk_per_op_s: 0.0,
        disk_per_byte_s: 0.0,
        jitter_sigma: 0.10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_net::LinkProfile;
    use cg_sim::SimRng;

    fn mean_rtt(costs: &MethodCosts, profile: &LinkProfile, bytes: u64) -> f64 {
        let mut rng = SimRng::new(99);
        (0..2000)
            .map(|_| costs.sequence_rtt(&mut rng, profile, bytes).as_secs_f64())
            .sum::<f64>()
            / 2000.0
    }

    #[test]
    fn ssh_chunks_at_4k() {
        let ssh = ssh_method();
        assert_eq!(ssh.chunks(4 * 1024), 1);
        assert_eq!(ssh.chunks(10 * 1024), 3);
    }

    #[test]
    fn reliable_beats_ssh_at_10kb_on_campus() {
        // The paper's §6.2 crossover: "our reliable method performs very well
        // for large data transfers (it is better than ssh in a campus grid)".
        let campus = LinkProfile::campus();
        let ssh = mean_rtt(&ssh_method(), &campus, 10 * 1024);
        let reliable = mean_rtt(&cg_console::MethodCosts::reliable(), &campus, 10 * 1024);
        assert!(
            reliable < ssh,
            "reliable {reliable} must beat ssh {ssh} at 10KB"
        );
    }

    #[test]
    fn ssh_beats_reliable_at_small_sizes() {
        let campus = LinkProfile::campus();
        let ssh = mean_rtt(&ssh_method(), &campus, 10);
        let reliable = mean_rtt(&cg_console::MethodCosts::reliable(), &campus, 10);
        assert!(
            ssh < reliable,
            "ssh {ssh} wins at 10 B vs reliable {reliable}"
        );
    }

    #[test]
    fn fast_beats_ssh_on_campus_at_all_sizes() {
        // "It is the method that exhibits the best transfer times when
        // machines were located in the campus grid."
        let campus = LinkProfile::campus();
        for bytes in [10u64, 100, 1024, 10 * 1024] {
            let ssh = mean_rtt(&ssh_method(), &campus, bytes);
            let fast = mean_rtt(&cg_console::MethodCosts::fast(), &campus, bytes);
            assert!(fast < ssh, "{bytes}B: fast {fast} vs ssh {ssh}");
        }
    }
}
