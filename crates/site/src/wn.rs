//! Worker-node descriptions.
//!
//! The CrossGrid testbed ranged "mostly from Pentium III to Pentium Xeon
//! based systems, with RAM memories up to 2GB" (§6); node presets mirror
//! that mix so matchmaking has real heterogeneity to chew on.

/// Hardware/software description of one worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// CPU architecture string advertised to MDS (e.g. `"i686"`).
    pub arch: String,
    /// Operating system string (e.g. `"LINUX-2.4"`).
    pub op_sys: String,
    /// CPUs on the node.
    pub cpus: u32,
    /// Physical memory, MB.
    pub memory_mb: u32,
    /// Relative CPU speed (1.0 = the paper's reference Pentium III).
    pub speed_factor: f64,
}

impl NodeSpec {
    /// A Pentium III class node — the testbed's slow end and our reference.
    pub fn pentium_iii() -> Self {
        NodeSpec {
            arch: "i686".into(),
            op_sys: "LINUX-2.4".into(),
            cpus: 1,
            memory_mb: 512,
            speed_factor: 1.0,
        }
    }

    /// A Pentium Xeon class node — the testbed's fast end.
    pub fn pentium_xeon() -> Self {
        NodeSpec {
            arch: "i686".into(),
            op_sys: "LINUX-2.4".into(),
            cpus: 2,
            memory_mb: 2048,
            speed_factor: 1.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_testbed_description() {
        let p3 = NodeSpec::pentium_iii();
        let xeon = NodeSpec::pentium_xeon();
        assert_eq!(p3.memory_mb, 512);
        assert_eq!(xeon.memory_mb, 2048, "RAM up to 2 GB");
        assert!(xeon.speed_factor > p3.speed_factor);
    }
}
