//! The metric names, units, directions and bounds — the one table
//! `BENCHMARK.json`, the reports and the tests all agree with.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// An end-to-end metric: something a user of the broker sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "sim_interactive_resp_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_interactive_resp_p90_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced run, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in report order.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("sim.events_per_op", "count", Lower),
    layer("sim.kernel_ns_per_event", "ns", Lower),
    layer("sim.kernel_share", "ratio", Lower),
    layer("sim.schedule_cancel_ns", "ns", Lower),
    layer("net.rpc_ns_per_call", "ns", Lower),
    layer("net.link_send_ns_per_msg", "ns", Lower),
    layer("net.msgs_per_op", "count", Lower),
    layer("net.share", "ratio", Lower),
    layer("jdl.bytes_per_job", "B", Lower),
    layer("jdl.parse_ns_per_job", "ns", Lower),
    layer("jdl.analyze_ns_per_job", "ns", Lower),
    layer("jdl.share", "ratio", Lower),
    layer("site.machine_ad_ns", "ns", Lower),
    layer("site.machine_ads_per_op", "count", Lower),
    layer("site.snapshot_advance_ns_per_site", "ns", Lower),
    layer("site.snapshot_delta_ns_per_site", "ns", Lower),
    layer("site.mds_refreshes", "count", Lower),
    layer("site.lrms_cycle_ns_per_job", "ns", Lower),
    layer("site.share", "ratio", Lower),
    layer("vm.agents_per_op", "count", Lower),
    layer("vm.agent_cycle_ns", "ns", Lower),
    layer("vm.share_recompute_ns", "ns", Lower),
    layer("vm.share", "ratio", Lower),
    layer("trace.events_per_op", "count", Lower),
    layer("trace.ring_dropped", "count", Lower),
    layer("trace.record_ns_per_event", "ns", Lower),
    layer("trace.record_share", "ratio", Lower),
    layer("trace.encode_ns_per_event", "ns", Lower),
    layer("trace.decode_ns_per_event", "ns", Lower),
    layer("trace.bytes_per_event", "B", Lower),
    layer("trace.journal_append_ns_per_event", "ns", Lower),
    layer("trace.journal_fsyncs_per_op", "count", Lower),
    layer("trace.journal_bytes_per_op", "B", Lower),
    layer("trace.journal_fsync_ms_p50", "ms", Lower),
    layer("trace.journal_share", "ratio", Lower),
    layer("trace.snapshot_encode_ms", "ms", Lower),
    layer("trace.snapshot_decode_ms", "ms", Lower),
    layer("trace.snapshot_append_ms", "ms", Lower),
    layer("trace.open_journal_mb_per_s", "MB/s", Higher),
    layer("trace.replay_apply_ns_per_event", "ns", Lower),
    layer("trace.invariants_ns_per_event", "ns", Lower),
    layer("trace.metrics_inc_ns", "ns", Lower),
    layer("trace.metrics_observe_ns", "ns", Lower),
    layer("core.submit_host_us_p50", "us", Lower),
    layer("core.submit_host_us_p99", "us", Lower),
    layer("core.prepare_ns_per_job", "ns", Lower),
    layer("core.filter_ns_per_site", "ns", Lower),
    layer("core.select_ns_per_job", "ns", Lower),
    layer("core.candidates_per_job", "count", Lower),
    layer("core.match_share", "ratio", Lower),
    layer("core.table_op_ns", "ns", Lower),
    layer("core.fairshare_tick_ns", "ns", Lower),
    layer("core.fairshare_ticks_per_op", "count", Lower),
    layer("core.fairshare_share", "ratio", Lower),
    layer("core.recover_rebuild_ms", "ms", Lower),
    layer("core.recover_drain_ms", "ms", Lower),
    layer("core.recover_share", "ratio", Lower),
    layer("core.glue_share", "ratio", Lower),
    layer("host.alloc_bytes_per_op", "B", Lower),
    layer("host.tracing_overhead_frac", "ratio", Lower),
    layer("host.repeat_spread_frac", "ratio", Lower),
    layer("host.work_s", "s", Lower),
];
