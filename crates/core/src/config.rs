//! Broker configuration: the calibrated constants of the submission paths.

use cg_net::FaultSchedule;
use cg_sim::SimDuration;
use cg_site::MembershipConfig;

use crate::fairshare::FairShareConfig;
use crate::policy::PolicyKind;

/// Costs of starting the Grid Console on a worker node and delivering the
/// first output to the user — the tail of every interactive submission path.
#[derive(Debug, Clone, Copy)]
pub struct ConsoleCosts {
    /// Spawning the Console Agent wrapper and the application on the WN,
    /// seconds.
    pub ca_start_s: f64,
    /// Size of the first output message, bytes.
    pub first_output_bytes: u64,
    /// Reliable mode: extra disk-spool cost on the first output, seconds.
    pub spool_op_s: f64,
    /// Reliable mode: wait between console connection attempts, seconds
    /// ("the number of seconds between each retry are configurable", §4).
    pub retry_interval_s: f64,
    /// Reliable mode: attempts before giving up and failing the job.
    pub max_retries: u32,
}

impl Default for ConsoleCosts {
    fn default() -> Self {
        ConsoleCosts {
            ca_start_s: 1.0,
            first_output_bytes: 256,
            spool_op_s: 0.0005,
            retry_interval_s: 5.0,
            max_retries: 12,
        }
    }
}

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Exclusive temporal access: a matched resource is withheld from other
    /// matches for this long (§3).
    pub lease: SimDuration,
    /// Fair-share engine parameters (Eq. 1).
    pub fairshare: FairShareConfig,
    /// Console startup costs.
    pub console: ConsoleCosts,
    /// On-line scheduling: resubmit interactive jobs that queue instead of
    /// starting (§3).
    pub resubmit_on_queue: bool,
    /// Resubmission attempts before giving up.
    pub max_resubmissions: u32,
    /// Per-site processing time of a live status query during selection,
    /// seconds (with ~20 sites this yields the paper's ≈3 s selection).
    pub live_query_service_s: f64,
    /// How many live site queries the selection step keeps in flight at
    /// once. `1` reproduces the paper's sequential ≈3 s chain; wider
    /// windows overlap the per-site RPCs and shrink selection wall-clock
    /// without changing which ads are collected or their order (results
    /// are always handed to selection sorted by site index).
    pub live_query_fanout: usize,
    /// Per-attempt deadline on a live site query: an RPC that has not
    /// answered after this long counts as failed (the response, if it
    /// ever arrives, is ignored) and feeds the membership failure
    /// detector. Keep this well above worst-case link queueing — sandbox
    /// transfers share the broker↔site path with query responses — or
    /// ordinary congestion reads as site failure.
    pub live_query_timeout: SimDuration,
    /// Retries after the first live-query attempt to a site, per job.
    /// Zero disables retrying; the paper's broker effectively had an
    /// unbounded LDAP patience — bounding it is what lets selection
    /// degrade instead of hanging with a quiet site on the shortlist.
    pub live_query_retries: u32,
    /// Degraded matchmaking: when the information system itself is
    /// unreachable, fall back to the broker's last MDS snapshot — but
    /// only while its age is at most this. Beyond the bound the job
    /// fails as before rather than matching against ancient data.
    pub degraded_max_staleness: SimDuration,
    /// Membership failure-detector thresholds (missed publications and
    /// failed live queries per site).
    pub membership: MembershipConfig,
    /// Outage windows on each site's MDS publication path, in site-list
    /// order; missing entries mean the site always publishes. This is
    /// churn-scenario input, not tuning.
    pub publish_faults: Vec<FaultSchedule>,
    /// MDS index refresh period.
    pub index_refresh: SimDuration,
    /// How many site publications an MDS refresh keeps in flight at
    /// once — the refresh-side counterpart of `live_query_fanout`. `0`
    /// keeps the legacy instantaneous walk (every site sampled at the
    /// tick); any positive value runs each refresh as a windowed sweep
    /// whose duration scales as `ceil(sites / fanout) × publish RTT`,
    /// with late replies amnestied rather than counted as misses.
    pub refresh_fanout: usize,
    /// Per-site GRIS→GIIS publication latency for windowed sweeps, in
    /// site-list order; missing entries publish instantaneously. Ignored
    /// when `refresh_fanout` is `0`.
    pub publish_latency: Vec<SimDuration>,
    /// Site-selection policy for matchmaking. The default reproduces the
    /// paper's free-CPUs rank; a job's own JDL `SelectionPolicy` attribute
    /// overrides it per job when the name is registered.
    pub selection_policy: PolicyKind,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            lease: SimDuration::from_secs(30),
            fairshare: FairShareConfig::default(),
            console: ConsoleCosts::default(),
            resubmit_on_queue: true,
            max_resubmissions: 3,
            live_query_service_s: 0.11,
            live_query_fanout: 1,
            live_query_timeout: SimDuration::from_secs(60),
            live_query_retries: 2,
            degraded_max_staleness: SimDuration::from_secs(900),
            membership: MembershipConfig::default(),
            publish_faults: Vec::new(),
            index_refresh: SimDuration::from_secs(300),
            refresh_fanout: 0,
            publish_latency: Vec::new(),
            selection_policy: PolicyKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BrokerConfig::default();
        assert!(c.lease > SimDuration::ZERO);
        assert!(c.max_resubmissions >= 1);
        assert_eq!(c.selection_policy, PolicyKind::FreeCpusRank);
        assert!(c.live_query_timeout > SimDuration::from_secs_f64(c.live_query_service_s));
        assert!(c.degraded_max_staleness >= c.index_refresh);
        assert!(
            c.membership.suspect_after_missed_refreshes <= c.membership.dead_after_missed_refreshes
        );
        assert!(
            c.membership.suspect_after_failed_queries <= c.membership.dead_after_failed_queries
        );
        assert!(c.publish_faults.is_empty(), "no churn by default");
        assert_eq!(c.refresh_fanout, 0, "legacy instantaneous walk by default");
        assert!(c.publish_latency.is_empty());
    }
}
