//! Named hosts and the links between them — the wiring plan of a scenario.
//!
//! The testbed scenarios (campus, 18-site CrossGrid) are built as a
//! [`Topology`]: a symmetric map from host pairs to [`Link`]s. Lookups are
//! order-insensitive; a missing pair is a configuration bug surfaced by
//! [`Topology::link`].

use std::collections::HashMap;
use std::fmt;

use crate::fault::FaultSchedule;
use crate::link::Link;
use crate::profile::LinkProfile;

/// Identifies a host in a scenario (UI machine, broker, gatekeepers, worker
/// nodes, the MDS index…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A set of hosts and the links wiring them together.
#[derive(Default)]
pub struct Topology {
    names: HashMap<HostId, String>,
    links: HashMap<(HostId, HostId), Link>,
    next_id: u32,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Registers a host and returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        let id = HostId(self.next_id);
        self.next_id += 1;
        self.names.insert(id, name.into());
        id
    }

    /// The host's registered name.
    pub fn host_name(&self, id: HostId) -> &str {
        self.names
            .get(&id)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Wires two hosts with a fresh fault-free link of the given profile.
    pub fn connect(&mut self, a: HostId, b: HostId, profile: LinkProfile) -> Link {
        self.connect_with_faults(a, b, profile, FaultSchedule::none())
    }

    /// Wires two hosts with a fault schedule.
    pub fn connect_with_faults(
        &mut self,
        a: HostId,
        b: HostId,
        profile: LinkProfile,
        faults: FaultSchedule,
    ) -> Link {
        assert_ne!(a, b, "cannot link a host to itself");
        let link = Link::with_faults(profile, faults);
        self.links.insert(Self::key(a, b), link.clone());
        link
    }

    /// The link between two hosts, if wired.
    pub fn try_link(&self, a: HostId, b: HostId) -> Option<Link> {
        self.links.get(&Self::key(a, b)).cloned()
    }

    /// The link between two hosts.
    ///
    /// # Panics
    /// Panics when the pair is not wired — scenarios must wire every path they
    /// use, and silently inventing a link would hide scenario bugs.
    pub fn link(&self, a: HostId, b: HostId) -> Link {
        self.try_link(a, b).unwrap_or_else(|| {
            panic!(
                "no link between {} and {}",
                self.host_name(a),
                self.host_name(b)
            )
        })
    }

    fn key(a: HostId, b: HostId) -> (HostId, HostId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_symmetric() {
        let mut topo = Topology::new();
        let ui = topo.add_host("ui");
        let wn = topo.add_host("wn");
        topo.connect(ui, wn, LinkProfile::campus());
        assert!(topo.try_link(ui, wn).is_some());
        assert!(topo.try_link(wn, ui).is_some());
        // Both directions resolve to the same shared link state.
        let l1 = topo.link(ui, wn);
        let l2 = topo.link(wn, ui);
        assert_eq!(l1.profile().name, l2.profile().name);
    }

    #[test]
    fn missing_link_is_none() {
        let mut topo = Topology::new();
        let a = topo.add_host("a");
        let b = topo.add_host("b");
        assert!(topo.try_link(a, b).is_none());
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn link_panics_on_missing_pair() {
        let mut topo = Topology::new();
        let a = topo.add_host("a");
        let b = topo.add_host("b");
        topo.link(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot link a host to itself")]
    fn self_link_rejected() {
        let mut topo = Topology::new();
        let a = topo.add_host("a");
        topo.connect(a, a, LinkProfile::campus());
    }

    #[test]
    fn names_and_counts() {
        let mut topo = Topology::new();
        let a = topo.add_host("broker");
        let b = topo.add_host("site-1");
        let c = topo.add_host("site-2");
        topo.connect(a, b, LinkProfile::campus());
        topo.connect(a, c, LinkProfile::wan_ifca());
        assert_eq!(topo.host_name(a), "broker");
        assert_eq!(topo.host_name(HostId(99)), "<unknown>");
    }
}
