//! Testbed scenarios: the wiring plans the experiments run on.
//!
//! "The testbed is composed of 18 sites in nine countries. … The hardware
//! type ranges mostly from Pentium III to Pentium Xeon based systems, with
//! RAM memories up to 2GB. Most sites offer storage capacities above 600GB."
//! (§6)

use cg_net::{FaultSchedule, HostId, Link, LinkProfile, Topology};
use cg_sim::SimRng;
use cg_site::{NodeSpec, Policy, Site, SiteConfig};

/// A wired grid: broker, UI, information index host, and sites.
pub struct GridScenario {
    /// The wiring plan.
    pub topology: Topology,
    /// Where CrossBroker runs (the UAB department in the paper).
    pub broker_host: HostId,
    /// The user's submission machine.
    pub ui_host: HostId,
    /// Where the information index lives (Germany in the paper).
    pub mds_host: HostId,
    /// Sites with their topology handles.
    pub sites: Vec<(Site, HostId)>,
}

impl GridScenario {
    /// Link from the broker to site `i`.
    pub fn broker_site_link(&self, i: usize) -> Link {
        self.topology.link(self.broker_host, self.sites[i].1)
    }

    /// Link from the UI machine to site `i` (the console path).
    pub fn ui_site_link(&self, i: usize) -> Link {
        self.topology.link(self.ui_host, self.sites[i].1)
    }

    /// Link from the broker to the information index.
    pub fn mds_link(&self) -> Link {
        self.topology.link(self.broker_host, self.mds_host)
    }

    /// The sites, detached from their host ids.
    pub fn site_list(&self) -> Vec<Site> {
        self.sites.iter().map(|(s, _)| s.clone()).collect()
    }
}

/// The campus scenario (§6, first scenario): submission and execution
/// machines on the university 100 Mbps network; the information index still
/// far away.
pub fn campus_pair(nodes: usize) -> GridScenario {
    let mut topology = Topology::new();
    let broker_host = topology.add_host("crossbroker@uab");
    let ui_host = topology.add_host("ui@uab");
    let mds_host = topology.add_host("mds@fzk");
    let site = Site::new(SiteConfig {
        name: "uab-campus".into(),
        nodes,
        node_spec: NodeSpec::pentium_iii(),
        policy: Policy::Fifo,
        tags: vec!["CROSSGRID".into(), "MPICH-G2".into()],
        ..SiteConfig::default()
    });
    let site_host = topology.add_host("gk@uab-campus");
    topology.connect(broker_host, site_host, LinkProfile::campus());
    topology.connect(ui_host, site_host, LinkProfile::campus());
    topology.connect(broker_host, mds_host, LinkProfile::wan_mds());
    GridScenario {
        topology,
        broker_host,
        ui_host,
        mds_host,
        sites: vec![(site, site_host)],
    }
}

/// The wide-area pair (§6, second scenario): client at the UAB department,
/// execution machine at IFCA (Santander).
pub fn wan_pair(nodes: usize) -> GridScenario {
    let mut topology = Topology::new();
    let broker_host = topology.add_host("crossbroker@uab");
    let ui_host = topology.add_host("ui@uab");
    let mds_host = topology.add_host("mds@fzk");
    let site = Site::new(SiteConfig {
        name: "ifca".into(),
        nodes,
        node_spec: NodeSpec::pentium_xeon(),
        policy: Policy::Fifo,
        tags: vec!["CROSSGRID".into(), "MPICH-G2".into()],
        ..SiteConfig::default()
    });
    let site_host = topology.add_host("gk@ifca");
    topology.connect(broker_host, site_host, LinkProfile::wan_ifca());
    topology.connect(ui_host, site_host, LinkProfile::wan_ifca());
    topology.connect(broker_host, mds_host, LinkProfile::wan_mds());
    GridScenario {
        topology,
        broker_host,
        ui_host,
        mds_host,
        sites: vec![(site, site_host)],
    }
}

/// The full CrossGrid testbed: 18 sites across nine countries, heterogeneous
/// pools, WAN links with per-country latencies. `faults`, when provided,
/// applies outage schedules to a random subset of site links.
pub fn crossgrid_testbed(rng: &mut SimRng, faulty_links: bool) -> GridScenario {
    // (site, country, nodes, xeon?) — pool sizes sum to a realistic ~100 WNs.
    const SITES: [(&str, &str, usize, bool); 18] = [
        ("uab", "es", 8, false),
        ("ifca", "es", 10, true),
        ("usc", "es", 6, false),
        ("lip", "pt", 8, false),
        ("fzk", "de", 16, true),
        ("tum", "de", 4, false),
        ("cyfronet", "pl", 12, true),
        ("icm", "pl", 6, false),
        ("psnc", "pl", 8, false),
        ("ucy", "cy", 2, false),
        ("demo", "gr", 4, false),
        ("auth", "gr", 4, false),
        ("tcd", "ie", 6, true),
        ("csic", "es", 3, false),
        ("ii-sas", "sk", 4, false),
        ("nikhef", "nl", 10, true),
        ("uva", "nl", 4, false),
        ("lnl", "it", 6, false),
    ];
    // One-way latency from the broker (Barcelona), per country, seconds.
    fn country_latency(country: &str) -> f64 {
        match country {
            "es" => 8e-3,
            "pt" => 12e-3,
            "de" => 22e-3,
            "pl" => 28e-3,
            "cy" => 45e-3,
            "gr" => 38e-3,
            "ie" => 26e-3,
            "sk" => 30e-3,
            "nl" => 20e-3,
            "it" => 18e-3,
            _ => 25e-3,
        }
    }

    let mut topology = Topology::new();
    let broker_host = topology.add_host("crossbroker@uab");
    let ui_host = topology.add_host("ui@uab");
    let mds_host = topology.add_host("mds@fzk");
    topology.connect(broker_host, mds_host, LinkProfile::wan_mds());

    let mut sites = Vec::new();
    for &(name, country, nodes, xeon) in &SITES {
        let site = Site::new(SiteConfig {
            name: name.into(),
            nodes,
            node_spec: if xeon {
                NodeSpec::pentium_xeon()
            } else {
                NodeSpec::pentium_iii()
            },
            policy: if rng.chance(0.5) {
                Policy::Fifo
            } else {
                Policy::FifoBackfill
            },
            tags: vec!["CROSSGRID".into(), "MPICH-G2".into()],
            ..SiteConfig::default()
        });
        let host = topology.add_host(format!("gk@{name}"));
        let base = country_latency(country);
        let profile = LinkProfile {
            name: format!("wan-{name}"),
            base_latency_s: base * rng.uniform(0.9, 1.2),
            jitter_s: base * 0.15,
            bandwidth_bps: rng.uniform(10e6, 40e6),
            loss_prob: 2e-4,
            per_msg_overhead_s: 30e-6,
        };
        let faults = if faulty_links && rng.chance(0.25) {
            FaultSchedule::random(
                rng,
                cg_sim::SimDuration::from_secs(4 * 3_600),
                cg_sim::SimDuration::from_secs(120),
                cg_sim::SimTime::from_secs(7 * 86_400),
            )
        } else {
            FaultSchedule::none()
        };
        topology.connect_with_faults(broker_host, host, profile.clone(), faults.clone());
        topology.connect_with_faults(ui_host, host, profile, faults);
        sites.push((site, host));
    }

    GridScenario {
        topology,
        broker_host,
        ui_host,
        mds_host,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_pair_wires_everything() {
        let s = campus_pair(4);
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.broker_site_link(0).profile().name, "campus");
        assert_eq!(s.mds_link().profile().name, "wan-mds");
        assert_eq!(s.sites[0].0.lrms().total_nodes(), 4);
    }

    #[test]
    fn wan_pair_uses_the_ifca_profile() {
        let s = wan_pair(8);
        assert_eq!(s.broker_site_link(0).profile().name, "wan-ifca");
        assert_eq!(s.sites[0].0.name(), "ifca");
    }

    #[test]
    fn testbed_matches_the_papers_shape() {
        let mut rng = SimRng::new(1);
        let s = crossgrid_testbed(&mut rng, false);
        assert_eq!(s.sites.len(), 18, "18 sites");
        let countries: std::collections::BTreeSet<&str> =
            ["es", "pt", "de", "pl", "cy", "gr", "ie", "sk", "nl", "it"]
                .into_iter()
                .collect();
        assert!(countries.len() >= 9, "nine countries");
        let total_nodes: usize = s.sites.iter().map(|(s, _)| s.lrms().total_nodes()).sum();
        assert!(total_nodes >= 80, "realistic pool: {total_nodes}");
        // Spanish sites are closer than Cypriot ones.
        let es = s.broker_site_link(0).profile().base_latency_s;
        let cy_index = 9; // ucy
        let cy = s.broker_site_link(cy_index).profile().base_latency_s;
        assert!(cy > 2.0 * es, "cy {cy} vs es {es}");
    }

    #[test]
    fn testbed_is_deterministic_per_seed() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let sa = crossgrid_testbed(&mut a, true);
        let sb = crossgrid_testbed(&mut b, true);
        for i in 0..18 {
            assert_eq!(
                sa.broker_site_link(i).profile().base_latency_s,
                sb.broker_site_link(i).profile().base_latency_s
            );
        }
    }

    #[test]
    fn faulty_testbed_has_some_outages() {
        let mut rng = SimRng::new(3);
        let s = crossgrid_testbed(&mut rng, true);
        let mut down_links = 0;
        for i in 0..18 {
            let link = s.broker_site_link(i);
            // Probe a week of time for downness.
            let mut found = false;
            for hour in 0..(7 * 24) {
                if link.is_down(cg_sim::SimTime::from_secs(hour * 3_600)) {
                    found = true;
                    break;
                }
            }
            if found {
                down_links += 1;
            }
        }
        assert!(down_links >= 1, "expected at least one faulty link");
    }
}
