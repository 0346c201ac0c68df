//! Synthetic grids — the 100/300/1000-site topologies the scaling work
//! runs on.
//!
//! The paper's testbed stops at 18 sites; the roadmap's north star is
//! three orders of magnitude more. These generators produce
//! deterministic, seed-driven grids with the heterogeneity that makes
//! scale interesting: regional WAN distances (which become the sites'
//! publication latencies for windowed sweeps), mixed pool sizes from
//! campus clusters to national centres, and per-site LRMS dispatch
//! latencies spanning snappy to sluggish batch systems.

use cg_net::LinkProfile;
use cg_sim::{SimDuration, SimRng};
use cg_site::{NodeSpec, Policy, Site, SiteConfig};

/// A generated grid, in global site order. Region `r` covers the
/// contiguous index range `[r * region_size, (r+1) * region_size)`.
pub struct SyntheticGrid {
    /// The sites, heterogeneous pools and LRMS latencies included.
    pub sites: Vec<Site>,
    /// Sites per region (the last region may be short).
    pub region_size: usize,
    /// Per-site publication latency to the information index, in global
    /// site order — feed this to
    /// [`RefreshWindow::latency`](cg_site::RefreshWindow::latency).
    pub publish_latency: Vec<SimDuration>,
    /// Broker→site WAN profile per site (regional distance plus per-site
    /// spread), for scenarios that wire real links.
    pub link_profiles: Vec<LinkProfile>,
}

impl SyntheticGrid {
    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.sites.len().div_ceil(self.region_size)
    }
}

/// Generates an `n_sites` grid partitioned into regions of
/// `region_size`, fully determined by `rng`'s seed.
///
/// Heterogeneity knobs, all seed-driven:
/// * **Regions** draw a WAN base latency in 5–60 ms; each site spreads
///   ±30% around its region's base. Publication latency is one WAN
///   round trip plus GRIS processing.
/// * **Pools** are 60% campus clusters (2–8 PIII nodes), 30% mid-size
///   (8–24, mixed spec), 10% national centres (24–64 Xeon).
/// * **LRMS dispatch latency** spans 0.5–4 s per site — the paper's
///   1.5 s default is merely the median batch system.
pub fn synthetic_grid(rng: &mut SimRng, n_sites: usize, region_size: usize) -> SyntheticGrid {
    let region_size = region_size.max(1);
    let mut sites = Vec::with_capacity(n_sites);
    let mut publish_latency = Vec::with_capacity(n_sites);
    let mut link_profiles = Vec::with_capacity(n_sites);
    let mut region_base_s = 0.0;
    for i in 0..n_sites {
        let region = i / region_size;
        if i % region_size == 0 {
            region_base_s = rng.uniform(5e-3, 60e-3);
        }
        let (nodes, xeon) = if rng.chance(0.6) {
            (rng.uniform(2.0, 8.0) as usize, false)
        } else if rng.chance(0.75) {
            (rng.uniform(8.0, 24.0) as usize, rng.chance(0.5))
        } else {
            (rng.uniform(24.0, 64.0) as usize, true)
        };
        let site = Site::new(SiteConfig {
            name: format!("r{region:03}s{:03}", i % region_size),
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
            dispatch_latency: SimDuration::from_secs_f64(rng.uniform(0.5, 4.0)),
            tags: vec!["CROSSGRID".into()],
            ..SiteConfig::default()
        });
        let latency_s = region_base_s * rng.uniform(0.7, 1.3);
        publish_latency.push(SimDuration::from_secs_f64(2.0 * latency_s + 0.05));
        link_profiles.push(LinkProfile {
            name: format!("wan-{}", site.name()),
            base_latency_s: latency_s,
            jitter_s: latency_s * 0.15,
            bandwidth_bps: rng.uniform(10e6, 100e6),
            loss_prob: 2e-4,
            per_msg_overhead_s: 30e-6,
        });
        sites.push(site);
    }
    SyntheticGrid {
        sites,
        region_size,
        publish_latency,
        link_profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::{Sim, SimTime};
    use cg_site::{InformationIndex, LocalJobSpec, MembershipConfig, RefreshWindow};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn generates_the_roadmap_scales() {
        let mut rng = SimRng::new(0x51);
        for n in [100, 300, 1000] {
            let grid = synthetic_grid(&mut rng, n, 32);
            assert_eq!(grid.sites.len(), n);
            assert_eq!(grid.publish_latency.len(), n);
            assert_eq!(grid.link_profiles.len(), n);
            assert_eq!(grid.regions(), n.div_ceil(32));
        }
    }

    #[test]
    fn grids_are_deterministic_per_seed() {
        let a = synthetic_grid(&mut SimRng::new(7), 300, 32);
        let b = synthetic_grid(&mut SimRng::new(7), 300, 32);
        for i in 0..300 {
            assert_eq!(a.sites[i].name(), b.sites[i].name());
            assert_eq!(
                a.sites[i].lrms().total_nodes(),
                b.sites[i].lrms().total_nodes()
            );
            assert_eq!(a.publish_latency[i], b.publish_latency[i]);
        }
    }

    #[test]
    fn grids_are_actually_heterogeneous() {
        let grid = synthetic_grid(&mut SimRng::new(11), 300, 32);
        let pools: BTreeSet<usize> = grid.sites.iter().map(|s| s.lrms().total_nodes()).collect();
        assert!(pools.len() > 10, "pool sizes vary: {pools:?}");
        assert!(*pools.iter().next().unwrap() >= 2);
        assert!(*pools.iter().last().unwrap() >= 24, "some national centres");
        let latencies: BTreeSet<u64> = grid.publish_latency.iter().map(|d| d.as_nanos()).collect();
        assert!(latencies.len() > 100, "publish latencies vary");
        // Regions are coherent: within-region latency spread is tighter
        // than the grid-wide spread.
        let r0: Vec<f64> = (0..32)
            .map(|i| grid.publish_latency[i].as_secs_f64())
            .collect();
        let r0_spread = r0.iter().copied().fold(f64::MIN, f64::max)
            - r0.iter().copied().fold(f64::MAX, f64::min);
        let all: Vec<f64> = grid
            .publish_latency
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        let all_spread = all.iter().copied().fold(f64::MIN, f64::max)
            - all.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            r0_spread < all_spread,
            "region spread {r0_spread} vs grid {all_spread}"
        );
    }

    #[test]
    fn localized_churn_changes_exactly_the_churned_sites_at_every_scale() {
        // Eight sites take long local jobs before the first 60 s sweep of a
        // flat windowed index. After the sweep exactly those eight publish
        // a new ad; every other site still shares its boot allocation, so
        // the refresh's work does not grow with the grid.
        const CHURNED: usize = 8;
        const REFRESH: SimDuration = SimDuration::from_secs(60);
        for n in [100, 300, 1000] {
            let seed = 0x611D ^ n as u64;
            let grid = synthetic_grid(&mut SimRng::new(seed), n, 32);
            let mut sim = Sim::new(seed);
            let index = InformationIndex::start_windowed(
                &mut sim,
                grid.sites.clone(),
                REFRESH,
                RefreshWindow {
                    fanout: 8,
                    latency: grid.publish_latency.clone(),
                },
                Vec::new(),
                MembershipConfig::default(),
            );
            let boot = index.snapshot_arc();
            for (g, site) in grid.sites.iter().enumerate().take(CHURNED) {
                let site = site.clone();
                sim.schedule_at(SimTime::from_secs(5 + g as u64), move |sim| {
                    site.lrms().submit(
                        sim,
                        LocalJobSpec::simple(SimDuration::from_secs(100_000)),
                        |_, _, _| {},
                    );
                });
            }
            // The sweep opened at 60 s pulls n sites, eight at a time, in
            // well under 40 s; the next one opens at 120 s.
            sim.run_until(SimTime::ZERO + REFRESH + SimDuration::from_secs(40));
            assert_eq!(index.refreshes(), 1, "{n}: one sweep closed");

            let snap = index.snapshot_arc();
            let changed: Vec<usize> = (0..n)
                .filter(|&i| !Arc::ptr_eq(boot.ad_arc(i), snap.ad_arc(i)))
                .collect();
            assert_eq!(
                changed,
                (0..CHURNED).collect::<Vec<_>>(),
                "{n}: exactly the churned sites publish a new ad"
            );
            for g in 0..CHURNED {
                assert!(snap.free_cpus(g) < boot.free_cpus(g), "{n}: site {g}");
            }
        }
    }
}
