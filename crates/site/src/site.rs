//! A grid site: gatekeeper + LRMS + worker nodes + the GRIS view of itself.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::{Ad, Value};
use cg_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendError, BackendHandle, BackendKind, BackendSpec};
use crate::gatekeeper::{Gatekeeper, GramCosts};
use crate::lrms::{Policy, DEFAULT_DISPOSITION_RETENTION};
use crate::wn::NodeSpec;

/// Configuration for building a [`Site`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteConfig {
    /// Site name (e.g. `"uab"`, `"ifca"`).
    pub name: String,
    /// Worker-node count.
    pub nodes: usize,
    /// Hardware of the nodes (homogeneous per site, like the testbed pools).
    pub node_spec: NodeSpec,
    /// Local scheduler policy.
    pub policy: Policy,
    /// LRMS dispatch latency.
    pub dispatch_latency: SimDuration,
    /// Middleware costs at the gatekeeper.
    pub gram: GramCosts,
    /// Arbitrary capability tags advertised to MDS (runtime environments).
    pub tags: Vec<String>,
    /// Storage capacity advertised, GB ("most sites offer storage capacities
    /// above 600GB", §6).
    pub storage_gb: u32,
    /// Which execution backend runs this site's jobs — the one place an
    /// executor is chosen.
    pub backend: BackendSpec,
    /// Cap on retained terminal dispositions (status-poll record).
    pub disposition_retention: usize,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            name: "site".into(),
            nodes: 4,
            node_spec: NodeSpec::pentium_iii(),
            policy: Policy::Fifo,
            dispatch_latency: SimDuration::from_millis(1_500),
            gram: GramCosts::globus24(),
            tags: vec!["CROSSGRID".into()],
            storage_gb: 600,
            backend: BackendSpec::Sim,
            disposition_retention: DEFAULT_DISPOSITION_RETENTION,
        }
    }
}

/// The only inputs of the machine ad that change after construction:
/// `(free_nodes, queue_depth, accepts_queued_jobs)` of the backend.
type AdKey = (usize, usize, bool);

/// What every clone of a [`Site`] shares besides the backend: the immutable
/// configuration and the memoized machine ad built from it.
struct Shared {
    config: SiteConfig,
    /// The last ad built and the dynamic inputs it was built from. Keyed by
    /// value, so nothing has to invalidate it: a read whose inputs differ
    /// rebuilds, every other read hands out the same allocation.
    ad: RefCell<Option<(AdKey, Arc<Ad>)>>,
}

/// A grid site handle. Clones share the underlying backend/gatekeeper.
#[derive(Clone)]
pub struct Site {
    shared: Rc<Shared>,
    backend: BackendHandle,
    gatekeeper: Gatekeeper,
}

impl Site {
    /// Builds the site's components from configuration.
    ///
    /// # Panics
    /// Panics when the configured backend is structurally invalid (zero
    /// nodes, empty program); use [`Site::try_new`] for a typed error.
    pub fn new(config: SiteConfig) -> Self {
        Site::try_new(config).expect("invalid site backend configuration")
    }

    /// Builds the site's components from configuration.
    ///
    /// # Errors
    /// Returns the backend's construction error when `config.backend` (or
    /// `config.nodes`) is structurally invalid.
    pub fn try_new(config: SiteConfig) -> Result<Self, BackendError> {
        let backend = config.backend.build(
            config.policy,
            config.nodes,
            config.dispatch_latency,
            config.disposition_retention,
        )?;
        let gatekeeper = Gatekeeper::new(backend.clone(), config.gram.clone());
        Ok(Site {
            shared: Rc::new(Shared {
                config,
                ad: RefCell::new(None),
            }),
            backend,
            gatekeeper,
        })
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.shared.config.name
    }

    /// The site's configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.shared.config
    }

    /// The local scheduler: the [`crate::Lrms`] core behind the executor
    /// [`SiteConfig::backend`] chose.
    pub fn lrms(&self) -> &BackendHandle {
        &self.backend
    }

    /// Which kind of executor runs this site's jobs.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The GRAM front door.
    pub fn gatekeeper(&self) -> &Gatekeeper {
        &self.gatekeeper
    }

    /// The machine ad this site's GRIS publishes *right now* (live values;
    /// the index staleness is applied by [`crate::InformationIndex`]), as
    /// the shared immutable value every consumer holds: the MDS snapshot,
    /// the broker's live sweep and selection all carry this one `Arc`. It
    /// is rebuilt only when a dynamic input differs from the one the
    /// memoized ad was built from, so two reads with no state change in
    /// between return the same allocation.
    pub fn machine_ad_arc(&self) -> Arc<Ad> {
        let key: AdKey = self.backend.ad_state();
        let mut memo = self.shared.ad.borrow_mut();
        match &*memo {
            Some((k, ad)) if *k == key => Arc::clone(ad),
            _ => {
                let ad = Arc::new(self.build_ad(key));
                *memo = Some((key, Arc::clone(&ad)));
                ad
            }
        }
    }

    /// An owned copy of [`Site::machine_ad_arc`].
    pub fn machine_ad(&self) -> Ad {
        (*self.machine_ad_arc()).clone()
    }

    fn build_ad(&self, (free, queued, accepts): AdKey) -> Ad {
        let config = &self.shared.config;
        // In name order, which an `Ad` appends without searching or shifting
        // — this runs at every state change of every site.
        let mut ad = Ad::with_capacity(11);
        ad.set_bool("AcceptsQueued", accepts)
            .set_str("Arch", config.node_spec.arch.clone())
            .set_int("FreeCpus", free as i64)
            .set_int("MemoryMb", config.node_spec.memory_mb as i64)
            .set_str("OpSys", config.node_spec.op_sys.clone())
            .set_int("QueueDepth", queued as i64)
            .set_str("Site", config.name.clone())
            .set_double("SpeedFactor", config.node_spec.speed_factor)
            .set_int("StorageGb", config.storage_gb as i64)
            .set(
                "Tags",
                Value::List(config.tags.iter().map(|t| Value::Str(t.clone())).collect()),
            )
            .set_int("TotalCpus", config.nodes as i64);
        ad
    }
}

/// The attribute schema of the machine ads published by [`Site::machine_ad`],
/// derived from a live ad so it can never drift from what sites actually
/// advertise. The broker's JDL analyzer checks `other.*` references in
/// `Requirements`/`Rank` against this vocabulary.
pub fn machine_schema() -> cg_jdl::analyze::Schema {
    cg_jdl::analyze::Schema::infer_from_ad(&Site::new(SiteConfig::default()).machine_ad_arc())
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site")
            .field("name", &self.shared.config.name)
            .field("nodes", &self.shared.config.nodes)
            .field("free", &self.backend.free_nodes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::LocalJobSpec;
    use cg_sim::Sim;

    #[test]
    fn machine_schema_matches_analyzer_vocabulary() {
        // The analyzer ships a hand-written copy of this vocabulary so
        // cg-jdl does not depend on cg-site; this pins the two together.
        assert_eq!(machine_schema(), cg_jdl::analyze::Schema::machine());
    }

    #[test]
    fn machine_ad_reflects_live_state() {
        let mut sim = Sim::new(1);
        let site = Site::new(SiteConfig {
            name: "uab".into(),
            nodes: 3,
            tags: vec!["CROSSGRID".into(), "MPICH-G2".into()],
            ..SiteConfig::default()
        });
        let ad = site.machine_ad();
        assert_eq!(ad.get("FreeCpus").unwrap().as_i64(), Some(3));
        assert_eq!(ad.get("Site").unwrap().as_str(), Some("uab"));
        assert_eq!(ad.get("Tags").unwrap().as_list().unwrap().len(), 2);

        site.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(100)),
            |_, _, _| {},
        );
        sim.run_until(cg_sim::SimTime::from_secs(10));
        assert_eq!(site.machine_ad().get("FreeCpus").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn matchmaking_against_the_ad_works() {
        let site = Site::new(SiteConfig {
            name: "ifca".into(),
            nodes: 8,
            ..SiteConfig::default()
        });
        let job = cg_jdl::JobDescription::parse(
            r#"
            Executable = "app";
            JobType = {"interactive", "mpich-p4"};
            NodeNumber = 4;
            Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
        "#,
        )
        .unwrap();
        let machine = site.machine_ad();
        let ctx = cg_jdl::Ctx {
            own: &job.ad,
            other: &machine,
        };
        assert!(job.requirements().unwrap().eval_requirement(ctx).unwrap());
    }

    #[test]
    fn default_config_is_sane() {
        let c = SiteConfig::default();
        assert!(c.nodes > 0);
        assert!(c.storage_gb >= 600);
    }
}
