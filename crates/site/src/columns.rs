//! Columnar snapshots of the information index.
//!
//! Matchmaking historically consumed the index as `Vec<(usize, Ad)>` — one
//! owned attribute map per site, cloned per query. An [`AdSnapshot`] is the
//! columnar alternative: beside each site's ad (behind an `Arc`) it carries
//! one typed [`Column`](cg_jdl::Column) per machine-ad attribute — numbers
//! and booleans inline, strings and lists as the slot they occupy in the
//! site's ad, so nothing is copied out of an ad — and the whole snapshot is
//! itself shared as `Arc<AdSnapshot>`: a query is an `Arc` clone, not a
//! table copy. A pass over the snapshot reads cells by site index and never
//! searches an ad by name.
//!
//! Each refresh produces a successor via [`AdSnapshot::apply_delta`] (or
//! [`AdSnapshot::advance`]). A site whose ad is unchanged shares the
//! predecessor's `Arc<Ad>`; a changed site gets a new one. That is the only
//! change signal: a consumer tells which sites changed between two
//! snapshots by comparing their ads with `Arc::ptr_eq`.
//!
//! **Sharing rule.** A successor rewrites the cells of the changed sites
//! only, and a column is copied the first time one of its cells differs;
//! a column no changed site touched — `Arch`, `TotalCpus`, `Tags` on an
//! ordinary refresh — is the predecessor's allocation. A refresh therefore
//! costs per *changed* site, plus one copy of each column that moved.
//!
//! The [`AdSnapshot::free_cpus`] / [`AdSnapshot::accepts_queued`] /
//! [`AdSnapshot::site_name`] views read their columns with exactly the
//! defaults the map-based matchmaking path uses
//! (`get("FreeCpus").and_then(as_i64).unwrap_or(0)`,
//! `get("AcceptsQueued").and_then(as_bool).unwrap_or(true)`,
//! `get("Site").and_then(as_str)`), so columnar filtering is bit-identical
//! to filtering over the raw ads.

use std::sync::Arc;

use cg_jdl::{intern, Ad, Cell, Columns, Symbol};

/// Where the three columns with a typed view sit among the snapshot's
/// columns — found once per snapshot, so the views index instead of search.
#[derive(Debug, Clone, Copy)]
struct Hot {
    site: Option<usize>,
    free_cpus: Option<usize>,
    accepts_queued: Option<usize>,
}

impl Hot {
    fn find(columns: &Columns) -> Hot {
        static NAMES: std::sync::OnceLock<[Symbol; 3]> = std::sync::OnceLock::new();
        let [site, free_cpus, accepts_queued] = NAMES
            .get_or_init(|| [intern("Site"), intern("FreeCpus"), intern("AcceptsQueued")])
            .map(|name| columns.position(name));
        Hot {
            site,
            free_cpus,
            accepts_queued,
        }
    }
}

/// An immutable, column-oriented view of every site's machine ad. Shared
/// as `Arc<AdSnapshot>`; see the module docs for the layout, the sharing
/// rule and the delta contract.
#[derive(Debug, Clone)]
pub struct AdSnapshot {
    ads: Vec<Arc<Ad>>,
    columns: Columns,
    hot: Hot,
}

impl AdSnapshot {
    /// Builds a snapshot from the ads in site-index order.
    #[must_use]
    pub fn build(ads: Vec<Ad>) -> AdSnapshot {
        AdSnapshot::build_shared(ads.into_iter().map(Arc::new).collect())
    }

    /// [`AdSnapshot::build`] over ads that already live behind an `Arc` —
    /// the information index boots from each site's own shared ad, so the
    /// snapshot and the site hold one allocation from the start.
    #[must_use]
    pub fn build_shared(ads: Vec<Arc<Ad>>) -> AdSnapshot {
        let columns = Columns::build(&ads);
        AdSnapshot {
            hot: Hot::find(&columns),
            columns,
            ads,
        }
    }

    /// Site `i` changed to `ad` in this snapshot.
    fn set(&mut self, i: usize, ad: Arc<Ad>) {
        self.columns.replace(i, &self.ads[i], &ad);
        self.hot = Hot::find(&self.columns);
        self.ads[i] = ad;
    }

    /// Produces the successor snapshot from freshly gathered ads. A site
    /// whose ad is unchanged shares the predecessor's `Arc<Ad>`; a changed
    /// site gets a new one. If the site count changed, the successor is a
    /// fresh build.
    ///
    /// The information index publishes through [`AdSnapshot::apply_delta`];
    /// this full-table form is the reference that path is tested against.
    #[must_use]
    pub fn advance(&self, fresh: Vec<Ad>) -> AdSnapshot {
        if fresh.len() != self.ads.len() {
            return AdSnapshot::build(fresh);
        }
        let mut snap = self.clone();
        for (i, ad) in fresh.into_iter().enumerate() {
            if ad != *snap.ads[i] {
                snap.set(i, Arc::new(ad));
            }
        }
        snap
    }

    /// Produces the successor snapshot by applying a sparse delta —
    /// `(site index, fresh ad)` pairs from sites whose publication actually
    /// arrived, everyone else untouched. This is how the index's refresh
    /// sweep publishes: it hands over only the ads that arrived,
    /// so the merge does per-site work proportional to the *changed* sites
    /// (the per-site `Arc` vector is copied, which is a memcpy, and so is
    /// each column a changed cell lands in; no ad is compared and no cell
    /// re-derived unless the site appears in `changes`). A delta entry equal
    /// to the current column keeps its `Arc`, exactly like
    /// [`AdSnapshot::advance`] — and an entry that *is* the current column
    /// (the site's shared ad, unchanged since it was last published) is
    /// recognised by pointer before any attribute is compared.
    /// Out-of-range indices are ignored.
    #[must_use]
    pub fn apply_delta(&self, changes: &[(usize, Arc<Ad>)]) -> AdSnapshot {
        let mut snap = self.clone();
        for (i, ad) in changes {
            if *i >= snap.ads.len() || Arc::ptr_eq(ad, &snap.ads[*i]) || **ad == *snap.ads[*i] {
                continue;
            }
            snap.set(*i, Arc::clone(ad));
        }
        snap
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True when the snapshot covers no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    fn hot_cell(&self, column: Option<usize>, i: usize) -> Cell {
        column.map_or(Cell::Missing, |at| self.columns.at(at).cell(i))
    }

    /// Site `i`'s `FreeCpus` column (missing/non-int ⇒ 0, as in the map
    /// path).
    #[must_use]
    pub fn free_cpus(&self, i: usize) -> i64 {
        match self.hot_cell(self.hot.free_cpus, i) {
            Cell::Int(n) => n,
            _ => 0,
        }
    }

    /// Site `i`'s `AcceptsQueued` column (missing/non-bool ⇒ true, as in
    /// the map path).
    #[must_use]
    pub fn accepts_queued(&self, i: usize) -> bool {
        match self.hot_cell(self.hot.accepts_queued, i) {
            Cell::Bool(b) => b,
            _ => true,
        }
    }

    /// Site `i`'s advertised `Site` name, if it is a string.
    #[must_use]
    pub fn site_name(&self, i: usize) -> Option<&str> {
        match self.hot_cell(self.hot.site, i) {
            Cell::Slot(slot) => self.ads[i].value_at(slot as usize).as_str(),
            _ => None,
        }
    }

    /// Site `i`'s full machine ad.
    #[must_use]
    pub fn ad(&self, i: usize) -> &Ad {
        &self.ads[i]
    }

    /// Site `i`'s full machine ad as a shared handle.
    #[must_use]
    pub fn ad_arc(&self, i: usize) -> &Arc<Ad> {
        &self.ads[i]
    }

    /// Every site's machine ad, in site-index order — what the
    /// [`Cell::Slot`] cells of [`AdSnapshot::columns`] point into.
    #[must_use]
    pub fn ads(&self) -> &[Arc<Ad>] {
        &self.ads
    }

    /// One typed column per machine-ad attribute, for
    /// [`CompiledExpr::bind`](cg_jdl::CompiledExpr::bind).
    #[must_use]
    pub fn columns(&self) -> &Columns {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(site: &str, free: i64) -> Ad {
        let mut a = Ad::new();
        a.set_str("Site", site)
            .set_int("FreeCpus", free)
            .set_bool("AcceptsQueued", true);
        a
    }

    /// Sites whose ad is a different allocation in `next` than in `prev` —
    /// the snapshot's one change signal.
    fn changed(prev: &AdSnapshot, next: &AdSnapshot) -> Vec<usize> {
        (0..next.len())
            .filter(|&i| i >= prev.len() || !Arc::ptr_eq(prev.ad_arc(i), next.ad_arc(i)))
            .collect()
    }

    #[test]
    fn build_extracts_columns_with_map_path_defaults() {
        let mut odd = Ad::new();
        odd.set_str("FreeCpus", "not-a-number"); // wrong type ⇒ 0
        let snap = AdSnapshot::build(vec![ad("uab", 4), odd]);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.free_cpus(0), 4);
        assert_eq!(snap.site_name(0), Some("uab"));
        assert!(snap.accepts_queued(0));
        assert_eq!(snap.free_cpus(1), 0, "non-int FreeCpus defaults to 0");
        assert_eq!(snap.site_name(1), None);
        assert!(
            snap.accepts_queued(1),
            "missing AcceptsQueued defaults true"
        );
    }

    #[test]
    fn advance_shares_clean_sites_and_gives_changed_ones_a_new_arc() {
        let s0 = AdSnapshot::build(vec![ad("uab", 4), ad("ifca", 8)]);
        let s1 = s0.advance(vec![ad("uab", 4), ad("ifca", 7)]);
        assert!(
            Arc::ptr_eq(s0.ad_arc(0), s1.ad_arc(0)),
            "unchanged ad is shared, not re-allocated"
        );
        assert_eq!(changed(&s0, &s1), [1], "only the changed site is new");
        assert_eq!(s1.free_cpus(1), 7);

        // A further no-op refresh shares every ad.
        let s2 = s1.advance(vec![ad("uab", 4), ad("ifca", 7)]);
        assert!(changed(&s1, &s2).is_empty());
    }

    #[test]
    fn advance_with_changed_site_count_marks_everything_dirty() {
        let s0 = AdSnapshot::build(vec![ad("uab", 4)]);
        let s1 = s0.advance(vec![ad("uab", 4), ad("ifca", 8)]);
        assert_eq!(s1.len(), 2);
        assert_eq!(changed(&s0, &s1), [0, 1], "a resize is a fresh build");
    }

    #[test]
    fn apply_delta_touches_only_the_delta_sites() {
        let s0 = AdSnapshot::build(vec![ad("a", 1), ad("b", 2), ad("c", 3)]);
        let s1 = s0.apply_delta(&[(1, Arc::new(ad("b", 9)))]);
        assert_eq!(s1.free_cpus(1), 9);
        assert_eq!(changed(&s0, &s1), [1]);

        // A delta equal to the current column is a no-op for that site:
        // same Arc — mirroring `advance`.
        let s2 = s1.apply_delta(&[(1, Arc::new(ad("b", 9))), (99, Arc::new(ad("x", 1)))]);
        assert!(
            changed(&s1, &s2).is_empty(),
            "unchanged delta keeps the Arc"
        );
    }

    #[test]
    fn a_successor_shares_every_column_no_changed_site_touched() {
        let s0 = AdSnapshot::build(vec![ad("a", 1), ad("b", 2), ad("c", 3)]);
        let shared = |next: &AdSnapshot, name: &str| {
            let column = |s: &AdSnapshot| {
                let (_, column) = s
                    .columns()
                    .iter()
                    .find(|(n, _)| *n == intern(name))
                    .expect("column exists");
                Arc::clone(column)
            };
            Arc::ptr_eq(&column(&s0), &column(next))
        };
        // One site's FreeCpus moves: that column is copied, the others —
        // the renamed site's name included, it stays in its ad — are not.
        let mut renamed = ad("B", 9);
        renamed.set_bool("AcceptsQueued", true);
        for next in [
            s0.apply_delta(&[(1, Arc::new(renamed.clone()))]),
            s0.advance(vec![ad("a", 1), renamed, ad("c", 3)]),
        ] {
            assert!(!shared(&next, "FreeCpus"));
            assert!(shared(&next, "Site"));
            assert!(shared(&next, "AcceptsQueued"));
            assert_eq!(next.site_name(1), Some("B"));
            assert_eq!(next.free_cpus(1), 9);
            assert_eq!(s0.free_cpus(1), 2, "the predecessor is untouched");
        }
        // A refresh that changes nothing copies nothing.
        let same = s0.apply_delta(&[(0, Arc::new(ad("a", 1)))]);
        for name in ["Site", "FreeCpus", "AcceptsQueued"] {
            assert!(shared(&same, name), "{name}");
        }
    }

    #[test]
    fn apply_delta_matches_advance_for_the_same_change() {
        // The sparse delta the index publishes and the full-table advance
        // must produce the same columns for the same change.
        let s0 = AdSnapshot::build(vec![ad("a", 1), ad("b", 2)]);
        let via_advance = s0.advance(vec![ad("a", 1), ad("b", 5)]);
        let via_delta = s0.apply_delta(&[(1, Arc::new(ad("b", 5)))]);
        assert_eq!(changed(&s0, &via_advance), changed(&s0, &via_delta));
        for i in 0..2 {
            assert_eq!(via_advance.free_cpus(i), via_delta.free_cpus(i));
            assert_eq!(via_advance.site_name(i), via_delta.site_name(i));
            assert_eq!(via_advance.accepts_queued(i), via_delta.accepts_queued(i));
            assert_eq!(*via_advance.ad(i), *via_delta.ad(i));
        }
    }
}
