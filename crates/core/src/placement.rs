//! Adaptive placement: heat-ranked reorganization (a DSTC-style
//! reclustering pass, run offline: the store's `&mut` `reorganize`).
//!
//! The buffer pool's opt-in heat tracker (`starfish_pagestore::HeatConfig`)
//! counts per-page accesses with periodic decay. This module turns that
//! page-level signal into an **object-level ranking**: each object's heat is
//! the summed heat of the distinct pages its tuples occupy, the *hot set* is
//! the smallest heat-ranked prefix covering at least 7/8 of the total heat,
//! and a reorganization rewrites every relation with objects in heat order —
//! hot objects first, so they pack onto (and stay on) the fewest pages the
//! buffer has to retain, cold extents pushed behind them.
//!
//! A reorganization is **logically invisible**: OIDs, keys and every query
//! answer are unchanged (the stores restore ordinal addressing after the
//! rewrite); only the physical page placement — and therefore the miss
//! pattern under a skewed workload — improves. The I/Os the pass itself
//! spends are counted like any other access and reported in
//! [`ReorgReport`], so callers (the harness's cost-model trigger) can weigh
//! spend against the predicted win.

use starfish_pagestore::{IoSnapshot, PageId};
use std::collections::{BTreeSet, HashMap};

/// Fraction of the total heat the hot set must cover: 7/8.
const HOT_COVERAGE_NUM: u64 = 7;
const HOT_COVERAGE_DEN: u64 = 8;

/// Placement statistics derived from the current heat map — the raw
/// material of the cost-model trigger (predict the win *before* spending
/// reorganization I/Os).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Total tracked heat over all pages the store's objects occupy.
    pub heat_total: u64,
    /// Size of the hot set: the smallest heat-ranked object prefix covering
    /// ≥ 7/8 of `heat_total`. Zero when nothing is tracked.
    pub hot_objects: usize,
    /// Distinct pages the hot set currently touches — the hot span the
    /// buffer must retain *today* (the cost walker's `hot_span_pages`
    /// before adaptation).
    pub hot_pages: u32,
    /// Estimated distinct pages the hot set would occupy after packing
    /// (page-sharing tuples at their relation's current density, spanned
    /// tuples keeping their extents) — the hot span *after* adaptation.
    pub hot_packed_pages: u32,
}

/// What one reorganization pass did, and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgReport {
    /// Objects in the store.
    pub objects: usize,
    /// Objects whose placement rank changed (0 = the rewrite was an
    /// identity copy, e.g. with heat tracking off).
    pub moved: usize,
    /// Total tracked heat at the time of the pass.
    pub heat_total: u64,
    /// Size of the hot set the pass co-located.
    pub hot_objects: usize,
    /// Distinct pages the hot set touched before the pass.
    pub hot_pages_before: u32,
    /// Distinct pages the hot set touches after the pass.
    pub hot_pages_after: u32,
    /// Pages read by the pass itself (counted I/O the adaptation spent).
    pub pages_read: u64,
    /// Pages written by the pass itself (new extents + flush).
    pub pages_written: u64,
}

/// One object's placement facts: where it lives and how hot it is.
/// (`pub` only because [`Model`](crate::store::Model) names it; not
/// re-exported.)
pub struct ObjectHeat {
    /// Ordinal (OID) of the object.
    pub ord: usize,
    /// Summed heat of the distinct pages the object's tuples occupy.
    pub heat: u64,
    /// The distinct pages themselves.
    pub pages: Vec<PageId>,
    /// Pages this object would cost inside a packed hot region (fractional
    /// for page-sharing tuples: `1/k` of a page each).
    pub packed_cost: f64,
}

impl ObjectHeat {
    /// Builds one entry: dedups `pages` and sums their tracked heat.
    pub(crate) fn new(
        ord: usize,
        pages: Vec<PageId>,
        heat: &HashMap<PageId, u64>,
        packed_cost: f64,
    ) -> ObjectHeat {
        let distinct: BTreeSet<PageId> = pages.into_iter().collect();
        let h = distinct
            .iter()
            .map(|p| heat.get(p).copied().unwrap_or(0))
            .sum();
        ObjectHeat {
            ord,
            heat: h,
            pages: distinct.into_iter().collect(),
            packed_cost,
        }
    }
}

/// A heat-descending placement order plus the stats it implies. (`pub`
/// for the same reason as [`ObjectHeat`].)
pub struct HeatRanking {
    /// `order[i]` = the ordinal placed at position `i` (hottest first; ties
    /// keep ordinal order, so an unheated store ranks as the identity).
    pub order: Vec<usize>,
    pub stats: PlacementStats,
}

impl HeatRanking {
    /// Ordinals of the hot set (the ranked prefix).
    pub(crate) fn hot_ordinals(&self) -> &[usize] {
        &self.order[..self.stats.hot_objects]
    }

    /// The report of a pass that placed objects in this order: the hot set
    /// now spans `hot_pages_after` distinct pages, and the pass itself
    /// `spent` these counted I/Os.
    pub(crate) fn report(&self, hot_pages_after: u32, spent: IoSnapshot) -> ReorgReport {
        ReorgReport {
            objects: self.order.len(),
            moved: (self.order.iter().enumerate())
                .filter(|&(i, &ord)| i != ord)
                .count(),
            heat_total: self.stats.heat_total,
            hot_objects: self.stats.hot_objects,
            hot_pages_before: self.stats.hot_pages,
            hot_pages_after,
            pages_read: spent.pages_read,
            pages_written: spent.pages_written,
        }
    }
}

/// The tracked heat map as a lookup table.
pub(crate) fn heat_map(pairs: Vec<(PageId, u64)>) -> HashMap<PageId, u64> {
    pairs.into_iter().collect()
}

/// Ranks objects by heat (descending, ties by ordinal) and derives the
/// hot-set statistics. `objs` must be ordered by ordinal.
pub(crate) fn rank(objs: &[ObjectHeat]) -> HeatRanking {
    let heat_total: u64 = objs.iter().map(|o| o.heat).sum();
    let mut by_heat: Vec<usize> = (0..objs.len()).collect();
    by_heat.sort_by_key(|&i| (std::cmp::Reverse(objs[i].heat), objs[i].ord));
    let mut hot_objects = 0;
    if heat_total > 0 {
        let mut cum = 0u64;
        for &i in &by_heat {
            hot_objects += 1;
            cum += objs[i].heat;
            if cum * HOT_COVERAGE_DEN >= heat_total * HOT_COVERAGE_NUM {
                break;
            }
        }
    }
    let hot = &by_heat[..hot_objects];
    let hot_pages = distinct_pages(hot.iter().map(|&i| objs[i].pages.as_slice()));
    let hot_packed_pages = hot
        .iter()
        .map(|&i| objs[i].packed_cost)
        .sum::<f64>()
        .ceil()
        .max(0.0) as u32;
    HeatRanking {
        order: by_heat.iter().map(|&i| objs[i].ord).collect(),
        stats: PlacementStats {
            heat_total,
            hot_objects,
            hot_pages,
            hot_packed_pages,
        },
    }
}

/// Number of distinct pages across the given page lists.
pub(crate) fn distinct_pages<'a>(lists: impl Iterator<Item = &'a [PageId]>) -> u32 {
    let mut set: BTreeSet<PageId> = BTreeSet::new();
    for l in lists {
        set.extend(l.iter().copied());
    }
    set.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(ord: usize, heat_val: u64, pages: &[u32]) -> ObjectHeat {
        let map: HashMap<PageId, u64> = pages.iter().map(|&p| (PageId(p), heat_val)).collect();
        ObjectHeat::new(
            ord,
            pages.iter().map(|&p| PageId(p)).collect(),
            &map,
            pages.len() as f64,
        )
    }

    #[test]
    fn unheated_store_ranks_as_identity() {
        let objs: Vec<ObjectHeat> = (0..4).map(|i| obj(i, 0, &[i as u32])).collect();
        let r = rank(&objs);
        assert_eq!(r.order, vec![0, 1, 2, 3]);
        assert_eq!(r.stats, PlacementStats::default());
        assert!(r.hot_ordinals().is_empty());
    }

    #[test]
    fn hot_prefix_covers_seven_eighths() {
        // Heats 70, 10, 10, 10: the first object alone covers 70/100 < 7/8,
        // two cover 80/100 < 87.5, three cover 90/100 ≥ 87.5.
        let heats = [70u64, 10, 10, 10];
        let objs: Vec<ObjectHeat> = heats
            .iter()
            .enumerate()
            .map(|(i, &h)| obj(i, h, &[i as u32]))
            .collect();
        let r = rank(&objs);
        assert_eq!(r.stats.heat_total, 100);
        assert_eq!(r.stats.hot_objects, 3);
        assert_eq!(r.order[0], 0, "hottest first");
        assert_eq!(r.stats.hot_pages, 3);
    }

    #[test]
    fn ranking_is_heat_descending_with_ordinal_ties() {
        let heats = [5u64, 9, 5, 20];
        let objs: Vec<ObjectHeat> = heats
            .iter()
            .enumerate()
            .map(|(i, &h)| obj(i, h, &[i as u32]))
            .collect();
        let r = rank(&objs);
        assert_eq!(r.order, vec![3, 1, 0, 2], "ties keep ordinal order");
    }

    #[test]
    fn object_heat_dedups_pages() {
        let map: HashMap<PageId, u64> = [(PageId(7), 5u64)].into();
        let o = ObjectHeat::new(0, vec![PageId(7), PageId(7), PageId(7)], &map, 1.0);
        assert_eq!(o.heat, 5, "shared page counted once");
        assert_eq!(o.pages.len(), 1);
    }

    #[test]
    fn distinct_pages_unions_across_objects() {
        let a = [PageId(1), PageId(2)];
        let b = [PageId(2), PageId(3)];
        assert_eq!(distinct_pages([a.as_slice(), b.as_slice()].into_iter()), 3);
    }
}
