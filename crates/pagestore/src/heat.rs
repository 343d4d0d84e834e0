//! Page-heat tracking: opt-in per-page access counters with decay.
//!
//! The adaptive-placement subsystem needs to know *which* pages the
//! workload touches, not just how many. When enabled through
//! [`HeatConfig`], every counted fix bumps a per-page counter; every
//! [`HEAT_DECAY_EVERY`] recorded accesses, all counters are halved
//! and zeroed entries dropped, so the map tracks the *recent* access
//! distribution (an aging scheme in the spirit of DSTC's observation
//! phase) instead of an all-time histogram.
//!
//! Tracking is pure bookkeeping: it never issues I/O, never influences
//! replacement, and the only externally visible counters
//! (`heat_records` / `heat_decays` in [`crate::BufferStats`] /
//! [`crate::IoSnapshot`]) are additive fields that stay zero while
//! tracking is off — the paper's golden counter tables are untouched.
//! Decay is driven by access *counts*, not wall-clock time, so identical
//! access sequences produce identical heat maps.

use crate::PageId;
use std::collections::HashMap;

/// Recorded accesses between decay sweeps (counters halve each sweep).
pub const HEAT_DECAY_EVERY: u64 = 8192;

/// Heat-tracking configuration (disabled by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeatConfig {
    /// Whether per-page access counters are maintained.
    pub track: bool,
    /// [`HEAT_DECAY_EVERY`] outside this module's tests, which decay after
    /// a handful of accesses.
    pub(crate) decay_every: u64,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            track: false,
            decay_every: HEAT_DECAY_EVERY,
        }
    }
}

impl HeatConfig {
    /// Tracking on.
    pub fn enabled() -> Self {
        HeatConfig {
            track: true,
            ..Default::default()
        }
    }
}

/// Per-page access counters with count-driven exponential decay.
#[derive(Debug)]
pub(crate) struct HeatTracker {
    counts: HashMap<PageId, u64>,
    decay_every: u64,
    since_decay: u64,
}

impl HeatTracker {
    pub(crate) fn new(config: HeatConfig) -> HeatTracker {
        HeatTracker {
            counts: HashMap::new(),
            decay_every: config.decay_every,
            since_decay: 0,
        }
    }

    /// Records one access to `pid`. Returns `true` when this access
    /// triggered a decay sweep (the caller counts it in its stats).
    pub(crate) fn record(&mut self, pid: PageId) -> bool {
        *self.counts.entry(pid).or_insert(0) += 1;
        self.since_decay += 1;
        if self.since_decay >= self.decay_every {
            self.since_decay = 0;
            self.counts.retain(|_, c| {
                *c >>= 1;
                *c > 0
            });
            return true;
        }
        false
    }

    /// The current heat map, sorted by page id (deterministic read-out).
    pub(crate) fn snapshot(&self) -> Vec<(PageId, u64)> {
        let mut v: Vec<(PageId, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_page() {
        let mut t = HeatTracker::new(HeatConfig::enabled());
        for _ in 0..3 {
            assert!(!t.record(PageId(7)));
        }
        t.record(PageId(2));
        assert_eq!(t.snapshot(), vec![(PageId(2), 1), (PageId(7), 3)]);
    }

    #[test]
    fn decay_halves_and_drops_zeroes() {
        let mut t = HeatTracker::new(HeatConfig {
            decay_every: 4,
            ..HeatConfig::enabled()
        });
        t.record(PageId(0));
        t.record(PageId(0));
        t.record(PageId(0));
        // The 4th record triggers the sweep: 3→1 for page 0, 1→0 for page 9.
        assert!(t.record(PageId(9)));
        assert_eq!(t.snapshot(), vec![(PageId(0), 1)]);
    }

    #[test]
    fn decay_count_is_deterministic_in_the_access_sequence() {
        let run = || {
            let mut t = HeatTracker::new(HeatConfig {
                decay_every: 3,
                ..HeatConfig::enabled()
            });
            let mut decays = 0;
            for i in 0..20u32 {
                if t.record(PageId(i % 5)) {
                    decays += 1;
                }
            }
            (decays, t.snapshot())
        };
        assert_eq!(run(), run());
        assert_eq!(run().0, 6, "20 records / decay_every 3");
    }
}
