//! Property battery for the buffer pool under every replacement policy.
//!
//! Random operation sequences (reads, writes, pins, flushes, stat resets,
//! cache clears) against a byte-level model must preserve, for **all five**
//! policies:
//!
//! * `cached_pages() ≤ capacity` at every step (we keep pins strictly below
//!   capacity, so a victim always exists and the pool never has to
//!   overflow transiently);
//! * fix accounting: `fixes = hits + misses` at every step;
//! * pinned ("fixed") frames are never evicted — eviction only takes
//!   unfixed frames, whatever the policy;
//! * flush-then-reread returns exactly the bytes written;
//! * `reset_stats` never loses dirty data (counters are not content).

use proptest::prelude::*;
use starfish_pagestore::{BufferPool, PageCache, PageId, PolicyKind, SimDisk};
use std::collections::HashMap;

const DB_PAGES: u32 = 24;

#[derive(Clone, Debug)]
enum PoolOp {
    Read(u32),
    Write(u32, u8),
    Pin(u32),
    Unpin(u32),
    Flush,
    ResetStats,
    ClearCache,
}

fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..DB_PAGES).prop_map(PoolOp::Read),
        ((0u32..DB_PAGES), any::<u8>()).prop_map(|(p, v)| PoolOp::Write(p, v)),
        (0u32..DB_PAGES).prop_map(PoolOp::Pin),
        (0u32..DB_PAGES).prop_map(PoolOp::Unpin),
        Just(PoolOp::Flush),
        Just(PoolOp::ResetStats),
        Just(PoolOp::ClearCache),
    ]
}

fn fresh_pool(kind: PolicyKind, cap: usize) -> BufferPool {
    let mut disk = SimDisk::new();
    disk.alloc_extent(DB_PAGES);
    BufferPool::with_policy(disk, cap, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full invariant battery, every policy, one random op tape.
    #[test]
    fn buffer_invariants_hold_for_every_policy(
        cap in 2usize..7,
        ops in proptest::collection::vec(arb_pool_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let mut pool = fresh_pool(kind, cap);
            let mut model: HashMap<u32, u8> = HashMap::new();
            let mut pinned: Vec<u32> = Vec::new();
            for op in &ops {
                match *op {
                    PoolOp::Read(p) => {
                        let expect = model.get(&p).copied().unwrap_or(0);
                        pool.with_page(PageId(p), |b| assert_eq!(b[40], expect, "{kind}"))
                            .unwrap();
                    }
                    PoolOp::Write(p, v) => {
                        pool.with_page_mut(PageId(p), |b| b[40] = v).unwrap();
                        model.insert(p, v);
                    }
                    PoolOp::Pin(p) => {
                        // Keep pins strictly below capacity so eviction can
                        // always find an unfixed victim.
                        if !pinned.contains(&p) && pinned.len() + 1 < cap {
                            pool.pin(PageId(p)).unwrap();
                            pinned.push(p);
                        }
                    }
                    PoolOp::Unpin(p) => {
                        let was_pinned = pinned.iter().position(|&x| x == p);
                        prop_assert_eq!(
                            pool.unpin(PageId(p)),
                            was_pinned.is_some(),
                            "{} unpin disagrees with model", kind
                        );
                        if let Some(i) = was_pinned {
                            pinned.swap_remove(i);
                        }
                    }
                    PoolOp::Flush => pool.flush_all().unwrap(),
                    PoolOp::ResetStats => pool.reset_stats(),
                    PoolOp::ClearCache => {
                        pool.clear_cache().unwrap();
                        pinned.clear(); // pins do not survive a cold restart
                    }
                }
                // Invariants after every single operation.
                prop_assert!(
                    pool.cached_pages() <= cap,
                    "{}: {} cached > capacity {}", kind, pool.cached_pages(), cap
                );
                let s = pool.buffer_stats();
                prop_assert_eq!(s.fixes, s.hits + s.misses, "{} fix accounting", kind);
                prop_assert_eq!(pool.pinned_pages(), pinned.len(), "{} pin count", kind);
                for &p in &pinned {
                    prop_assert!(
                        pool.is_cached(PageId(p)),
                        "{}: pinned (fixed) page {} was evicted", kind, p
                    );
                }
            }
            // Epilogue: flush-then-reread returns exactly the written bytes,
            // through a cold cache, regardless of interleaved stat resets.
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for (&p, &v) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// `reset_stats` in the middle of a dirty workload is invisible to
    /// content: every byte written before and after the reset survives the
    /// disconnect flush. (Counters are bookkeeping; dirty bits are not.)
    #[test]
    fn reset_stats_never_loses_dirty_data(
        cap in 2usize..7,
        before in proptest::collection::vec(((0u32..DB_PAGES), any::<u8>()), 1..40),
        after in proptest::collection::vec(((0u32..DB_PAGES), any::<u8>()), 1..40),
    ) {
        for kind in PolicyKind::all() {
            let mut pool = fresh_pool(kind, cap);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for &(p, v) in &before {
                pool.with_page_mut(PageId(p), |b| b[40] = v).unwrap();
                model.insert(p, v);
            }
            pool.reset_stats();
            prop_assert_eq!(pool.buffer_stats().fixes, 0);
            prop_assert_eq!(pool.snapshot().pages_written, 0);
            for &(p, v) in &after {
                pool.with_page_mut(PageId(p), |b| b[40] = v).unwrap();
                model.insert(p, v);
            }
            pool.clear_cache().unwrap();
            for (&p, &v) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// Write-then-flush round-trips byte-exact page images (not just one
    /// probe byte): the flush path must write the frame the mutation saw.
    #[test]
    fn flush_then_reread_is_byte_exact(
        cap in 2usize..7,
        writes in proptest::collection::vec(((0u32..DB_PAGES), any::<u8>(), (0usize..2048)), 1..50),
    ) {
        for kind in PolicyKind::all() {
            let mut pool = fresh_pool(kind, cap);
            let mut model: HashMap<u32, [u8; 2048]> = HashMap::new();
            for &(p, v, off) in &writes {
                let entry = model.entry(p).or_insert([0u8; 2048]);
                entry[off] = v;
                pool.with_page_mut(PageId(p), |b| b[off] = v).unwrap();
            }
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for (&p, img) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b, img, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }
}
