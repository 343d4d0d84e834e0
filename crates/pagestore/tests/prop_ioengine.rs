//! Property battery for the batched-I/O submission/completion engine —
//! mirroring `prop_shared_buffer.rs` so the engine inherits the same
//! random-tape scrutiny the pool itself gets.
//!
//! The keystone property: with **one client**, an engine-enabled pool is
//! *counter-identical* to an engine-off pool after every single operation
//! — every miss drains as a solo one-page batch, so the legacy snapshot
//! (fixes, hits, misses, read/write calls and pages) cannot move by even
//! one count, and the additive engine counters stay in lockstep
//! (`batched_read_calls == misses`, depth pinned at 1, zero coalescing).
//! Plus: random prefetch-bearing tapes keep content identity, and
//! concurrent readers through the engine always see their page's bytes.

use proptest::prelude::*;
use starfish_pagestore::{BufferConfig, IoEngineConfig, PageId, PolicyKind, SharedBufferPool};
use std::collections::HashMap;

const DB_PAGES: u32 = 24;

#[derive(Clone, Debug)]
enum PoolOp {
    Read(u32),
    Write(u32, u8),
    Prefetch(u32, u32),
    Flush,
    ResetStats,
    ClearCache,
}

fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..DB_PAGES).prop_map(PoolOp::Read),
        ((0u32..DB_PAGES), any::<u8>()).prop_map(|(p, v)| PoolOp::Write(p, v)),
        ((0u32..DB_PAGES), (1u32..6)).prop_map(|(p, n)| PoolOp::Prefetch(p, n)),
        Just(PoolOp::Flush),
        Just(PoolOp::ResetStats),
        Just(PoolOp::ClearCache),
    ]
}

/// Fix-path ops only (no prefetch runs): every physical read is a miss
/// drained through the engine, so the engine counters track the miss
/// count exactly.
fn arb_fix_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..DB_PAGES).prop_map(PoolOp::Read),
        ((0u32..DB_PAGES), any::<u8>()).prop_map(|(p, v)| PoolOp::Write(p, v)),
        Just(PoolOp::Flush),
        Just(PoolOp::ResetStats),
        Just(PoolOp::ClearCache),
    ]
}

fn fresh(kind: PolicyKind, cap: usize, shards: usize, engine: bool) -> SharedBufferPool {
    let io = if engine {
        IoEngineConfig::enabled()
    } else {
        IoEngineConfig::default()
    };
    let p =
        SharedBufferPool::from_config(BufferConfig::with_pages(cap).policy(kind).io(io), shards);
    p.alloc_extent(DB_PAGES);
    p
}

fn apply(pool: &SharedBufferPool, op: &PoolOp, model: &mut HashMap<u32, u8>, kind: PolicyKind) {
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
        PoolOp::Prefetch(p, n) => {
            let n = n.min(DB_PAGES - p);
            if n > 0 {
                pool.prefetch_run(PageId(p), n).unwrap();
            }
        }
        PoolOp::Flush => pool.flush_all().unwrap(),
        PoolOp::ResetStats => pool.reset_stats(),
        PoolOp::ClearCache => pool.clear_cache().unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keystone: engine on vs off, one client, fix-path tapes — the
    /// legacy snapshot is identical after every operation and the engine
    /// counters track the misses one for one.
    #[test]
    fn engine_on_single_client_is_counter_identical_to_engine_off(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_fix_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let on = fresh(kind, cap, shards, true);
            let off = fresh(kind, cap, shards, false);
            let mut model_on: HashMap<u32, u8> = HashMap::new();
            let mut model_off: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&on, op, &mut model_on, kind);
                apply(&off, op, &mut model_off, kind);
                let mut a = on.snapshot();
                let b = off.snapshot();
                prop_assert_eq!(
                    a.batched_read_calls, a.misses,
                    "{}/{} shards: each solo miss must be exactly one batch", kind, shards
                );
                prop_assert!(a.max_queue_depth <= 1, "{}: solo client queued deeper", kind);
                prop_assert_eq!(a.coalesced_pages, 0, "{}: solo batches coalesced", kind);
                prop_assert_eq!(
                    (b.batched_read_calls, b.coalesced_pages, b.max_queue_depth),
                    (0, 0, 0),
                    "{}: engine-off pool reported engine work", kind
                );
                // Zero the additive fields and the snapshots must be
                // byte-identical — the engine may not move a legacy count.
                a.batched_read_calls = 0;
                a.max_queue_depth = 0;
                prop_assert_eq!(
                    a, b,
                    "{}/{} shards: engine drained a different physical schedule after {:?}",
                    kind, shards, op
                );
                prop_assert_eq!(on.cached_pages(), off.cached_pages(), "{}", kind);
            }
        }
    }

    /// Full tapes (with multi-page prefetch runs, which bypass the engine
    /// by design): the legacy snapshot identity still holds, and flushed
    /// bytes read back exactly through a cold engine-served cache.
    #[test]
    fn prefetch_tapes_keep_identity_and_content(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_pool_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let on = fresh(kind, cap, shards, true);
            let off = fresh(kind, cap, shards, false);
            let mut model_on: HashMap<u32, u8> = HashMap::new();
            let mut model_off: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&on, op, &mut model_on, kind);
                apply(&off, op, &mut model_off, kind);
                let mut a = on.snapshot();
                prop_assert!(a.batched_read_calls <= a.misses, "{}: more batches than misses", kind);
                a.batched_read_calls = 0;
                a.max_queue_depth = 0;
                prop_assert_eq!(
                    a, off.snapshot(),
                    "{}/{} shards: engine changed a legacy counter after {:?}",
                    kind, shards, op
                );
            }
            on.flush_all().unwrap();
            on.clear_cache().unwrap();
            for (&p, &v) in &model_on {
                on.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// Concurrent readers racing cold misses through the engine: every
    /// read sees its page's bytes, fix accounting balances, and the drain
    /// path reports its work.
    #[test]
    fn concurrent_engine_readers_always_see_their_bytes(
        shards in 1usize..5,
        tapes in proptest::collection::vec(
            proptest::collection::vec(0u32..DB_PAGES, 1..40), 4),
    ) {
        for kind in PolicyKind::all() {
            let pool = fresh(kind, 16, shards, true);
            for p in 0..DB_PAGES {
                pool.with_page_mut(PageId(p), |b| b[40] = p as u8).unwrap();
            }
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            pool.reset_stats();
            std::thread::scope(|s| {
                for tape in &tapes {
                    let pool = &pool;
                    s.spawn(move || {
                        for &p in tape {
                            pool.with_page(PageId(p), |b| assert_eq!(b[40], p as u8))
                                .unwrap();
                        }
                    });
                }
            });
            let snap = pool.snapshot();
            let total: u64 = tapes.iter().map(|t| t.len() as u64).sum();
            prop_assert_eq!(snap.fixes, total, "{}: lost or invented a fix", kind);
            prop_assert_eq!(snap.fixes, snap.hits + snap.misses, "{}: fix accounting", kind);
            prop_assert!(snap.misses >= 1, "{}: a cold cache must miss", kind);
            prop_assert!(
                snap.batched_read_calls >= 1,
                "{}: cold misses never drained through the engine", kind
            );
            prop_assert!(snap.max_queue_depth >= 1, "{}: depth high-water mark unset", kind);
        }
    }
}
