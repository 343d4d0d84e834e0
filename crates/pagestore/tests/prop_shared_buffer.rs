//! Property battery for the sharded, thread-safe buffer pool — mirroring
//! `prop_buffer_policies.rs` so the shared pool inherits the same invariant
//! battery the single-threaded pool has.
//!
//! Random operation tapes against a byte-level model must preserve, for
//! **all five** policies and 1–4 shards:
//!
//! * per-shard `cached ≤ capacity` at every step (the unpinned tape — a
//!   shard only overflows transiently when pins corner it, exactly like
//!   `BufferPool`);
//! * merged fix accounting: `fixes = hits + misses` at every step;
//! * pinned (fixed) frames are never evicted, whatever shard they hash to;
//! * flush-then-reread returns exactly the bytes written;
//! * and — the keystone — a **one-shard pool replays the identical
//!   counters as `BufferPool`** after every single operation: the shared
//!   pool is the same engine behind locks, not a reimplementation;
//! * a spanned read made as **one lock session** (`PageCache::read_runs`
//!   on the handle) is, step by step, the per-page sequence of
//!   `prefetch_run` and `with_page` calls on `BufferPool` on one shard, and
//!   delivers the same bytes on any shard count.

use proptest::prelude::*;
use starfish_pagestore::{
    BufferConfig, BufferPool, PageCache, PageId, PolicyKind, SharedBufferPool, SharedPoolHandle,
    SimDisk,
};
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

/// Fix-path ops only: no multi-page prefetch runs, so per-shard occupancy
/// can never even transiently overflow (the same restriction the
/// single-pool battery's capacity invariant runs under).
fn arb_fix_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..DB_PAGES).prop_map(PoolOp::Read),
        ((0u32..DB_PAGES), any::<u8>()).prop_map(|(p, v)| PoolOp::Write(p, v)),
        Just(PoolOp::Flush),
        Just(PoolOp::ResetStats),
        Just(PoolOp::ClearCache),
    ]
}

fn fresh_shared(kind: PolicyKind, cap: usize, shards: usize) -> SharedBufferPool {
    let p = SharedBufferPool::new(cap, kind, shards);
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

/// A tape step: a pool operation, or the whole-object read of a spanned
/// record at page `.0` with `.1` header and `.2` data pages.
#[derive(Clone, Debug)]
enum Step {
    Op(PoolOp),
    Session(u32, u32, u32),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_pool_op().prop_map(Step::Op),
        ((0u32..DB_PAGES - 7), (1u32..4), (1u32..5)).prop_map(|(p, h, d)| Step::Session(p, h, d)),
    ]
}

/// The runs of a spanned record's whole-object read: the root header page
/// and the additional header pages as one group, the data run as another.
fn object_groups(first: u32, header: u32, data: u32) -> [Vec<(PageId, u32)>; 2] {
    let mut header_runs = vec![(PageId(first), 1)];
    if header > 1 {
        header_runs.push((PageId(first + 1), header - 1));
    }
    [header_runs, vec![(PageId(first + header), data)]]
}

/// `op` on the serial reference pool (content is checked on the shared side).
fn apply_serial(serial: &mut BufferPool, op: &PoolOp) {
    match *op {
        PoolOp::Read(p) => serial.with_page(PageId(p), |_| {}).unwrap(),
        PoolOp::Write(p, v) => serial.with_page_mut(PageId(p), |b| b[40] = v).unwrap(),
        PoolOp::Prefetch(p, n) => serial.prefetch_run(PageId(p), n.min(DB_PAGES - p)).unwrap(),
        PoolOp::Flush => serial.flush_all().unwrap(),
        PoolOp::ResetStats => serial.reset_stats(),
        PoolOp::ClearCache => serial.clear_cache().unwrap(),
    }
}

fn fresh_handle(kind: PolicyKind, cap: usize, shards: usize) -> SharedPoolHandle {
    let handle = SharedPoolHandle::new(BufferConfig::with_pages(cap).policy(kind), shards);
    handle.pool().alloc_extent(DB_PAGES);
    handle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The session keeps the keystone: on one shard it leaves eviction
    /// decisions, call grouping and every counter where the per-page
    /// sequence — written out by hand on `BufferPool` — leaves them, after
    /// every step, and hands over the same pages with the same bytes.
    #[test]
    fn one_shard_session_is_the_per_page_sequence_on_buffer_pool(
        cap in 2usize..7,
        steps in proptest::collection::vec(arb_step(), 1..120),
    ) {
        for kind in PolicyKind::all() {
            let mut shared = fresh_handle(kind, cap, 1);
            let mut disk = SimDisk::new();
            disk.alloc_extent(DB_PAGES);
            let mut serial = BufferPool::with_policy(disk, cap, kind);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for step in &steps {
                match step {
                    Step::Op(op) => {
                        apply(shared.pool(), op, &mut model, kind);
                        apply_serial(&mut serial, op);
                    }
                    &Step::Session(first, header, data) => {
                        let groups = object_groups(first, header, data);
                        let mut by_session = Vec::new();
                        shared
                            .read_runs(&[&groups[0], &groups[1]], |pid, b| by_session.push((pid, b[40])))
                            .unwrap();
                        let mut by_page = Vec::new();
                        for group in &groups {
                            for &(run_first, n) in group {
                                serial.prefetch_run(run_first, n).unwrap();
                            }
                            for &(run_first, n) in group {
                                for i in 0..n {
                                    let pid = run_first.offset(i);
                                    serial.with_page(pid, |b| by_page.push((pid, b[40]))).unwrap();
                                }
                            }
                        }
                        prop_assert_eq!(&by_session, &by_page, "{}", kind);
                        prop_assert_eq!(by_session.len() as u32, header + data);
                    }
                }
                prop_assert_eq!(
                    shared.snapshot(), serial.snapshot(),
                    "{}: one-shard pool diverged from BufferPool after {:?}", kind, step
                );
                prop_assert_eq!(shared.pool().cached_pages(), serial.cached_pages(), "{}", kind);
                for p in 0..DB_PAGES {
                    prop_assert_eq!(
                        shared.is_cached(PageId(p)), serial.is_cached(PageId(p)),
                        "{}: residency of page {} after {:?}", kind, p, step
                    );
                }
            }
        }
    }

    /// On K shards a session delivers every page of its runs once, in
    /// order, with the bytes last written — under eviction pressure in
    /// every shard — and keeps the merged fix accounting.
    #[test]
    fn sessions_deliver_the_written_bytes_on_any_shard_count(
        cap in 4usize..9,
        shards in 1usize..5,
        steps in proptest::collection::vec(arb_step(), 1..120),
    ) {
        for kind in PolicyKind::all() {
            let mut shared = fresh_handle(kind, cap, shards);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for step in &steps {
                match step {
                    Step::Op(op) => apply(shared.pool(), op, &mut model, kind),
                    &Step::Session(first, header, data) => {
                        let groups = object_groups(first, header, data);
                        let before = shared.buffer_stats().fixes;
                        let mut seen = Vec::new();
                        shared
                            .read_runs(&[&groups[0], &groups[1]], |pid, b| seen.push((pid.0, b[40])))
                            .unwrap();
                        let expect: Vec<(u32, u8)> = (first..first + header + data)
                            .map(|p| (p, model.get(&p).copied().unwrap_or(0)))
                            .collect();
                        prop_assert_eq!(seen, expect, "{}/{} shards", kind, shards);
                        prop_assert_eq!(
                            shared.buffer_stats().fixes - before, u64::from(header + data),
                            "{}: one fix per page", kind
                        );
                    }
                }
                let s = shared.buffer_stats();
                prop_assert_eq!(s.fixes, s.hits + s.misses, "{} merged fix accounting", kind);
            }
        }
    }

    /// The invariant battery: every policy, 1–4 shards, one random tape of
    /// fix-path operations.
    #[test]
    fn shared_pool_invariants_hold_for_every_policy_and_shard_count(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_fix_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let pool = fresh_shared(kind, cap, shards);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&pool, op, &mut model, kind);
                // Invariants after every single operation.
                for (i, (cached, shard_cap)) in pool.shard_occupancy().into_iter().enumerate() {
                    prop_assert!(
                        cached <= shard_cap,
                        "{}/{} shards: shard {} holds {} > {}", kind, shards, i, cached, shard_cap
                    );
                }
                let s = pool.buffer_stats();
                prop_assert_eq!(s.fixes, s.hits + s.misses, "{} merged fix accounting", kind);
                let per: u64 = pool.shard_stats().iter().map(|s| s.fixes).sum();
                prop_assert_eq!(per, s.fixes, "{} shard stats must sum to the merge", kind);
            }
            // Epilogue: flush-then-reread returns exactly the written bytes
            // through a cold cache.
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for (&p, &v) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// Tapes with multi-page prefetch runs: occupancy may transiently
    /// overflow a shard by at most the run length (the documented
    /// `BufferPool` semantics for runs larger than the buffer), while the
    /// accounting and content invariants keep holding unconditionally.
    #[test]
    fn prefetch_tapes_keep_accounting_and_content_invariants(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_pool_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let pool = fresh_shared(kind, cap, shards);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&pool, op, &mut model, kind);
                for (i, (cached, shard_cap)) in pool.shard_occupancy().into_iter().enumerate() {
                    prop_assert!(
                        cached <= shard_cap + 5,
                        "{}/{} shards: shard {} overflow beyond a run: {} > {} + 5",
                        kind, shards, i, cached, shard_cap
                    );
                }
                let s = pool.buffer_stats();
                prop_assert_eq!(s.fixes, s.hits + s.misses, "{} merged fix accounting", kind);
            }
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for (&p, &v) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// Pinned ("fixed") pages are never evicted, whatever shard they hash
    /// to and however hard the rest of the tape churns.
    #[test]
    fn pinned_pages_never_evicted(
        shards in 1usize..5,
        raw_pins in proptest::collection::vec(0u32..DB_PAGES, 1..3),
        ops in proptest::collection::vec(arb_pool_op(), 1..120),
    ) {
        let mut pins = raw_pins.clone();
        pins.sort_unstable();
        pins.dedup();
        for kind in PolicyKind::all() {
            // Generous capacity floor so a victim always exists somewhere.
            let pool = fresh_shared(kind, 8, shards);
            let mut model: HashMap<u32, u8> = HashMap::new();
            let mut pins_alive = true;
            for &p in &pins {
                pool.pin(PageId(p)).unwrap();
            }
            for op in &ops {
                apply(&pool, op, &mut model, kind);
                if matches!(op, PoolOp::ClearCache) {
                    // Pins do not survive a cold restart.
                    pins_alive = false;
                }
                if pins_alive {
                    for &p in &pins {
                        prop_assert!(
                            pool.is_cached(PageId(p)),
                            "{}/{} shards: pinned page {} was evicted", kind, shards, p
                        );
                    }
                    prop_assert_eq!(pool.pinned_pages(), pins.len(), "{} pin count", kind);
                } else {
                    prop_assert_eq!(pool.pinned_pages(), 0, "{}: pins survived restart", kind);
                }
            }
            if pins_alive {
                for &p in &pins {
                    prop_assert!(pool.unpin(PageId(p)), "{} unpin", kind);
                }
            }
        }
    }

    /// The keystone: a one-shard shared pool replays `BufferPool`'s
    /// counters and contents after every operation — same engine, same
    /// eviction decisions, same call grouping.
    #[test]
    fn one_shard_pool_is_counter_identical_to_buffer_pool(
        cap in 2usize..7,
        ops in proptest::collection::vec(arb_pool_op(), 1..160),
    ) {
        for kind in PolicyKind::all() {
            let shared = fresh_shared(kind, cap, 1);
            let mut disk = SimDisk::new();
            disk.alloc_extent(DB_PAGES);
            let mut serial = BufferPool::with_policy(disk, cap, kind);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&shared, op, &mut model, kind);
                match *op {
                    PoolOp::Read(p) => {
                        serial.with_page(PageId(p), |_| {}).unwrap();
                    }
                    PoolOp::Write(p, v) => {
                        serial.with_page_mut(PageId(p), |b| b[40] = v).unwrap();
                    }
                    PoolOp::Prefetch(p, n) => {
                        let n = n.min(DB_PAGES - p);
                        if n > 0 {
                            serial.prefetch_run(PageId(p), n).unwrap();
                        }
                    }
                    PoolOp::Flush => serial.flush_all().unwrap(),
                    PoolOp::ResetStats => serial.reset_stats(),
                    PoolOp::ClearCache => serial.clear_cache().unwrap(),
                }
                prop_assert_eq!(
                    shared.snapshot(), serial.snapshot(),
                    "{}: one-shard pool diverged from BufferPool after {:?}", kind, op
                );
                prop_assert_eq!(shared.cached_pages(), serial.cached_pages(), "{}", kind);
            }
        }
    }
}
