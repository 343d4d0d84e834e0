//! A visit that lends its frames is the visit that copies them.
//!
//! `PageCache::visit_runs` hands the pages of one visit to a closure all at
//! once. `BufferPool` and the shared pool lend their frames when every page
//! is resident and copy (through `read_runs`' sink) otherwise. Under all five
//! policies, on `BufferPool` and on the one- and two-shard shared pool, a
//! visit leaves what `read_runs` leaves: the same pages seen, the same
//! `IoSnapshot`, and the same policy state — the pages a long tail of
//! further misses evicts, in order, match too. The visits that miss on a
//! full buffer under MRU and FIFO, where the miss evicts a page the same
//! visit has already fixed, must copy and count exactly as `read_runs`.

use starfish_pagestore::{
    BufferConfig, BufferPool, PageCache, PageId, PolicyKind, SharedPoolHandle, SimDisk, PAGE_SIZE,
};

const DB_PAGES: u32 = 40;
const CAPACITY: usize = 12;

/// A visit of two groups: a root run and a two-page run, then a run of
/// three.
const GROUPS: [&[(PageId, u32)]; 2] = [&[(PageId(2), 1), (PageId(3), 2)], &[(PageId(8), 3)]];

/// Every page of the database stamped with its own number, on disk and
/// nowhere else.
fn stamped<P: PageCache>(mut pool: P) -> P {
    let first = pool.alloc_extent(DB_PAGES);
    assert_eq!(first, PageId(0));
    for i in 0..DB_PAGES {
        pool.with_page_mut(PageId(i), |p| p.fill(i as u8)).unwrap();
    }
    pool.clear_cache().unwrap();
    pool.reset_stats();
    pool
}

/// The pools under test, built twice each: one twin visits, the other
/// reads.
fn each_pool(policy: PolicyKind, mut check: impl FnMut(&str, &mut dyn FnMut() -> Twin)) {
    let config = BufferConfig::with_pages(CAPACITY).policy(policy);
    check("BufferPool", &mut || {
        Twin::Exclusive(Box::new(stamped(config.build(SimDisk::new()))))
    });
    for shards in [1, 2] {
        check(&format!("{shards}-shard pool"), &mut || {
            Twin::Shared(stamped(SharedPoolHandle::new(config, shards)))
        });
    }
}

enum Twin {
    Exclusive(Box<BufferPool>),
    Shared(SharedPoolHandle),
}

/// `f` over the twin's pool, whichever it is.
macro_rules! on {
    ($twin:expr, |$p:ident| $body:expr) => {
        match $twin {
            Twin::Exclusive($p) => $body,
            Twin::Shared($p) => $body,
        }
    };
}

/// The first byte of every page a visit shows, in order — the stamp — and
/// whether the pool lent its frames (`true`) or copied.
fn visit(twin: &mut Twin) -> (Vec<u8>, bool) {
    let mut copied = Vec::new();
    let stamps = |frames: &[&[u8; PAGE_SIZE]]| frames.iter().map(|f| f[0]).collect();
    let lent = on!(twin, |p| p.visit_runs(
        &GROUPS,
        |_, page| copied.push(page[0]),
        stamps
    ))
    .unwrap();
    match lent {
        Some(seen) => (seen, true),
        None => (copied, false),
    }
}

fn read(twin: &mut Twin) -> Vec<u8> {
    let mut seen = Vec::new();
    on!(twin, |p| p
        .read_runs(&GROUPS, |_, page: &[u8; PAGE_SIZE]| seen
            .push(page[0])))
    .unwrap();
    seen
}

/// What the twin holds and has counted, and what a tail of misses does to
/// it: which pages each further miss leaves resident, in order. Each tail
/// page is fixed twice, so under LRU-2 it outranks the pages fixed once
/// and the victims come from the pages the visit found.
fn state(twin: &mut Twin) -> (starfish_pagestore::IoSnapshot, Vec<Vec<u32>>) {
    let resident = |twin: &Twin| -> Vec<u32> {
        (0..DB_PAGES)
            .filter(|&i| on!(twin, |p| p.is_cached(PageId(i))))
            .collect()
    };
    let snapshot = on!(twin, |p| p.snapshot());
    let mut after = vec![resident(twin)];
    for i in 20..DB_PAGES {
        for _ in 0..2 {
            on!(twin, |p| p.with_page(PageId(i), |_| ())).unwrap();
        }
        after.push(resident(twin));
    }
    (snapshot, after)
}

/// Fixes `pages` in order, the same on both twins.
fn fix_all(twins: [&mut Twin; 2], pages: impl Iterator<Item = u32> + Clone) {
    for twin in twins {
        for i in pages.clone() {
            on!(twin, |p| p.with_page(PageId(i), |_| ())).unwrap();
        }
    }
}

const VISITED: [u8; 6] = [2, 3, 4, 8, 9, 10];

#[test]
fn an_all_hit_visit_leaves_what_read_runs_leaves() {
    for policy in PolicyKind::all() {
        each_pool(policy, |name, build| {
            let (mut visiting, mut reading) = (build(), build());
            // Every visited page resident and fixed once, page 1 twice
            // after them: under LRU-2 the visit's prefetch touches are what
            // rank the visited pages above page 1.
            let warm = [10, 9, 8, 4, 3, 2, 1, 1];
            fix_all([&mut visiting, &mut reading], warm.into_iter());
            for i in VISITED {
                let cached = on!(&visiting, |p| p.is_cached(PageId(i.into())));
                assert!(cached, "{name}, {policy}: page {i} resident");
            }
            assert_eq!(
                visit(&mut visiting),
                (VISITED.into(), true),
                "{name}, {policy}"
            );
            assert_eq!(read(&mut reading), VISITED, "{name}, {policy}");
            assert_eq!(
                state(&mut visiting),
                state(&mut reading),
                "{name}, {policy}"
            );
        });
    }
}

/// A full buffer, the visit's pages resident but one and fixed before the
/// rest: under FIFO the miss evicts the oldest, page 2, which the visit has
/// fixed; under MRU the page its prefetch touched last, page 9, which it
/// then fixes again. The visit copies, so it shows the right pages, and it
/// counts as `read_runs` counts.
#[test]
fn a_visit_that_misses_on_a_full_buffer_copies_and_counts_as_read_runs() {
    for policy in [PolicyKind::Mru, PolicyKind::Fifo] {
        each_pool(policy, |name, build| {
            let (mut visiting, mut reading) = (build(), build());
            let warm = (2..5).chain(8..10).chain(12..19);
            fix_all([&mut visiting, &mut reading], warm);
            let cached = |twin: &Twin| on!(twin, |p| p.is_cached(PageId(10)));
            assert!(
                !cached(&visiting) && !cached(&reading),
                "{name}: page 10 missing"
            );
            assert_eq!(
                visit(&mut visiting),
                (VISITED.into(), false),
                "{name}, {policy}"
            );
            assert_eq!(read(&mut reading), VISITED, "{name}, {policy}");
            assert_eq!(
                state(&mut visiting),
                state(&mut reading),
                "{name}, {policy}"
            );
        });
    }
}
