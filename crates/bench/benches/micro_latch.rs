//! Micro-benchmarks of the per-page latch layer.
//!
//! Three questions:
//!
//! * `shared_acquire` — what one uncontended shared group latch
//!   (acquire + release around a hit) costs on top of the read-only hit
//!   path (`read_hit_baseline`, the same fix without any latch): one hash
//!   probe into the shard's latch table plus the counter bumps. A spanned
//!   read pays it only with the batched read engine on; engine off, it is
//!   one lock session and takes no latch.
//! * `exclusive_acquire` — the same for an exclusive group over an
//!   8-page "extent" around latched writes, the shape of a DSM
//!   replace-tuple update.
//! * `mixed/threadsN` — a fixed batch of requests split across N client
//!   threads (shards = N), 3 reads : 1 latched write on overlapping hot
//!   pages — the contended regime where latch waits actually occur. On
//!   multi-core hardware wall-clock should still shrink with N; the gap
//!   to the read-only `hit_batch` of `micro_shared_buffer` is the price
//!   of writer safety.

mod common;

use criterion::Criterion;
use starfish_pagestore::{
    BufferConfig, BufferPool, LatchMode, PageCache, PageId, SharedPoolHandle, SimDisk,
};
use std::hint::black_box;

const CAPACITY: usize = 1200; // the paper's buffer
const DB_PAGES: u32 = 2 * CAPACITY as u32;
const HOT_SET: u32 = 64;
const BATCH: u32 = 1024;
const EXTENT: u32 = 8;

fn shared(shards: usize) -> (SharedPoolHandle, PageId) {
    let h = SharedPoolHandle::new(BufferConfig::with_pages(CAPACITY), shards);
    let first = h.pool().alloc_extent(DB_PAGES);
    (h, first)
}

fn main() {
    let mut c: Criterion = common::criterion();

    // The PR-3 baseline: a shared-pool hit with no latch involved.
    c.bench_function("latch/read_hit_baseline", |b| {
        let (h, first) = shared(1);
        h.pool().with_page(first, |_| {}).unwrap();
        b.iter(|| h.pool().with_page(first, |p| black_box(p[0])).unwrap())
    });

    // Uncontended shared group latch around the same hit.
    c.bench_function("latch/shared_acquire", |b| {
        let (h, first) = shared(1);
        h.pool().with_page(first, |_| {}).unwrap();
        let pages = [first];
        b.iter(|| {
            h.pool().latch_pages(&pages, LatchMode::Shared).unwrap();
            let r = h.pool().with_page(first, |p| black_box(p[0])).unwrap();
            h.pool().unlatch_pages(&pages, LatchMode::Shared);
            r
        })
    });

    // Uncontended exclusive group over an extent, around latched writes —
    // the DSM replace-tuple shape.
    c.bench_function("latch/exclusive_acquire", |b| {
        let (h, first) = shared(1);
        let pages: Vec<PageId> = (0..EXTENT).map(|i| first.offset(i)).collect();
        for &p in &pages {
            h.pool().with_page(p, |_| {}).unwrap();
        }
        b.iter(|| {
            h.pool().latch_pages(&pages, LatchMode::Exclusive).unwrap();
            for &p in &pages {
                h.pool()
                    .with_page_mut(p, |b| b[0] = b[0].wrapping_add(1))
                    .unwrap();
            }
            h.pool().unlatch_pages(&pages, LatchMode::Exclusive);
        })
    });

    // The exclusive pool runs the same latched write shape as counted
    // no-ops — the serial cost of the write surface.
    c.bench_function("latch/exclusive_acquire_serial_noop", |b| {
        let mut disk = SimDisk::new();
        let first = disk.alloc_extent(DB_PAGES);
        let mut pool = BufferPool::new(disk, CAPACITY);
        let pages: Vec<PageId> = (0..EXTENT).map(|i| first.offset(i)).collect();
        for &p in &pages {
            pool.with_page(p, |_| {}).unwrap();
        }
        b.iter(|| {
            PageCache::latch_pages(&mut pool, &pages, LatchMode::Exclusive).unwrap();
            for &p in &pages {
                pool.with_page_mut(p, |b| b[0] = b[0].wrapping_add(1))
                    .unwrap();
            }
            PageCache::unlatch_pages(&mut pool, &pages, LatchMode::Exclusive);
        })
    });

    // Contended mixed batches: 3 reads : 1 latched single-page write over
    // a shared hot set, N clients over N shards.
    for threads in [2usize, 4, 8] {
        c.bench_function(&format!("latch/mixed/threads{threads}"), |b| {
            let (h, first) = shared(threads);
            for i in 0..HOT_SET {
                h.pool().with_page(first.offset(i), |_| {}).unwrap();
            }
            let per_thread = BATCH / threads as u32;
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads as u32 {
                        let h = h.clone();
                        s.spawn(move || {
                            for r in 0..per_thread {
                                let i = (t * 17 + r) % HOT_SET;
                                let pid = first.offset(i);
                                if r % 4 == 3 {
                                    h.pool().latch_pages(&[pid], LatchMode::Exclusive).unwrap();
                                    h.pool()
                                        .with_page_mut(pid, |p| p[0] = p[0].wrapping_add(1))
                                        .unwrap();
                                    h.pool().unlatch_pages(&[pid], LatchMode::Exclusive);
                                } else {
                                    h.pool().with_page(pid, |p| black_box(p[0])).unwrap();
                                }
                            }
                        });
                    }
                });
            })
        });
    }

    c.final_summary();
}
