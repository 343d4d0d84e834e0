//! Micro-benchmarks of the sharded, thread-safe buffer pool.
//!
//! Three questions, each against the exclusive `BufferPool` baseline:
//!
//! * `hit` vs **shard count** — what one uncontended fix costs through a
//!   shard mutex (one lock/unlock + the usual hash probe and policy
//!   bookkeeping), and whether more shards change the single-client cost
//!   (they should not: a fix touches exactly one shard whatever K is).
//! * `hit_batch` vs **thread count** — a fixed batch of hot-set fixes
//!   split across N client threads (shards = N). On multi-core hardware
//!   the batch wall-clock should shrink with N; on one core it measures
//!   pure locking/scheduling overhead.
//! * `churn` — the cyclic-sweep miss path (eviction + reload through the
//!   shared disk's RwLock) with 1 vs 8 shards.

mod common;

use criterion::Criterion;
use starfish_pagestore::{BufferConfig, BufferPool, PageCache, PageId, SharedPoolHandle, SimDisk};
use std::hint::black_box;

const CAPACITY: usize = 1200; // the paper's buffer
const DB_PAGES: u32 = 2 * CAPACITY as u32;
const HOT_SET: u32 = 64;
const BATCH: u32 = 1024;

fn shared(shards: usize) -> (SharedPoolHandle, PageId) {
    let h = SharedPoolHandle::new(BufferConfig::with_pages(CAPACITY), shards);
    let first = h.pool().alloc_extent(DB_PAGES);
    (h, first)
}

fn main() {
    let mut c: Criterion = common::criterion();

    // Baseline: the exclusive pool's hit path (no locks at all).
    c.bench_function("shared_buffer/exclusive/hit", |b| {
        let mut disk = SimDisk::new();
        let first = disk.alloc_extent(DB_PAGES);
        let mut pool = BufferPool::new(disk, CAPACITY);
        pool.with_page(first, |_| {}).unwrap();
        b.iter(|| pool.with_page(first, |p| black_box(p[0])).unwrap())
    });

    for shards in [1usize, 4, 16] {
        c.bench_function(&format!("shared_buffer/shards{shards}/hit"), |b| {
            let (h, first) = shared(shards);
            h.pool().with_page(first, |_| {}).unwrap();
            b.iter(|| h.pool().with_page(first, |p| black_box(p[0])).unwrap())
        });
    }

    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("shared_buffer/threads{threads}/hit_batch"), |b| {
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
                                h.pool()
                                    .with_page(first.offset(i), |p| black_box(p[0]))
                                    .unwrap();
                            }
                        });
                    }
                });
            })
        });
    }

    for shards in [1usize, 8] {
        c.bench_function(&format!("shared_buffer/shards{shards}/churn"), |b| {
            let (h, first) = shared(shards);
            let mut next = 0u32;
            b.iter(|| {
                let r = h
                    .pool()
                    .with_page(first.offset(next), |p| black_box(p[0]))
                    .unwrap();
                next = (next + 1) % DB_PAGES;
                r
            })
        });
    }

    c.final_summary();
}
