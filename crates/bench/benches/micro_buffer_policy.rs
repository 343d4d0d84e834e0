//! Micro-benchmarks of the buffer-replacement policies.
//!
//! Three access shapes per policy:
//!
//! * `hit` — the fix hot path on a cached page: one hash probe plus the
//!   policy's access bookkeeping. This is the path the O(1) LRU rewrite
//!   targets (the seed paid a `BTreeMap` remove + insert per fix).
//! * `churn` — a cyclic sweep over twice the buffer capacity: every fix
//!   misses and evicts under recency policies, so this times the victim
//!   path plus frame turnover.
//! * `skew` — 9 hits on a resident hot set to 1 cold miss, the regime the
//!   paper's navigation queries (2b/3b) produce.

mod common;

use criterion::Criterion;
use starfish_pagestore::{BufferPool, PageCache, PageId, PolicyKind, SimDisk};
use std::hint::black_box;

const CAPACITY: usize = 1200; // the paper's buffer
const DB_PAGES: u32 = 2 * CAPACITY as u32;

fn fresh_pool(kind: PolicyKind) -> BufferPool {
    let mut disk = SimDisk::new();
    disk.alloc_extent(DB_PAGES);
    BufferPool::with_policy(disk, CAPACITY, kind)
}

fn main() {
    let mut c: Criterion = common::criterion();

    for kind in PolicyKind::all() {
        c.bench_function(&format!("buffer/{kind}/hit"), |b| {
            let mut pool = fresh_pool(kind);
            pool.with_page(PageId(0), |_| {}).unwrap();
            b.iter(|| pool.with_page(PageId(0), |p| black_box(p[0])).unwrap())
        });

        c.bench_function(&format!("buffer/{kind}/churn"), |b| {
            let mut pool = fresh_pool(kind);
            let mut next = 0u32;
            b.iter(|| {
                let r = pool.with_page(PageId(next), |p| black_box(p[0])).unwrap();
                next = (next + 1) % DB_PAGES;
                r
            })
        });

        c.bench_function(&format!("buffer/{kind}/skew"), |b| {
            let mut pool = fresh_pool(kind);
            // Resident hot set, then 9:1 hot:cold accesses.
            for i in 0..(CAPACITY as u32 / 2) {
                pool.with_page(PageId(i), |_| {}).unwrap();
            }
            let (mut tick, mut cold) = (0u32, CAPACITY as u32);
            b.iter(|| {
                let pid = if tick % 10 == 9 {
                    cold = CAPACITY as u32 + (cold + 1) % CAPACITY as u32;
                    PageId(cold)
                } else {
                    PageId(tick % (CAPACITY as u32 / 2))
                };
                tick = tick.wrapping_add(1);
                pool.with_page(pid, |p| black_box(p[0])).unwrap()
            })
        });
    }

    c.final_summary();
}
