//! Table 6 bench: regenerates the buffer-fix table and times the buffer
//! manager's fix paths (hits, misses, LRU maintenance) — the paper's
//! CPU-load proxy.

mod common;

use criterion::Criterion;
use starfish_harness::experiments::{grid_models, table6};
use starfish_harness::runner::measure_grid;
use starfish_pagestore::{BufferPool, PageCache, PageId, SimDisk};
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    let grid = measure_grid(&config.dataset(), &config, &grid_models()).expect("grid");
    common::show(&table6::run(&grid));

    let mut c: Criterion = common::criterion();

    // Pure hit path (the NSM rescan regime: everything cached, high fixes).
    let mut pool = BufferPool::new(SimDisk::new(), 700);
    pool.alloc_extent(600);
    for i in 0..600u32 {
        pool.with_page(PageId(i), |_| {}).unwrap();
    }
    c.bench_function("table6/fix_hit_rescan_600_pages", |b| {
        b.iter(|| {
            for i in 0..600u32 {
                pool.with_page(PageId(i), |p| black_box(p[0])).unwrap();
            }
        })
    });

    // Miss + eviction path (the DSM overflow regime).
    let mut pool = BufferPool::new(SimDisk::new(), 64);
    pool.alloc_extent(4096);
    c.bench_function("table6/fix_miss_evict_cycle", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i.wrapping_mul(1103515245).wrapping_add(12345)) % 4096;
            pool.with_page(PageId(i), |p| black_box(p[0])).unwrap();
        })
    });

    c.final_summary();
}
