//! Table 5 bench: regenerates the I/O-call table and times the substrate
//! behaviour that shapes it — grouped multi-page reads vs single-page scans.

mod common;

use criterion::Criterion;
use starfish_harness::experiments::{grid_models, table5};
use starfish_harness::runner::measure_grid;
use starfish_pagestore::{BufferPool, HeapFile, PageCache, PageId, SimDisk, SpannedStore};
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    let grid = measure_grid(&config.dataset(), &config, &grid_models()).expect("grid");
    common::show(&table5::run(&grid));

    let mut c: Criterion = common::criterion();

    // A spanned object read = root call + data-run call (DSM's ≈2 pages/call).
    let mut pool = BufferPool::new(SimDisk::new(), 64);
    let rec = SpannedStore::store(&mut pool, &vec![1u8; 500], &vec![2u8; 6000], None).unwrap();
    c.bench_function("table5/spanned_read_grouped_calls", |b| {
        b.iter(|| {
            pool.clear_cache().unwrap();
            let h = SpannedStore::read_header(&mut pool, &rec).unwrap();
            let d = SpannedStore::read_data(&mut pool, &rec, None).unwrap();
            black_box((h.len(), d.len()))
        })
    });

    // A relation scan = one call per page (NSM's 1 page/call).
    let mut pool = BufferPool::new(SimDisk::new(), 512);
    let recs: Vec<Vec<u8>> = (0..2000).map(|i| vec![(i % 251) as u8; 166]).collect();
    let (file, _) = HeapFile::bulk_load(&mut pool, "conn", &recs).unwrap();
    c.bench_function("table5/heap_scan_single_page_calls", |b| {
        b.iter(|| {
            pool.clear_cache().unwrap();
            let mut n = 0u64;
            file.scan(&mut pool, |_, bytes| n += bytes.len() as u64)
                .unwrap();
            black_box(n)
        })
    });

    // Flush-time grouped writes (≤32 pages/call).
    let mut pool = BufferPool::new(SimDisk::new(), 256);
    pool.alloc_extent(200);
    c.bench_function("table5/grouped_flush_writes", |b| {
        b.iter(|| {
            for i in 0..200u32 {
                pool.with_page_mut(PageId(i), |p| p[40] = i as u8).unwrap();
            }
            pool.flush_all().unwrap();
            black_box(pool.snapshot().write_calls)
        })
    });

    c.final_summary();
}
