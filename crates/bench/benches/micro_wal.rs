//! Micro-benchmarks of the write-ahead log.
//!
//! * `wal/commit/per_commit`, `wal/commit/group` — one exclusively latched
//!   single-page update of one byte plus `log_commit` on a 1-shard WAL
//!   pool: the before-copy and compare that find the changed range, the
//!   record encode with its FNV-1a checksum, the page-chunk copy into the
//!   log device and one flush. With one client a group-commit leader has
//!   nobody to batch with, so the two modes differ by the leader's yield
//!   window only. Every 4096th commit also flushes the pool, which
//!   checkpoints and truncates the log — without it the in-memory log
//!   device would grow for as long as the bench runs.
//! * `wal/commit/dsm_shape` — the shape of a DSM root update of a spanned
//!   object: one exclusive group over 4 pages, 3 of them re-dirtied with
//!   their own bytes (the header and the untouched data pages a rewrite
//!   writes back) and 100 bytes changed on the fourth, then `log_commit`
//!   (per commit). It prices what an unchanged page costs: one compare, no
//!   record.
//! * `wal/crash_recover/1000_pages` — crash, then `recover()` of 1000
//!   committed single-page updates: the log scan (segment headers, the
//!   chunk copy back out, one checksum per record), the base-page reads,
//!   the range replay, the write-back and the closing checkpoint.
//!   Re-logging the pages is set-up
//!   and stays outside the timed region, so this one is timed by hand.

mod common;

use criterion::Criterion;
use starfish_pagestore::{
    BufferConfig, FsyncMode, LatchMode, PageId, SharedBufferPool, WalConfig, PAGE_SIZE,
};
use std::hint::black_box;
use std::time::Instant;

const CAPACITY: usize = 1200; // the paper's buffer
const RECOVERED_PAGES: u32 = 1000;
const COMMITS_PER_CHECKPOINT: u32 = 4096;
const RECOVERY_ROUNDS: usize = 15;

fn wal_pool(fsync: FsyncMode) -> SharedBufferPool {
    let config = BufferConfig::with_pages(CAPACITY).wal(WalConfig::enabled(fsync));
    let pool = SharedBufferPool::from_config(config, 1);
    pool.alloc_extent(RECOVERED_PAGES);
    pool
}

/// One durable single-page op, shaped like the stores' update paths: the
/// latched read-modify-write, then the commit.
fn committed_update(pool: &SharedBufferPool, pid: PageId, byte: u8) {
    let group = [pid];
    pool.latch_pages(&group, LatchMode::Exclusive).unwrap();
    pool.with_page_mut(pid, |page| page[PAGE_SIZE / 2] = byte)
        .unwrap();
    pool.unlatch_pages(&group, LatchMode::Exclusive);
    pool.log_commit().unwrap();
}

/// One durable op shaped like a DSM update of a spanned object: pages
/// `first..first + 4` latched exclusively, the first three rewritten with
/// their own bytes, 100 bytes of the fourth set to `byte`.
fn dsm_shaped_update(pool: &SharedBufferPool, first: PageId, byte: u8) {
    let group: [PageId; 4] = std::array::from_fn(|i| first.offset(i as u32));
    pool.latch_pages(&group, LatchMode::Exclusive).unwrap();
    for &pid in &group[..3] {
        pool.with_page_mut(pid, |page| page.copy_within(..PAGE_SIZE / 2, 0))
            .unwrap();
    }
    pool.with_page_mut(group[3], |page| page[PAGE_SIZE / 2..][..100].fill(byte))
        .unwrap();
    pool.unlatch_pages(&group, LatchMode::Exclusive);
    pool.log_commit().unwrap();
}

fn main() {
    let mut c: Criterion = common::criterion();

    for fsync in [FsyncMode::PerCommit, FsyncMode::Group] {
        let id = format!("wal/commit/{}", fsync.name().replace('-', "_"));
        c.bench_function(&id, |b| {
            let pool = wal_pool(fsync);
            let mut n = 0u32;
            b.iter(|| {
                n = n.wrapping_add(1);
                committed_update(&pool, PageId(n % 64), n as u8);
                if n.is_multiple_of(COMMITS_PER_CHECKPOINT) {
                    pool.flush_all().unwrap();
                }
            })
        });
    }

    c.bench_function("wal/commit/dsm_shape", |b| {
        let pool = wal_pool(FsyncMode::PerCommit);
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            dsm_shaped_update(&pool, PageId((n % 16) * 4), n as u8);
            if n.is_multiple_of(COMMITS_PER_CHECKPOINT) {
                pool.flush_all().unwrap();
            }
        })
    });

    let pool = wal_pool(FsyncMode::PerCommit);
    let mut ms: Vec<f64> = (0..RECOVERY_ROUNDS)
        .map(|round| {
            for p in 0..RECOVERED_PAGES {
                committed_update(&pool, PageId(p), round as u8 + 1);
            }
            let t0 = Instant::now();
            pool.crash_volatile();
            let replayed = black_box(pool.recover().unwrap());
            let elapsed = t0.elapsed();
            assert_eq!(replayed, RECOVERED_PAGES as usize);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    eprintln!(
        "wal/crash_recover/1000_pages: median {:.2} ms, min {:.2} ms, max {:.2} ms ({} rounds)",
        ms[ms.len() / 2],
        ms[0],
        ms[ms.len() - 1],
        ms.len()
    );

    c.final_summary();
}
