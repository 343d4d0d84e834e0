//! A multi-page read is one consistent image: the promise behind
//! [`PageCache::read_runs`] on the shared pool, tested at the pool itself.
//!
//! A writer stamps every page of a 6-page extent of a 2-shard pool with one
//! counter value, under an exclusive group latch, yielding between pages so
//! that a reader could catch it half way. Readers visit the extent with
//! `read_runs` and **no latch of their own**, as the direct storage models
//! read an object, and assert that all six pages carry the same stamp. The
//! visit is tried both as one run and as two groups (a spanned object's
//! header run and data run).
//!
//! The battery runs over two extents. A plain `alloc_extent` run, whose
//! pages hash to both shards, makes a visit a lock session over two
//! mutexes. An object extent (`alloc_object_extent`, what a spanned object
//! is stored in) has one owning shard, so the session holds one mutex —
//! the same argument with one shard in it.
//!
//! Engine off, a visit is one lock session over the extent's shards, begun
//! only when no foreign exclusive latch covers its pages; engine on, the
//! visit is served call by call (an engine miss drops its shard mutex) and
//! the pool's handle holds a shared group latch over the visit's pages
//! instead. Each mode runs with a roomy pool (every fix a hit) and a
//! 4-frame pool (the extent never fits, so visits miss). The tests also pin
//! what is counted: engine off, reads take no shared latch at all.

use starfish_pagestore::{
    BufferConfig, IoEngineConfig, LatchMode, PageCache, PageId, SharedPoolHandle, StoreError,
    PAGE_SIZE,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

const EXTENT: u32 = 6;
const STAMPS: u64 = 1500;
const READERS: usize = 2;
/// Reads each reader makes at least, even if the writer is done first.
const MIN_READS: u64 = 200;

/// Where a page carries its stamp: at both ends, so a page copied half way
/// would show too.
fn stamp_of(page: &[u8]) -> u64 {
    let head = u64::from_le_bytes(page[..8].try_into().unwrap());
    let tail = u64::from_le_bytes(page[page.len() - 8..].try_into().unwrap());
    assert_eq!(head, tail, "a page torn within itself");
    head
}

fn write_stamp(page: &mut [u8], stamp: u64) {
    let len = page.len();
    page[..8].copy_from_slice(&stamp.to_le_bytes());
    page[len - 8..].copy_from_slice(&stamp.to_le_bytes());
}

/// Which allocation the battery's extent comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Extent {
    /// `alloc_extent`: every page hashes to its own shard.
    Plain,
    /// `alloc_object_extent`: one shard owns every page.
    Object,
}

/// Runs the battery on a 2-shard pool of `frames` frames; returns the pool
/// for the caller's counter checks.
fn stamped_extent_reads_are_never_torn(
    engine: bool,
    frames: usize,
    extent: Extent,
) -> SharedPoolHandle {
    let mut config = BufferConfig::with_pages(frames);
    if engine {
        config = config.io(IoEngineConfig::enabled());
    }
    let pool = SharedPoolHandle::new(config, 2);
    let first = match extent {
        Extent::Plain => pool.pool().alloc_extent(EXTENT),
        Extent::Object => pool.pool().alloc_object_extent(EXTENT),
    };
    let pages: Vec<PageId> = (0..EXTENT).map(|i| first.offset(i)).collect();

    // The plain extent spans both shards; the object extent one.
    pool.clone()
        .read_runs(&[&[(first, EXTENT)]], |_, _| {})
        .unwrap();
    let per_shard = pool.pool().shard_stats();
    match extent {
        Extent::Plain => assert!(
            per_shard.iter().all(|s| s.fixes > 0),
            "the extent must hash to both shards: {per_shard:?}"
        ),
        Extent::Object => assert_eq!(
            per_shard.iter().filter(|s| s.fixes > 0).count(),
            1,
            "the object extent must live in one shard: {per_shard:?}"
        ),
    }

    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    thread::scope(|s| {
        for r in 0..READERS {
            let (mut pool, done, start) = (pool.clone(), &done, &start);
            s.spawn(move || {
                start.wait();
                let (mut reads, mut last) = (0u64, 0u64);
                while !done.load(Ordering::Acquire) || reads < MIN_READS {
                    let mut seen = [0u64; EXTENT as usize];
                    let mut record = |pid: PageId, page: &[u8; PAGE_SIZE]| {
                        seen[(pid.0 - first.0) as usize] = stamp_of(page);
                    };
                    let visit = if (reads + r as u64).is_multiple_of(2) {
                        pool.read_runs(&[&[(first, EXTENT)]], &mut record)
                    } else {
                        let (header, data) = ([(first, 2)], [(first.offset(2), EXTENT - 2)]);
                        pool.read_runs(&[&header, &data], &mut record)
                    };
                    visit.unwrap();
                    assert!(
                        seen.iter().all(|&v| v == seen[0]),
                        "reader {r} saw a torn extent: {seen:?}"
                    );
                    assert!(seen[0] >= last, "reader {r} went back in time");
                    last = seen[0];
                    reads += 1;
                }
            });
        }
        let mut writer = pool.clone();
        start.wait();
        for stamp in 1..=STAMPS {
            writer
                .with_latched(&pages, LatchMode::Exclusive, |w| {
                    for &pid in &pages {
                        w.with_page_mut(pid, |p| write_stamp(p, stamp))?;
                        thread::yield_now();
                    }
                    Ok::<_, StoreError>(())
                })
                .unwrap();
        }
        done.store(true, Ordering::Release);
    });
    pool
}

#[test]
fn a_read_visit_is_one_image_with_the_engine_off() {
    for extent in [Extent::Plain, Extent::Object] {
        for frames in [64, 4] {
            let pool = stamped_extent_reads_are_never_torn(false, frames, extent);
            let stats = pool.buffer_stats();
            assert_eq!(
                stats.latch_shared, 0,
                "{extent:?}, {frames} frames: reads take no latch"
            );
            assert_eq!(stats.latch_exclusive, STAMPS * u64::from(EXTENT));
        }
    }
}

#[test]
fn a_read_visit_is_one_image_with_the_engine_on() {
    for extent in [Extent::Plain, Extent::Object] {
        for frames in [64, 4] {
            let pool = stamped_extent_reads_are_never_torn(true, frames, extent);
            let stats = pool.buffer_stats();
            assert!(pool.pool().io_engine_enabled());
            assert!(
                stats.latch_shared > 0,
                "{extent:?}, {frames} frames: the per-call visit latches its pages"
            );
            assert_eq!(stats.latch_exclusive, STAMPS * u64::from(EXTENT));
        }
    }
}
