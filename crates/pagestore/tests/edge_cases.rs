//! Edge-case and failure-injection tests for the storage substrate.

use starfish_pagestore::{
    slotted, BufferConfig, BufferPool, HeapFile, PageCache, PageId, SharedPoolHandle, SimDisk,
    SpannedStore, StoreError, EFFECTIVE_PAGE_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE,
};

fn pool(cap: usize, pages: u32) -> BufferPool {
    let mut disk = SimDisk::new();
    disk.alloc_extent(pages);
    BufferPool::new(disk, cap)
}

#[test]
fn buffer_of_one_page_still_works() {
    let mut p = pool(1, 16);
    for i in 0..16u32 {
        p.with_page_mut(PageId(i), |b| b[100] = i as u8).unwrap();
    }
    p.flush_all().unwrap();
    for i in 0..16u32 {
        p.with_page(PageId(i), |b| assert_eq!(b[100], i as u8))
            .unwrap();
        assert_eq!(p.cached_pages(), 1);
    }
    // 16 dirty pages were evicted through a 1-page buffer: every eviction
    // wrote one page (except the final flush batch).
    let s = p.snapshot();
    assert_eq!(s.pages_written, 16);
}

#[test]
fn prefetch_larger_than_capacity_degrades_gracefully() {
    let mut p = pool(4, 64);
    p.prefetch_run(PageId(0), 64).unwrap();
    // All pages were read in one call; the cache holds at most ~capacity.
    let s = p.snapshot();
    assert_eq!(s.read_calls, 1);
    assert_eq!(s.pages_read, 64);
    assert!(p.cached_pages() <= 64);
}

#[test]
fn flush_on_clean_pool_is_free() {
    let mut p = pool(8, 8);
    p.with_page(PageId(3), |_| {}).unwrap();
    p.reset_stats();
    p.flush_all().unwrap();
    assert_eq!(p.snapshot().write_calls, 0);
}

/// The same rule on both pool fronts of the one disk: the exclusive pool
/// and a 1- and a 2-shard shared pool.
#[test]
fn out_of_bounds_page_errors_cleanly() {
    fn check(p: &mut impl PageCache) {
        let err = p.with_page(PageId(4), |_| {}).unwrap_err();
        assert!(matches!(err, StoreError::PageOutOfBounds { .. }));
        // Error paths must not corrupt the accounting identities: the
        // failed access was counted as a fix and a miss, but no pages were
        // read.
        let s = p.buffer_stats();
        assert_eq!(s.fixes, s.hits + s.misses);
        assert_eq!(p.snapshot().pages_read, 0);
    }
    check(&mut pool(4, 4));
    for shards in [1, 2] {
        let mut p = SharedPoolHandle::new(BufferConfig::with_pages(4), shards);
        p.pool().alloc_extent(4);
        check(&mut p);
    }
}

#[test]
fn slotted_page_one_byte_records() {
    let mut page = Box::new([0u8; PAGE_SIZE]);
    slotted::init(&mut page);
    let mut slots = Vec::new();
    while slotted::fits(&page, 1) {
        slots.push(slotted::insert(&mut page, &[0xAB]).unwrap());
    }
    assert_eq!(slots.len(), EFFECTIVE_PAGE_SIZE / (1 + SLOT_ENTRY_SIZE));
    for s in &slots {
        slotted::read(&page, *s, |b| assert_eq!(b, &[0xAB])).unwrap();
    }
}

#[test]
fn slotted_zero_length_records_are_legal() {
    let mut page = Box::new([0u8; PAGE_SIZE]);
    slotted::init(&mut page);
    let s = slotted::insert(&mut page, &[]).unwrap();
    slotted::read(&page, s, |b| assert!(b.is_empty())).unwrap();
}

#[test]
fn heap_file_update_wrong_size_rejected() {
    let mut p = pool(16, 0);
    let (file, rids) = HeapFile::bulk_load(&mut p, "r", &[vec![1u8; 64], vec![2u8; 64]]).unwrap();
    let err = file.update(&mut p, rids[0], &[0u8; 63]).unwrap_err();
    assert!(matches!(err, StoreError::SizeChanged { old: 64, new: 63 }));
    // The record is unchanged after the failed update.
    assert_eq!(file.read(&mut p, rids[0]).unwrap(), vec![1u8; 64]);
}

#[test]
fn heap_file_bad_rid_errors() {
    let mut p = pool(16, 0);
    let (file, rids) = HeapFile::bulk_load(&mut p, "r", &[vec![1u8; 10]]).unwrap();
    let bad = starfish_pagestore::Rid {
        page: rids[0].page,
        slot: 99,
    };
    assert!(file.read(&mut p, bad).is_err());
}

#[test]
fn spanned_zero_header_and_tiny_data() {
    let mut p = pool(16, 0);
    // Header of 1 byte, data of 1 byte: 2 pages minimum.
    let rec = SpannedStore::store(&mut p, &[7], &[9], None).unwrap();
    assert_eq!(rec.total_pages(), 2);
    p.clear_cache().unwrap();
    assert_eq!(SpannedStore::read_header(&mut p, &rec).unwrap(), vec![7]);
    assert_eq!(
        SpannedStore::read_full(&mut p, &rec, None).unwrap(),
        vec![9]
    );
}

#[test]
fn spanned_exact_page_boundary_sizes() {
    let mut p = pool(64, 0);
    for data_len in [
        EFFECTIVE_PAGE_SIZE - 1,
        EFFECTIVE_PAGE_SIZE,
        EFFECTIVE_PAGE_SIZE + 1,
    ] {
        let data: Vec<u8> = (0..data_len).map(|i| i as u8).collect();
        let rec = SpannedStore::store(&mut p, &[1, 2, 3], &data, None).unwrap();
        let expect_pages = data_len.div_ceil(EFFECTIVE_PAGE_SIZE) as u32;
        assert_eq!(rec.data_pages, expect_pages, "len {data_len}");
        p.clear_cache().unwrap();
        assert_eq!(SpannedStore::read_full(&mut p, &rec, None).unwrap(), data);
    }
}

#[test]
fn spanned_empty_range_read_touches_nothing() {
    let mut p = pool(16, 0);
    let rec = SpannedStore::store(&mut p, &[0], &vec![5u8; 5000], None).unwrap();
    p.clear_cache().unwrap();
    p.reset_stats();
    let out = SpannedStore::read_data_ranges(&mut p, &rec, None, &[]).unwrap();
    assert_eq!(out.len(), 5000);
    assert_eq!(p.snapshot().pages_read, 0, "no ranges, no I/O");
}

#[test]
fn interleaved_files_do_not_corrupt_each_other() {
    let mut p = pool(32, 0);
    let (fa, ra) = HeapFile::bulk_load(&mut p, "a", &[vec![1u8; 700], vec![2u8; 700]]).unwrap();
    let rec = SpannedStore::store(&mut p, &[9; 10], &vec![3u8; 4000], None).unwrap();
    let (fb, rb) = HeapFile::bulk_load(&mut p, "b", &[vec![4u8; 700]]).unwrap();
    fa.update(&mut p, ra[1], &vec![5u8; 700]).unwrap();
    SpannedStore::rewrite(&mut p, &rec, None, &vec![6u8; 4000]).unwrap();
    p.clear_cache().unwrap();
    assert_eq!(fa.read(&mut p, ra[0]).unwrap(), vec![1u8; 700]);
    assert_eq!(fa.read(&mut p, ra[1]).unwrap(), vec![5u8; 700]);
    assert_eq!(fb.read(&mut p, rb[0]).unwrap(), vec![4u8; 700]);
    assert_eq!(
        SpannedStore::read_full(&mut p, &rec, None).unwrap(),
        vec![6u8; 4000]
    );
}

#[test]
fn stats_identities_hold_after_mixed_workload() {
    let mut p = pool(8, 64);
    for i in 0..64u32 {
        p.with_page_mut(PageId(i % 16), |b| b[50] = i as u8)
            .unwrap();
        if i % 3 == 0 {
            p.prefetch_run(PageId(i % 60), 4).unwrap();
        }
    }
    p.flush_all().unwrap();
    let b = p.buffer_stats();
    let s = p.snapshot();
    assert_eq!(b.fixes, b.hits + b.misses);
    assert!(
        s.pages_read >= b.misses,
        "prefetch reads are not fix-misses"
    );
    assert!(b.dirty_evictions <= b.evictions);
    assert!(s.pages_written >= b.dirty_evictions);
}
