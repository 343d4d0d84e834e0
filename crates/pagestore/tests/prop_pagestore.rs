#![allow(clippy::single_range_in_vec_init)] // &[Range] is the API shape

//! Property-based tests for the storage substrate: slotted pages never
//! corrupt under random insert/update sequences, the buffer pool preserves
//! contents under pressure and keeps its accounting identities, heap files
//! and spanned records round-trip arbitrary payloads.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use starfish_pagestore::{
    slotted, BufferPool, HeapFile, IoSnapshot, PageCache, PageId, SimDisk, SpannedStore,
    EFFECTIVE_PAGE_SIZE, PAGE_SIZE,
};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum PageOp {
    Insert(Vec<u8>),
    Update(usize, u8),
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..200).prop_map(PageOp::Insert),
        ((0usize..32), any::<u8>()).prop_map(|(i, b)| PageOp::Update(i, b)),
    ]
}

/// Drives one spanned record through every [`SpannedStore`] function under
/// `plan` — store, full read, ranged read, patch, rewrite — checking the
/// bytes at each step, and returns what the run left behind: the disk
/// checksum and every counter.
fn exercise_plan(
    plan: Option<&[u32]>,
    data: &[u8],
    ranges: &[std::ops::Range<u32>],
) -> Result<(u64, IoSnapshot), TestCaseError> {
    let mut pool = BufferPool::new(SimDisk::new(), 64);
    let rec = SpannedStore::store(&mut pool, &[7; 40], data, plan).unwrap();
    pool.clear_cache().unwrap();
    prop_assert_eq!(
        &SpannedStore::read_full(&mut pool, &rec, plan).unwrap(),
        data
    );
    pool.clear_cache().unwrap();
    let sparse = SpannedStore::read_data_ranges(&mut pool, &rec, plan, ranges).unwrap();
    let mut expect = data.to_vec();
    for r in ranges {
        let (lo, hi) = (r.start as usize, r.end as usize);
        prop_assert_eq!(&sparse[lo..hi], &data[lo..hi]);
        // Patch every requested range with its complement.
        let patch: Vec<u8> = data[lo..hi].iter().map(|b| !b).collect();
        SpannedStore::write_data_range(&mut pool, &rec, plan, r.clone(), &patch).unwrap();
        expect[lo..hi].copy_from_slice(&patch);
    }
    pool.clear_cache().unwrap();
    prop_assert_eq!(
        SpannedStore::read_full(&mut pool, &rec, plan).unwrap(),
        expect.clone()
    );
    expect.reverse();
    SpannedStore::rewrite(&mut pool, &rec, plan, &expect).unwrap();
    pool.clear_cache().unwrap();
    prop_assert_eq!(
        SpannedStore::read_full(&mut pool, &rec, plan).unwrap(),
        expect
    );
    Ok((pool.disk_checksum(), pool.snapshot()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Model-based test: a slotted page behaves like a list of bodies
    /// indexed by slot.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(arb_page_op(), 0..120)) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        slotted::init(&mut page);
        let mut model: Vec<Vec<u8>> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(body) => {
                    match slotted::insert(&mut page, &body) {
                        Ok(slot) => {
                            prop_assert_eq!(slot as usize, model.len(), "slots are appended");
                            model.push(body);
                        }
                        Err(_) => {
                            // Must only fail when the content budget is short.
                            let used: usize = model.iter().map(|b| b.len() + 4).sum();
                            prop_assert!(used + body.len() + 4 > EFFECTIVE_PAGE_SIZE);
                        }
                    }
                }
                PageOp::Update(i, b) if !model.is_empty() => {
                    let slot = i % model.len();
                    let new = vec![b; model[slot].len()];
                    slotted::update_in_place(&mut page, slot as u16, &new).unwrap();
                    model[slot] = new;
                }
                PageOp::Update(..) => {}
            }
            // Invariants after every op.
            let used: usize = model.iter().map(|b| b.len() + 4).sum();
            prop_assert_eq!(slotted::content_used(&page), used);
            for (slot, body) in model.iter().enumerate() {
                slotted::read(&page, slot as u16, |b| assert_eq!(b, &body[..])).unwrap();
            }
            prop_assert_eq!(slotted::slot_count(&page) as usize, model.len());
        }
    }

    /// Buffer pool under pressure: contents survive, accounting identities
    /// hold (fixes = hits + misses; cache never exceeds capacity).
    #[test]
    fn buffer_pool_preserves_contents(
        cap in 1usize..8,
        accesses in proptest::collection::vec((0u32..24, any::<bool>(), any::<u8>()), 1..200),
    ) {
        let mut disk = SimDisk::new();
        disk.alloc_extent(24);
        let mut pool = BufferPool::new(disk, cap);
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (pid, write, val) in accesses {
            if write {
                pool.with_page_mut(PageId(pid), |p| p[40] = val).unwrap();
                model.insert(pid, val);
            } else {
                let expect = model.get(&pid).copied().unwrap_or(0);
                pool.with_page(PageId(pid), |p| assert_eq!(p[40], expect)).unwrap();
            }
            prop_assert!(pool.cached_pages() <= cap);
            let s = pool.buffer_stats();
            prop_assert_eq!(s.fixes, s.hits + s.misses);
        }
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        for (pid, val) in model {
            pool.with_page(PageId(pid), |p| assert_eq!(p[40], val)).unwrap();
        }
    }

    /// Heap files round-trip arbitrary record sets and report the greedy
    /// page plan.
    #[test]
    fn heap_file_roundtrip(
        lens in proptest::collection::vec(1usize..600, 0..60),
    ) {
        let recs: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(i, &l)| vec![(i % 251) as u8; l]).collect();
        let mut pool = BufferPool::new(SimDisk::new(), 64);
        let (file, rids) = HeapFile::bulk_load(&mut pool, "r", &recs).unwrap();
        // Greedy plan: simulate.
        let mut pages = 0u32;
        let mut free = 0usize;
        for rec in &recs {
            let need = rec.len() + 4;
            if need > free {
                pages += 1;
                free = EFFECTIVE_PAGE_SIZE;
            }
            free -= need;
        }
        prop_assert_eq!(file.page_count(), pages.max(1));
        for (rec, rid) in recs.iter().zip(&rids) {
            prop_assert_eq!(&file.read(&mut pool, *rid).unwrap(), rec);
        }
        // Scan yields exactly the loaded records in order.
        let mut seen = Vec::new();
        file.scan(&mut pool, |rid, b| seen.push((rid, b.to_vec()))).unwrap();
        prop_assert_eq!(seen.len(), recs.len());
        for ((rid, body), (erid, erec)) in seen.iter().zip(rids.iter().zip(&recs)) {
            prop_assert_eq!(rid, erid);
            prop_assert_eq!(body, erec);
        }
    }

    /// Spanned records round-trip and range reads match slices.
    #[test]
    fn spanned_roundtrip_and_ranges(
        hlen in 1usize..3000,
        dlen in 1usize..9000,
        seed in any::<u8>(),
    ) {
        let header: Vec<u8> = (0..hlen).map(|i| (i as u8).wrapping_add(seed)).collect();
        let data: Vec<u8> = (0..dlen).map(|i| (i as u8).wrapping_mul(17) ^ seed).collect();
        let mut pool = BufferPool::new(SimDisk::new(), 64);
        let rec = SpannedStore::store(&mut pool, &header, &data, None).unwrap();
        prop_assert_eq!(rec.header_pages, (hlen.div_ceil(EFFECTIVE_PAGE_SIZE)).max(1) as u32);
        prop_assert_eq!(rec.data_pages, (dlen.div_ceil(EFFECTIVE_PAGE_SIZE)).max(1) as u32);
        pool.clear_cache().unwrap();
        prop_assert_eq!(SpannedStore::read_header(&mut pool, &rec).unwrap(), header);
        prop_assert_eq!(SpannedStore::read_full(&mut pool, &rec, None).unwrap(), data.clone());
        // A random sub-range read returns the right bytes.
        let lo = (dlen / 3) as u32;
        let hi = (dlen - dlen / 4).max(dlen / 3 + 1) as u32;
        pool.clear_cache().unwrap();
        pool.reset_stats();
        let sparse = SpannedStore::read_data_ranges(&mut pool, &rec, None, &[lo..hi]).unwrap();
        prop_assert_eq!(&sparse[lo as usize..hi as usize], &data[lo as usize..hi as usize]);
        // Never reads more pages than the record has.
        prop_assert!(pool.snapshot().pages_read <= rec.data_pages as u64);
    }

    /// One page plan, two kinds. Any valid explicit plan round-trips through
    /// every function, and the packed layout is indistinguishable — on disk
    /// and in every counter — from the explicit plan that cuts at the same
    /// bytes.
    #[test]
    fn any_page_plan_roundtrips_and_uniform_equals_packed(
        chunks in proptest::collection::vec(1usize..=EFFECTIVE_PAGE_SIZE, 1..10),
        cuts in proptest::collection::vec(any::<u32>(), 0..8),
        seed in any::<u8>(),
    ) {
        let dlen: usize = chunks.iter().sum();
        let data: Vec<u8> = (0..dlen).map(|i| (i as u8).wrapping_mul(29) ^ seed).collect();
        // Sorted, disjoint byte ranges: consecutive pairs of sorted cuts.
        let mut cuts: Vec<u32> = cuts.iter().map(|c| c % (dlen as u32 + 1)).collect();
        cuts.sort_unstable();
        let ranges: Vec<_> = cuts.chunks_exact(2).map(|c| c[0]..c[1]).collect();

        let mut starts = vec![0u32];
        for c in &chunks[..chunks.len() - 1] {
            starts.push(starts[starts.len() - 1] + *c as u32);
        }
        exercise_plan(Some(&starts), &data, &ranges)?;

        let uniform: Vec<u32> = (0..dlen.div_ceil(EFFECTIVE_PAGE_SIZE))
            .map(|i| (i * EFFECTIVE_PAGE_SIZE) as u32)
            .collect();
        prop_assert_eq!(
            exercise_plan(None, &data, &ranges)?,
            exercise_plan(Some(&uniform), &data, &ranges)?
        );
    }
}
