//! Heap files: relations of small records on slotted pages.
//!
//! A heap file is bulk-loaded once into one contiguous extent and then gives
//! RID-addressed access, same-size in-place updates and full scans; it has
//! no later insert or delete, as the paper's relations have none. Records
//! are **clustered in insertion order**, which is what the paper's
//! normalized models rely on: "tuples that belong to the same root or parent
//! are likely to be stored clustered together" (§3.3, Equations 6/7).
//!
//! Scans fetch one page per I/O call, matching DASDBS's observed behaviour
//! for the normalized models ("NSM even reads only a single page per
//! retrieval call", §6).
//!
//! A record is read where it lies: [`HeapFile::with_record`] and
//! [`HeapFile::scan`] hand the record's bytes on the fixed page to a
//! closure, and every storage model decodes its heap-resident tuples there.
//! [`HeapFile::read`] copies, for the callers that change or keep the bytes
//! (a root update, a rebuild).

use crate::{slotted, PageCache, PageId, Result, StoreError, PAGE_SIZE};

/// A record identifier: page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

/// A relation of small records stored on slotted pages.
#[derive(Clone, Debug)]
pub struct HeapFile {
    name: String,
    pages: Vec<PageId>,
}

impl HeapFile {
    /// Bulk-loads `records` into a fresh contiguous extent, filling pages
    /// greedily in order (the DASDBS clustering the cost model's Equations
    /// 6/7 assume). Returns the file and the RID of every record, in input
    /// order.
    ///
    /// One page fix per record, as for every later access to a record: the
    /// page boundaries are planned from the record lengths, so no page is
    /// asked whether the next record fits, and a page is formatted under
    /// the fix of the first record it takes.
    pub fn bulk_load(
        pool: &mut impl PageCache,
        name: impl Into<String>,
        records: &[Vec<u8>],
    ) -> Result<(HeapFile, Vec<Rid>)> {
        // Plan the page of every record first so one contiguous extent can
        // be allocated up front.
        let mut page_of = Vec::with_capacity(records.len());
        let mut pages_needed = 0u32;
        let mut free = 0usize;
        for rec in records {
            let need = rec.len() + crate::SLOT_ENTRY_SIZE;
            if need > crate::EFFECTIVE_PAGE_SIZE {
                return Err(StoreError::RecordTooLarge {
                    len: rec.len(),
                    available: crate::EFFECTIVE_PAGE_SIZE - crate::SLOT_ENTRY_SIZE,
                });
            }
            if need > free {
                pages_needed += 1;
                free = crate::EFFECTIVE_PAGE_SIZE;
            }
            free -= need;
            page_of.push(pages_needed - 1);
        }
        let first = pool.alloc_extent(pages_needed.max(1));
        let file = HeapFile {
            name: name.into(),
            pages: (0..pages_needed.max(1)).map(|i| first.offset(i)).collect(),
        };
        if records.is_empty() {
            pool.with_page_mut(first, slotted::init)?;
        }
        let mut rids: Vec<Rid> = Vec::with_capacity(records.len());
        for (rec, idx) in records.iter().zip(page_of) {
            let page = first.offset(idx);
            let opens_page = rids.last().is_none_or(|r| r.page != page);
            let slot = pool.with_page_mut(page, |p| {
                if opens_page {
                    slotted::init(p);
                }
                slotted::insert(p, rec)
            })??;
            rids.push(Rid { page, slot });
        }
        Ok((file, rids))
    }

    /// Relation name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pages — the cost model's `m`.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// The pages of the file, in scan order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Reads the record at `rid` into a fresh vector (one page fix).
    pub fn read(&self, pool: &mut impl PageCache, rid: Rid) -> Result<Vec<u8>> {
        self.with_record(pool, rid, <[u8]>::to_vec)
    }

    /// Passes the record at `rid` to `f` in place (one page fix, no copy).
    ///
    /// `f` runs while the page is fixed — on a shared pool, under its
    /// shard's mutex, which every other client fixing a page of that shard
    /// waits for. What runs there today is a decode of one record: a
    /// normalized tuple, or a heap-resident station's projection (a
    /// sub-microsecond walk that allocates only the tuple it returns). Do
    /// not wait, lock or do I/O in `f`; copy out with [`HeapFile::read`]
    /// for anything longer.
    pub fn with_record<R>(
        &self,
        pool: &mut impl PageCache,
        rid: Rid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        pool.with_page(rid.page, |p| slotted::read(p, rid.slot, f))?
    }

    /// Overwrites the record at `rid` with a same-sized body (one page fix,
    /// marks the page dirty; the physical write happens on eviction or
    /// flush, as in DASDBS).
    pub fn update(&self, pool: &mut impl PageCache, rid: Rid, rec: &[u8]) -> Result<()> {
        pool.with_page_mut(rid.page, |p| slotted::update_in_place(p, rid.slot, rec))?
    }

    /// Full scan: visits every record in page and slot order, fixing each
    /// page once (one single-page I/O call per cold page, as DASDBS scans
    /// do) and copying nothing.
    ///
    /// The callback receives the RID and the record bytes. The scan always
    /// visits the entire relation — the paper's value selections are
    /// set-oriented and read all `m` pages (Table 3: query 1b = `m` for the
    /// direct models).
    pub fn scan(&self, pool: &mut impl PageCache, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        for &pid in &self.pages {
            pool.with_page(pid, |p: &[u8; PAGE_SIZE]| {
                (0..slotted::slot_count(p))
                    .try_for_each(|slot| slotted::read(p, slot, |b| f(Rid { page: pid, slot }, b)))
            })??;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, SimDisk};

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(), 64)
    }

    fn records(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; len]).collect()
    }

    #[test]
    fn bulk_load_page_count_matches_k() {
        let mut p = pool();
        // 166-byte bodies (connection tuples): k = 11 ⇒ 25 records on 3 pages.
        let recs = records(25, 166);
        let (file, rids) = HeapFile::bulk_load(&mut p, "conn", &recs).unwrap();
        assert_eq!(file.page_count(), 3);
        assert_eq!(rids.len(), 25);
        // Contiguous extent.
        let ids: Vec<u32> = file.pages().iter().map(|p| p.0).collect();
        for w in ids.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        // 11 + 11 + 3 distribution.
        assert_eq!(
            rids.iter().filter(|r| r.page == file.pages()[0]).count(),
            11
        );
        assert_eq!(rids.iter().filter(|r| r.page == file.pages()[2]).count(), 3);
    }

    #[test]
    fn bulk_load_fixes_once_per_record() {
        let mut p = pool();
        HeapFile::bulk_load(&mut p, "conn", &records(25, 166)).unwrap();
        assert_eq!(p.snapshot().fixes, 25, "no fit probe, no format pass");
    }

    #[test]
    fn read_returns_loaded_bytes() {
        let mut p = pool();
        let recs = records(7, 100);
        let (file, rids) = HeapFile::bulk_load(&mut p, "r", &recs).unwrap();
        for (rec, rid) in recs.iter().zip(&rids) {
            assert_eq!(&file.read(&mut p, *rid).unwrap(), rec);
        }
    }

    #[test]
    fn update_in_place_persists_through_flush() {
        let mut p = pool();
        let recs = records(3, 50);
        let (file, rids) = HeapFile::bulk_load(&mut p, "r", &recs).unwrap();
        let new = vec![0xEE; 50];
        file.update(&mut p, rids[1], &new).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(file.read(&mut p, rids[1]).unwrap(), new);
        assert_eq!(file.read(&mut p, rids[0]).unwrap(), recs[0]);
    }

    #[test]
    fn scan_visits_all_in_order_one_fix_per_page() {
        let mut p = pool();
        let recs = records(25, 166);
        let (file, rids) = HeapFile::bulk_load(&mut p, "r", &recs).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        let mut seen = Vec::new();
        file.scan(&mut p, |rid, _| seen.push(rid)).unwrap();
        assert_eq!(seen, rids);
        let s = p.snapshot();
        assert_eq!(s.fixes, 3, "one fix per page");
        assert_eq!(s.read_calls, 3, "scans read one page per call");
        assert_eq!(s.pages_read, 3);
    }

    #[test]
    fn bulk_load_rejects_oversized_record() {
        let mut p = pool();
        let too_big = vec![vec![0u8; crate::EFFECTIVE_PAGE_SIZE]];
        assert!(HeapFile::bulk_load(&mut p, "r", &too_big).is_err());
    }

    #[test]
    fn empty_bulk_load_is_one_empty_page() {
        let mut p = pool();
        let (file, rids) = HeapFile::bulk_load(&mut p, "r", &[]).unwrap();
        assert_eq!(file.page_count(), 1);
        assert!(rids.is_empty());
        let mut n = 0;
        file.scan(&mut p, |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
    }
}
