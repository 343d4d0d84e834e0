//! Mixed heap/spanned storage for per-object payloads.
//!
//! DASDBS stores a nested tuple that fits on a page as a normal record
//! (several objects share a page); a larger tuple gets its own extent with
//! header (structure) pages disjoint from data pages (§4). `ObjectFile`
//! implements exactly that split for a sequence of encoded objects and is
//! shared by the direct models (whole `Station` objects) and DASDBS-NSM
//! (whose nested `Sightseeing` tuples can exceed a page).

use crate::{CoreError, Result};
use starfish_nf2::{Projection, TupleLayout};
use starfish_pagestore::{
    HeapFile, PageCache, PageId, Rid, SpannedRecord, SpannedStore, EFFECTIVE_PAGE_SIZE,
    SLOT_ENTRY_SIZE,
};
use std::ops::Range;

/// Where one object's payload lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjAddr {
    /// Small object: a record on a shared slotted page.
    Heap(Rid),
    /// Large object: a private extent of header + data pages.
    Spanned(SpannedRecord),
}

impl ObjAddr {
    /// Pages this object occupies (1 for heap residents — shared).
    pub fn pages(&self) -> u32 {
        match self {
            ObjAddr::Heap(_) => 1,
            ObjAddr::Spanned(r) => r.total_pages(),
        }
    }
}

/// A sequence of objects stored heap-or-spanned, addressed by ordinal.
pub struct ObjectFile {
    name: String,
    heap: HeapFile,
    addrs: Vec<ObjAddr>,
    /// Page plans of aligned spanned residents, by ordinal. Absent for the
    /// packed layout.
    page_plans: Vec<Option<Vec<u32>>>,
    /// Total encoded bytes (for Table 2's average sizes).
    total_encoded: u64,
    /// Total header bytes of spanned residents.
    total_header: u64,
    spanned_count: u64,
}

impl ObjectFile {
    /// Threshold for heap residency: the encoded object plus its slot entry
    /// must fit a page's content area.
    pub fn fits_heap(encoded_len: usize) -> bool {
        encoded_len + SLOT_ENTRY_SIZE <= EFFECTIVE_PAGE_SIZE
    }

    /// Bulk-loads `objects` (encoded bytes + layout each). Small objects are
    /// clustered on a contiguous heap extent in input order; large objects
    /// get one contiguous extent each, allocated in input order, with the
    /// serialized layout as header content.
    pub fn bulk_load(
        pool: &mut impl PageCache,
        name: impl Into<String>,
        objects: &[(Vec<u8>, TupleLayout)],
    ) -> Result<ObjectFile> {
        Self::bulk_load_opts(pool, name, objects, false)
    }

    /// [`ObjectFile::bulk_load`] with a layout policy. With
    /// `aligned = true`, sub-tuples never straddle data-page boundaries
    /// (DASDBS's layout): pages carry *alignment waste* and objects occupy
    /// more of them — the "unprimed" behaviour of the paper's Tables 2/3,
    /// where the average station costs `p = 4` allocated pages while only
    /// ~3 are full.
    pub fn bulk_load_opts(
        pool: &mut impl PageCache,
        name: impl Into<String>,
        objects: &[(Vec<u8>, TupleLayout)],
        aligned: bool,
    ) -> Result<ObjectFile> {
        let name = name.into();
        let small: Vec<Vec<u8>> = objects
            .iter()
            .filter(|(b, _)| Self::fits_heap(b.len()))
            .map(|(b, _)| b.clone())
            .collect();
        let (heap, mut heap_rids) = HeapFile::bulk_load(pool, format!("{name}-heap"), &small)?;
        heap_rids.reverse(); // pop() yields them in input order
        let mut addrs = Vec::with_capacity(objects.len());
        let mut page_plans = Vec::with_capacity(objects.len());
        let mut total_encoded = 0u64;
        let mut total_header = 0u64;
        let mut spanned_count = 0u64;
        for (bytes, layout) in objects {
            total_encoded += bytes.len() as u64;
            if Self::fits_heap(bytes.len()) {
                addrs.push(ObjAddr::Heap(heap_rids.pop().expect("planned rid")));
                page_plans.push(None);
            } else {
                let header = layout.to_bytes();
                total_header += header.len() as u64;
                spanned_count += 1;
                let plan = aligned.then(|| subtuple_page_plan(layout, bytes.len()));
                let rec = SpannedStore::store(pool, &header, bytes, plan.as_deref())?;
                addrs.push(ObjAddr::Spanned(rec));
                page_plans.push(plan);
            }
        }
        Ok(ObjectFile {
            name,
            heap,
            addrs,
            page_plans,
            total_encoded,
            total_header,
            spanned_count,
        })
    }

    fn plan_of(&self, ord: usize) -> Option<&[u32]> {
        self.page_plans.get(ord).and_then(|p| p.as_deref())
    }

    /// Restores ordinal addressing after a reordered rebuild: the file was
    /// bulk-loaded with the object at position `i` being original ordinal
    /// `order[i]` (a permutation), and afterwards `addr(ord)` must again
    /// resolve the *original* ordinal — so a reorganization changes where
    /// objects live, never what an OID means.
    pub fn restore_input_order(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.addrs.len(), "order must be a permutation");
        let mut paired: Vec<(usize, ObjAddr, Option<Vec<u32>>)> = order
            .iter()
            .copied()
            .zip(std::mem::take(&mut self.addrs))
            .zip(std::mem::take(&mut self.page_plans))
            .map(|((ord, addr), plan)| (ord, addr, plan))
            .collect();
        paired.sort_by_key(|&(ord, _, _)| ord);
        for (i, (ord, addr, plan)) in paired.into_iter().enumerate() {
            assert_eq!(ord, i, "order must be a permutation of 0..len");
            self.addrs.push(addr);
            self.page_plans.push(plan);
        }
    }

    /// Pages of the shared heap extent (0 when every object is spanned).
    pub fn heap_pages(&self) -> u32 {
        if self.heap_resident_count() > 0 {
            self.heap.page_count()
        } else {
            0
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Address of object `ord`.
    pub fn addr(&self, ord: usize) -> Result<ObjAddr> {
        self.addrs
            .get(ord)
            .copied()
            .ok_or_else(|| CoreError::NotFound {
                what: format!("{} object #{ord}", self.name),
            })
    }

    /// The pages an access to object `ord` can touch — the page set its
    /// group latches cover. Heap residents return their single shared
    /// slotted page; spanned residents their whole private extent (header
    /// and data pages).
    pub fn latch_pages_of(&self, ord: usize) -> Result<Vec<PageId>> {
        Ok(match self.addr(ord)? {
            ObjAddr::Heap(rid) => vec![rid.page],
            ObjAddr::Spanned(rec) => (0..rec.total_pages())
                .map(|i| rec.first.offset(i))
                .collect(),
        })
    }

    /// Total pages used by the file (heap pages + all spanned extents).
    pub fn total_pages(&self) -> u32 {
        let heap = if self.heap_resident_count() > 0 {
            self.heap.page_count()
        } else {
            0
        };
        heap + self
            .addrs
            .iter()
            .map(|a| match a {
                ObjAddr::Heap(_) => 0,
                ObjAddr::Spanned(r) => r.total_pages(),
            })
            .sum::<u32>()
    }

    /// Number of heap-resident (small) objects.
    pub fn heap_resident_count(&self) -> usize {
        self.addrs
            .iter()
            .filter(|a| matches!(a, ObjAddr::Heap(_)))
            .count()
    }

    /// Average encoded size. For Table 2 parity, spanned objects also count
    /// their header bytes (the structure DASDBS stores with the tuple), and
    /// heap residents their slot entry.
    pub fn avg_stored_bytes(&self) -> f64 {
        if self.addrs.is_empty() {
            return 0.0;
        }
        let slot_bytes = (self.heap_resident_count() * SLOT_ENTRY_SIZE) as u64;
        (self.total_encoded + self.total_header + slot_bytes) as f64 / self.addrs.len() as f64
    }

    /// Tuples per page (Table 2's `k`) — defined only when every object
    /// shares heap pages.
    pub(crate) fn tuples_per_page(&self) -> Option<u32> {
        (!self.is_empty() && self.heap_resident_count() == self.len())
            .then(|| (EFFECTIVE_PAGE_SIZE as f64 / self.avg_stored_bytes()) as u32)
    }

    /// What each object (in ordinal order) would cost inside a packed hot
    /// region: heap residents their current share of a heap page, spanned
    /// residents their extent.
    pub(crate) fn packed_costs(&self) -> Vec<f64> {
        let residents = self.heap_resident_count();
        let heap_share = if residents > 0 {
            f64::from(self.heap_pages()) / residents as f64
        } else {
            0.0
        };
        self.addrs
            .iter()
            .map(|a| match a {
                ObjAddr::Heap(_) => heap_share,
                ObjAddr::Spanned(rec) => f64::from(rec.total_pages()),
            })
            .collect()
    }

    /// Average pages per object among spanned residents (measured `p`).
    pub fn avg_spanned_pages(&self) -> Option<f64> {
        if self.spanned_count == 0 {
            return None;
        }
        let pages: u32 = self
            .addrs
            .iter()
            .map(|a| match a {
                ObjAddr::Heap(_) => 0,
                ObjAddr::Spanned(r) => r.total_pages(),
            })
            .sum();
        Some(pages as f64 / self.spanned_count as f64)
    }

    /// Reads the whole object: header pages then all data pages for spanned
    /// residents (the DSM access path — "the pages that store the tuple will
    /// not be shared by other tuples" and are all retrieved), or the single
    /// shared page for heap residents.
    pub fn read_full(&self, pool: &mut impl PageCache, ord: usize) -> Result<Vec<u8>> {
        match self.addr(ord)? {
            ObjAddr::Heap(rid) => Ok(self.heap.read(pool, rid)?),
            // DSM materializes the whole object: structure + all data, in
            // one visit to the pool.
            ObjAddr::Spanned(rec) => Ok(SpannedStore::read_full(pool, &rec, self.plan_of(ord))?),
        }
    }

    /// Reads only the pages `proj` needs (the DASDBS-DSM access path):
    /// header pages first, whose serialized layout gives the byte ranges,
    /// then the covering data pages. Returns a full-length buffer valid at
    /// least in those ranges — what [`starfish_nf2::decode_projected_at`]
    /// reads under `proj`.
    ///
    /// Heap residents come back whole — they occupy one shared page, so
    /// there is nothing to save (§5.3: small objects "do not have separate
    /// header and data pages any longer").
    ///
    /// A spanned read visits the pool once for the header and once per run
    /// of wanted data pages, each visit one consistent image
    /// ([`PageCache::read_runs`]). It needs no latch across the visits:
    ///
    /// * **header pages never change after load** — [`Self::rewrite_full`]
    ///   re-dirties them with their own bytes (same size, same structure),
    ///   [`Self::patch_range`] touches data pages only, and reorganization
    ///   writes fresh extents — so the ranges the header gave hold the
    ///   projected attributes whatever a writer did since;
    /// * the one range a DASDBS-DSM writer changes, `Name`, lies in the
    ///   root tuple's first two hundred bytes, on data page 0 or pages 0–1.
    ///   Every projection reads the root directory at byte 0, so the first
    ///   run starts at page 0, and a run is cut only at a gap or after 32
    ///   pages: the name is read in one visit — old or new, never a mix.
    pub fn read_projected(
        &self,
        pool: &mut impl PageCache,
        ord: usize,
        proj: &Projection,
    ) -> Result<Vec<u8>> {
        match self.addr(ord)? {
            ObjAddr::Heap(rid) => Ok(self.heap.read(pool, rid)?),
            ObjAddr::Spanned(rec) => {
                let header = SpannedStore::read_header(pool, &rec)?;
                let ranges = proj.byte_ranges_from_bytes(&header)?;
                let plan = self.plan_of(ord);
                Ok(SpannedStore::read_data_ranges(pool, &rec, plan, &ranges)?)
            }
        }
    }

    /// Replaces the whole object in place with `bytes` of the same encoded
    /// size: the paper's `replace (set of) tuples` update. Spanned
    /// residents dirty **all** their pages, header included — the entire
    /// tuple is replaced. Same-size bytes with an unchanged structure move
    /// no offset, so the header (the layout) is unchanged: its pages are
    /// re-dirtied with their own bytes.
    pub fn rewrite_full(&self, pool: &mut impl PageCache, ord: usize, bytes: &[u8]) -> Result<()> {
        match self.addr(ord)? {
            ObjAddr::Heap(rid) => Ok(self.heap.update(pool, rid, bytes)?),
            ObjAddr::Spanned(rec) => {
                Ok(SpannedStore::rewrite(pool, &rec, self.plan_of(ord), bytes)?)
            }
        }
    }

    /// Patches a byte range of the object's data in place, touching only the
    /// covering page(s) — the footprint of a DASDBS `change attribute`
    /// operation. For heap residents the single page is patched.
    pub fn patch_range(
        &self,
        pool: &mut impl PageCache,
        ord: usize,
        range: Range<u32>,
        bytes: &[u8],
    ) -> Result<()> {
        match self.addr(ord)? {
            ObjAddr::Heap(rid) => {
                let mut rec = self.heap.read(pool, rid)?;
                let (lo, hi) = (range.start as usize, range.end as usize);
                if hi > rec.len() || bytes.len() != hi - lo {
                    return Err(CoreError::Store(starfish_pagestore::StoreError::Corrupt {
                        detail: format!("patch {range:?} beyond record of {} bytes", rec.len()),
                    }));
                }
                rec[lo..hi].copy_from_slice(bytes);
                Ok(self.heap.update(pool, rid, &rec)?)
            }
            ObjAddr::Spanned(rec) => {
                let plan = self.plan_of(ord);
                Ok(SpannedStore::write_data_range(
                    pool, &rec, plan, range, bytes,
                )?)
            }
        }
    }
}

/// Computes the DASDBS-style page plan for an encoded object: sub-tuples
/// (and the sub-relation address tables and atomic regions between them)
/// never straddle a data-page boundary when they fit on a page. Units larger
/// than a page split at raw page boundaries, like any long field would.
pub fn subtuple_page_plan(layout: &TupleLayout, data_len: usize) -> Vec<u32> {
    let mut units: Vec<(u32, u32)> = Vec::new(); // (start, len)
    collect_units(layout, &mut units);
    let eff = EFFECTIVE_PAGE_SIZE as u32;
    let mut starts = vec![0u32];
    let mut page_start = 0u32;
    for &(u_start, u_len) in &units {
        let used = u_start - page_start;
        if u_len <= eff && used + u_len > eff {
            starts.push(u_start);
            page_start = u_start;
        }
        // Oversized units (or exact fits) spill at raw page boundaries.
        let u_end = u_start + u_len;
        while u_end - page_start > eff {
            let brk = page_start + eff;
            starts.push(brk);
            page_start = brk;
        }
    }
    debug_assert!(
        units.last().map(|&(s, l)| (s + l) as usize) == Some(data_len) || units.is_empty()
    );
    let _ = data_len;
    starts
}

/// Enumerates the atomic placement units of a tuple in byte order: its
/// header+offset region, each atomic attribute, each sub-relation address
/// table, and each sub-tuple (as a whole — DASDBS keeps addressable
/// sub-tuples on one page). Sub-tuples that cannot fit a page are recursed
/// into so their own children can still be kept whole.
fn collect_units(layout: &TupleLayout, units: &mut Vec<(u32, u32)>) {
    let hdr = layout.header_range();
    units.push((hdr.start, hdr.end - hdr.start));
    for a in &layout.attrs {
        if a.tuples.is_empty() {
            units.push((a.start, a.len));
        } else {
            let table_end = a.tuples.first().map(|t| t.start).unwrap_or(a.start + a.len);
            units.push((a.start, table_end - a.start));
            for t in &a.tuples {
                if t.len as usize > EFFECTIVE_PAGE_SIZE {
                    collect_units(t, units);
                } else {
                    units.push((t.start, t.len));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_nf2::{encode_with_layout, station::station_schema, station::Station};
    use starfish_pagestore::{BufferPool, SimDisk};

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(), 512)
    }

    fn small_station(key: i32) -> Station {
        Station {
            key,
            name: "n".repeat(100),
            platforms: vec![],
            sightseeings: vec![],
        }
    }

    fn big_station(key: i32) -> Station {
        use starfish_nf2::station::Sightseeing;
        Station {
            key,
            name: "n".repeat(100),
            platforms: vec![],
            sightseeings: (0..10)
                .map(|i| Sightseeing {
                    seeing_nr: i,
                    description: "d".repeat(100),
                    location: "l".repeat(100),
                    history: "h".repeat(100),
                    remarks: "r".repeat(100),
                })
                .collect(),
        }
    }

    fn encode_all(stations: &[Station]) -> Vec<(Vec<u8>, TupleLayout)> {
        let schema = station_schema();
        stations
            .iter()
            .map(|s| encode_with_layout(&s.to_tuple(), &schema).unwrap())
            .collect()
    }

    #[test]
    fn mixed_residency() {
        let mut p = pool();
        let objs = encode_all(&[small_station(1), big_station(2), small_station(3)]);
        let f = ObjectFile::bulk_load(&mut p, "DSM-Station", &objs).unwrap();
        assert_eq!(f.len(), 3);
        assert!(matches!(f.addr(0).unwrap(), ObjAddr::Heap(_)));
        assert!(matches!(f.addr(1).unwrap(), ObjAddr::Spanned(_)));
        assert!(matches!(f.addr(2).unwrap(), ObjAddr::Heap(_)));
        assert_eq!(f.heap_resident_count(), 2);
        assert!(f.avg_spanned_pages().unwrap() >= 2.0);
        assert!(f.addr(3).is_err());
    }

    #[test]
    fn read_full_roundtrips_both_kinds() {
        let mut p = pool();
        let objs = encode_all(&[small_station(1), big_station(2)]);
        let f = ObjectFile::bulk_load(&mut p, "x", &objs).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(f.read_full(&mut p, 0).unwrap(), objs[0].0);
        assert_eq!(f.read_full(&mut p, 1).unwrap(), objs[1].0);
    }

    #[test]
    fn projected_read_touches_fewer_pages_for_large_objects() {
        use starfish_nf2::station::proj_root_record;
        let mut p = pool();
        let objs = encode_all(&[big_station(7)]);
        let f = ObjectFile::bulk_load(&mut p, "x", &objs).unwrap();

        p.clear_cache().unwrap();
        p.reset_stats();
        f.read_full(&mut p, 0).unwrap();
        let full_pages = p.snapshot().pages_read;

        p.clear_cache().unwrap();
        p.reset_stats();
        let sparse = f.read_projected(&mut p, 0, &proj_root_record()).unwrap();
        let proj_pages = p.snapshot().pages_read;
        assert!(
            proj_pages < full_pages,
            "projection must fetch fewer pages ({proj_pages} vs {full_pages})"
        );
        // The sparse buffer decodes the root record correctly.
        assert_eq!(sparse.len(), objs[0].0.len());
        let t =
            starfish_nf2::decode_projected_at(&sparse, &station_schema(), 0, &proj_root_record())
                .unwrap();
        assert_eq!(t.attr(0).unwrap().as_int(), Some(7));
    }

    #[test]
    fn rewrite_full_dirties_whole_extent() {
        let mut p = pool();
        let objs = encode_all(&[big_station(5)]);
        let f = ObjectFile::bulk_load(&mut p, "x", &objs).unwrap();
        let ObjAddr::Spanned(rec) = f.addr(0).unwrap() else {
            panic!("spanned")
        };
        p.clear_cache().unwrap();
        f.read_full(&mut p, 0).unwrap();
        p.reset_stats();
        f.rewrite_full(&mut p, 0, &objs[0].0).unwrap();
        p.flush_all().unwrap();
        assert_eq!(
            p.snapshot().pages_written,
            rec.total_pages() as u64,
            "replace-tuple writes header + data pages"
        );
    }

    #[test]
    fn patch_range_touches_single_page() {
        let mut p = pool();
        let objs = encode_all(&[big_station(5), small_station(6)]);
        let f = ObjectFile::bulk_load(&mut p, "x", &objs).unwrap();
        p.clear_cache().unwrap();
        f.read_full(&mut p, 0).unwrap();
        f.read_full(&mut p, 1).unwrap();
        p.reset_stats();
        f.patch_range(&mut p, 0, 30..34, &[1, 2, 3, 4]).unwrap();
        f.patch_range(&mut p, 1, 30..34, &[9, 9, 9, 9]).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.snapshot().pages_written, 2, "one covering page each");
        // Verify the patches landed.
        p.clear_cache().unwrap();
        assert_eq!(&f.read_full(&mut p, 0).unwrap()[30..34], &[1, 2, 3, 4]);
        assert_eq!(&f.read_full(&mut p, 1).unwrap()[30..34], &[9, 9, 9, 9]);
    }

    #[test]
    fn restore_input_order_keeps_ordinals_meaningful() {
        let mut p = pool();
        let stations = [small_station(1), big_station(2), small_station(3)];
        let objs = encode_all(&stations);
        // Rebuild in the order 2, 0, 1 (as a heat-ranked pass would), then
        // restore: addr(ord) must resolve the original object again.
        let order = [2usize, 0, 1];
        let reordered: Vec<_> = order.iter().map(|&i| objs[i].clone()).collect();
        let mut f = ObjectFile::bulk_load(&mut p, "x", &reordered).unwrap();
        f.restore_input_order(&order);
        p.clear_cache().unwrap();
        for (ord, (bytes, _)) in objs.iter().enumerate() {
            assert_eq!(&f.read_full(&mut p, ord).unwrap(), bytes, "ordinal {ord}");
        }
    }

    #[test]
    fn table2_accounting() {
        let mut p = pool();
        let objs = encode_all(&[small_station(1), small_station(2)]);
        let f = ObjectFile::bulk_load(&mut p, "x", &objs).unwrap();
        let expect = (objs[0].0.len() + objs[1].0.len() + 2 * SLOT_ENTRY_SIZE) as f64 / 2.0;
        assert!((f.avg_stored_bytes() - expect).abs() < 1e-9);
        assert_eq!(f.total_pages(), f.heap.page_count());
        assert!(f.avg_spanned_pages().is_none());
    }
}
