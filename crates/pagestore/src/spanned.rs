//! Spanned (large-object) records: header pages + data pages.
//!
//! DASDBS stores a nested tuple that exceeds one page as a set of **header
//! pages** holding the structure information (the object directory), disjoint
//! from the **data pages** holding the tuple bytes (paper §4). The pages of
//! one object form a private contiguous extent, allocated with
//! [`PageCache::alloc_object_extent`] (one lock domain on the shared pool):
//!
//! ```text
//! [root header page][additional header pages…][data pages…]
//! ```
//!
//! Reads mirror DASDBS's call structure: one I/O call for the root page, one
//! for the additional header pages (if any), and one per contiguous run of
//! requested data pages — which is why the paper measures ≈2 pages per read
//! call for the direct models (§5.2). Every read hands its runs to the pool
//! in one [`PageCache::visit_runs`] visit (header runs and data run of a
//! whole-object read together; the wanted data runs of a ranged read as
//! one group each), and its caller gets the content of each page in place:
//! [`SpannedStore::visit_header`], [`SpannedStore::visit_full`] and
//! [`SpannedStore::visit_data_ranges`]. When every page is resident the
//! pool lends its frames and nothing is copied. The `read_*` forms copy
//! that content into one buffer, for the callers that change or keep it
//! (an update, a rebuild).
//!
//! *Which data page holds byte `b`* is answered in exactly one place, the
//! private page plan below: packed (a page every `EFFECTIVE_PAGE_SIZE`
//! bytes — the primed rows of the paper's Tables 2/3) or an explicit list of
//! page starts (sub-tuples kept whole on a page — the unprimed rows). Every
//! [`SpannedStore`] function runs the same code under either; the caller
//! that chose the layout at store time passes it back as
//! `plan: Option<&[u32]>`. Runs of wanted pages are formed by the pools' one
//! call grouper (`buffer::page_runs`).

use crate::buffer::{page_runs, LEND_MAX};
use crate::cache::ZERO_PAGE;
use crate::slotted::{self, PageKind};
use crate::{
    PageCache, PageId, Result, StoreError, EFFECTIVE_PAGE_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE,
};
use std::cell::Cell;
use std::ops::Range;

/// Handle to a stored spanned record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpannedRecord {
    /// First page of the extent (the root header page).
    pub first: PageId,
    /// Number of header pages (≥ 1).
    pub header_pages: u32,
    /// Number of data pages (≥ 1).
    pub data_pages: u32,
    /// Byte length of the header (directory) content.
    pub header_len: u32,
    /// Byte length of the data content.
    pub data_len: u32,
}

impl SpannedRecord {
    /// Total pages of the extent — the cost model's `p` for this object.
    pub fn total_pages(&self) -> u32 {
        self.header_pages + self.data_pages
    }

    /// First data page.
    pub fn data_first(&self) -> PageId {
        self.first.offset(self.header_pages)
    }
}

/// The page plan of `len` content bytes: which page holds byte `b`.
///
/// *Packed* (`starts: None`) cuts the stream every [`EFFECTIVE_PAGE_SIZE`]
/// bytes. An *explicit* plan names the first byte stored on each page
/// (`starts[0] == 0`, every chunk at most a page): DASDBS keeps sub-tuples
/// whole on a page, which leaves *alignment waste* — pages are only
/// partially filled and the object occupies more of them (the "unprimed"
/// rows of the paper's Tables 2/3). Every function of [`SpannedStore`] asks
/// this one type where its bytes live; header content is always packed.
#[derive(Clone, Copy)]
struct PagePlan<'a> {
    starts: Option<&'a [u32]>,
    len: usize,
}

impl<'a> PagePlan<'a> {
    fn new(starts: Option<&'a [u32]>, len: usize) -> Self {
        PagePlan { starts, len }
    }

    /// Pages the plan occupies (at least one, even for empty content).
    fn pages(&self) -> u32 {
        match self.starts {
            Some(starts) => starts.len() as u32,
            None => crate::pages_for_bytes(self.len).max(1),
        }
    }

    /// Content bytes stored on page `i`.
    fn bounds(&self, i: usize) -> Range<usize> {
        match self.starts {
            Some(starts) => {
                let hi = starts.get(i + 1).map_or(self.len, |&s| s as usize);
                starts[i] as usize..hi
            }
            None => {
                let lo = i * EFFECTIVE_PAGE_SIZE;
                lo..(lo + EFFECTIVE_PAGE_SIZE).min(self.len)
            }
        }
    }

    /// Page holding content byte `b`.
    fn page_of(&self, b: u32) -> usize {
        match self.starts {
            Some(starts) => starts.partition_point(|&s| s <= b) - 1,
            None => b as usize / EFFECTIVE_PAGE_SIZE,
        }
    }

    /// Pages covering the byte range `r`. An empty range covers no page.
    fn pages_of(&self, r: &Range<u32>) -> Range<usize> {
        if r.is_empty() {
            return 0..0;
        }
        self.page_of(r.start)..self.page_of(r.end - 1) + 1
    }

    /// Checks an explicit plan: starts at 0, strictly increasing (a final
    /// empty page is allowed), no chunk larger than a page.
    fn validate(&self) -> Result<()> {
        let Some(starts) = self.starts else {
            return Ok(());
        };
        if starts.first() != Some(&0) {
            return Err(StoreError::Corrupt {
                detail: "page plan must start at 0".into(),
            });
        }
        for i in 0..starts.len() {
            let end = starts.get(i + 1).copied().unwrap_or(self.len as u32);
            if end <= starts[i] && !(i + 1 == starts.len() && end == starts[i]) {
                return Err(StoreError::Corrupt {
                    detail: format!("page plan not increasing at {i}"),
                });
            }
            if (end - starts[i]) as usize > EFFECTIVE_PAGE_SIZE {
                return Err(StoreError::Corrupt {
                    detail: format!("chunk {i} exceeds a page: {}", end - starts[i]),
                });
            }
        }
        Ok(())
    }
}

/// The content a spanned visit shows: in place where the pool lent its
/// frames, else the copy the visit made.
pub enum Content<'a> {
    /// The content of each page, in order, on the pool's frames.
    Pages(&'a [&'a [u8]]),
    /// The whole content, copied out of the pool into the thread's copy
    /// buffer (lent for the visit only).
    Copied(&'a [u8]),
}

impl Content<'_> {
    /// The content in one fresh buffer: the pages concatenated, or the copy
    /// copied.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Content::Pages(pieces) => pieces.concat(),
            Content::Copied(bytes) => bytes.to_vec(),
        }
    }
}

thread_local! {
    /// The buffer this thread's copying visits fill: grown to the largest
    /// content the thread has copied, and reused. A visit that copies takes
    /// it out (emptied) and puts it back once the caller's closure has run,
    /// so it needs no lock: only this thread sees it, and only for one
    /// visit. A visit nested in that closure finds it taken and starts a
    /// new one; a visit that lends its frames never touches it.
    static COPY_BUFFER: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// This thread's copy buffer, taken out and emptied.
fn take_copy_buffer() -> Vec<u8> {
    let mut out = COPY_BUFFER.take();
    out.clear();
    out
}

/// Takes the closure a visit runs once, on whichever path it took.
fn once<F>(f: &mut Option<F>) -> F {
    f.take().expect("a visit shows its content once")
}

/// Runs `f` over what `items` yields — at most `max` items, one per page of
/// a visit — in order: on the stack when a visit could have lent that many
/// pages ([`LEND_MAX`]), else in a vector. `fill` pads the stack array.
fn on_stack<T: Copy, R>(
    max: usize,
    fill: T,
    items: impl Iterator<Item = T>,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if max > LEND_MAX {
        return f(&mut items.collect::<Vec<_>>());
    }
    let mut buf = [fill; LEND_MAX];
    let mut n = 0;
    for (slot, item) in buf.iter_mut().zip(items) {
        (*slot, n) = (item, n + 1);
    }
    f(&mut buf[..n])
}

/// Runs `f` over the `n` pieces `piece` gives, in order ([`on_stack`]).
fn with_pieces<'p, R>(
    n: usize,
    piece: impl FnMut(usize) -> &'p [u8],
    f: impl FnOnce(&[&'p [u8]]) -> R,
) -> R {
    on_stack(n, &[][..], (0..n).map(piece), |pieces| f(pieces))
}

/// Storage for spanned records over a buffer pool.
///
/// Stateless: all state lives in the pool/disk, in the returned
/// [`SpannedRecord`] handles and in the caller-kept page plan. Every function
/// touching data pages takes that plan as `plan: Option<&[u32]>` — `None`
/// for the packed layout, `Some(starts)` for an explicit one, where
/// `starts[i]` is the first data byte stored on data page `i` — and must be
/// given the plan the record was stored under (the plan, not the record,
/// says how many data pages are read or rewritten).
pub struct SpannedStore;

impl SpannedStore {
    /// Stores a new spanned record: `header` on header page(s), `data` on
    /// data pages laid out by `plan`, in one fresh contiguous extent. An
    /// invalid explicit plan is rejected before anything is allocated.
    pub fn store(
        pool: &mut impl PageCache,
        header: &[u8],
        data: &[u8],
        plan: Option<&[u32]>,
    ) -> Result<SpannedRecord> {
        let header_plan = PagePlan::new(None, header.len());
        let data_plan = PagePlan::new(plan, data.len());
        data_plan.validate()?;
        let rec = SpannedRecord {
            first: pool.alloc_object_extent(header_plan.pages() + data_plan.pages()),
            header_pages: header_plan.pages(),
            data_pages: data_plan.pages(),
            header_len: header.len() as u32,
            data_len: data.len() as u32,
        };
        let (header_kind, data_kind) = (PageKind::SpannedHeader, PageKind::SpannedData);
        Self::write_pages(pool, rec.first, header_plan, header, Some(header_kind))?;
        Self::write_pages(pool, rec.data_first(), data_plan, data, Some(data_kind))?;
        Ok(rec)
    }

    /// Copies `bytes` onto the pages from `first` as `plan` lays them out,
    /// one (dirtying) fix per page. `fresh` formats each page first.
    fn write_pages(
        pool: &mut impl PageCache,
        first: PageId,
        plan: PagePlan,
        bytes: &[u8],
        fresh: Option<PageKind>,
    ) -> Result<()> {
        for i in 0..plan.pages() {
            let on_page = plan.bounds(i as usize);
            pool.with_page_mut(first.offset(i), |p| {
                if let Some(kind) = fresh {
                    p.fill(0);
                    slotted::set_kind(p, kind);
                }
                p[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + on_page.len()]
                    .copy_from_slice(&bytes[on_page]);
            })?;
        }
        Ok(())
    }

    /// The content bytes of `page`, the `i`-th page of `plan`.
    fn content<'p>(plan: PagePlan, i: usize, page: &'p [u8; PAGE_SIZE]) -> &'p [u8] {
        &page[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + plan.bounds(i).len()]
    }

    /// The header's read calls as DASDBS makes them: one for the root page
    /// and, if there are any, one for the additional header pages — the
    /// first `header_pages.min(2)` of these.
    fn header_runs(rec: &SpannedRecord) -> [(PageId, u32); 2] {
        [(rec.first, 1), (rec.first.offset(1), rec.header_pages - 1)]
    }

    /// The data pages `plan` reads as one run.
    fn data_run(rec: &SpannedRecord, plan: PagePlan) -> (PageId, u32) {
        (rec.data_first(), plan.pages())
    }

    /// One visit to the pool of `groups`, showing `f` the content `plan`
    /// lays out: on the frames, as `lend` hands them to `f`, where the pool
    /// lends them; else copied into this thread's copy buffer — each page
    /// `place` maps to a page of `plan` (`None`: fetched, not shown) to
    /// where `plan` puts it, over zeros, so a page not fetched reads as
    /// zeros.
    fn visit<F: FnOnce(Content<'_>) -> R, R>(
        pool: &mut impl PageCache,
        groups: &[&[(PageId, u32)]],
        plan: PagePlan,
        place: impl Fn(PageId) -> Option<usize>,
        lend: impl FnOnce(&[&[u8; PAGE_SIZE]], F) -> R,
        f: F,
    ) -> Result<R> {
        let mut f = Some(f);
        let mut out = None;
        let lent = pool.visit_runs(
            groups,
            |pid, page| {
                if let Some(i) = place(pid) {
                    let out = out.get_or_insert_with(take_copy_buffer);
                    out.resize(plan.len, 0);
                    out[plan.bounds(i)].copy_from_slice(Self::content(plan, i, page));
                }
            },
            |frames| lend(frames, once(&mut f)),
        )?;
        if let Some(r) = lent {
            return Ok(r);
        }
        let mut out = out.unwrap_or_else(take_copy_buffer);
        out.resize(plan.len, 0); // also when no page was shown
        let r = once(&mut f)(Content::Copied(&out));
        COPY_BUFFER.set(out);
        Ok(r)
    }

    /// Visits the header (object directory): the content of each header
    /// page in place, or the header copied (the header is packed, a page
    /// every [`EFFECTIVE_PAGE_SIZE`] bytes).
    ///
    /// I/O calls as in DASDBS: one for the root page, one for the additional
    /// header pages if any. Fixes every header page.
    pub fn visit_header<F: FnOnce(Content<'_>) -> R, R>(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        f: F,
    ) -> Result<R> {
        let plan = PagePlan::new(None, rec.header_len as usize);
        let runs = &Self::header_runs(rec)[..rec.header_pages.min(2) as usize];
        let place = |pid: PageId| Some((pid.0 - rec.first.0) as usize);
        let lend = |frames: &[&[u8; PAGE_SIZE]], f: F| {
            let piece = |i| Self::content(plan, i, frames[i]);
            with_pieces(frames.len(), piece, |p| f(Content::Pages(p)))
        };
        Self::visit(pool, &[runs], plan, place, lend, f)
    }

    /// Visits the whole object — the header runs and the data run in one
    /// visit to the pool, what [`Self::visit_header`] followed by a read of
    /// every data page would read, call for call and fix for fix — and
    /// hands `f` the data content laid out by `plan`: each data page's in
    /// place, or all of it copied. The header pages are fetched and fixed
    /// (the structure is read with the tuple) but not shown: the caller
    /// decodes by schema.
    pub fn visit_full<F: FnOnce(Content<'_>) -> R, R>(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
        f: F,
    ) -> Result<R> {
        let plan = PagePlan::new(plan, rec.data_len as usize);
        let header = &Self::header_runs(rec)[..rec.header_pages.min(2) as usize];
        let data_first = rec.data_first();
        let place = |pid: PageId| (pid >= data_first).then(|| (pid.0 - data_first.0) as usize);
        let lend = |frames: &[&[u8; PAGE_SIZE]], f: F| {
            let data = &frames[rec.header_pages as usize..];
            let piece = |i| Self::content(plan, i, data[i]);
            with_pieces(data.len(), piece, |p| f(Content::Pages(p)))
        };
        let groups = [header, &[Self::data_run(rec, plan)]];
        Self::visit(pool, &groups, plan, place, lend, f)
    }

    /// Visits only the data pages covering `ranges` (sorted, disjoint byte
    /// ranges of the data content) — the DASDBS-DSM partial read (§3.2) —
    /// in one visit with one group per run of wanted pages, and hands `f`
    /// the full-length content, valid at least in the requested ranges: a
    /// data page not fetched shows as zeros. An empty range wants no page.
    pub fn visit_data_ranges<F: FnOnce(Content<'_>) -> R, R>(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
        ranges: &[Range<u32>],
        f: F,
    ) -> Result<R> {
        let plan = PagePlan::new(plan, rec.data_len as usize);
        let n = rec.data_pages as usize;
        let data_first = rec.data_first();
        // The wanted-page map, the runs and the groups: each at most a
        // page's worth of entries, so on the stack for an object a visit
        // could lend.
        on_stack(n, false, (0..n).map(|_| false), |wanted| {
            for r in ranges {
                if r.end > rec.data_len {
                    return Err(StoreError::Corrupt {
                        detail: format!("range {r:?} beyond data length {}", rec.data_len),
                    });
                }
                wanted[plan.pages_of(r)].fill(true);
            }
            let wanted = &*wanted;
            let pids = (0..n)
                .filter(|&i| wanted[i])
                .map(|i| data_first.offset(i as u32));
            let place = |pid: PageId| Some((pid.0 - data_first.0) as usize);
            let lend = |frames: &[&[u8; PAGE_SIZE]], f: F| {
                let mut fetched = frames.iter();
                let piece = |i: usize| match wanted[i] {
                    true => Self::content(plan, i, fetched.next().expect("a wanted page")),
                    false => &ZERO_PAGE[..plan.bounds(i).len()],
                };
                with_pieces(n, piece, |p| f(Content::Pages(p)))
            };
            on_stack(n, (data_first, 0), page_runs(pids), |runs| {
                on_stack(n, &[][..], runs.chunks(1), |groups| {
                    Self::visit(pool, groups, plan, place, lend, f)
                })
            })
        })
    }

    /// [`Self::visit_header`] into one buffer.
    pub fn read_header(pool: &mut impl PageCache, rec: &SpannedRecord) -> Result<Vec<u8>> {
        Self::visit_header(pool, rec, |c| c.into_vec())
    }

    /// [`Self::visit_full`] into one buffer: the data content.
    pub fn read_full(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
    ) -> Result<Vec<u8>> {
        Self::visit_full(pool, rec, plan, |c| c.into_vec())
    }

    /// [`Self::visit_data_ranges`] into one buffer: full-length, and valid
    /// at least in the requested ranges.
    pub fn read_data_ranges(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
        ranges: &[Range<u32>],
    ) -> Result<Vec<u8>> {
        Self::visit_data_ranges(pool, rec, plan, ranges, |c| c.into_vec())
    }

    /// Replaces the record in place with same-length data under the same
    /// plan, its structure unchanged: one dirtying fix per page of the
    /// extent. Each header page is re-dirtied with its own bytes (the
    /// structure is replaced along with the tuple, and is what it was), the
    /// data pages take `data`. Physical writes happen at eviction/flush. A
    /// length change is rejected before any page is touched.
    pub fn rewrite(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
        data: &[u8],
    ) -> Result<()> {
        if data.len() != rec.data_len as usize {
            return Err(StoreError::SizeChanged {
                old: rec.data_len as usize,
                new: data.len(),
            });
        }
        for i in 0..rec.header_pages {
            pool.with_page_mut(rec.first.offset(i), |_| ())?;
        }
        let plan = PagePlan::new(plan, data.len());
        Self::write_pages(pool, rec.data_first(), plan, data, None)
    }

    /// Patches `bytes` into the data content at `range.start`, touching (and
    /// dirtying) only the pages covering `range` — the page-level footprint
    /// of a DASDBS `change attribute` operation. An empty range touches no
    /// page.
    pub fn write_data_range(
        pool: &mut impl PageCache,
        rec: &SpannedRecord,
        plan: Option<&[u32]>,
        range: Range<u32>,
        bytes: &[u8],
    ) -> Result<()> {
        if bytes.len() != (range.end - range.start) as usize || range.end > rec.data_len {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "write_data_range: {} bytes into range {range:?} of {}",
                    bytes.len(),
                    rec.data_len
                ),
            });
        }
        let plan = PagePlan::new(plan, rec.data_len as usize);
        let (start, end) = (range.start as usize, range.end as usize);
        for i in plan.pages_of(&range) {
            let on_page = plan.bounds(i);
            let (lo, hi) = (start.max(on_page.start), end.min(on_page.end));
            pool.with_page_mut(rec.data_first().offset(i as u32), |p| {
                p[PAGE_HEADER_SIZE + lo - on_page.start..PAGE_HEADER_SIZE + hi - on_page.start]
                    .copy_from_slice(&bytes[lo - start..hi - start]);
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::single_range_in_vec_init)] // &[Range] is the API shape

    use super::*;
    use crate::{BufferPool, SimDisk};

    fn pool() -> BufferPool {
        BufferPool::new(SimDisk::new(), 256)
    }

    fn bytes(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn store_and_read_roundtrip() {
        let mut p = pool();
        let header = bytes(100, 1);
        let data = bytes(4500, 2); // 3 data pages
        let rec = SpannedStore::store(&mut p, &header, &data, None).unwrap();
        assert_eq!(rec.header_pages, 1);
        assert_eq!(rec.data_pages, 3);
        assert_eq!(rec.total_pages(), 4);
        p.clear_cache().unwrap();
        assert_eq!(SpannedStore::read_header(&mut p, &rec).unwrap(), header);
        assert_eq!(SpannedStore::read_full(&mut p, &rec, None).unwrap(), data);
    }

    #[test]
    fn cold_read_call_structure_matches_dasdbs() {
        // 1 header page + 3 data pages: cold whole-object read =
        // 1 call (root) + 1 call (data run) = 2 calls, 4 pages.
        let mut p = pool();
        let rec = SpannedStore::store(&mut p, &bytes(50, 1), &bytes(4500, 2), None).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        SpannedStore::read_full(&mut p, &rec, None).unwrap();
        let s = p.snapshot();
        assert_eq!(s.read_calls, 2);
        assert_eq!(s.pages_read, 4);
        assert_eq!(s.fixes, 4);
    }

    /// The one-visit whole-object read is the header read followed by a
    /// read of every data page — same calls, fixes and evictions — also
    /// with several header pages and a buffer smaller than the object.
    #[test]
    fn read_full_is_read_header_then_read_data() {
        for (header_len, capacity) in [(50, 256), (3000, 256), (5000, 3)] {
            let mut by_part = BufferPool::new(SimDisk::new(), capacity);
            let mut whole = BufferPool::new(SimDisk::new(), capacity);
            let (header, data) = (bytes(header_len, 1), bytes(7000, 2));
            let rec = SpannedStore::store(&mut by_part, &header, &data, None).unwrap();
            assert_eq!(
                SpannedStore::store(&mut whole, &header, &data, None).unwrap(),
                rec
            );
            for p in [&mut by_part, &mut whole] {
                p.clear_cache().unwrap();
                p.reset_stats();
            }
            for round in 0..2 {
                SpannedStore::read_header(&mut by_part, &rec).unwrap();
                let every_byte = [0..data.len() as u32];
                let expect =
                    SpannedStore::read_data_ranges(&mut by_part, &rec, None, &every_byte).unwrap();
                let got = SpannedStore::read_full(&mut whole, &rec, None).unwrap();
                assert_eq!(got, expect);
                assert_eq!(got, data);
                assert_eq!(
                    whole.snapshot(),
                    by_part.snapshot(),
                    "{header_len}-byte header, {capacity} frames, round {round}"
                );
            }
        }
    }

    /// A visit that misses copies into the thread's reused buffer, and
    /// shows nothing an earlier visit left there: after a cold whole read
    /// of a larger record, a cold ranged read of a smaller one is exactly
    /// its length, and every page it did not fetch reads as zeros.
    #[test]
    fn a_reused_copy_buffer_shows_nothing_of_an_earlier_visit() {
        let mut p = pool();
        let (large, small) = (bytes(6 * EFFECTIVE_PAGE_SIZE, 9), bytes(4000, 3));
        let large_rec = SpannedStore::store(&mut p, &[1], &large, None).unwrap();
        let small_rec = SpannedStore::store(&mut p, &[2], &small, None).unwrap();
        assert_eq!(small_rec.data_pages, 2);
        p.clear_cache().unwrap();
        let copied = |c: Content<'_>| match c {
            Content::Copied(b) => b.to_vec(),
            Content::Pages(_) => panic!("a cold visit copies"),
        };
        let whole = SpannedStore::visit_full(&mut p, &large_rec, None, copied).unwrap();
        assert_eq!(whole, large);
        let at = EFFECTIVE_PAGE_SIZE as u32 + 10; // on data page 1 only
        let out = SpannedStore::visit_data_ranges(&mut p, &small_rec, None, &[at..at + 5], copied)
            .unwrap();
        assert_eq!(out.len(), small.len());
        assert_eq!(&out[EFFECTIVE_PAGE_SIZE..], &small[EFFECTIVE_PAGE_SIZE..]);
        assert!(
            out[..EFFECTIVE_PAGE_SIZE].iter().all(|&b| b == 0),
            "data page 0 was not fetched"
        );
    }

    #[test]
    fn multi_header_page_reads_root_separately() {
        // Header of 3000 bytes -> 2 header pages; cold header read =
        // 1 call (root) + 1 call (additional header pages).
        let mut p = pool();
        let rec = SpannedStore::store(&mut p, &bytes(3000, 3), &bytes(10, 4), None).unwrap();
        assert_eq!(rec.header_pages, 2);
        p.clear_cache().unwrap();
        p.reset_stats();
        let h = SpannedStore::read_header(&mut p, &rec).unwrap();
        assert_eq!(h, bytes(3000, 3));
        let s = p.snapshot();
        assert_eq!(s.read_calls, 2);
        assert_eq!(s.pages_read, 2);
    }

    #[test]
    fn range_read_fetches_only_covering_pages() {
        let mut p = pool();
        let data = bytes(5 * EFFECTIVE_PAGE_SIZE, 7); // 5 data pages
        let rec = SpannedStore::store(&mut p, &bytes(10, 0), &data, None).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        // Bytes 100..200 live on data page 0; one page, one call.
        let out = SpannedStore::read_data_ranges(&mut p, &rec, None, &[100..200]).unwrap();
        assert_eq!(&out[100..200], &data[100..200]);
        let s = p.snapshot();
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.read_calls, 1);
        // A range spanning pages 2..4 (bytes within pages 2 and 3).
        p.reset_stats();
        let lo = 2 * EFFECTIVE_PAGE_SIZE as u32 + 10;
        let hi = 4 * EFFECTIVE_PAGE_SIZE as u32 - 10;
        let out = SpannedStore::read_data_ranges(&mut p, &rec, None, &[lo..hi]).unwrap();
        assert_eq!(
            &out[lo as usize..hi as usize],
            &data[lo as usize..hi as usize]
        );
        let s = p.snapshot();
        assert_eq!(s.pages_read, 2, "pages 2 and 3 only");
        assert_eq!(s.read_calls, 1, "one contiguous run");
    }

    #[test]
    fn range_read_rejects_out_of_bounds() {
        let mut p = pool();
        let rec = SpannedStore::store(&mut p, &bytes(10, 0), &bytes(100, 1), None).unwrap();
        assert!(SpannedStore::read_data_ranges(&mut p, &rec, None, &[50..200]).is_err());
    }

    #[test]
    fn rewrite_data_persists() {
        let mut p = pool();
        let data = bytes(3000, 5);
        let rec = SpannedStore::store(&mut p, &bytes(20, 0), &data, None).unwrap();
        let new = bytes(3000, 99);
        SpannedStore::rewrite(&mut p, &rec, None, &new).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(SpannedStore::read_full(&mut p, &rec, None).unwrap(), new);
        // Length changes are rejected.
        assert!(SpannedStore::rewrite(&mut p, &rec, None, &bytes(2999, 0)).is_err());
    }

    #[test]
    fn write_data_range_touches_covering_pages_only() {
        let mut p = pool();
        let data = bytes(3 * EFFECTIVE_PAGE_SIZE, 5);
        let rec = SpannedStore::store(&mut p, &bytes(20, 0), &data, None).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        let patch = vec![0xAA; 50];
        let at = EFFECTIVE_PAGE_SIZE as u32 + 100; // inside data page 1
        SpannedStore::write_data_range(&mut p, &rec, None, at..at + 50, &patch).unwrap();
        let s = p.snapshot();
        assert_eq!(s.fixes, 1, "only the covering page is touched");
        p.clear_cache().unwrap();
        let out = SpannedStore::read_full(&mut p, &rec, None).unwrap();
        assert_eq!(&out[at as usize..at as usize + 50], &patch[..]);
        assert_eq!(&out[..at as usize], &data[..at as usize]);
    }

    #[test]
    fn mapped_store_roundtrips_with_alignment_waste() {
        let mut p = pool();
        let data = bytes(3000, 8);
        // Three half-full pages instead of ⌈3000/2012⌉ = 2 packed ones.
        let starts = [0u32, 1000, 2000];
        let plan = Some(&starts[..]);
        let rec = SpannedStore::store(&mut p, &bytes(20, 0), &data, plan).unwrap();
        assert_eq!(rec.data_pages, 3, "the plan dictates the page count");
        p.clear_cache().unwrap();
        assert_eq!(SpannedStore::read_full(&mut p, &rec, plan).unwrap(), data);
        // Range reads honour the plan: bytes 1000..1500 live on page 1 only.
        p.clear_cache().unwrap();
        p.reset_stats();
        let out = SpannedStore::read_data_ranges(&mut p, &rec, plan, &[1000..1500]).unwrap();
        assert_eq!(&out[1000..1500], &data[1000..1500]);
        assert_eq!(p.snapshot().pages_read, 1);
        // A straddling range touches pages 0 and 1.
        p.clear_cache().unwrap();
        p.reset_stats();
        SpannedStore::read_data_ranges(&mut p, &rec, plan, &[990..1010]).unwrap();
        assert_eq!(p.snapshot().pages_read, 2);
    }

    #[test]
    fn mapped_rewrite_and_patch() {
        let mut p = pool();
        let data = bytes(2500, 3);
        let starts = [0u32, 900, 1800];
        let plan = Some(&starts[..]);
        let rec = SpannedStore::store(&mut p, &[1], &data, plan).unwrap();
        let new = bytes(2500, 77);
        SpannedStore::rewrite(&mut p, &rec, plan, &new).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(SpannedStore::read_full(&mut p, &rec, plan).unwrap(), new);
        // Patch within page 2.
        p.reset_stats();
        SpannedStore::write_data_range(&mut p, &rec, plan, 1900..1950, &[9u8; 50]).unwrap();
        assert_eq!(p.snapshot().fixes, 1, "one covering page");
        p.clear_cache().unwrap();
        let out = SpannedStore::read_full(&mut p, &rec, plan).unwrap();
        assert_eq!(&out[1900..1950], &[9u8; 50]);
        assert_eq!(&out[..1900], &new[..1900]);
    }

    #[test]
    fn bad_page_plans_are_rejected() {
        let mut p = pool();
        // Does not start at 0.
        assert!(SpannedStore::store(&mut p, &[1], &[0u8; 100], Some(&[10])).is_err());
        // Chunk exceeds a page.
        let long = vec![0u8; EFFECTIVE_PAGE_SIZE + 10];
        assert!(SpannedStore::store(&mut p, &[1], &long, Some(&[0])).is_err());
        // Not increasing.
        assert!(SpannedStore::store(&mut p, &[1], &[0u8; 100], Some(&[0, 50, 50])).is_err());
    }

    #[test]
    fn uniform_plan_equals_packed_layout() {
        let mut p = pool();
        let data = bytes(4500, 5);
        let starts: Vec<u32> = (0..data.len().div_ceil(EFFECTIVE_PAGE_SIZE))
            .map(|i| (i * EFFECTIVE_PAGE_SIZE) as u32)
            .collect();
        let packed = SpannedStore::store(&mut p, &[1], &data, None).unwrap();
        let mapped = SpannedStore::store(&mut p, &[1], &data, Some(&starts)).unwrap();
        assert_eq!(packed.data_pages, mapped.data_pages);
        p.clear_cache().unwrap();
        assert_eq!(
            SpannedStore::read_full(&mut p, &packed, None).unwrap(),
            SpannedStore::read_full(&mut p, &mapped, Some(&starts)).unwrap()
        );
    }

    /// The packed and explicit twins used to disagree: an empty range made
    /// the packed ranged read prefetch and fix one page, and the packed
    /// patch fix and dirty one. Defined once now — it touches nothing.
    #[test]
    fn empty_byte_range_touches_no_page() {
        let data = bytes(3000, 4);
        let starts = [0u32, 1000, 2000];
        for plan in [None, Some(&starts[..])] {
            let mut p = pool();
            let rec = SpannedStore::store(&mut p, &[1], &data, plan).unwrap();
            p.clear_cache().unwrap();
            p.reset_stats();
            let before = p.snapshot();
            SpannedStore::read_data_ranges(&mut p, &rec, plan, &[100..100]).unwrap();
            SpannedStore::write_data_range(&mut p, &rec, plan, 100..100, &[]).unwrap();
            p.flush_all().unwrap();
            assert_eq!(p.snapshot(), before, "plan {plan:?}");
        }
    }

    #[test]
    fn flush_writes_dirty_extent_grouped() {
        let mut p = pool();
        let rec = SpannedStore::store(&mut p, &bytes(10, 0), &bytes(4500, 1), None).unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        SpannedStore::rewrite(&mut p, &rec, None, &bytes(4500, 2)).unwrap();
        p.flush_all().unwrap();
        let s = p.snapshot();
        assert_eq!(s.pages_written, 4, "the header page and three data pages");
        assert_eq!(s.write_calls, 1, "contiguous, so one grouped call");
        p.clear_cache().unwrap();
        assert_eq!(
            SpannedStore::read_header(&mut p, &rec).unwrap(),
            bytes(10, 0),
            "the header is rewritten with its own bytes"
        );
    }
}
