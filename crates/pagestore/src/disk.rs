use crate::stats::DiskStats;
use crate::{PageId, Result, StoreError, PAGE_SIZE};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The simulated disk — the one data device under both pools: an in-memory
/// array of 2048-byte pages with a bump extent allocator and physical I/O
/// accounting.
///
/// The paper evaluates *numbers of physical page I/Os and I/O calls*, not
/// device timings, so an exact-counting simulator reproduces its metrics
/// deterministically (DESIGN.md §3). One call transfers a contiguous run of
/// pages, as DASDBS's multi-page I/O calls do.
///
/// A read call takes `&self` and counts with relaxed atomics, so the shared
/// pool's clients read at once; a write call and an allocation take `&mut`.
/// The exclusive pool, which owns its disk, reads through `DiskOps` with
/// `&mut` and counts with plain adds.
#[derive(Default)]
pub struct SimDisk {
    pages: Vec<[u8; PAGE_SIZE]>,
    counters: Counters,
}

/// The four I/O counters: calls and pages, each indexed by [`READ`] or
/// [`WRITE`].
///
/// Line-aligned, so the counters fill a cache line nothing else shares
/// (the struct's size is its alignment): behind the shared pool's
/// `RwLock<SimDisk>` every client takes the read lock and bumps two
/// counters on every miss, and a counter bump must not take the lock
/// word's line away from a client that is acquiring or releasing the lock.
#[repr(align(64))]
#[derive(Default)]
struct Counters {
    calls: [AtomicU64; 2],
    pages: [AtomicU64; 2],
}

/// The [`Counters`] of read calls.
const READ: usize = 0;
/// The [`Counters`] of write calls.
const WRITE: usize = 1;

impl Counters {
    /// Counts one call of `n` pages with relaxed atomic adds, the count a
    /// shared borrow can make. A zero-length run is no call.
    fn add(&self, dir: usize, n: u32) {
        if n > 0 {
            self.calls[dir].fetch_add(1, Relaxed);
            self.pages[dir].fetch_add(n as u64, Relaxed);
        }
    }

    /// [`Counters::add`] through an exclusive borrow, as plain adds: a call
    /// of the owning pool carries no `lock`-prefixed add, which would wait
    /// for the store buffer to drain on every miss of the serial pool.
    fn add_mut(&mut self, dir: usize, n: u32) {
        if n > 0 {
            *self.calls[dir].get_mut() += 1;
            *self.pages[dir].get_mut() += n as u64;
        }
    }
}

impl SimDisk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `n` contiguous zeroed pages, returning the first page id.
    ///
    /// Contiguity matters: relations and large-object extents are allocated
    /// contiguously, so cluster reads and flush-time grouped writes can use
    /// multi-page calls — the behaviour behind the paper's Table 5.
    pub fn alloc_extent(&mut self, n: u32) -> PageId {
        let first = PageId(self.pages.len() as u32);
        self.pages
            .resize(self.pages.len() + n as usize, [0u8; PAGE_SIZE]);
        first
    }

    /// Number of allocated pages (the database size in pages).
    pub fn allocated_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Reads `n` contiguous pages starting at `first` in **one I/O call**,
    /// invoking `sink(i, bytes)` for each page (`i` counts from 0).
    ///
    /// A zero-length run is a validated no-op: it transfers nothing, counts
    /// no call, and never trips the bounds check (a degenerate `first` past
    /// the end with `n == 0` is still fine — nothing is addressed).
    pub fn read_run(
        &self,
        first: PageId,
        n: u32,
        sink: impl FnMut(u32, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        self.read_pages(first, n, sink)?;
        self.counters.add(READ, n);
        Ok(())
    }

    /// Writes `n` contiguous pages starting at `first` in **one I/O call**,
    /// asking `source(i)` for each page image. Zero-length runs are no-ops
    /// (see [`SimDisk::read_run`]).
    pub fn write_run(
        &mut self,
        first: PageId,
        n: u32,
        mut source: impl FnMut(u32) -> [u8; PAGE_SIZE],
    ) -> Result<()> {
        for i in self.span(first, n)? {
            self.pages[(first.0 + i) as usize] = source(i);
        }
        self.counters.add_mut(WRITE, n);
        Ok(())
    }

    /// Writes `n` contiguous pages in one call *without changing contents* —
    /// models DASDBS's page-pool writes during `change attribute` operations
    /// (§5.3), which write pool pages that carry no useful update.
    pub fn write_run_noop(&self, first: PageId, n: u32) -> Result<()> {
        self.span(first, n)?;
        self.counters.add(WRITE, n);
        Ok(())
    }

    /// Direct unaccounted page access for debugging and loading verification.
    /// Never use on a query path: it bypasses the I/O counters.
    pub fn peek(&self, page: PageId) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(page.0 as usize)
    }

    /// FNV-1a checksum of the full page array (uncounted — a debugging and
    /// differential-testing fingerprint, not an I/O).
    pub fn checksum(&self) -> u64 {
        fnv1a_bytes(self.pages.as_flattened())
    }

    /// Current physical I/O counters.
    pub fn stats(&self) -> DiskStats {
        let c = &self.counters;
        DiskStats {
            read_calls: c.calls[READ].load(Relaxed),
            pages_read: c.pages[READ].load(Relaxed),
            write_calls: c.calls[WRITE].load(Relaxed),
            pages_written: c.pages[WRITE].load(Relaxed),
        }
    }

    /// Resets the physical I/O counters (e.g. after bulk load).
    pub fn reset_stats(&mut self) {
        self.counters = Counters::default();
    }

    /// The transfer of a read call, uncounted: `sink` gets each page.
    fn read_pages(
        &self,
        first: PageId,
        n: u32,
        mut sink: impl FnMut(u32, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        for i in self.span(first, n)? {
            sink(i, &self.pages[(first.0 + i) as usize]);
        }
        Ok(())
    }

    /// The bounds check of every read and write call of the `n` pages from
    /// `first`, returning the page offsets the call transfers — none for a
    /// zero-length run, which is never checked. The caller counts the call
    /// after it, so an error counts nothing.
    fn span(&self, first: PageId, n: u32) -> Result<Range<u32>> {
        if n == 0 {
            return Ok(0..0);
        }
        let end = first.0 as u64 + n as u64;
        if end > self.pages.len() as u64 {
            return Err(StoreError::PageOutOfBounds {
                page: PageId((end - 1) as u32),
                allocated: self.pages.len() as u32,
            });
        }
        Ok(0..n)
    }
}

/// FNV-1a over a byte slice — the primitive behind the disk fingerprint
/// and the WAL's record/header checksums.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The two physical-I/O calls the buffer-pool engine makes. There is one
/// device, [`SimDisk`], behind two locking fronts: the single-threaded
/// [`crate::BufferPool`] owns its disk and calls it directly (the impl
/// below), and [`crate::SharedBufferPool`] calls it through an
/// `&RwLock<SimDisk>` — a read call under the read lock, a write call under
/// the write lock. A priced or fault-injecting device wraps this seam once.
pub(crate) trait DiskOps {
    /// Reads `n` contiguous pages from `first` in one I/O call.
    fn read_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        sink: &mut dyn FnMut(u32, &[u8; PAGE_SIZE]),
    ) -> Result<()>;

    /// Writes `n` contiguous pages from `first` in one I/O call.
    fn write_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        source: &mut dyn FnMut(u32) -> [u8; PAGE_SIZE],
    ) -> Result<()>;
}

impl DiskOps for SimDisk {
    fn read_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        sink: &mut dyn FnMut(u32, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        self.read_pages(first, n, sink)?;
        self.counters.add_mut(READ, n);
        Ok(())
    }

    fn write_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        source: &mut dyn FnMut(u32) -> [u8; PAGE_SIZE],
    ) -> Result<()> {
        self.write_run(first, n, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_zeroed() {
        let mut d = SimDisk::new();
        let a = d.alloc_extent(3);
        let b = d.alloc_extent(2);
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(3));
        assert_eq!(d.allocated_pages(), 5);
        assert!(d.peek(PageId(4)).unwrap().iter().all(|&b| b == 0));
        assert!(d.peek(PageId(5)).is_none());
    }

    #[test]
    fn read_write_run_counts_one_call() {
        let mut d = SimDisk::new();
        let first = d.alloc_extent(4);
        d.write_run(first, 3, |i| [i as u8 + 1; PAGE_SIZE]).unwrap();
        assert_eq!(
            d.stats(),
            DiskStats {
                read_calls: 0,
                pages_read: 0,
                write_calls: 1,
                pages_written: 3
            }
        );
        let mut seen = Vec::new();
        d.read_run(first.offset(1), 2, |i, p| seen.push((i, p[0])))
            .unwrap();
        assert_eq!(seen, vec![(0, 2), (1, 3)]);
        assert_eq!(d.stats().read_calls, 1);
        assert_eq!(d.stats().pages_read, 2);
        // The owning pool's read (`&mut`, plain adds) counts the same.
        d.read_run_dyn(first.offset(1), 2, &mut |_, _| {}).unwrap();
        assert_eq!(d.stats().read_calls, 2);
        assert_eq!(d.stats().pages_read, 4);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = SimDisk::new();
        d.alloc_extent(2);
        let err = d.read_run(PageId(1), 2, |_, _| {}).unwrap_err();
        assert!(matches!(err, StoreError::PageOutOfBounds { .. }));
        let err = d.read_run_dyn(PageId(1), 2, &mut |_, _| {}).unwrap_err();
        assert!(matches!(err, StoreError::PageOutOfBounds { .. }));
        // Error paths must not count I/O.
        assert_eq!(d.stats().read_calls, 0);
    }

    /// Regression: a zero-length run must touch neither the bounds check
    /// nor the call counters — a degenerate run used to count an I/O call
    /// (skewing golden `read_calls`) and could even fail bounds validation
    /// when `first` pointed one past the end.
    #[test]
    fn zero_length_runs_are_uncounted_noops() {
        let mut d = SimDisk::new();
        let first = d.alloc_extent(2);
        d.read_run(first, 0, |_, _| panic!("sink called for empty run"))
            .unwrap();
        d.read_run_dyn(first, 0, &mut |_, _| panic!("sink called"))
            .unwrap();
        d.write_run(first, 0, |_| panic!("source called for empty run"))
            .unwrap();
        d.write_run_noop(first, 0).unwrap();
        // `first` one past the end is fine too: nothing is addressed.
        d.read_run(PageId(2), 0, |_, _| unreachable!()).unwrap();
        d.write_run(PageId(2), 0, |_| unreachable!()).unwrap();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn noop_write_counts_but_preserves() {
        let mut d = SimDisk::new();
        let first = d.alloc_extent(1);
        d.write_run(first, 1, |_| [7; PAGE_SIZE]).unwrap();
        d.write_run_noop(first, 1).unwrap();
        assert_eq!(d.stats().pages_written, 2);
        assert_eq!(d.peek(first).unwrap()[0], 7);
    }

    /// Concurrent read calls through one `&SimDisk` count exactly: the
    /// relaxed counters lose no bump.
    #[test]
    fn concurrent_read_calls_count_exactly() {
        let mut d = SimDisk::new();
        d.alloc_extent(8);
        let d = &d;
        std::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move || {
                    for i in 0..1000u32 {
                        d.read_run(PageId((t + i) % 6), 1 + i % 3, |_, _| {})
                            .unwrap();
                    }
                });
            }
        });
        // Per thread: 1000 calls of 1, 2, 3, 1, 2, … pages (333 full
        // cycles of 6 pages plus one page).
        assert_eq!(d.stats().read_calls, 4 * 1000);
        assert_eq!(d.stats().pages_read, 4 * (333 * 6 + 1));
        assert_eq!(d.stats().write_calls, 0);
    }

    #[test]
    fn reset_stats_clears() {
        let mut d = SimDisk::new();
        let p = d.alloc_extent(1);
        d.write_run(p, 1, |_| [0; PAGE_SIZE]).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }
}
