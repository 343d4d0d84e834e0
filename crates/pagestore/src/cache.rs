//! [`PageCache`] — the buffer-pool interface the storage layers build on.
//!
//! Heap files, spanned records and the storage models of `starfish-core`
//! only ever need a small, fixed set of pool operations. Abstracting them
//! behind one trait lets the *same* storage code run over either
//!
//! * the single-threaded, exclusively-owned [`BufferPool`](crate::BufferPool)
//!   (`&mut` everywhere — the configuration every original paper measurement
//!   uses), whose whole operational surface *is* its implementation of this
//!   trait (in `buffer.rs`, beside the pool engine — there is no inherent
//!   twin of any method here, and no forwarding layer), or
//! * a [`SharedPoolHandle`](crate::SharedPoolHandle), a cloneable `Arc`
//!   handle to a lock-striped [`crate::SharedBufferPool`] that N client
//!   threads fix pages through concurrently.
//!
//! The trait keeps the `&mut self` receivers of `BufferPool` so existing
//! call sites compile unchanged; the shared handle satisfies them through
//! interior mutability (its `&mut` receivers never actually need the
//! exclusivity).
//!
//! A multi-page read is one *visit* to the pool, in two spellings with the
//! same calls, fixes and policy events: [`PageCache::read_runs`] hands each
//! page to a sink in turn, and [`PageCache::visit_runs`] hands all of them
//! to one closure at once. Both pools **lend their frames** to a visit
//! whose pages are all resident, so a reader decodes where the pages are
//! instead of copying them first; a visit with a miss, and every visit of a
//! pool that keeps the provided body (a decorator, the shared pool with its
//! read engine on), copies.

use crate::latch::LatchMode;
use crate::stats::{BufferStats, IoSnapshot};
use crate::{PageId, PolicyKind, Result, PAGE_SIZE};

/// The pages of `runs`, in order.
pub(crate) fn run_pages(runs: &[(PageId, u32)]) -> impl Iterator<Item = PageId> + Clone + '_ {
    runs.iter()
        .flat_map(|&(first, n)| (0..n).map(move |i| first.offset(i)))
}

/// [`PageCache::read_runs`] spelled as the calls it stands for: per group,
/// one `prefetch_run` per run, then one `with_page` per page. The provided
/// body, and what the shared pool falls back to when its misses go through
/// the batched read engine (an engine miss releases the shard mutex, which
/// a held visit may not) — there under a shared group latch over the
/// visit's pages, since a writer could otherwise slip in between two calls.
pub(crate) fn read_runs_per_call<P: PageCache + ?Sized>(
    pool: &mut P,
    groups: &[&[(PageId, u32)]],
    mut sink: impl FnMut(PageId, &[u8; PAGE_SIZE]),
) -> Result<()> {
    for group in groups {
        for &(first, n) in *group {
            pool.prefetch_run(first, n)?;
        }
        for pid in run_pages(group) {
            pool.with_page(pid, |page| sink(pid, page))?;
        }
    }
    Ok(())
}

/// A page of zeros: what a lent-frame array holds before it is filled, and
/// what a ranged spanned read shows for a data page it did not fetch.
pub(crate) static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Runs `f`, then `release` on every exit path — a panic in `f` is re-raised
/// after it. The body of [`PageCache::with_latched`], whichever way the
/// pool spells the release.
pub(crate) fn then_release<P, R>(
    pool: &mut P,
    f: impl FnOnce(&mut P) -> R,
    release: impl FnOnce(&mut P),
) -> R {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(pool)));
    release(pool);
    match r {
        Ok(v) => v,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// The buffer-pool operations the storage layers need.
///
/// See the `cache` module docs for why this exists. Implementations must
/// preserve the accounting contract of [`crate::BufferPool`]: every
/// [`with_page`](PageCache::with_page) / [`with_page_mut`](PageCache::with_page_mut)
/// is one counted fix (hit or miss); [`prefetch_run`](PageCache::prefetch_run)
/// issues one read call per maximal contiguous missing sub-run and counts no
/// fixes; writes are deferred until eviction or [`flush_all`](PageCache::flush_all).
pub trait PageCache {
    /// Fixes `pid` for reading and passes its content to `f`.
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R>;

    /// Fixes `pid` for writing, passes its content to `f`, marks it dirty.
    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R>;

    /// Ensures the run `[first, first+n)` is cached — one read call per
    /// maximal contiguous missing sub-run, no fixes counted.
    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()>;

    /// Reads page runs as **one visit to the pool**: for each group in
    /// turn, every run is prefetched (one read call per maximal contiguous
    /// missing sub-run, as [`prefetch_run`](PageCache::prefetch_run)), then
    /// every page of the group is fixed in order and handed to `sink` — a
    /// spanned object's header runs and its data run are two groups of one
    /// call. This provided body *is* that sequence of `prefetch_run` and
    /// [`with_page`](PageCache::with_page) calls, so a pool that does not
    /// override it behaves and counts exactly as a caller making them by
    /// hand. The shared pool overrides it to take its shard locks once for
    /// the whole visit instead of once per call, with the same calls, the
    /// same counters and the same policy events. Neither allocates for the
    /// runs: callers pass them from the stack.
    ///
    /// **A visit is one consistent image.** The sink never sees a mix of
    /// pages from before and after a writer's exclusive group over them, so
    /// a multi-page reader takes no latch of its own. An exclusive pool
    /// (`&mut`, one owner) gives this for free; the shared pool gives it by
    /// its lock session, or — with the batched read engine on — by a shared
    /// group latch it takes over the visit's pages itself.
    fn read_runs(
        &mut self,
        groups: &[&[(PageId, u32)]],
        sink: impl FnMut(PageId, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        read_runs_per_call(self, groups, sink)
    }

    /// The visit [`read_runs`](PageCache::read_runs) makes — the same calls,
    /// fixes and policy events — where the pool may **lend its frames**:
    /// `Some` of what `lend` returned, given every page of the visit at
    /// once, in visit order; or `None` when the pages went to `copy` one
    /// by one, as `read_runs` hands them to its sink.
    ///
    /// This provided body always copies: it is `read_runs(groups, copy)`.
    /// [`crate::BufferPool`] and the shared pool lend when every page of
    /// the visit is resident (and there are at most 32): one table lookup
    /// per page, the same events in the same order, and `lend` runs on the
    /// frames themselves — on the shared pool under the shard mutexes of
    /// the visit. A visit with any miss is found out before any event and
    /// copies, so a miss never evicts a page the visit has already fixed.
    fn visit_runs<R>(
        &mut self,
        groups: &[&[(PageId, u32)]],
        copy: impl FnMut(PageId, &[u8; PAGE_SIZE]),
        _lend: impl FnOnce(&[&[u8; PAGE_SIZE]]) -> R,
    ) -> Result<Option<R>> {
        self.read_runs(groups, copy).map(|()| None)
    }

    /// Fixes and pins `pid`; pinned frames are never eviction victims.
    fn pin(&mut self, pid: PageId) -> Result<()>;

    /// Releases one pin on `pid`; `false` if not cached or not pinned.
    fn unpin(&mut self, pid: PageId) -> bool;

    /// Allocates `n` contiguous pages on the underlying disk.
    fn alloc_extent(&mut self, n: u32) -> PageId;

    /// Allocates `n` contiguous pages for **one object** — an extent read
    /// as a unit ([`crate::SpannedStore`] stores each large object in one).
    /// The default is [`alloc_extent`](PageCache::alloc_extent). The shared
    /// pool gives every page of such an extent one owning shard, so a visit
    /// to the object takes one shard mutex instead of every shard's.
    fn alloc_object_extent(&mut self, n: u32) -> PageId {
        self.alloc_extent(n)
    }

    /// Issues a content-free write call of `n` contiguous pages (DASDBS
    /// page-pool writes, §5.3).
    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()>;

    /// Writes all dirty pages back in grouped calls (database disconnect).
    fn flush_all(&mut self) -> Result<()>;

    /// Flushes and drops every cached page (cold restart).
    fn clear_cache(&mut self) -> Result<()>;

    /// Resets disk and buffer counters; cache content is kept.
    fn reset_stats(&mut self);

    /// True if `pid` is currently cached (no accounting side effects).
    fn is_cached(&self, pid: PageId) -> bool;

    /// Combined disk + buffer counters.
    fn snapshot(&self) -> IoSnapshot;

    /// Buffer counters only.
    fn buffer_stats(&self) -> BufferStats;

    /// Total pages allocated on the underlying disk.
    fn database_pages(&self) -> u32;

    /// Pool capacity in pages (summed over shards for sharded pools).
    fn capacity(&self) -> usize;

    /// Which replacement policy the pool runs.
    fn policy_kind(&self) -> PolicyKind;

    /// Acquires a group latch on `pids` (deduplicated) in `mode` — the
    /// multi-page atomicity primitive of the concurrent write path (see
    /// [`crate::latch`]). On the exclusive [`crate::BufferPool`] this is a
    /// counted no-op (single owner ⇒ no conflicts possible); on the shared
    /// pool it acquires real per-page latches in the global (shard, page)
    /// order, blocking on conflicts. Latch groups must not nest.
    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()>;

    /// Releases a group latch previously acquired with the same `pids` and
    /// `mode` by the same thread.
    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode);

    /// Runs `f` with `pids` group-latched in `mode`, releasing the latches
    /// on every exit path — success, error, **and panic** (a leaked latch
    /// would wedge every conflicting accessor and all future flushes, so
    /// an unwinding closure must not skip the release; the panic is
    /// re-raised after it). Generic over the closure's error type so
    /// higher storage layers can use their own error enums inside a latch
    /// scope.
    fn with_latched<R, E>(
        &mut self,
        pids: &[PageId],
        mode: LatchMode,
        f: impl FnOnce(&mut Self) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E>
    where
        Self: Sized,
        E: From<crate::StoreError>,
    {
        self.latch_pages(pids, mode)?;
        then_release(self, f, |pool| pool.unlatch_pages(pids, mode))
    }

    /// FNV-1a checksum of the entire on-disk page array — the differential
    /// tests' "final on-disk bytes" fingerprint. Reads the disk directly
    /// (no counters touched); call after a flush for a meaningful value.
    fn disk_checksum(&self) -> u64;

    /// Commits the calling thread's active write-ahead-log op: the update
    /// helpers call this at each op boundary (after the exclusive latched
    /// closure succeeds), and the call returns only once the op is durable.
    /// A no-op on pools without a WAL (the exclusive [`crate::BufferPool`],
    /// or a shared pool with the WAL disabled) — which is what keeps every
    /// pre-WAL measurement byte-identical.
    fn log_commit(&mut self) -> Result<()> {
        Ok(())
    }

    /// Discards the calling thread's active write-ahead-log op buffer: the
    /// update helpers call this when the latched closure fails after
    /// possibly buffering images, so a failed op cannot leak into the next
    /// commit. A no-op on pools without a WAL.
    fn log_abort(&mut self) {}

    /// The tracked per-page heat map, sorted by page id (summed over shards
    /// for sharded pools). Empty unless the pool was built with
    /// [`crate::HeatConfig::track`] on. Uncounted metadata access: reading
    /// heat issues no I/O and bumps no counter.
    fn page_heat(&self) -> Vec<(PageId, u64)> {
        Vec::new()
    }
}
