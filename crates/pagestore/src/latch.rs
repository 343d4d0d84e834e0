//! Per-page latches — the concurrency primitive behind the shared pool's
//! write path.
//!
//! The sharded [`crate::SharedBufferPool`] is safe for concurrent *readers*:
//! every access runs inside one shard mutex, so a single page can never be
//! observed half-written. What the shard mutex cannot give is **multi-page
//! atomicity**: a large object spans header and data pages, and a writer
//! replacing it releases the shard mutex between pages — a concurrent
//! reader could see some pages new and some old (a *torn tuple*).
//! Per-page latches close that gap.
//!
//! # The latch model
//!
//! A latch is a logical shared/exclusive lock on a [`PageId`], held across
//! shard-mutex releases:
//!
//! * [`LatchMode::Shared`] — many concurrent holders; taken only by the
//!   engine-on read path: with the batched read engine on, the shared
//!   pool's handle serves a [`crate::PageCache::read_runs`] visit call by
//!   call, and an engine miss drops its shard mutex, so the visit holds a
//!   shared group over its pages. Engine off, a visit is one lock session,
//!   atomic without a latch (`SharedBufferPool::read_runs` gives the
//!   argument), and no storage model takes a shared group itself;
//! * [`LatchMode::Exclusive`] — one holder, identified by its
//!   [`ThreadId`]; taken by *writers* for the whole read-modify-write of an
//!   object (its heap page, or its entire spanned extent).
//!
//! Latch state lives in a per-shard side table (`LatchTable`), **not** in
//! the frames: a latched page may be evicted and reloaded without losing its
//! latch. That keeps latching completely invisible to the replacement
//! policy and to the physical I/O counters — which is what lets a one-shard,
//! one-client run over the latched write surface reproduce the serial
//! [`crate::BufferPool`] measurements counter for counter.
//!
//! # Lock order
//!
//! ```text
//!   writer gate (exclusive groups only)
//!        │
//!        ▼
//!   shard 0 mutex ─► shard 1 mutex ─► … ─► shard K−1 mutex
//!        │   (latch groups: latches acquired in ascending PageId order
//!        │    inside a shard, the shard mutex released before crossing
//!        │    to the next shard — latches persist, mutexes do not.
//!        │    Run loads, spanned-read sessions, flush: several shard
//!        │    mutexes held at once, taken in this order, and never
//!        ▼    while waiting on a latch)
//!   disk RwLock
//! ```
//!
//! * **Several shard mutexes may be held together** — by a multi-page
//!   prefetch, by a spanned read's lock session
//!   ([`crate::PageCache::read_runs`] on the shared pool: every shard
//!   owning one of its pages, for the whole visit — one shard for one
//!   object's extent, several for a run of hashed heap pages), by flush
//!   and cold restart — and
//!   then they are always acquired in ascending shard order, and the disk
//!   lock only after them. **No thread waits on a latch while it holds a
//!   shard mutex it did not take for that very wait**: a group waits for a
//!   conflict holding only the conflict's shard (the condvar wait releases
//!   it), and a session that finds a foreign exclusive latch on one of its
//!   pages drops *all* its shard mutexes, waits as a leaf on that page's
//!   shard, and starts over — the latch holder needs those mutexes to
//!   finish.
//! * Group latches are acquired in **ascending (shard, page) order**, one
//!   shard mutex at a time: all of a group's pages in shard *s* are latched
//!   (waiting on the shard's condvar if a conflicting latch is held) before
//!   the mutex is released and shard *s+1* is locked. Every group follows
//!   the same total order, so two groups can never deadlock.
//! * Plain accesses ([`crate::SharedBufferPool::with_page`] /
//!   [`with_page_mut`](crate::SharedBufferPool::with_page_mut)) check the
//!   latch table under the shard mutex and wait for conflicting *foreign*
//!   latches. They can never be part of a cycle because of an invariant
//!   the storage layers must (and do) uphold: **a thread holding a group
//!   latch only accesses — plainly or in a read session — pages of its own
//!   group, or pages that no group ever latches** (the DASDBS-DSM
//!   page-pool scratch page is the one such page today — it is
//!   counter-only and excluded from every latch group). Own-group accesses pass without waiting (the exclusive
//!   entry records its holder), every other plain access waits while
//!   holding no latches at all — a leaf waiter.
//! * Evictions and run loads never consult latches (state is
//!   residency-independent), so the existing shard → disk lock order is
//!   untouched.
//! * `flush_all`/`clear_cache` (and crash/recovery) first **quiesce
//!   writers** through the gate (wait for in-flight exclusive groups to
//!   finish and hold off new ones), then take the shard mutexes — they
//!   never wait on a latch while holding a mutex another writer needs.
//! * The gate is a count, a flag and one wait, shut and reopened by one
//!   private function, the pool's writer-quiesced window, which closes
//!   when its closure returns or unwinds. Only the pool's own
//!   `flush_all`/`clear_cache`/`crash_volatile`/`recover` open it, each
//!   for its own body; no caller outside the pool holds it. The gate has
//!   no owner thread and does not nest.
//!
//! # Accounting
//!
//! Group-latch acquisitions are counted per shard
//! ([`crate::BufferStats::latch_shared`] /
//! [`latch_exclusive`](crate::BufferStats::latch_exclusive)); blocked
//! acquisitions count one [`latch_waits`](crate::BufferStats::latch_waits)
//! each. The exclusive [`crate::BufferPool`] counts the same acquisitions as
//! bookkeeping-only no-ops, so serial and shared runs of the same storage
//! code report identical latch totals (waits excepted — those are
//! scheduling-dependent and always zero without contention). Reads take no
//! group on either pool, so `latch_shared` reads 0 — except on a shared
//! pool with the batched read engine on, which counts one shared group per
//! spanned read visit.

use crate::fx::FxHashMap;
use crate::PageId;
use std::thread::{self, ThreadId};

/// How a page is latched: shared (concurrent readers) or exclusive (one
/// writer, identified by thread). See the [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatchMode {
    /// Many holders; blocks exclusive acquisition.
    Shared,
    /// One holder (per thread); blocks everything from other threads.
    Exclusive,
}

/// One page's latch state.
#[derive(Debug, Default)]
struct LatchEntry {
    /// Number of shared holders.
    shared: u32,
    /// The exclusive holder's thread, if exclusively latched.
    excl: Option<ThreadId>,
}

/// Per-shard latch bookkeeping: `PageId → latch state`, independent of frame
/// residency. All methods are called under the owning shard's mutex.
#[derive(Debug, Default)]
pub(crate) struct LatchTable {
    entries: FxHashMap<PageId, LatchEntry>,
}

impl LatchTable {
    /// Would a plain access by the current thread have to wait? A foreign
    /// exclusive latch blocks every access; a `write` access is also
    /// blocked by any shared latch.
    pub(crate) fn blocks(&self, pid: PageId, write: bool) -> bool {
        self.entries.get(&pid).is_some_and(|e| {
            (write && e.shared > 0) || e.excl.is_some_and(|t| t != thread::current().id())
        })
    }

    /// Can `mode` be granted on `pid` to the current thread right now?
    pub(crate) fn can_grant(&self, pid: PageId, mode: LatchMode) -> bool {
        match self.entries.get(&pid) {
            None => true,
            Some(e) => match mode {
                LatchMode::Shared => e.excl.is_none_or(|t| t == thread::current().id()),
                LatchMode::Exclusive => e.shared == 0 && e.excl.is_none(),
            },
        }
    }

    /// Grants `mode` on `pid`. The caller must have checked
    /// [`LatchTable::can_grant`] under the same mutex hold.
    pub(crate) fn grant(&mut self, pid: PageId, mode: LatchMode) {
        let e = self.entries.entry(pid).or_default();
        match mode {
            LatchMode::Shared => e.shared += 1,
            LatchMode::Exclusive => {
                debug_assert!(e.shared == 0 && e.excl.is_none(), "ungranted exclusive");
                e.excl = Some(thread::current().id());
            }
        }
    }

    /// Releases `mode` on `pid`; the entry disappears once fully released.
    pub(crate) fn release(&mut self, pid: PageId, mode: LatchMode) {
        let Some(e) = self.entries.get_mut(&pid) else {
            debug_assert!(false, "releasing an unlatched page {pid}");
            return;
        };
        match mode {
            LatchMode::Shared => {
                debug_assert!(e.shared > 0, "shared underflow on {pid}");
                e.shared = e.shared.saturating_sub(1);
            }
            LatchMode::Exclusive => {
                debug_assert_eq!(e.excl, Some(thread::current().id()), "foreign release");
                e.excl = None;
            }
        }
        if e.shared == 0 && e.excl.is_none() {
            self.entries.remove(&pid);
        }
    }

    /// Number of currently latched pages in this shard.
    pub(crate) fn latched_pages(&self) -> usize {
        self.entries.len()
    }

    /// Number of exclusively latched pages in this shard.
    pub(crate) fn exclusive_latched(&self) -> usize {
        self.entries.values().filter(|e| e.excl.is_some()).count()
    }
}

/// Sorted, deduplicated copy of `pids` — the canonical group shape both pool
/// flavours count, so latch totals agree between them.
pub(crate) fn distinct_pids(pids: &[PageId]) -> Vec<PageId> {
    let mut v = pids.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_latches_stack_and_release() {
        let mut t = LatchTable::default();
        let p = PageId(3);
        assert!(t.can_grant(p, LatchMode::Shared));
        t.grant(p, LatchMode::Shared);
        t.grant(p, LatchMode::Shared);
        assert_eq!(t.latched_pages(), 1);
        assert!(!t.can_grant(p, LatchMode::Exclusive), "shared blocks excl");
        assert!(!t.blocks(p, false), "shared never blocks reads");
        assert!(t.blocks(p, true), "shared blocks writes");
        t.release(p, LatchMode::Shared);
        t.release(p, LatchMode::Shared);
        assert_eq!(t.latched_pages(), 0);
        assert!(t.can_grant(p, LatchMode::Exclusive));
    }

    #[test]
    fn exclusive_latch_is_reentrant_for_reads_of_the_owner_only() {
        let mut t = LatchTable::default();
        let p = PageId(7);
        t.grant(p, LatchMode::Exclusive);
        // The owning thread passes its own exclusive latch.
        assert!(!t.blocks(p, false));
        assert!(!t.blocks(p, true));
        assert!(t.can_grant(p, LatchMode::Shared), "own excl admits shared");
        assert!(!t.can_grant(p, LatchMode::Exclusive), "no nested exclusive");
        assert_eq!(t.exclusive_latched(), 1);
        t.release(p, LatchMode::Exclusive);
        assert_eq!(t.exclusive_latched(), 0);
        assert_eq!(t.latched_pages(), 0);
    }

    #[test]
    fn distinct_pids_sorts_and_dedups() {
        let v = distinct_pids(&[PageId(5), PageId(1), PageId(5), PageId(2)]);
        assert_eq!(v, vec![PageId(1), PageId(2), PageId(5)]);
        assert!(distinct_pids(&[]).is_empty());
    }
}
