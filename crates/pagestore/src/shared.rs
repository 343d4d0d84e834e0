//! [`SharedBufferPool`] — a thread-safe, lock-striped buffer pool with
//! per-page latches for concurrent writers.
//!
//! The paper measures a *single* client behind one 1200-page LRU buffer.
//! Serving N concurrent clients from the same buffer turns the pool itself
//! into the bottleneck: one global lock would serialize every fix. This
//! module splits the pool into K lock-striped shards, each a full
//! [`PoolCore`] — the exact frame-slot/replacement-policy/accounting engine
//! behind [`BufferPool`](crate::BufferPool) — protected by its own mutex.
//! Which shard owns a page is fixed when the page is allocated:
//!
//! * **an object's extent is one lock domain.** Every page of an extent
//!   allocated for one object ([`PageCache::alloc_object_extent`], which
//!   [`crate::SpannedStore`] stores each large object in) belongs to the
//!   shard its first page hashes to. The paper's direct models read such an
//!   object as a unit, so a visit to it locks one shard, and two clients
//!   on different objects usually lock different ones;
//! * **every other page hashes on its own** (a Fibonacci multiplicative
//!   hash of its id): the pages of a heap file — a normalized relation, the
//!   small objects of DSM — spread across the shards, so a hot relation
//!   does not pile onto one;
//! * the owner is recorded before the extent's id is handed out and never
//!   changes, and `shard_of` reads it without a lock.
//!
//! Then:
//!
//! * a single-page fix takes exactly **one shard lock** (plus the disk lock
//!   on a miss), so fixes to different shards never contend; a spanned
//!   read ([`PageCache::read_runs`]) takes the locks of every shard owning
//!   one of its pages **once**, for the whole visit, instead of once per
//!   prefetch and once per fix — for one object, that is one lock;
//! * each shard runs its **own replacement policy instance** over its own
//!   frames and keeps its own [`BufferStats`], so victim selection needs no
//!   cross-shard coordination and per-shard load imbalance is observable
//!   ([`SharedBufferPool::shard_stats`]);
//! * the data device is `BufferPool`'s [`SimDisk`] behind an `RwLock` (the
//!   read lock per read call, the write lock per write call), and
//!   [`SharedBufferPool::snapshot`] merges its counters with the shards',
//!   so every per-unit metric of the measurement protocol works unchanged;
//! * multi-shard operations (run loads, spanned reads, flush, cold
//!   restart) hold several shard locks at a time, always acquired in
//!   **ascending shard order**, never held while waiting on a latch, and
//!   the disk lock only ever after shard locks — a total lock order, so
//!   the pool cannot deadlock;
//! * a shard lock is held for about a microsecond, so a thread that finds
//!   one taken **spins, then yields, and only then parks** (`lock_shard`):
//!   a park and its wake-up cost more than ten whole object reads, and
//!   parking is what made a second client on one pool divide throughput by
//!   four (README, "A second client must not cost throughput");
//! * each shard mutex's lock word sits on a cache line of its own, so a
//!   spinner's `try_lock` does not pull the holder's pool engine away from
//!   it.
//!
//! A pool with **one shard** executes, operation for operation, the same
//! code as [`BufferPool`](crate::BufferPool) — by construction, not by
//! mirroring: a fix is [`PoolCore::fix`] on both; prefetch, miss and flush
//! are `buffer::prefetch_run`, `buffer::load_run` and `buffer::flush_all`
//! (over `buffer::page_runs` / `buffer::flush_dirty_runs`), which this pool
//! calls with the cores of the shard guards it holds and `BufferPool` with
//! its single core; every read and write call of either goes through the
//! two `DiskOps` methods. What is left here is locking — which shards to
//! take, in which order, and what to wait for — and that is all
//! `tests/prop_shared_buffer.rs` (identical eviction decisions, call
//! grouping and counters, per step) has to police. That is what makes a
//! one-client run over the shared pool reproduce the serial measurements
//! exactly.
//!
//! Capacity is split across shards (`total/K` each, remainder to the lowest
//! shards); a shard may transiently overflow its slice exactly like
//! [`BufferPool`](crate::BufferPool) overflows when nothing is evictable.
//!
//! # Concurrent writes
//!
//! Since the latch layer ([`crate::latch`]), mutations no longer assume a
//! quiesced pool:
//!
//! * single-page accesses stay atomic under the shard mutex, and
//!   additionally wait for conflicting *foreign* latches; a spanned read
//!   waits for them too, before it touches a frame and holding no shard
//!   mutex while it waits;
//! * a multi-page write (an object's read-modify-write) takes an
//!   exclusive **group latch** via [`SharedBufferPool::latch_pages`],
//!   acquired in the global (shard, page) order described in
//!   [`crate::latch`], so writers on disjoint objects proceed in parallel;
//! * a multi-page read needs no latch: one [`PageCache::read_runs`] visit
//!   is one lock session over every shard it touches, begun only when no
//!   foreign exclusive latch covers its pages, so it sees a writer's group
//!   entirely or not at all (the argument is on
//!   `SharedBufferPool::read_runs`). With the batched read engine on, the
//!   handle's per-call path takes a shared group latch for the visit
//!   instead — an engine miss drops its shard mutex;
//! * flush, cold restart, crash and recovery **quiesce writers** through a
//!   gate (in-flight exclusive groups finish, new ones are held off)
//!   instead of assuming them absent, then work under all shard locks —
//!   concurrent readers keep running and simply go cold after a restart.
//!   The gate is shut (and reopened) in one private place, the
//!   writer-quiesced window those four operations run inside; it has no
//!   owner and does not nest.
//!
//! # Batched reads
//!
//! With [`crate::IoEngineConfig::enabled`], buffer misses route through the
//! [`crate::ioengine`] submission/completion layer: the missing fixer
//! releases its shard mutex and parks on a completion token while a
//! drain leader coalesces queued misses into multi-page `read_run` calls
//! and fills the frames (shard locks held only for the install, never
//! across the disk read). The engine mutex sits outside the lock order —
//! it is never held while a shard mutex is acquired. Disabled (default),
//! the miss path is the synchronous one, byte-identical in code and
//! counters to the pre-engine pool.
//!
//! # Lock poisoning
//!
//! Every mutex/condvar acquisition here recovers from poisoning
//! (`unwrap_or_else(|e| e.into_inner())`) instead of propagating the panic.
//! Shard, gate, and disk state are kept consistent by this module's own
//! invariants — critical sections never leave frames half-installed — and
//! the latched write surface already unwinds cleanly
//! ([`PageCache::with_latched`] releases latches on panic). Propagating
//! poison would turn one panicked client into a pool-wide panic storm and
//! leave threads parked in `Condvar::wait` wedged forever.

use crate::buffer::{self, PoolCore};
use crate::cache::{self, run_pages, PageCache};
use crate::disk::DiskOps;
use crate::ioengine::IoEngine;
use crate::latch::{LatchMode, LatchTable};
use crate::stats::{BufferStats, IoSnapshot};
use crate::wal::Wal;
use crate::{BufferConfig, PageId, PolicyKind, Result, SimDisk, StoreError, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};

/// The shared pool's front of the one device: a read call under the disk's
/// read lock (many at once), a write call under its write lock, each then
/// the [`SimDisk`] call itself. Every read and write call of the shared
/// pool goes through these two methods.
impl DiskOps for &RwLock<SimDisk> {
    fn read_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        sink: &mut dyn FnMut(u32, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        read_disk(self).read_run(first, n, sink)
    }

    fn write_run_dyn(
        &mut self,
        first: PageId,
        n: u32,
        source: &mut dyn FnMut(u32) -> [u8; PAGE_SIZE],
    ) -> Result<()> {
        write_disk(self).write_run(first, n, source)
    }
}

/// The disk's read lock (poison recovered, module doc).
fn read_disk(disk: &RwLock<SimDisk>) -> RwLockReadGuard<'_, SimDisk> {
    disk.read().unwrap_or_else(|e| e.into_inner())
}

/// The disk's write lock (poison recovered, module doc).
fn write_disk(disk: &RwLock<SimDisk>) -> RwLockWriteGuard<'_, SimDisk> {
    disk.write().unwrap_or_else(|e| e.into_inner())
}

/// One lock-striped shard: the pool engine plus its latch table, behind one
/// mutex, with a condvar for latch-conflict waiting.
struct Shard {
    state: Mutex<ShardState>,
    /// Notified when a latch in this shard is released while somebody
    /// waits for one (`ShardState::waiters`).
    cond: Condvar,
    /// Times [`lock_shard`] gave up spinning and yielding and took the
    /// blocking `lock()`.
    #[cfg(test)]
    blocking_locks: AtomicU64,
}

/// Line-aligned, so the mutex's lock word (which `Mutex` places before
/// the value) sits on a cache line of its own: a spinner's `try_lock`
/// does not take the line that holds the pool engine's first fields away
/// from the holder.
#[repr(align(64))]
struct ShardState {
    core: PoolCore,
    latches: LatchTable,
    /// Threads asleep on `Shard::cond`. Counted in and out under the shard
    /// mutex by the one conflict wait, so a release that reads 0 under the
    /// same mutex has nobody to wake and skips the `futex_wake`.
    waiters: usize,
}

/// How often a thread that finds a shard mutex taken looks again before it
/// parks: first spinning, then yielding its processor. The mutex is held
/// for the length of a hash probe or a page copy — about a microsecond —
/// while a park and its wake-up cost tens; `std`'s mutex spins for far less
/// than a hold before it sleeps. Sized like `YIELDS_BEFORE_PARK` of the
/// cluster router: the whole budget costs about what one park would
/// (64 spins + 32 yields measured as good as 64 + 2 000), and past it the
/// blocking `lock()` protects the runs where clients outnumber processors
/// and the holder is not running at all. Not a setting: the protocol under
/// it is the plain mutex.
const SPINS_BEFORE_YIELD: u32 = 64;
const YIELDS_BEFORE_PARK: u32 = 32;

/// The one way a shard mutex is taken: bounded spin, bounded yield, then
/// the blocking lock. Poison is recovered (module doc, "Lock poisoning").
fn lock_shard(sh: &Shard) -> MutexGuard<'_, ShardState> {
    for round in 0..SPINS_BEFORE_YIELD + YIELDS_BEFORE_PARK {
        match sh.state.try_lock() {
            Ok(st) => return st,
            Err(TryLockError::Poisoned(e)) => return e.into_inner(),
            Err(TryLockError::WouldBlock) if round < SPINS_BEFORE_YIELD => std::hint::spin_loop(),
            Err(TryLockError::WouldBlock) => std::thread::yield_now(),
        }
    }
    #[cfg(test)]
    sh.blocking_locks.fetch_add(1, Ordering::SeqCst);
    sh.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The owning shard of every page of every object extent
/// ([`SharedBufferPool::alloc_object_extent`]): written once, before the
/// extent's first page id is handed out, and read by `shard_of` without a
/// lock.
///
/// A segmented array of atomics that grows without moving what it holds:
/// segment `k` covers the `EXTENT_MAP_BASE << k` pages from page
/// `EXTENT_MAP_BASE · (2^k − 1)`, so `EXTENT_MAP_SEGMENTS` segments span
/// every `u32` page id, and a segment is allocated when the first object
/// extent reaches it. An entry holds `shard + 1` in a `usize`, which fits
/// every shard count a pool can have; 0 means "not an object page" (a heap
/// page, a scratch page, any `alloc_extent` page), and such a page hashes.
struct ExtentOwners {
    segments: [OnceLock<Box<[AtomicUsize]>>; EXTENT_MAP_SEGMENTS],
}

/// Pages in the map's first segment; each further segment doubles.
const EXTENT_MAP_BASE: u64 = 1024;
/// `u32::MAX / EXTENT_MAP_BASE + 1 < 2^23`, so 23 segments cover every id.
const EXTENT_MAP_SEGMENTS: usize = 23;

impl ExtentOwners {
    fn new() -> Self {
        ExtentOwners {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `pid`'s segment and its index in it.
    fn slot(pid: PageId) -> (usize, usize) {
        let k = (pid.0 as u64 / EXTENT_MAP_BASE + 1).ilog2();
        let start = EXTENT_MAP_BASE * ((1 << k) - 1);
        (k as usize, (pid.0 as u64 - start) as usize)
    }

    /// The recorded owner of `pid`, if it is an object page.
    fn owner(&self, pid: PageId) -> Option<usize> {
        let (k, i) = Self::slot(pid);
        let entry = self.segments[k].get()?[i].load(Ordering::Acquire);
        entry.checked_sub(1)
    }

    /// Gives the `n` pages from `first` the owner `shard`. Each page is
    /// recorded once: an extent is allocated once and never freed.
    fn record(&self, first: PageId, n: u32, shard: usize) {
        for pid in (0..n).map(|i| first.offset(i)) {
            let (k, i) = Self::slot(pid);
            let segment = self.segments[k].get_or_init(|| {
                (0..EXTENT_MAP_BASE << k)
                    .map(|_| AtomicUsize::new(0))
                    .collect()
            });
            segment[i].store(shard + 1, Ordering::Release);
        }
    }
}

/// The writer gate: a count of exclusive latch groups in flight, a flag
/// that holds new ones off, and one wait ([`SharedBufferPool::gate_wait`]).
/// The flag is raised and lowered by the quiesced window only
/// ([`SharedBufferPool::with_writers_quiesced`], around flush, cold
/// restart, crash and recovery), before any shard mutex is touched — the
/// gate is the head of the lock order. It has no owner and does not nest.
#[derive(Default)]
struct GateState {
    /// Exclusive latch groups currently between latch and unlatch.
    active_exclusive: usize,
    /// A window is open (or opening): new exclusive groups wait.
    draining: bool,
    /// Threads asleep on the gate's condvar (see `ShardState::waiters`).
    waiters: usize,
}

/// A thread-safe buffer pool split into K lock-striped shards, an object's
/// extent owned by one shard and every other page hashed to one. See the
/// `shared` module docs for the design and its invariants.
///
/// All methods take `&self`; share the pool across threads through
/// [`SharedPoolHandle`] (an `Arc` wrapper that also implements
/// [`PageCache`], so the storage layers run over it unchanged).
pub struct SharedBufferPool {
    disk: RwLock<SimDisk>,
    shards: Vec<Shard>,
    /// The owning shard of each object page (`shard_of`).
    owners: ExtentOwners,
    gate: Mutex<GateState>,
    gate_cond: Condvar,
    /// Waits spent quiescing writers at flush/restart (merged into
    /// [`BufferStats::latch_waits`]).
    gate_waits: AtomicU64,
    policy: PolicyKind,
    capacity: usize,
    /// The write-ahead log, when durability is enabled ([`crate::WalConfig`]).
    /// `None` keeps every code path and counter byte-identical to the
    /// pre-WAL pool.
    wal: Option<Wal>,
    /// The batched read engine, when enabled ([`crate::IoEngineConfig`]). `None`
    /// keeps the synchronous miss path and its counters byte-identical to
    /// the pre-engine pool.
    engine: Option<IoEngine>,
}

impl SharedBufferPool {
    /// A pool of `capacity` total pages split over `shards` shards, each
    /// running its own `policy` instance; WAL, read engine and heat
    /// tracking off. Shorthand for [`Self::from_config`].
    pub fn new(capacity: usize, policy: PolicyKind, shards: usize) -> Self {
        Self::from_config(BufferConfig::with_pages(capacity).policy(policy), shards)
    }

    /// The constructor: `config.pages` total pages split over `shards`
    /// shards (at least one page each), every shard running its own
    /// `config.policy` instance and its own heat tracker; with
    /// `config.wal.enabled` every latched update is redo-logged and
    /// survives [`Self::crash_volatile`] + [`Self::recover`]; with
    /// `config.io.enabled` misses go through the batched read engine.
    pub fn from_config(config: BufferConfig, shards: usize) -> Self {
        let capacity = config.pages;
        assert!(shards > 0, "need at least one shard");
        assert!(
            capacity >= shards,
            "capacity ({capacity}) must be >= shard count ({shards})"
        );
        let shard_count = shards;
        let shards = (0..shards)
            .map(|i| {
                let per = capacity / shards + usize::from(i < capacity % shards);
                let mut core = PoolCore::new(per, config.policy);
                core.set_heat(config.heat);
                Shard {
                    state: Mutex::new(ShardState {
                        core,
                        latches: LatchTable::default(),
                        waiters: 0,
                    }),
                    cond: Condvar::new(),
                    #[cfg(test)]
                    blocking_locks: AtomicU64::new(0),
                }
            })
            .collect();
        SharedBufferPool {
            disk: RwLock::new(SimDisk::new()),
            shards,
            owners: ExtentOwners::new(),
            gate: Mutex::new(GateState::default()),
            gate_cond: Condvar::new(),
            gate_waits: AtomicU64::new(0),
            policy: config.policy,
            capacity,
            wal: config.wal.enabled.then(|| Wal::new(config.wal)),
            engine: config.io.enabled.then(|| IoEngine::new(shard_count)),
        }
    }

    /// The tracked per-page heat map merged over all shards, sorted by page
    /// id. Empty unless the pool was built with heat tracking on. Uncounted
    /// metadata access: no I/O, no counter changes.
    pub fn page_heat(&self) -> Vec<(PageId, u64)> {
        let mut all: Vec<(PageId, u64)> = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(self.shard(i).core.page_heat());
        }
        // Shards partition the page-id space, so concatenation has no
        // duplicate keys — a sort yields the global map.
        all.sort_unstable_by_key(|&(p, _)| p);
        all
    }

    /// Total capacity in pages (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Which replacement policy every shard runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy
    }

    /// The shard owning `pid`. A page of an object extent belongs to the
    /// shard recorded for its whole extent at allocation
    /// ([`Self::alloc_object_extent`]), so a visit to one object locks one
    /// shard. Every other page — heap files, scratch pages, plain
    /// [`Self::alloc_extent`] runs — is placed by a Fibonacci
    /// multiplicative hash of its id, so a relation's contiguous pages
    /// spread across the shards instead of piling onto one. The lookup
    /// takes no lock, and a page's shard never changes.
    fn shard_of(&self, pid: PageId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.owners
            .owner(pid)
            .unwrap_or_else(|| self.hashed_shard(pid))
    }

    /// The shard `pid` hashes to.
    fn hashed_shard(&self, pid: PageId) -> usize {
        let h = (pid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.shards.len() as u64) as usize
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, ShardState> {
        lock_shard(&self.shards[i])
    }

    /// The one conflict wait: while `blocked` holds, sleeps on the shard's
    /// condvar (woken by every latch release in the shard while it is
    /// registered in `waiters`). A blocked acquisition counts one
    /// `latch_waits`, however often it is woken.
    /// The loop is written by hand because `Condvar::wait_while` returns on
    /// a poisoned mutex without re-checking its predicate, and a poisoned
    /// shard is a supported state (module doc, "Lock poisoning").
    fn wait_until_clear<'a>(
        sh: &'a Shard,
        mut st: MutexGuard<'a, ShardState>,
        blocked: impl Fn(&LatchTable) -> bool,
    ) -> MutexGuard<'a, ShardState> {
        if blocked(&st.latches) {
            st.core.stats.latch_waits += 1;
            st.waiters += 1;
            while blocked(&st.latches) {
                st = sh.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.waiters -= 1;
        }
        st
    }

    /// Locks `pid`'s shard and waits until no *foreign* latch blocks the
    /// access (see [`LatchTable::blocks`]). Leaf wait: the caller holds no
    /// other lock or latch.
    fn lock_for(&self, pid: PageId, write: bool) -> MutexGuard<'_, ShardState> {
        let sh = &self.shards[self.shard_of(pid)];
        Self::wait_until_clear(sh, lock_shard(sh), |latches| latches.blocks(pid, write))
    }

    /// Locks every shard, in ascending order (the global lock order).
    fn lock_all(&self) -> Vec<MutexGuard<'_, ShardState>> {
        self.shards.iter().map(lock_shard).collect()
    }

    /// Allocates `n` contiguous pages on the disk; each page hashes
    /// to its shard on its own.
    pub fn alloc_extent(&self, n: u32) -> PageId {
        write_disk(&self.disk).alloc_extent(n)
    }

    /// Allocates `n` contiguous pages for one object and gives all of them
    /// one owning shard — the one the first page hashes to — recorded
    /// before the id is returned. A visit to the object then takes one
    /// shard mutex, where hashed pages would take every shard's.
    pub fn alloc_object_extent(&self, n: u32) -> PageId {
        let first = write_disk(&self.disk).alloc_extent(n);
        if self.shards.len() > 1 {
            self.owners.record(first, n, self.hashed_shard(first));
        }
        first
    }

    /// Total pages allocated on the disk.
    pub fn database_pages(&self) -> u32 {
        read_disk(&self.disk).allocated_pages()
    }

    /// FNV-1a checksum of the disk's page array (uncounted).
    pub fn disk_checksum(&self) -> u64 {
        read_disk(&self.disk).checksum()
    }

    /// Fixes `pid` under its shard lock, routing misses through the
    /// batched read engine when one is enabled. Returns the owning shard's
    /// guard plus the frame slot, with the fix counted.
    ///
    /// Engine off, this is the synchronous path verbatim: one shard lock,
    /// and a miss reads under it. Engine on, a miss **releases the shard
    /// mutex** and parks on the engine ([`IoEngine::read_page`]); once the
    /// completion fires, the shard is re-locked and the (engine-installed)
    /// frame is counted as a miss. An eviction can beat the re-lock, in
    /// which case the request is simply resubmitted.
    fn fix_in_shard(
        &self,
        pid: PageId,
        write: bool,
    ) -> Result<(MutexGuard<'_, ShardState>, usize)> {
        let mut st = self.lock_for(pid, write);
        let Some(engine) = &self.engine else {
            let slot = st.core.fix(&mut &self.disk, pid, write)?;
            return Ok((st, slot));
        };
        loop {
            if st.core.is_cached(pid) {
                // Resident: the ordinary (hit-counting) fix.
                let slot = st.core.fix(&mut &self.disk, pid, write)?;
                return Ok((st, slot));
            }
            drop(st);
            engine.read_page(self.shard_of(pid), pid, |runs| self.install_runs(runs))?;
            st = self.lock_for(pid, write);
            if let Some(slot) = st.core.slot_of(pid) {
                st.core.fix_engine_miss(slot, write);
                return Ok((st, slot));
            }
            // Evicted between completion and re-lock: go around again. The
            // next round's residency check keeps this loop from spinning —
            // either the page is back (someone re-read it) or we resubmit.
        }
    }

    /// Leader-side completion fill for a drained batch: for each coalesced
    /// run, read it from the disk in **one call with no shard mutex
    /// held**, then install the frames that are still missing under their
    /// shard locks (pages that raced into the cache keep their authoritative
    /// frames; the freshly read image is dropped).
    fn install_runs(&self, runs: &[(PageId, u32)]) -> Result<()> {
        let disk = &mut &self.disk;
        for &(first, n) in runs {
            let mut images: Vec<[u8; PAGE_SIZE]> = Vec::with_capacity(n as usize);
            disk.read_run_dyn(first, n, &mut |_, data| images.push(*data))?;
            let (involved, mut guards) = self.lock_involved(run_pages(&[(first, n)]));
            let mut cores = cores_of(&mut guards);
            let owner = |pid| owner_pos(&involved, self.shard_of(pid));
            let missing: Vec<PageId> = (0..n)
                .map(|i| first.offset(i))
                .filter(|&pid| !cores[owner(pid)].is_cached(pid))
                .collect();
            buffer::make_room_for(&mut cores, owner, disk, missing.iter().copied())?;
            for pid in missing {
                cores[owner(pid)].insert_frame(pid, &images[(pid.0 - first.0) as usize]);
            }
        }
        Ok(())
    }

    /// Fixes `pid` for reading and passes its content to `f`. One shard
    /// lock; concurrent fixes to other shards proceed in parallel. Waits
    /// for a conflicting foreign exclusive latch. With the batched read
    /// engine enabled, a miss parks on a completion token instead of
    /// reading under the shard mutex (see `fix_in_shard`).
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let (st, slot) = self.fix_in_shard(pid, false)?;
        Ok(f(&st.core.frame(slot).data))
    }

    /// Fixes `pid` for writing, passes its content to `f`, marks it dirty.
    /// The mutation is atomic under the shard mutex; conflicting foreign
    /// latches (exclusive by another thread, or any shared group) are
    /// waited out first.
    ///
    /// With the WAL enabled, the frame is copied to the stack before `f`
    /// runs, and the byte range `f` changed is buffered into the calling
    /// thread's active op (made durable at [`Self::log_commit`]) and the
    /// frame stamped with its LSN. A write that changes nothing logs
    /// nothing and keeps the frame's LSN. Which bytes changed is the
    /// pool's to find, not the caller's to report, so no writer can
    /// under-report a range. The log mutex is taken *after* the shard
    /// mutex — last in the lock order.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let (mut st, slot) = self.fix_in_shard(pid, true)?;
        let frame = st.core.frame_mut(slot);
        let Some(wal) = &self.wal else {
            return Ok(f(&mut frame.data));
        };
        let before = *frame.data;
        let r = f(&mut frame.data);
        if let Some(lsn) = wal.note_page_write(pid, frame.lsn, &before, &frame.data) {
            frame.lsn = lsn;
        }
        Ok(r)
    }

    /// Fixes and pins `pid` in its shard; pinned frames are never eviction
    /// victims until [`SharedBufferPool::unpin`]. Pins nest.
    pub fn pin(&self, pid: PageId) -> Result<()> {
        let (mut st, slot) = self.fix_in_shard(pid, false)?;
        st.core.frame_mut(slot).pins += 1;
        Ok(())
    }

    /// Releases one pin on `pid`; `false` if not cached or not pinned.
    pub fn unpin(&self, pid: PageId) -> bool {
        self.shard(self.shard_of(pid)).core.unpin(pid)
    }

    /// True if `pid` is currently cached in its shard.
    pub fn is_cached(&self, pid: PageId) -> bool {
        self.shard(self.shard_of(pid)).core.is_cached(pid)
    }

    /// Acquires a group latch on the distinct pages of `pids` in `mode`:
    /// exclusive for writers; shared only for a read visit the batched read
    /// engine serves call by call (the handle's `read_runs`). Pages are
    /// latched in ascending (shard, page) order, one shard mutex at a time
    /// (released before crossing to the next shard — latches persist,
    /// mutexes do not), waiting on the shard condvar for conflicts.
    /// Exclusive groups additionally register with the writer gate so
    /// flushes can quiesce them. Groups must not nest.
    pub fn latch_pages(&self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        self.latch_ordered(&self.group_order(pids), mode);
        Ok(())
    }

    /// Releases a group latch previously acquired with [`Self::latch_pages`]
    /// (same pages, same mode, same thread), waking conflict waiters.
    pub fn unlatch_pages(&self, pids: &[PageId], mode: LatchMode) {
        self.unlatch_ordered(&self.group_order(pids), mode);
    }

    /// The distinct pages of a group in ascending (shard, page) order —
    /// the total order every group acquires and releases in, which is what
    /// keeps two groups from deadlocking. The one allocation of a group:
    /// [`PageCache::with_latched`] on the handle orders once and releases
    /// by the same list.
    fn group_order(&self, pids: &[PageId]) -> Vec<(usize, PageId)> {
        let mut ordered: Vec<(usize, PageId)> =
            pids.iter().map(|&p| (self.shard_of(p), p)).collect();
        ordered.sort_unstable();
        ordered.dedup();
        ordered
    }

    /// [`Self::latch_pages`] over a [`Self::group_order`] list.
    fn latch_ordered(&self, ordered: &[(usize, PageId)], mode: LatchMode) {
        if ordered.is_empty() {
            return;
        }
        if mode == LatchMode::Exclusive {
            self.enter_exclusive_group();
        }
        for in_shard in ordered.chunk_by(|a, b| a.0 == b.0) {
            let sh = &self.shards[in_shard[0].0];
            let mut st = lock_shard(sh);
            for &(_, pid) in in_shard {
                st = Self::wait_until_clear(sh, st, |latches| !latches.can_grant(pid, mode));
                st.latches.grant(pid, mode);
            }
            st.core.note_group_latch(mode, in_shard.len() as u64);
        }
    }

    /// [`Self::unlatch_pages`] over the list the group was latched by. A
    /// shard's condvar is notified only when a waiter is registered under
    /// its mutex: an uncontended release makes no system call.
    fn unlatch_ordered(&self, ordered: &[(usize, PageId)], mode: LatchMode) {
        if ordered.is_empty() {
            return;
        }
        for in_shard in ordered.chunk_by(|a, b| a.0 == b.0) {
            let sh = &self.shards[in_shard[0].0];
            let mut st = lock_shard(sh);
            for &(_, pid) in in_shard {
                st.latches.release(pid, mode);
            }
            let wake = st.waiters > 0;
            drop(st);
            if wake {
                sh.cond.notify_all();
            }
        }
        if mode == LatchMode::Exclusive {
            self.exit_exclusive_group();
        }
    }

    /// Total pages currently group-latched (any mode) across shards.
    pub fn latched_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).latches.latched_pages())
            .sum()
    }

    /// Total pages currently exclusively latched across shards.
    pub fn exclusive_latched_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).latches.exclusive_latched())
            .sum()
    }

    /// One sleep on the gate's condvar, registered in `GateState::waiters`
    /// for its length so the gate's two releases know whether anybody is
    /// there to wake. Callers loop on their own condition.
    fn gate_wait<'a>(&'a self, mut g: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
        g.waiters += 1;
        g = self.gate_cond.wait(g).unwrap_or_else(|e| e.into_inner());
        g.waiters -= 1;
        g
    }

    /// Drops the gate and wakes its sleepers, if there are any.
    fn gate_release(&self, g: MutexGuard<'_, GateState>) {
        let wake = g.waiters > 0;
        drop(g);
        if wake {
            self.gate_cond.notify_all();
        }
    }

    fn enter_exclusive_group(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        while g.draining {
            g = self.gate_wait(g);
        }
        g.active_exclusive += 1;
    }

    fn exit_exclusive_group(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.active_exclusive > 0, "unbalanced exclusive group");
        g.active_exclusive = g.active_exclusive.saturating_sub(1);
        self.gate_release(g);
    }

    /// Opens the window: waits out a window another thread holds, raises
    /// the flag (new exclusive groups wait from here on), then waits for
    /// the exclusive groups in flight to finish. Never called while holding
    /// a shard mutex, so draining writers can complete.
    fn quiesce_writers(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        while g.draining {
            g = self.gate_wait(g);
        }
        g.draining = true;
        let mut waited = false;
        while g.active_exclusive > 0 {
            if !waited {
                self.gate_waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            g = self.gate_wait(g);
        }
    }

    /// Closes the window ([`Quiesced`]'s drop).
    fn release_quiesce(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.draining, "unbalanced quiesce");
        g.draining = false;
        self.gate_release(g);
    }

    /// Runs `f` inside the writer-quiesced window — the only place the gate
    /// is shut and reopened: in-flight exclusive latch groups drain first,
    /// no new one starts until `f` returns **or unwinds**, and plain reads
    /// and shared groups keep flowing throughout. Flush, cold restart,
    /// crash and recovery are the token's operations. The window does not
    /// nest: inside it, an exclusive latch group or a second window waits
    /// on the very drain this one holds.
    pub(crate) fn with_writers_quiesced<R>(&self, f: impl FnOnce(&Quiesced<'_>) -> R) -> R {
        self.quiesce_writers();
        let window = Quiesced { pool: self };
        f(&window)
    }

    /// Locks every shard owning one of `pids`, in ascending shard order (the
    /// global lock order). Returns the involved shard indices and their
    /// guards, in the same order; resolve a page's guard with [`owner_pos`].
    fn lock_involved(
        &self,
        pids: impl Iterator<Item = PageId>,
    ) -> (Vec<usize>, Vec<MutexGuard<'_, ShardState>>) {
        let mut involved: Vec<usize> = Vec::new();
        for s in pids.map(|pid| self.shard_of(pid)) {
            if !involved.contains(&s) {
                involved.push(s);
            }
        }
        involved.sort_unstable();
        let guards = involved.iter().map(|&s| self.shard(s)).collect();
        (involved, guards)
    }

    /// Ensures the run `[first, first+n)` is cached: one read call per
    /// maximal contiguous missing sub-run — disk-adjacent missing fragments
    /// merge into a single call even when different shards own their
    /// pages. Does not count fixes.
    ///
    /// Every involved shard is locked up front (ascending, the lock order),
    /// so residency is decided **coherently for the whole run** — nothing
    /// can race in or out between the scan and the load. The scan and the
    /// load themselves are `buffer::prefetch_run` over the locked shards'
    /// cores: the function `BufferPool` runs over its single core, which is
    /// what keeps a 1-shard pool counter-exact against the serial pool.
    pub fn prefetch_run(&self, first: PageId, n: u32) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let (involved, mut guards) = self.lock_involved(run_pages(&[(first, n)]));
        let mut cores = cores_of(&mut guards);
        let owner = |pid| owner_pos(&involved, self.shard_of(pid));
        buffer::prefetch_run(&mut cores, owner, &mut &self.disk, first, n)
    }

    /// [`PageCache::read_runs`] as one lock session (synchronous miss path
    /// only — the handle sends an engine-on pool down the per-call path):
    /// the shards of every page of every group are locked **once**,
    /// ascending, and the calls the provided body would make one lock at a
    /// time — `buffer::prefetch_run` per run, [`PoolCore::fix`] per page —
    /// run over the held cores, in the same order, so counters and policy
    /// events are the per-call path's.
    ///
    /// A page under a foreign exclusive latch is waited for as a fix would
    /// wait, but before any frame is touched and **holding no shard
    /// mutex**: all guards are dropped, the wait is [`Self::lock_for`]'s
    /// leaf wait (one `latch_waits`), and the session starts over. The
    /// latch holder needs these very mutexes to finish. The thread's own
    /// exclusive latch passes ([`LatchTable::blocks`]).
    ///
    /// **One consistent image, without a latch.** A writer changes pages
    /// only while it holds an exclusive group over all of them (a spanned
    /// object's group is its whole extent), and every change is made under
    /// the changed page's shard mutex. The session begins holding every
    /// shard mutex owning one of its pages (one, for one object's extent),
    /// with no foreign exclusive latch on
    /// any of its pages, and keeps them all until the sink has seen the
    /// last page. So a writer whose group covers these pages has either not
    /// yet latched its whole group — and it writes nothing before it has —
    /// or has begun to release it, after its last write; and nothing can
    /// write these pages while the session holds their shards. The
    /// sink sees the object before the writer or after it, never a mix; a
    /// shared group latch over the pages would add nothing.
    fn read_runs(
        &self,
        groups: &[&[(PageId, u32)]],
        sink: impl FnMut(PageId, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        let (involved, mut guards) = self.session(groups);
        let owner = |pid| owner_pos(&involved, self.shard_of(pid));
        buffer::read_runs(
            &mut cores_of(&mut guards),
            owner,
            &mut &self.disk,
            groups,
            sink,
        )
    }

    /// [`PageCache::visit_runs`] in one lock session: the frames lent to
    /// `lend` under the session's shard mutexes when every page is resident
    /// (`buffer::lend_resident`), else [`Self::read_runs`]'s calls to
    /// `copy`, in the same session.
    fn visit_runs<R>(
        &self,
        groups: &[&[(PageId, u32)]],
        copy: impl FnMut(PageId, &[u8; PAGE_SIZE]),
        lend: impl FnOnce(&[&[u8; PAGE_SIZE]]) -> R,
    ) -> Result<Option<R>> {
        let (involved, mut guards) = self.session(groups);
        let owner = |pid| owner_pos(&involved, self.shard_of(pid));
        let mut cores = cores_of(&mut guards);
        let mut frames = [&cache::ZERO_PAGE; buffer::LEND_MAX];
        if let Some(n) = buffer::lend_resident(&mut cores, owner, groups, &mut frames) {
            return Ok(Some(lend(&frames[..n])));
        }
        buffer::read_runs(&mut cores, owner, &mut &self.disk, groups, copy).map(|()| None)
    }

    /// The lock session of one visit: the shards of every page of every
    /// group locked once, ascending, with no foreign exclusive latch on any
    /// of its pages (see [`Self::read_runs`]). Returns the involved shards
    /// and their guards, as [`Self::lock_involved`] does.
    fn session(
        &self,
        groups: &[&[(PageId, u32)]],
    ) -> (Vec<usize>, Vec<MutexGuard<'_, ShardState>>) {
        debug_assert!(self.engine.is_none(), "an engine miss drops its mutex");
        let pages = || groups.iter().flat_map(|group| run_pages(group));
        loop {
            let (involved, guards) = self.lock_involved(pages());
            let blocked = pages().find(|&pid| {
                let st = &guards[owner_pos(&involved, self.shard_of(pid))];
                st.latches.blocks(pid, false)
            });
            match blocked {
                None => return (involved, guards),
                Some(pid) => {
                    drop(guards);
                    drop(self.lock_for(pid, false));
                }
            }
        }
    }

    /// Issues a content-free write call of `n` contiguous pages (DASDBS
    /// page-pool writes during `change attribute`, §5.3).
    pub fn write_pool_pages(&self, first: PageId, n: u32) -> Result<()> {
        read_disk(&self.disk).write_run_noop(first, n)
    }

    /// Writes all dirty pages back, grouped into contiguous runs of at most
    /// [`crate::MAX_PAGES_PER_WRITE_CALL`] pages per call across shard
    /// boundaries — the grouping `BufferPool`'s flush produces, by the same
    /// function — then checkpoints the WAL. **Quiesces in-flight exclusive
    /// latch groups first** (a window of its own), so a mid-update object
    /// is never flushed half-written; concurrent readers are unaffected.
    pub fn flush_all(&self) -> Result<()> {
        self.with_writers_quiesced(|w| w.flush_all())
    }

    /// Flushes and drops every cached page in every shard: a cold restart
    /// between measurement runs. Pins do not survive. Quiesces writers
    /// like [`SharedBufferPool::flush_all`]; concurrent readers keep
    /// running and simply go cold (latches survive — they live beside the
    /// frames, not in them).
    pub fn clear_cache(&self) -> Result<()> {
        self.with_writers_quiesced(|w| w.flush(true))
    }

    /// Commits the calling thread's active WAL op: its buffered byte
    /// ranges become durable (flushed immediately under
    /// [`FsyncMode::PerCommit`](crate::FsyncMode::PerCommit), or as part
    /// of a group flush under
    /// [`FsyncMode::Group`](crate::FsyncMode::Group)). Returns once the op
    /// is durable. A no-op with the WAL disabled, and for an op whose
    /// writes changed nothing (no commit is counted).
    /// Must be called while holding **no** shard mutex or latch.
    pub fn log_commit(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.commit(),
            None => Ok(()),
        }
    }

    /// Discards the calling thread's active WAL op buffer (failed update):
    /// its ranges never reach the log. A no-op with the WAL disabled.
    pub fn log_abort(&self) {
        if let Some(wal) = &self.wal {
            wal.abort();
        }
    }

    /// Crash-test hook: tears `bytes` record bytes off the end of the
    /// durable log, as a crash that interrupted the final flush mid-record
    /// would leave it. The torn record must read back as end-of-log during
    /// [`recover`](Self::recover), not as corruption. No-op with the WAL
    /// disabled.
    #[doc(hidden)]
    pub fn truncate_log_tail(&self, bytes: u32) {
        if let Some(wal) = &self.wal {
            wal.truncate_log_tail(bytes);
        }
    }

    /// LSN stamped on `pid`'s resident frame by its last logged mutation
    /// (`None` if not cached; `0` if cached but never logged). A write
    /// that changed no byte of the page is not logged and stamps nothing:
    /// the frame keeps the LSN it had.
    pub fn page_lsn(&self, pid: PageId) -> Option<u64> {
        let st = self.shard(self.shard_of(pid));
        st.core.slot_of(pid).map(|slot| st.core.frame(slot).lsn)
    }

    /// Simulated crash: drops every cached frame **without flushing** and
    /// discards the WAL's volatile state (active op buffers, unflushed
    /// group-commit queue). The data disk and the durable log content
    /// survive — exactly the state a process kill leaves behind. Writers
    /// are quiesced first so no latched update is torn mid-op; ops that
    /// committed before the crash are recoverable, uncommitted ones are
    /// gone.
    pub fn crash_volatile(&self) {
        self.with_writers_quiesced(|w| w.crash_volatile())
    }

    /// Recovery-on-open: scans the durable log tail past the last
    /// checkpoint (counted log reads); reads every logged page from the
    /// data disk, applies its committed byte ranges in LSN order and
    /// writes it back — reads and writes in contiguous runs of at most
    /// [`crate::MAX_PAGES_PER_WRITE_CALL`] pages (counted data I/O, the
    /// same grouping a flush produces) — then checkpoints. Returns the
    /// number of pages replayed. Intended for a freshly
    /// [crashed](Self::crash_volatile) (or newly opened) pool: the cache
    /// must hold no dirty pre-crash frames.
    pub fn recover(&self) -> Result<usize> {
        self.with_writers_quiesced(|w| w.recover())
    }

    /// Combined disk + merged shard counters — drop-in compatible with
    /// `BufferPool`'s snapshot, so every existing per-unit metric works over
    /// the shared pool. With the WAL
    /// enabled the `log_*`/`commits` fields carry its counters; disabled,
    /// they stay zero and the snapshot is byte-identical to the pre-WAL
    /// pool's.
    pub fn snapshot(&self) -> IoSnapshot {
        // The disk's lock is released before a shard is locked: the lock
        // order puts it after the shards.
        let disk = read_disk(&self.disk).stats();
        let mut s = IoSnapshot::combine(disk, self.buffer_stats());
        if let Some(wal) = &self.wal {
            let w = wal.stats();
            s.log_write_calls = w.log_write_calls;
            s.log_pages_written = w.log_pages_written;
            s.log_read_calls = w.log_read_calls;
            s.log_pages_read = w.log_pages_read;
            s.commits = w.commits;
        }
        if let Some(engine) = &self.engine {
            let c = engine.counters();
            s.batched_read_calls = c.batched_read_calls;
            s.coalesced_pages = c.coalesced_pages;
            s.max_queue_depth = c.max_queue_depth;
        }
        s
    }

    /// Merged buffer counters over all shards, including the latch
    /// counters (gate waits fold into `latch_waits`).
    pub fn buffer_stats(&self) -> BufferStats {
        let mut sum = BufferStats::default();
        for shard in 0..self.shards.len() {
            sum.accumulate(&self.shard(shard).core.stats);
        }
        sum.latch_waits += self.gate_waits.load(Ordering::Relaxed);
        sum
    }

    /// Per-shard buffer counters, for load-imbalance analysis (the
    /// harness's `ext-concurrency` report shows max/mean and cv over
    /// these).
    pub fn shard_stats(&self) -> Vec<BufferStats> {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.stats)
            .collect()
    }

    /// Per-shard `(cached pages, capacity)`, for occupancy invariants.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        (0..self.shards.len())
            .map(|i| {
                let g = self.shard(i);
                (g.core.cached_pages(), g.core.capacity())
            })
            .collect()
    }

    /// Total pages currently cached across shards.
    pub fn cached_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.cached_pages())
            .sum()
    }

    /// Total pinned pages across shards.
    pub fn pinned_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.pinned_pages())
            .sum()
    }

    /// Resets disk, shard, and WAL counters (cache and log content kept).
    pub fn reset_stats(&self) {
        write_disk(&self.disk).reset_stats();
        self.gate_waits.store(0, Ordering::Relaxed);
        for i in 0..self.shards.len() {
            self.shard(i).core.stats = BufferStats::default();
        }
        if let Some(wal) = &self.wal {
            wal.reset_stats();
        }
        if let Some(engine) = &self.engine {
            engine.reset_counters();
        }
    }

    /// True when this pool routes misses through the batched read engine.
    pub fn io_engine_enabled(&self) -> bool {
        self.engine.is_some()
    }
}

/// Proof that the writer gate is held: handed to the closure of
/// [`SharedBufferPool::with_writers_quiesced`], gone (and the gate open
/// again) when the closure returns or unwinds. Its methods are what may
/// only happen while no exclusive latch group is in flight.
pub(crate) struct Quiesced<'a> {
    pool: &'a SharedBufferPool,
}

impl Drop for Quiesced<'_> {
    fn drop(&mut self) {
        self.pool.release_quiesce();
    }
}

impl Quiesced<'_> {
    /// [`SharedBufferPool::flush_all`] from inside the window: every dirty
    /// page of every shard written back, then the WAL checkpointed.
    fn flush_all(&self) -> Result<()> {
        self.flush(false)
    }

    /// [`buffer::flush_all`] over every shard's core, under all shard
    /// mutexes (so a page's owner is its shard index); with `then_drop`,
    /// every frame is dropped under the same mutexes — nothing can be
    /// dirtied between the flush and the drop. The WAL checkpoint follows a
    /// successful flush only: every committed image is then on the data
    /// disk, so the log tail can go, and the gate guarantees no latched
    /// update is mid-op. Un-gated single-page writers (the single-threaded
    /// load phase) must not race a flush.
    fn flush(&self, then_drop: bool) -> Result<()> {
        let pool = self.pool;
        {
            let mut guards = pool.lock_all();
            debug_assert!(
                guards.iter().all(|g| g.latches.exclusive_latched() == 0),
                "flush requires quiesced writers (the gate guarantees this)"
            );
            let mut cores = cores_of(&mut guards);
            buffer::flush_all(&mut cores, |pid| pool.shard_of(pid), &mut &pool.disk)?;
            if then_drop {
                cores.iter_mut().for_each(|core| core.drop_all());
            }
        }
        if let Some(wal) = &pool.wal {
            wal.checkpoint();
        }
        Ok(())
    }

    /// [`SharedBufferPool::crash_volatile`]'s body.
    fn crash_volatile(&self) {
        for mut g in self.pool.lock_all() {
            g.core.drop_all();
        }
        if let Some(wal) = &self.pool.wal {
            wal.crash();
        }
    }

    /// [`SharedBufferPool::recover`]'s body.
    fn recover(&self) -> Result<usize> {
        let Some(wal) = &self.pool.wal else {
            return Ok(0);
        };
        let pages = wal.recovered_ranges()?;
        let disk = &mut &self.pool.disk;
        let mut run: Vec<[u8; PAGE_SIZE]> = Vec::new();
        let mut done = 0;
        for (start, len) in buffer::page_runs(pages.iter().map(|(pid, _)| *pid)) {
            run.clear();
            disk.read_run_dyn(start, len, &mut |_, base| run.push(*base))?;
            for (page, (_, ranges)) in run.iter_mut().zip(&pages[done..]) {
                ranges.iter().for_each(|range| range.apply(page));
            }
            disk.write_run_dyn(start, len, &mut |j| run[j as usize])?;
            done += len as usize;
        }
        wal.checkpoint();
        Ok(pages.len())
    }
}

/// The pool engines behind held shard guards, in guard order — the `cores`
/// argument of the `buffer` functions.
fn cores_of<'a>(guards: &'a mut [MutexGuard<'_, ShardState>]) -> Vec<&'a mut PoolCore> {
    guards.iter_mut().map(|g| &mut g.core).collect()
}

/// Position of shard `s` in a [`SharedBufferPool::lock_involved`] list (the
/// caller locked it, so the lookup cannot fail).
fn owner_pos(involved: &[usize], s: usize) -> usize {
    involved.iter().position(|&i| i == s).expect("locked")
}

/// A cloneable handle to a [`SharedBufferPool`].
///
/// Implements [`PageCache`], so heap files, spanned stores and the storage
/// models of `starfish-core` run over the shared pool unchanged; cloning
/// the handle (an `Arc` clone) is how a `&self` read path obtains the
/// `&mut`-shaped receiver the trait asks for.
#[derive(Clone)]
pub struct SharedPoolHandle {
    pool: Arc<SharedBufferPool>,
}

impl SharedPoolHandle {
    /// Builds a fresh shared pool ([`SharedBufferPool::from_config`]).
    pub fn new(config: BufferConfig, shards: usize) -> Self {
        SharedPoolHandle {
            pool: Arc::new(SharedBufferPool::from_config(config, shards)),
        }
    }

    /// The underlying shared pool.
    pub fn pool(&self) -> &SharedBufferPool {
        &self.pool
    }
}

impl PageCache for SharedPoolHandle {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.pool.with_page(pid, f)
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.pool.with_page_mut(pid, f)
    }

    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        self.pool.prefetch_run(first, n)
    }

    /// One lock session for the whole visit, which is one consistent image
    /// by itself. With the batched read engine on, the per-call path: an
    /// engine miss releases its shard mutex, so a writer could slip in
    /// between two fixes, and the visit holds a shared group latch over
    /// its pages instead.
    fn read_runs(
        &mut self,
        groups: &[&[(PageId, u32)]],
        sink: impl FnMut(PageId, &[u8; PAGE_SIZE]),
    ) -> Result<()> {
        if self.pool.io_engine_enabled() {
            let pages: Vec<PageId> = groups.iter().flat_map(|g| run_pages(g)).collect();
            return self.with_latched(&pages, LatchMode::Shared, |h| {
                cache::read_runs_per_call(h, groups, sink)
            });
        }
        self.pool.read_runs(groups, sink)
    }

    /// The shared pool's lending visit; with the batched read engine on,
    /// the copy through the per-call path above.
    fn visit_runs<R>(
        &mut self,
        groups: &[&[(PageId, u32)]],
        copy: impl FnMut(PageId, &[u8; PAGE_SIZE]),
        lend: impl FnOnce(&[&[u8; PAGE_SIZE]]) -> R,
    ) -> Result<Option<R>> {
        if self.pool.io_engine_enabled() {
            return self.read_runs(groups, copy).map(|()| None);
        }
        self.pool.visit_runs(groups, copy, lend)
    }

    fn pin(&mut self, pid: PageId) -> Result<()> {
        self.pool.pin(pid)
    }

    fn unpin(&mut self, pid: PageId) -> bool {
        self.pool.unpin(pid)
    }

    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.pool.alloc_extent(n)
    }

    fn alloc_object_extent(&mut self, n: u32) -> PageId {
        self.pool.alloc_object_extent(n)
    }

    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        self.pool.write_pool_pages(first, n)
    }

    fn flush_all(&mut self) -> Result<()> {
        self.pool.flush_all()
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.pool.clear_cache()
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats()
    }

    fn is_cached(&self, pid: PageId) -> bool {
        self.pool.is_cached(pid)
    }

    fn snapshot(&self) -> IoSnapshot {
        self.pool.snapshot()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.pool.buffer_stats()
    }

    fn database_pages(&self) -> u32 {
        self.pool.database_pages()
    }

    fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    fn policy_kind(&self) -> PolicyKind {
        self.pool.policy_kind()
    }

    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        self.pool.latch_pages(pids, mode)
    }

    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode) {
        self.pool.unlatch_pages(pids, mode)
    }

    /// The provided body, with the group ordered once for both ends.
    fn with_latched<R, E>(
        &mut self,
        pids: &[PageId],
        mode: LatchMode,
        f: impl FnOnce(&mut Self) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E>
    where
        E: From<StoreError>,
    {
        let ordered = self.pool.group_order(pids);
        self.pool.latch_ordered(&ordered, mode);
        cache::then_release(self, f, |h| h.pool.unlatch_ordered(&ordered, mode))
    }

    fn disk_checksum(&self) -> u64 {
        self.pool.disk_checksum()
    }

    fn log_commit(&mut self) -> Result<()> {
        self.pool.log_commit()
    }

    fn log_abort(&mut self) {
        self.pool.log_abort()
    }

    fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.pool.page_heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{flush_dirty_runs, MAX_PAGES_PER_WRITE_CALL};
    use crate::{FsyncMode, WalConfig};
    use std::thread;

    fn pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        pool_with(BufferConfig::with_pages(cap), shards, pages)
    }

    fn pool_with(config: BufferConfig, shards: usize, pages: u32) -> SharedBufferPool {
        let p = SharedBufferPool::from_config(config, shards);
        p.alloc_extent(pages);
        p
    }

    #[test]
    fn fix_counts_hits_and_misses() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 10, 4);
            p.with_page(PageId(0), |_| {}).unwrap();
            p.with_page(PageId(0), |_| {}).unwrap();
            p.with_page(PageId(1), |_| {}).unwrap();
            let s = p.buffer_stats();
            assert_eq!(s.fixes, 3, "{shards} shards");
            assert_eq!(s.hits, 1);
            assert_eq!(s.misses, 2);
            assert_eq!(p.snapshot().read_calls, 2);
            assert_eq!(p.snapshot().pages_read, 2);
        }
    }

    /// The disk lock comes after the shard locks in the lock order: a
    /// writer evicting a dirty page holds its shard and waits for the
    /// disk's write lock, so `snapshot` must not hold the disk's read lock
    /// while it locks the shards.
    #[test]
    fn snapshot_beside_dirty_evictions_does_not_deadlock() {
        let p = Arc::new(pool(1, 2, 64));
        let (done, finished) = std::sync::mpsc::channel();
        let workers: Vec<_> = [false, true]
            .map(|snapshots| {
                let (p, done) = (Arc::clone(&p), done.clone());
                thread::spawn(move || {
                    for i in 0..20_000u32 {
                        if snapshots {
                            p.snapshot();
                        } else {
                            p.with_page_mut(PageId(i % 64), |b| b[0] = i as u8).unwrap();
                        }
                    }
                    done.send(()).unwrap();
                })
            })
            .into();
        for _ in &workers {
            // A deadlock parks both threads for good: fail, not hang.
            (finished.recv_timeout(std::time::Duration::from_secs(30)))
                .expect("snapshot and an evicting writer deadlocked");
        }
        workers.into_iter().for_each(|w| w.join().unwrap());
    }

    #[test]
    fn capacity_splits_with_remainder_to_low_shards() {
        let p = SharedBufferPool::new(10, PolicyKind::Lru, 4);
        let caps: Vec<usize> = p.shard_occupancy().iter().map(|&(_, c)| c).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(p.capacity(), 10);
    }

    #[test]
    fn prefetch_groups_contiguous_misses_across_shards() {
        for shards in [1, 3] {
            let p = pool(shards, 16, 8);
            p.with_page(PageId(2), |_| {}).unwrap(); // cache page 2
            p.reset_stats();
            p.prefetch_run(PageId(0), 6).unwrap();
            // Missing runs: [0,1] and [3,4,5] -> 2 calls, 5 pages.
            let s = p.snapshot();
            assert_eq!(s.read_calls, 2, "{shards} shards");
            assert_eq!(s.pages_read, 5);
            assert_eq!(s.fixes, 0, "prefetch is not a fix");
            p.with_page(PageId(4), |_| {}).unwrap();
            assert_eq!(p.buffer_stats().hits, 1);
        }
    }

    /// The shards whose fix count one `read_runs` visit of `(first, n)`
    /// moves, each with the fixes it moved.
    fn shards_a_visit_fixes(p: &SharedBufferPool, first: PageId, n: u32) -> Vec<(usize, u64)> {
        let before = p.shard_stats();
        p.read_runs(&[&[(first, n)]], |_, _| {}).unwrap();
        (p.shard_stats().iter().zip(&before).enumerate())
            .filter(|(_, (after, before))| after.fixes != before.fixes)
            .map(|(s, (after, before))| (s, after.fixes - before.fixes))
            .collect()
    }

    /// An object extent of any length lives in one shard: a visit moves
    /// one shard's fixes. Plain extents keep hashing page by page. The
    /// record outlives a cold restart, a crash and a recovery.
    #[test]
    fn an_object_extent_lives_in_one_shard() {
        let config = BufferConfig::with_pages(256).wal(WalConfig::enabled(FsyncMode::PerCommit));
        let p = SharedBufferPool::from_config(config, 4);
        let plain = p.alloc_extent(8);
        let objects: Vec<(PageId, u32)> = [1, 6, 40]
            .into_iter()
            .map(|n| (p.alloc_object_extent(n), n))
            .collect();
        let owners: Vec<usize> = objects
            .iter()
            .map(|&(first, _)| p.shard_of(first))
            .collect();
        let visits_are_single_shard = |when: &str| {
            for (&(first, n), &owner) in objects.iter().zip(&owners) {
                let moved = shards_a_visit_fixes(&p, first, n);
                assert_eq!(moved, vec![(owner, u64::from(n))], "{n} pages, {when}");
            }
        };
        visits_are_single_shard("fresh");
        assert!(
            shards_a_visit_fixes(&p, plain, 8).len() > 1,
            "a plain extent hashes to several shards"
        );
        for i in 0..8 {
            assert_eq!(p.shard_of(plain.offset(i)), p.hashed_shard(plain.offset(i)));
        }

        p.clear_cache().unwrap();
        visits_are_single_shard("after a cold restart");

        let (first, _) = objects[2];
        p.with_page_mut(first.offset(39), |b| b[0] = 40).unwrap();
        p.log_commit().unwrap();
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 1);
        visits_are_single_shard("after a crash and recovery");
        p.with_page(first.offset(39), |b| assert_eq!(b[0], 40))
            .unwrap();
    }

    /// The map holds any shard count a pool can be built with, and a
    /// 1-shard pool needs none.
    #[test]
    fn object_extents_map_at_every_shard_count() {
        for shards in [1, 2, 3, 300] {
            let p = pool(shards, 300, 5);
            let firsts: Vec<PageId> = (0..50).map(|_| p.alloc_object_extent(3)).collect();
            let mut owners: Vec<usize> = firsts
                .iter()
                .map(|&first| match shards_a_visit_fixes(&p, first, 3)[..] {
                    [(owner, 3)] => owner,
                    ref moved => panic!("{shards} shards: a visit moved {moved:?}"),
                })
                .collect();
            owners.sort_unstable();
            owners.dedup();
            assert!(owners.iter().all(|&s| s < shards));
            assert!(
                owners.len() > 1 || shards == 1,
                "{shards} shards: {owners:?}"
            );
        }
    }

    /// Segment `k` starts where segment `k − 1` ends, and the last segment
    /// holds the largest page id.
    #[test]
    fn extent_map_segments_tile_the_page_ids() {
        let base = EXTENT_MAP_BASE as u32;
        let slot = |pid| ExtentOwners::slot(PageId(pid));
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(base - 1), (0, base as usize - 1));
        assert_eq!(slot(base), (1, 0));
        assert_eq!(slot(3 * base - 1), (1, 2 * base as usize - 1));
        assert_eq!(slot(3 * base), (2, 0));
        assert_eq!(slot(u32::MAX), (EXTENT_MAP_SEGMENTS - 1, base as usize - 1));
        let map = ExtentOwners::new();
        map.record(PageId(base - 2), 5, 7);
        let got: Vec<Option<usize>> = (base - 3..base + 4).map(|p| map.owner(PageId(p))).collect();
        let seven = Some(7);
        assert_eq!(got, vec![None, seven, seven, seven, seven, seven, None]);
    }

    #[test]
    fn flush_groups_contiguous_dirty_pages_across_shards() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 16, 10);
            for i in [0u32, 1, 2, 5, 6, 9] {
                p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            }
            p.reset_stats();
            p.flush_all().unwrap();
            let s = p.snapshot();
            // Runs: [0..3), [5..7), [9] -> 3 calls, 6 pages, regardless of
            // which shard holds which page.
            assert_eq!(s.write_calls, 3, "{shards} shards");
            assert_eq!(s.pages_written, 6);
            p.flush_all().unwrap();
            assert_eq!(p.snapshot().write_calls, 3, "second flush writes nothing");
        }
    }

    #[test]
    fn contents_survive_eviction_pressure_in_every_shard() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 4, 40);
            for i in 0..40 {
                p.with_page_mut(PageId(i), |b| b[7] = i as u8).unwrap();
            }
            let occ = p.shard_occupancy();
            for (i, &(cached, cap)) in occ.iter().enumerate() {
                assert!(cached <= cap, "shard {i}: {cached} > {cap}");
            }
            p.flush_all().unwrap();
            for i in 0..40 {
                p.with_page(PageId(i), |b| assert_eq!(b[7], i as u8))
                    .unwrap();
            }
        }
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2, 4, 20);
        p.pin(PageId(0)).unwrap();
        for i in 1..20 {
            p.with_page(PageId(i), |_| {}).unwrap();
        }
        assert!(p.is_cached(PageId(0)), "pinned page evicted");
        assert_eq!(p.pinned_pages(), 1);
        assert!(p.unpin(PageId(0)));
        assert!(!p.unpin(PageId(0)));
    }

    #[test]
    fn clear_cache_flushes_then_drops_everywhere() {
        let p = pool(3, 12, 6);
        for i in 0..6 {
            p.with_page_mut(PageId(i), |b| b[1] = 9).unwrap();
        }
        p.clear_cache().unwrap();
        assert_eq!(p.cached_pages(), 0);
        assert!(p.snapshot().pages_written >= 6);
        p.reset_stats();
        p.with_page(PageId(3), |b| assert_eq!(b[1], 9)).unwrap();
        assert_eq!(p.buffer_stats().misses, 1, "cold after restart");
    }

    #[test]
    fn write_pool_pages_counts_without_mutating() {
        let p = pool(2, 4, 4);
        p.with_page_mut(PageId(0), |b| b[0] = 5).unwrap();
        p.flush_all().unwrap();
        p.reset_stats();
        p.write_pool_pages(PageId(0), 2).unwrap();
        let s = p.snapshot();
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 2);
        p.with_page(PageId(0), |b| assert_eq!(b[0], 5)).unwrap();
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let handle = SharedPoolHandle::new(BufferConfig::with_pages(32).policy(PolicyKind::Lru), 4);
        let first = handle.pool().alloc_extent(64);
        // Seed every page with its own id (single writer).
        for i in 0..64 {
            handle
                .pool()
                .with_page_mut(first.offset(i), |b| b[100] = i as u8)
                .unwrap();
        }
        handle.pool().flush_all().unwrap();
        // Hammer the pool from 8 reader threads; every read must see the
        // seeded byte whatever the interleaving of evictions and reloads.
        thread::scope(|s| {
            for t in 0..8u32 {
                let h = handle.clone();
                s.spawn(move || {
                    for round in 0..200u32 {
                        let i = (t * 7 + round * 13) % 64;
                        h.pool()
                            .with_page(first.offset(i), |b| assert_eq!(b[100], i as u8))
                            .unwrap();
                    }
                });
            }
        });
        let s = handle.pool().snapshot();
        assert_eq!(s.fixes, 8 * 200 + 64);
        assert_eq!(s.fixes, s.hits + s.misses);
    }

    #[test]
    fn shard_stats_expose_per_shard_load() {
        let p = pool(4, 16, 16);
        for i in 0..16 {
            p.with_page(PageId(i), |_| {}).unwrap();
        }
        let per = p.shard_stats();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().map(|s| s.fixes).sum::<u64>(), 16);
        assert!(per.iter().filter(|s| s.fixes > 0).count() >= 2, "spread");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_below_shards_is_rejected() {
        SharedBufferPool::new(2, PolicyKind::Lru, 4);
    }

    #[test]
    fn group_latches_count_and_release() {
        let p = pool(3, 12, 12);
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        p.latch_pages(&pages, LatchMode::Shared).unwrap();
        assert_eq!(p.latched_pages(), 6);
        assert_eq!(p.exclusive_latched_pages(), 0);
        p.unlatch_pages(&pages, LatchMode::Shared);
        assert_eq!(p.latched_pages(), 0);
        p.latch_pages(&pages, LatchMode::Exclusive).unwrap();
        assert_eq!(p.exclusive_latched_pages(), 6);
        p.unlatch_pages(&pages, LatchMode::Exclusive);
        let s = p.buffer_stats();
        assert_eq!(s.latch_shared, 6);
        assert_eq!(s.latch_exclusive, 6);
        assert_eq!(s.latch_waits, 0, "uncontended");
        // Latching never touches fixes or physical I/O.
        assert_eq!(s.fixes, 0);
        assert_eq!(p.snapshot().pages_read, 0);
    }

    #[test]
    fn own_exclusive_latch_is_reentrant_for_page_access() {
        let p = pool(2, 8, 8);
        let pages = [PageId(0), PageId(1), PageId(2)];
        p.latch_pages(&pages, LatchMode::Exclusive).unwrap();
        // The latch-holding thread reads and writes its own pages freely.
        for pid in pages {
            p.with_page_mut(pid, |b| b[0] = 7).unwrap();
            p.with_page(pid, |b| assert_eq!(b[0], 7)).unwrap();
        }
        p.unlatch_pages(&pages, LatchMode::Exclusive);
    }

    #[test]
    fn latched_pages_survive_eviction_and_reload() {
        // Latch state is residency-independent: evicting a latched page
        // must neither lose the latch nor corrupt the content.
        let p = pool(1, 2, 10);
        p.with_page_mut(PageId(0), |b| b[0] = 42).unwrap();
        p.latch_pages(&[PageId(0)], LatchMode::Exclusive).unwrap();
        for i in 1..10 {
            p.with_page(PageId(i), |_| {}).unwrap(); // evicts page 0
        }
        assert!(!p.is_cached(PageId(0)), "page 0 evicted while latched");
        assert_eq!(p.exclusive_latched_pages(), 1, "latch survived eviction");
        p.with_page(PageId(0), |b| assert_eq!(b[0], 42)).unwrap();
        p.unlatch_pages(&[PageId(0)], LatchMode::Exclusive);
        assert_eq!(p.latched_pages(), 0);
    }

    #[test]
    fn foreign_exclusive_latch_blocks_readers_until_released() {
        let p = pool(2, 8, 8);
        p.latch_pages(&[PageId(3)], LatchMode::Exclusive).unwrap();
        thread::scope(|s| {
            let reader = s.spawn(|| {
                // Blocks until the writer unlatches, then sees the new byte.
                p.with_page(PageId(3), |b| b[0]).unwrap()
            });
            // Write once the reader has met the latch conflict (a reader the
            // latch let through finishes instead, and reads the old byte).
            while p.buffer_stats().latch_waits == 0 && !reader.is_finished() {
                thread::yield_now();
            }
            p.with_page_mut(PageId(3), |b| b[0] = 99).unwrap();
            p.unlatch_pages(&[PageId(3)], LatchMode::Exclusive);
            assert_eq!(reader.join().unwrap(), 99, "reader saw the write");
        });
        // The reader's blocked episode was counted, once.
        assert_eq!(p.buffer_stats().latch_waits, 1);
    }

    #[test]
    fn a_blocked_access_counts_one_wait_however_often_it_is_woken() {
        // Second round on a poisoned shard: poison is sticky, so after one
        // client panic every `Condvar::wait` there returns `Err`, and the
        // wait must still re-check the conflict on each wake-up.
        for poisoned in [false, true] {
            // One shard, so every latch release in the pool wakes every waiter.
            let p = pool(1, 8, 8);
            if poisoned {
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _: Result<u8> = p.with_page(PageId(0), |_| panic!("client died mid-read"));
                }));
                assert!(panicked.is_err());
            }
            let hot = PageId(3);
            p.latch_pages(&[hot], LatchMode::Exclusive).unwrap();
            let through = AtomicU64::new(0);
            thread::scope(|s| {
                let reader = s.spawn(|| {
                    let b = p.with_page(hot, |b| b[0]).unwrap();
                    through.fetch_add(1, Ordering::SeqCst);
                    b
                });
                let writer = s.spawn(|| {
                    p.with_page_mut(hot, |b| b[1] = 7).unwrap();
                    through.fetch_add(1, Ordering::SeqCst);
                });
                let group = s.spawn(|| {
                    p.latch_pages(&[hot], LatchMode::Shared).unwrap();
                    through.fetch_add(1, Ordering::SeqCst);
                    p.unlatch_pages(&[hot], LatchMode::Shared);
                });
                // All three have met the foreign exclusive latch.
                while p.buffer_stats().latch_waits < 3 {
                    thread::yield_now();
                }
                // Releases of an unrelated page notify the shard's condvar: the
                // three wake, find the page still latched and sleep again.
                s.spawn(|| {
                    for _ in 0..5 {
                        p.latch_pages(&[PageId(5)], LatchMode::Shared).unwrap();
                        p.unlatch_pages(&[PageId(5)], LatchMode::Shared);
                        thread::sleep(std::time::Duration::from_millis(2));
                    }
                })
                .join()
                .unwrap();
                assert_eq!(through.load(Ordering::SeqCst), 0, "latch exclusion lost");
                assert_eq!(p.buffer_stats().latch_waits, 3, "a wake-up is not a wait");
                p.with_page_mut(hot, |b| b[0] = 99).unwrap();
                p.unlatch_pages(&[hot], LatchMode::Exclusive);
                assert_eq!(reader.join().unwrap(), 99);
                writer.join().unwrap();
                group.join().unwrap();
            });
            assert_eq!(through.load(Ordering::SeqCst), 3);
            assert_eq!(p.buffer_stats().latch_waits, 3);
            assert_eq!(p.latched_pages(), 0);
        }
    }

    #[test]
    fn exclusive_groups_exclude_each_other_on_overlap() {
        let p = pool(4, 16, 16);
        let overlap: Vec<PageId> = (0..8).map(PageId).collect();
        let counter = std::sync::atomic::AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        p.latch_pages(&overlap, LatchMode::Exclusive).unwrap();
                        // Critical section: exactly one group at a time.
                        let v = counter.fetch_add(1, Ordering::SeqCst);
                        for pid in &overlap {
                            p.with_page_mut(*pid, |b| b[0] = (v % 251) as u8).unwrap();
                        }
                        for pid in &overlap {
                            p.with_page(*pid, |b| assert_eq!(b[0], (v % 251) as u8))
                                .unwrap();
                        }
                        p.unlatch_pages(&overlap, LatchMode::Exclusive);
                    }
                });
            }
        });
        assert_eq!(p.latched_pages(), 0);
        assert_eq!(p.buffer_stats().latch_exclusive, 4 * 25 * 8);
    }

    #[test]
    fn flush_quiesces_inflight_writers() {
        let p = pool(2, 8, 8);
        p.latch_pages(&[PageId(0), PageId(1)], LatchMode::Exclusive)
            .unwrap();
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        thread::scope(|s| {
            let flusher = s.spawn(|| p.flush_all().unwrap());
            // Finish the update once the flush is parked at the gate (or
            // has wrongly finished without waiting for it).
            while p.buffer_stats().latch_waits == 0 && !flusher.is_finished() {
                thread::yield_now();
            }
            p.with_page_mut(PageId(1), |b| b[0] = 2).unwrap();
            p.unlatch_pages(&[PageId(0), PageId(1)], LatchMode::Exclusive);
            flusher.join().unwrap();
        });
        // Both pages of the group reached the disk in the flush.
        assert!(p.snapshot().pages_written >= 2);
        assert!(p.buffer_stats().latch_waits >= 1, "gate wait counted");
        p.reset_stats();
        p.clear_cache().unwrap();
        p.with_page(PageId(0), |b| assert_eq!(b[0], 1)).unwrap();
        p.with_page(PageId(1), |b| assert_eq!(b[0], 2)).unwrap();
    }

    #[test]
    fn a_panic_inside_the_quiesced_window_leaves_the_gate_open() {
        let p = pool(2, 8, 8);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.with_writers_quiesced(|_| panic!("failure inside the window"))
        }));
        assert!(panicked.is_err(), "panic must propagate");
        // Other threads: a writer is admitted, and a flush opens a window.
        thread::scope(|s| {
            s.spawn(|| {
                p.latch_pages(&[PageId(0)], LatchMode::Exclusive).unwrap();
                p.with_page_mut(PageId(0), |b| b[0] = 7).unwrap();
                p.unlatch_pages(&[PageId(0)], LatchMode::Exclusive);
            });
        });
        thread::scope(|s| {
            s.spawn(|| p.flush_all().unwrap());
        });
        assert_eq!(p.snapshot().pages_written, 1);
        assert_eq!(p.buffer_stats().latch_waits, 0, "nobody met a closed gate");
    }

    #[test]
    fn the_open_window_holds_off_exclusive_groups_and_passes_plain_reads() {
        use std::sync::atomic::AtomicBool;
        let p = pool(2, 8, 8);
        let closed = AtomicBool::new(false);
        thread::scope(|s| {
            let writer = p.with_writers_quiesced(|_| {
                let writer = s.spawn(|| {
                    p.latch_pages(&[PageId(0)], LatchMode::Exclusive).unwrap();
                    let granted_after_close = closed.load(Ordering::SeqCst);
                    p.unlatch_pages(&[PageId(0)], LatchMode::Exclusive);
                    granted_after_close
                });
                // A plain read and a shared group on another thread pass.
                s.spawn(|| {
                    p.with_page(PageId(0), |_| ()).unwrap();
                    p.latch_pages(&[PageId(0), PageId(1)], LatchMode::Shared)
                        .unwrap();
                    p.unlatch_pages(&[PageId(0), PageId(1)], LatchMode::Shared);
                })
                .join()
                .unwrap();
                // Close once the writer sleeps at the gate (or has wrongly
                // been let through and finished).
                let at_gate = || p.gate.lock().unwrap().waiters > 0;
                while !at_gate() && !writer.is_finished() {
                    thread::yield_now();
                }
                assert!(!writer.is_finished(), "the writer waits at the gate");
                assert_eq!(p.exclusive_latched_pages(), 0);
                closed.store(true, Ordering::SeqCst);
                writer
            });
            let granted_after_close = writer.join().unwrap();
            assert!(granted_after_close, "granted only once the window closed");
        });
    }

    #[test]
    fn a_flush_through_the_token_checkpoints_like_flush_all() {
        let run = |through_token: bool| {
            let p = wal_pool(2, 8, 8);
            for pid in [PageId(0), PageId(5)] {
                p.latch_pages(&[pid], LatchMode::Exclusive).unwrap();
                p.with_page_mut(pid, |b| b[0] = 1).unwrap();
                p.unlatch_pages(&[pid], LatchMode::Exclusive);
                p.log_commit().unwrap();
            }
            if through_token {
                p.with_writers_quiesced(|w| w.flush_all()).unwrap();
            } else {
                p.flush_all().unwrap();
            }
            let flushed = p.snapshot();
            // The log tail went with the checkpoint: nothing to replay.
            p.crash_volatile();
            assert_eq!(p.recover().unwrap(), 0);
            p.with_page(PageId(5), |b| assert_eq!(b[0], 1)).unwrap();
            (flushed, p.snapshot())
        };
        let (token, plain) = (run(true), run(false));
        assert_eq!(token, plain);
        assert_eq!(token.0.pages_written, 2);
        assert_eq!(token.0.commits, 2);
        assert!(token.0.log_pages_written > 0);
    }

    #[test]
    fn with_latched_releases_latches_when_the_closure_panics() {
        use crate::cache::PageCache;
        let mut handle = SharedPoolHandle::new(BufferConfig::with_pages(8), 2);
        handle.pool().alloc_extent(8);
        let pages = [PageId(0), PageId(1)];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<()> = handle.with_latched(&pages, LatchMode::Exclusive, |_| {
                panic!("mid-update failure")
            });
        }));
        assert!(panicked.is_err(), "panic must propagate");
        // The latches and the writer-gate registration were released: other
        // accessors and flushes proceed instead of wedging forever.
        assert_eq!(handle.pool().latched_pages(), 0, "leaked latches");
        handle
            .pool()
            .with_page_mut(PageId(0), |b| b[0] = 1)
            .unwrap();
        handle.pool().flush_all().unwrap();
        handle
            .pool()
            .latch_pages(&pages, LatchMode::Exclusive)
            .unwrap();
        handle.pool().unlatch_pages(&pages, LatchMode::Exclusive);
    }

    #[test]
    fn disk_checksum_tracks_flushed_content_only() {
        let p = pool(2, 8, 8);
        let before = p.disk_checksum();
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        assert_eq!(p.disk_checksum(), before, "dirty page not on disk yet");
        p.flush_all().unwrap();
        assert_ne!(p.disk_checksum(), before, "flush changed the disk");
    }

    /// Regression: a dirty page whose frame is missing at flush time used
    /// to hit `expect("dirty page resident")` *inside* the disk write-call
    /// source closure, aborting the process. The run planner now reports
    /// `DirtyNotResident` before writing a byte of the affected run.
    #[test]
    fn flush_with_nonresident_dirty_page_errors_instead_of_panicking() {
        let dirty = [PageId(0), PageId(1), PageId(2)];
        let mut written = 0u32;
        let err = flush_dirty_runs(
            &dirty,
            |pid| (pid != PageId(1)).then_some([0u8; PAGE_SIZE]),
            |_, len, _| {
                written += len;
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, StoreError::DirtyNotResident { page: PageId(1) });
        assert_eq!(written, 0, "no byte of the broken run was written");
        // The healthy path still groups into MAX_PAGES_PER_WRITE_CALL runs.
        let many: Vec<PageId> = (0..MAX_PAGES_PER_WRITE_CALL + 3).map(PageId).collect();
        let mut calls = Vec::new();
        flush_dirty_runs(
            &many,
            |_| Some([0u8; PAGE_SIZE]),
            |start, len, images| {
                assert_eq!(images.len(), len as usize);
                calls.push((start, len));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            calls,
            vec![
                (PageId(0), MAX_PAGES_PER_WRITE_CALL),
                (PageId(MAX_PAGES_PER_WRITE_CALL), 3)
            ]
        );
    }

    /// Regression: poisoned shard/gate mutexes used to cascade — one
    /// panicked client turned every later `expect("... poisoned")` into a
    /// panic and left `cond.wait`ers wedged. Poison is now recovered
    /// (`unwrap_or_else(|e| e.into_inner())`): a second thread's fix, a
    /// mutation, and a flush all proceed after a closure panic.
    #[test]
    fn panicked_client_does_not_wedge_other_fixes() {
        // One shard, so the panicking fix poisons the same mutex every
        // later operation needs.
        let p = pool(1, 8, 8);
        p.with_page_mut(PageId(1), |b| b[0] = 7).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<u8> = p.with_page(PageId(0), |_| panic!("client died mid-read"));
        }));
        assert!(panicked.is_err(), "panic must propagate to the dead client");
        thread::scope(|s| {
            let reader = s.spawn(|| p.with_page(PageId(1), |b| b[0]).unwrap());
            assert_eq!(reader.join().unwrap(), 7, "second thread's fix wedged");
        });
        p.with_page_mut(PageId(2), |b| b[0] = 9).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.with_page(PageId(2), |b| assert_eq!(b[0], 9)).unwrap();
    }

    /// The mirror of `foreign_exclusive_latch_blocks_readers_until_released`
    /// for a lock session: the reader wants the very shard mutexes the
    /// latch holder needs to finish, so it must wait holding none of them.
    #[test]
    fn session_waits_out_a_foreign_exclusive_latch_holding_no_mutex() {
        let p = pool(2, 8, 8);
        p.latch_pages(&[PageId(3)], LatchMode::Exclusive).unwrap();
        thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut seen = Vec::new();
                p.read_runs(&[&[(PageId(2), 3)]], |pid, b| seen.push((pid, b[0])))
                    .unwrap();
                seen
            });
            // The reader has met the latch and sleeps on it.
            while p.buffer_stats().latch_waits < 1 {
                thread::yield_now();
            }
            // Every shard is free: the writer fixes pages in both.
            p.with_page_mut(PageId(3), |b| b[0] = 99).unwrap();
            p.with_page(PageId(2), |_| {}).unwrap();
            p.unlatch_pages(&[PageId(3)], LatchMode::Exclusive);
            let seen = reader.join().unwrap();
            assert_eq!(seen, vec![(PageId(2), 0), (PageId(3), 99), (PageId(4), 0)]);
        });
        assert_eq!(p.buffer_stats().latch_waits, 1, "one blocked episode");
        assert_eq!(p.latched_pages(), 0);
    }

    /// The mirror of `own_exclusive_latch_is_reentrant_for_page_access`:
    /// DSM's `replace_tuple` reads the object inside its own exclusive
    /// group.
    #[test]
    fn session_passes_the_threads_own_exclusive_latch() {
        let p = pool(2, 8, 8);
        let pages = [PageId(0), PageId(1), PageId(2)];
        p.latch_pages(&pages, LatchMode::Exclusive).unwrap();
        for pid in pages {
            p.with_page_mut(pid, |b| b[0] = 7).unwrap();
        }
        let mut seen = Vec::new();
        p.read_runs(&[&[(PageId(0), 1)], &[(PageId(1), 2)]], |pid, b| {
            seen.push((pid, b[0]))
        })
        .unwrap();
        assert_eq!(seen, pages.map(|pid| (pid, 7)));
        p.unlatch_pages(&pages, LatchMode::Exclusive);
        assert_eq!(p.buffer_stats().latch_waits, 0);
    }

    /// The mirror of `panicked_client_does_not_wedge_other_fixes`: a sink
    /// that panics unwinds through every held shard guard.
    #[test]
    fn session_whose_sink_panics_leaves_every_shard_usable() {
        let p = pool(2, 8, 8);
        p.with_page_mut(PageId(1), |b| b[0] = 7).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.read_runs(&[&[(PageId(0), 4)]], |_, _| panic!("client died mid-read"));
        }));
        assert!(panicked.is_err(), "panic must propagate to the dead client");
        thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut sum = 0;
                p.read_runs(&[&[(PageId(0), 4)]], |_, b| sum += b[0])
                    .unwrap();
                sum
            });
            assert_eq!(reader.join().unwrap(), 7, "second thread's session wedged");
        });
        p.with_page_mut(PageId(2), |b| b[0] = 9).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.with_page(PageId(2), |b| assert_eq!(b[0], 9)).unwrap();
    }

    /// The spin is bounded: behind a holder that keeps a shard mutex until
    /// the waiter has given up spinning and yielding, the helper ends in
    /// the blocking `lock()` and returns once the holder lets go.
    #[test]
    fn a_long_held_shard_mutex_is_waited_for_by_the_blocking_lock() {
        let p = pool(1, 4, 4);
        let blocking = &p.shards[0].blocking_locks;
        let (held, is_held) = std::sync::mpsc::channel();
        thread::scope(|s| {
            s.spawn(|| {
                let mut st = p.shards[0].state.lock().unwrap();
                held.send(()).unwrap();
                // Hold on until the waiter has reached the blocking lock
                // (a waiter that spun forever would hang the test here).
                while blocking.load(Ordering::SeqCst) == 0 {
                    thread::yield_now();
                }
                st.core.stats.latch_waits = 42; // visible to whoever locks next
            });
            is_held.recv().unwrap();
            let st = lock_shard(&p.shards[0]);
            assert_eq!(st.core.stats.latch_waits, 42, "locked after the holder");
            assert_eq!(
                blocking.load(Ordering::SeqCst),
                1,
                "through the blocking lock"
            );
        });
    }

    /// One session reads what the per-call sequence reads, with the same
    /// counters, on any shard count — and with the read engine on it *is*
    /// the per-call sequence.
    #[test]
    fn session_counts_like_the_calls_it_stands_for() {
        let groups: [&[(PageId, u32)]; 2] = [&[(PageId(0), 1), (PageId(1), 2)], &[(PageId(3), 4)]];
        for shards in [1, 2, 3] {
            let by_call = pool(shards, 5, 8);
            let mut engine = SharedPoolHandle {
                pool: Arc::new(engine_pool(shards, 5, 8)),
            };
            let session = pool(shards, 5, 8);
            for round in 0..3 {
                for group in groups {
                    for &(first, n) in group {
                        by_call.prefetch_run(first, n).unwrap();
                    }
                    for pid in run_pages(group) {
                        by_call.with_page(pid, |_| {}).unwrap();
                    }
                }
                let mut seen = Vec::new();
                session.read_runs(&groups, |pid, _| seen.push(pid)).unwrap();
                assert_eq!(seen, (0..7).map(PageId).collect::<Vec<_>>());
                engine.read_runs(&groups, |_, _| {}).unwrap();
                let (a, b) = (session.snapshot(), by_call.snapshot());
                assert_eq!(a, b, "{shards} shards, round {round}");
                let c = engine.pool.snapshot();
                assert_eq!((c.fixes, c.hits, c.misses), (b.fixes, b.hits, b.misses));
                assert_eq!((c.read_calls, c.pages_read), (b.read_calls, b.pages_read));
            }
        }
    }

    fn engine_pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        let io = crate::IoEngineConfig::enabled();
        pool_with(BufferConfig::with_pages(cap).io(io), shards, pages)
    }

    /// Single-threaded, the engine path must reproduce the synchronous
    /// pool's legacy counters exactly (every miss is a solo batch of one
    /// page) while populating the new engine counters — the differential
    /// the golden-identity suites rely on, in miniature.
    #[test]
    fn engine_on_single_thread_matches_engine_off_counters() {
        let tape: Vec<u32> = vec![0, 1, 2, 1, 5, 0, 7, 6, 5, 3, 3, 9, 0];
        let on = engine_pool(2, 4, 10);
        let off = pool(2, 4, 10);
        assert!(on.io_engine_enabled() && !off.io_engine_enabled());
        for &i in &tape {
            on.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            off.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        on.flush_all().unwrap();
        off.flush_all().unwrap();
        let (a, b) = (on.snapshot(), off.snapshot());
        assert_eq!((a.fixes, a.hits, a.misses), (b.fixes, b.hits, b.misses));
        assert_eq!(a.read_calls, b.read_calls);
        assert_eq!(a.pages_read, b.pages_read);
        assert_eq!(a.write_calls, b.write_calls);
        assert_eq!(a.pages_written, b.pages_written);
        assert_eq!(on.disk_checksum(), off.disk_checksum());
        assert_eq!(a.batched_read_calls, a.misses, "each miss = one solo batch");
        assert_eq!(a.max_queue_depth, 1, "never more than one request queued");
        assert_eq!(a.coalesced_pages, 0, "solo batches coalesce nothing");
        assert_eq!(
            (b.batched_read_calls, b.coalesced_pages, b.max_queue_depth),
            (0, 0, 0),
            "engine-off pool must report zero engine counters"
        );
    }

    /// Concurrent misses through the engine stay correct (every read sees
    /// its page's content), keep `fixes = hits + misses`, and the drain
    /// path accounts its calls.
    #[test]
    fn engine_serves_concurrent_misses_correctly() {
        let p = engine_pool(4, 96, 64);
        for i in 0..64 {
            p.with_page_mut(PageId(i), |b| b[100] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                s.spawn(move || {
                    for round in 0..100u32 {
                        let i = (t * 11 + round * 7) % 64;
                        p.with_page(PageId(i), |b| assert_eq!(b[100], i as u8))
                            .unwrap();
                    }
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.fixes, 800);
        assert_eq!(snap.fixes, snap.hits + snap.misses);
        assert!(
            snap.batched_read_calls >= 1,
            "misses went through the engine"
        );
        assert!(snap.max_queue_depth >= 1);
        // Every page was read at least once; overlapping batches may read a
        // page a second time (the install then skips the resident frame).
        assert!(snap.pages_read >= 64);
        p.reset_stats();
        assert_eq!(p.snapshot().batched_read_calls, 0, "reset clears engine");
    }

    fn wal_pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        let wal = WalConfig::enabled(FsyncMode::PerCommit);
        pool_with(BufferConfig::with_pages(cap).wal(wal), shards, pages)
    }

    #[test]
    fn committed_updates_survive_a_crash() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(3), |b| b[0] = 7).unwrap();
        p.with_page_mut(PageId(5), |b| b[0] = 9).unwrap();
        p.log_commit().unwrap();
        assert!(p.page_lsn(PageId(3)).unwrap() > 0, "frame stamped");
        let before = p.disk_checksum();
        p.crash_volatile();
        assert_eq!(p.cached_pages(), 0, "crash dropped the cache");
        assert_eq!(p.disk_checksum(), before, "crash never touches the disk");
        assert_eq!(p.recover().unwrap(), 2);
        p.with_page(PageId(3), |b| assert_eq!(b[0], 7)).unwrap();
        p.with_page(PageId(5), |b| assert_eq!(b[0], 9)).unwrap();
        let s = p.snapshot();
        assert_eq!(s.commits, 1);
        assert!(s.log_write_calls >= 1, "commit flushed the log");
        assert!(s.log_read_calls >= 1, "recovery scanned the log");
    }

    #[test]
    fn uncommitted_updates_are_lost_at_crash() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(1), |b| b[0] = 7).unwrap();
        p.log_commit().unwrap();
        p.with_page_mut(PageId(2), |b| b[0] = 8).unwrap(); // never committed
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 1, "only the committed page replays");
        p.with_page(PageId(1), |b| assert_eq!(b[0], 7)).unwrap();
        p.with_page(PageId(2), |b| assert_eq!(b[0], 0)).unwrap();
    }

    #[test]
    fn flush_checkpoints_and_truncates_the_log() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        p.log_commit().unwrap();
        p.flush_all().unwrap();
        // The image is on the data disk; the log tail was discarded, so a
        // crash + recovery replays nothing and loses nothing.
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 0);
        p.with_page(PageId(0), |b| assert_eq!(b[0], 1)).unwrap();
    }

    #[test]
    fn wal_off_pool_reports_zero_log_counters_and_recovers_nothing() {
        let p = pool(2, 8, 8);
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        p.log_commit().unwrap();
        p.log_abort();
        p.flush_all().unwrap();
        assert_eq!(p.recover().unwrap(), 0);
        let s = p.snapshot();
        assert_eq!(s.log_write_calls, 0);
        assert_eq!(s.log_pages_written, 0);
        assert_eq!(s.log_read_calls, 0);
        assert_eq!(s.log_pages_read, 0);
        assert_eq!(s.commits, 0);
    }

    #[test]
    fn group_commit_pool_survives_concurrent_writer_crash() {
        let wal = WalConfig::enabled(FsyncMode::Group);
        let p = SharedBufferPool::from_config(BufferConfig::with_pages(32).wal(wal), 4);
        let first = p.alloc_extent(32);
        thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                s.spawn(move || {
                    for k in 0..4u32 {
                        let pid = first.offset(t * 4 + k);
                        p.latch_pages(&[pid], LatchMode::Exclusive).unwrap();
                        // `+ 1`: every page starts zeroed, and a write that
                        // leaves it unchanged logs and commits nothing.
                        p.with_page_mut(pid, |b| b[0] = (t * 4 + k + 1) as u8)
                            .unwrap();
                        p.unlatch_pages(&[pid], LatchMode::Exclusive);
                        p.log_commit().unwrap();
                    }
                });
            }
        });
        let s = p.snapshot();
        assert_eq!(s.commits, 32);
        assert!(
            s.log_write_calls <= s.commits,
            "group commit never flushes more than once per commit"
        );
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 32);
        for i in 0..32 {
            p.with_page(first.offset(i), |b| assert_eq!(b[0], i as u8 + 1))
                .unwrap();
        }
    }

    #[test]
    fn an_unchanged_write_logs_nothing_and_stamps_nothing() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(3), |b| b[9] = 4).unwrap();
        p.log_commit().unwrap();
        let lsn = p.page_lsn(PageId(3)).unwrap();
        let log = |s: IoSnapshot| (s.commits, s.log_write_calls, s.log_pages_written);
        let before = log(p.snapshot());
        p.with_page_mut(PageId(3), |b| b[9] = 4).unwrap(); // its own byte
        p.with_page_mut(PageId(4), |b| b[0] = 0).unwrap(); // zero over zero
        p.log_commit().unwrap();
        assert_eq!(p.page_lsn(PageId(3)), Some(lsn), "the frame keeps its LSN");
        assert_eq!(p.page_lsn(PageId(4)), Some(0), "never logged");
        assert_eq!(log(p.snapshot()), before, "no commit, no log write");
    }

    #[test]
    fn recovery_converges_over_a_base_page_eviction_wrote_back() {
        // A 2-frame pool: page 0's dirty frame is evicted to the data disk
        // between its two committed writes, so recovery reads a base that
        // already holds the first write and redoes both ranges over it.
        let p = wal_pool(1, 2, 8);
        p.with_page_mut(PageId(0), |b| b[10..20].fill(1)).unwrap();
        p.log_commit().unwrap();
        for pid in 1..4 {
            p.with_page(PageId(pid), |_| ()).unwrap();
        }
        assert!(!p.is_cached(PageId(0)), "evicted");
        p.with_page_mut(PageId(0), |b| b[15..25].fill(2)).unwrap();
        p.log_commit().unwrap();
        p.crash_volatile();
        let reads = p.snapshot().pages_read;
        assert_eq!(p.recover().unwrap(), 1);
        assert_eq!(p.snapshot().pages_read, reads + 1, "the base page is read");
        p.with_page(PageId(0), |b| {
            assert_eq!(
                b[9..26],
                [0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0]
            );
        })
        .unwrap();
    }
}
