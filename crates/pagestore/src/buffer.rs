//! The buffer-pool engine, and the physical-I/O rules both pools share.
//!
//! [`PoolCore`] is the frame table + replacement policy + fix accounting of
//! *one* pool or shard. Everything that involves the disk beyond a single
//! eviction is a plain function over `cores: &mut [&mut PoolCore]`, an
//! `owner` mapping a page to the core that caches it, and a [`DiskOps`]:
//!
//! * [`page_runs`] — which pages travel in one call (contiguous, at most
//!   [`MAX_PAGES_PER_WRITE_CALL`]);
//! * [`prefetch_run`] — the residency scan that extends each missing run;
//! * [`load_run`] — make room in each owning core → one read call → insert
//!   the frames (a fix miss is a run of one);
//! * [`flush_all`] / [`flush_dirty_runs`] — the grouped dirty-page flush.
//!
//! [`BufferPool`] calls them with its single core and `|_| 0`; the sharded
//! [`crate::SharedBufferPool`] with the cores of the shard guards it holds.
//! Both call one device, [`SimDisk`], so they differ only in locking.

use crate::disk::DiskOps;
use crate::heat::{HeatConfig, HeatTracker};
use crate::ioengine::IoEngineConfig;
use crate::latch::{distinct_pids, LatchMode};
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::stats::{BufferStats, IoSnapshot};
use crate::wal::WalConfig;
use crate::DEFAULT_BUFFER_PAGES;
use crate::{PageCache, PageId, Result, SimDisk, StoreError, PAGE_SIZE};
use std::collections::HashMap;

/// Maximum pages per grouped I/O call — the one cap of the call grouper
/// (`page_runs`): flush and recovery writes, and the read engine's
/// coalesced batches (so batched reads and grouped writes are the same
/// size).
///
/// DASDBS batches deferred writes into multi-page calls; the paper observed
/// "on the average respectively 30 and 20 pages per write for query 3"
/// (§5.2). We cap grouped write runs at 32 pages so flush-time call counts
/// land in the same regime instead of degenerating into one giant call.
pub const MAX_PAGES_PER_WRITE_CALL: u32 = 32;

/// Buffer-pool construction parameters: capacity plus replacement policy.
///
/// The five storage models of `starfish-core` accept this through their
/// `StoreConfig`; the defaults reproduce the paper's buffer exactly
/// (1200 pages, LRU — §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferConfig {
    /// Capacity in pages (paper: [`DEFAULT_BUFFER_PAGES`] = 1200).
    pub pages: usize,
    /// Replacement policy (paper: LRU).
    pub policy: PolicyKind,
    /// Write-ahead-log configuration (default: disabled). Only the shared
    /// pool acts on it; the exclusive [`BufferPool`] is measurement-only
    /// and never logs, so pre-WAL counters stay byte-identical.
    pub wal: WalConfig,
    /// Batched-read-engine configuration (default: disabled). Like the
    /// WAL, only the shared pool acts on it: the exclusive [`BufferPool`]
    /// serves exactly one client and has nothing to batch across.
    pub io: IoEngineConfig,
    /// Page-heat tracking configuration (default: disabled). Honored by
    /// *both* pool flavours — heat is observation-only bookkeeping, so it
    /// changes no counter the paper's tables report.
    pub heat: HeatConfig,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            pages: DEFAULT_BUFFER_PAGES,
            policy: PolicyKind::Lru,
            wal: WalConfig::default(),
            io: IoEngineConfig::default(),
            heat: HeatConfig::default(),
        }
    }
}

impl BufferConfig {
    /// Config with a specific capacity and the default (LRU) policy.
    pub fn with_pages(pages: usize) -> Self {
        BufferConfig {
            pages,
            ..Default::default()
        }
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the write-ahead-log configuration.
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Sets the batched-read-engine configuration.
    pub fn io(mut self, io: IoEngineConfig) -> Self {
        self.io = io;
        self
    }

    /// Sets the heat-tracking configuration.
    pub fn heat(mut self, heat: HeatConfig) -> Self {
        self.heat = heat;
        self
    }

    /// Builds a [`BufferPool`] over `disk` with this configuration.
    pub fn build(self, disk: SimDisk) -> BufferPool {
        let mut pool = BufferPool::with_policy(disk, self.pages, self.policy);
        pool.core.set_heat(self.heat);
        pool
    }
}

/// One resident page: its identity, image, and bookkeeping bits. The image
/// lives in its own heap buffer, so evicting or installing a frame moves a
/// pointer, and an evicted frame's buffer is the next loaded page's
/// ([`PoolCore::insert_frame`]).
pub(crate) struct Frame {
    pub(crate) pid: PageId,
    pub(crate) data: Box<[u8; PAGE_SIZE]>,
    pub(crate) dirty: bool,
    /// Pin count: pinned frames are never eviction victims.
    pub(crate) pins: u32,
    /// LSN of the last WAL-logged mutation of this frame (0 = never
    /// logged; always 0 when the WAL is disabled).
    pub(crate) lsn: u64,
}

/// The disk-agnostic heart of a buffer pool: frame slots, the resident-page
/// table, the replacement policy, and fix/eviction accounting.
///
/// [`BufferPool`] wraps exactly one core over an exclusively-owned
/// [`SimDisk`]; [`crate::SharedBufferPool`] wraps one core per lock-striped
/// shard over the same device behind an `RwLock`. Both run the *identical*
/// logic — the core's own fix/evict code and this module's shared
/// prefetch/load/flush functions — which is what makes a one-shard shared
/// pool counter-for-counter indistinguishable from the single-threaded pool
/// (`tests/prop_shared_buffer.rs` pins that down).
pub(crate) struct PoolCore {
    capacity: usize,
    /// Frame slots; `None` entries are free and listed in `free`.
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    /// Page buffers of evicted or dropped frames, reused by the next loads:
    /// a full pool in steady state allocates nothing on a miss. Boxed on
    /// purpose: a buffer changes hands by pointer, not by a 2 KB copy.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Resident-page table: page id → slot index.
    table: HashMap<PageId, usize>,
    policy: Box<dyn ReplacementPolicy>,
    pub(crate) stats: BufferStats,
    /// Per-page heat counters; `None` while tracking is disabled.
    heat: Option<HeatTracker>,
}

impl PoolCore {
    pub(crate) fn new(capacity: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        PoolCore {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            spare: Vec::new(),
            table: HashMap::with_capacity(capacity.min(1 << 20)),
            policy: policy.build(),
            stats: BufferStats::default(),
            heat: None,
        }
    }

    /// Enables heat tracking per `config` (a no-op config disables it).
    pub(crate) fn set_heat(&mut self, config: HeatConfig) {
        self.heat = config.track.then(|| HeatTracker::new(config));
    }

    /// The tracked heat map, sorted by page id; empty with tracking off.
    pub(crate) fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.heat.as_ref().map(|h| h.snapshot()).unwrap_or_default()
    }

    /// Records one counted access in the heat tracker, if enabled.
    fn record_heat(&mut self, pid: PageId) {
        if let Some(heat) = self.heat.as_mut() {
            self.stats.heat_records += 1;
            if heat.record(pid) {
                self.stats.heat_decays += 1;
            }
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    pub(crate) fn cached_pages(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn pinned_pages(&self) -> usize {
        self.table
            .values()
            .filter(|&&s| self.frame(s).pins > 0)
            .count()
    }

    pub(crate) fn is_cached(&self, pid: PageId) -> bool {
        self.table.contains_key(&pid)
    }

    pub(crate) fn frame(&self, slot: usize) -> &Frame {
        self.frames[slot].as_ref().expect("slot occupied")
    }

    pub(crate) fn frame_mut(&mut self, slot: usize) -> &mut Frame {
        self.frames[slot].as_mut().expect("slot occupied")
    }

    /// Slot of `pid`, if resident.
    pub(crate) fn slot_of(&self, pid: PageId) -> Option<usize> {
        self.table.get(&pid).copied()
    }

    /// Bumps the policy's access bookkeeping for a resident page (a
    /// prefetch touch — not a counted fix). Returns false when not cached.
    fn touch(&mut self, pid: PageId) -> bool {
        match self.table.get(&pid) {
            Some(&slot) => {
                self.policy.on_access(slot);
                true
            }
            None => false,
        }
    }

    /// Fixes `pid`: one counted access, loading the page on a miss. Returns
    /// the frame slot.
    pub(crate) fn fix<D: DiskOps>(
        &mut self,
        disk: &mut D,
        pid: PageId,
        dirty: bool,
    ) -> Result<usize> {
        self.stats.fixes += 1;
        self.record_heat(pid);
        let slot = match self.table.get(&pid) {
            Some(&slot) => {
                self.stats.hits += 1;
                self.policy.on_access(slot);
                slot
            }
            None => {
                self.stats.misses += 1;
                load_run(&mut [&mut *self], |_| 0, disk, pid, 1)?;
                self.table[&pid]
            }
        };
        if dirty {
            self.frame_mut(slot).dirty = true;
        }
        Ok(slot)
    }

    /// Counts a fix that the batched I/O engine satisfied: the access
    /// triggered a physical read (through the drain batch), so it is a
    /// miss, exactly as [`PoolCore::fix`]'s miss arm counts one — and like
    /// that arm it does **not** bump the policy (the frame's `on_insert`
    /// from the install is its access event, keeping LRU-2/CLOCK histories
    /// identical to the synchronous path).
    pub(crate) fn fix_engine_miss(&mut self, slot: usize, dirty: bool) {
        self.stats.fixes += 1;
        self.stats.misses += 1;
        let pid = self.frame(slot).pid;
        self.record_heat(pid);
        if dirty {
            self.frame_mut(slot).dirty = true;
        }
    }

    /// Releases one pin on `pid`. Returns `false` (and does nothing) if the
    /// page is not cached or not pinned.
    pub(crate) fn unpin(&mut self, pid: PageId) -> bool {
        match self.table.get(&pid) {
            Some(&slot) if self.frame(slot).pins > 0 => {
                self.frame_mut(slot).pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Installs a page image in a fresh frame (the page must not be
    /// resident): **the one copy of a loaded page**, from the device's bytes
    /// straight into the buffer the frame keeps — a spare one when an
    /// eviction left it, a new one while the pool is still filling.
    pub(crate) fn insert_frame(&mut self, pid: PageId, image: &[u8; PAGE_SIZE]) {
        debug_assert!(!self.table.contains_key(&pid));
        let data = match self.spare.pop() {
            Some(mut buf) => {
                buf.copy_from_slice(image);
                buf
            }
            None => Box::new(*image),
        };
        let slot = self.alloc_slot();
        self.frames[slot] = Some(Frame {
            pid,
            data,
            dirty: false,
            pins: 0,
            lsn: 0,
        });
        self.table.insert(pid, slot);
        self.policy.on_insert(slot);
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.frames.push(None);
                self.frames.len() - 1
            }
        }
    }

    /// Evicts until `incoming` more pages fit, or nothing evictable is
    /// left (transient overflow — e.g. a run larger than the buffer, or
    /// everything pinned).
    fn make_room<D: DiskOps>(&mut self, disk: &mut D, incoming: usize) -> Result<()> {
        while self.table.len() + incoming > self.capacity {
            let frames = &self.frames;
            let victim = self
                .policy
                .victim(&|slot| frames[slot].as_ref().is_some_and(|f| f.pins == 0));
            let Some(slot) = victim else {
                break; // nothing evictable; allow transient overflow
            };
            self.evict_slot(disk, slot)?;
        }
        Ok(())
    }

    fn evict_slot<D: DiskOps>(&mut self, disk: &mut D, slot: usize) -> Result<()> {
        let frame = self.frames[slot].take().expect("victim slot occupied");
        debug_assert_eq!(frame.pins, 0, "evicting a pinned frame");
        self.policy.on_remove(slot);
        let mapped = self.table.remove(&frame.pid);
        debug_assert_eq!(mapped, Some(slot));
        self.free.push(slot);
        self.stats.evictions += 1;
        if frame.dirty {
            self.stats.dirty_evictions += 1;
            disk.write_run_dyn(frame.pid, 1, &mut |_| *frame.data)?;
        }
        // Only now — the victim's bytes are on the disk — may a load reuse
        // its buffer.
        self.spare.push(frame.data);
        Ok(())
    }

    /// Resident dirty page ids, unsorted.
    fn dirty_pages(&self) -> Vec<PageId> {
        self.table
            .iter()
            .filter(|(_, &slot)| self.frame(slot).dirty)
            .map(|(&pid, _)| pid)
            .collect()
    }

    /// Counts a group-latch acquisition of `n` pages — the accounting half
    /// of [`crate::PageCache::latch_pages`], shared by both pool flavours so
    /// the same storage code reports identical latch totals on either.
    pub(crate) fn note_group_latch(&mut self, mode: LatchMode, n: u64) {
        match mode {
            LatchMode::Shared => self.stats.latch_shared += n,
            LatchMode::Exclusive => self.stats.latch_exclusive += n,
        }
    }

    /// Drops every cached frame without writing anything (callers flush
    /// first). Pins do not survive.
    pub(crate) fn drop_all(&mut self) {
        for (_, slot) in self.table.drain() {
            self.policy.on_remove(slot);
            let frame = self.frames[slot].take().expect("mapped slot occupied");
            self.spare.push(frame.data);
            self.free.push(slot);
        }
        debug_assert!(self.policy.is_empty());
    }
}

/// Groups `pids` (ascending, distinct) into `(first, len)` runs of
/// contiguous pages with `len ≤` [`MAX_PAGES_PER_WRITE_CALL`] — the one rule
/// for *which pages travel in one call*. Both pools' flush, WAL recovery
/// replay, the read engine's coalescing and the ranged spanned read all form
/// their calls here.
pub(crate) fn page_runs(
    pids: impl IntoIterator<Item = PageId>,
) -> impl Iterator<Item = (PageId, u32)> {
    let mut pids = pids.into_iter().peekable();
    std::iter::from_fn(move || {
        let start = pids.next()?;
        let mut len = 1u32;
        while len < MAX_PAGES_PER_WRITE_CALL && pids.next_if(|p| p.0 == start.0 + len).is_some() {
            len += 1;
        }
        Some((start, len))
    })
}

/// Ensures the run `[first, first+n)` is cached: resident pages get a policy
/// touch, every maximal contiguous missing sub-run one [`load_run`]. Counts
/// no fixes.
///
/// `cores` are the pool engines the caller holds exclusively and `owner`
/// maps a page to the index of the one caching it: [`BufferPool`] passes its
/// single core with `|_| 0`, the shared pool the cores of the shard guards
/// it has locked — so residency is decided coherently for the whole run and
/// both pools make the same policy events in the same order.
pub(crate) fn prefetch_run<D: DiskOps>(
    cores: &mut [&mut PoolCore],
    owner: impl Fn(PageId) -> usize,
    disk: &mut D,
    first: PageId,
    n: u32,
) -> Result<()> {
    let mut i = 0;
    while i < n {
        let pid = first.offset(i);
        if cores[owner(pid)].touch(pid) {
            i += 1;
            continue;
        }
        // Extend the missing run as far as possible.
        let mut len = 1;
        while i + len < n {
            let next = first.offset(i + len);
            if cores[owner(next)].is_cached(next) {
                break;
            }
            len += 1;
        }
        load_run(cores, &owner, disk, pid, len)?;
        i += len;
    }
    Ok(())
}

/// Evicts in each owning core until its share of `pids` (none resident)
/// fits. Evictions of dirty victims write through `disk`.
pub(crate) fn make_room_for<D: DiskOps>(
    cores: &mut [&mut PoolCore],
    owner: impl Fn(PageId) -> usize,
    disk: &mut D,
    pids: impl Iterator<Item = PageId> + Clone,
) -> Result<()> {
    for (c, core) in cores.iter_mut().enumerate() {
        let incoming = pids.clone().filter(|&pid| owner(pid) == c).count();
        if incoming > 0 {
            core.make_room(disk, incoming)?;
        }
    }
    Ok(())
}

/// Loads the `n` contiguous uncached pages from `first`: make room in each
/// owning core, **one read call**, each page copied once — from the device
/// into its frame. Every miss of either pool ends here — a single-page fix
/// miss as a run of one. A read call that fails delivers no page, so no
/// frame is installed.
pub(crate) fn load_run<D: DiskOps>(
    cores: &mut [&mut PoolCore],
    owner: impl Fn(PageId) -> usize,
    disk: &mut D,
    first: PageId,
    n: u32,
) -> Result<()> {
    make_room_for(cores, &owner, disk, (0..n).map(|i| first.offset(i)))?;
    disk.read_run_dyn(first, n, &mut |i, image| {
        let pid = first.offset(i);
        cores[owner(pid)].insert_frame(pid, image);
    })
}

/// Writes every dirty page of `cores` back in [`page_runs`] calls, then
/// clears the dirty bits — the "database disconnect" flush of both pools.
///
/// The bits are cleared only after every run has landed, so a failed flush
/// would leave all pages dirty and retryable. A `SimDisk` write cannot fail
/// today, so that order is unobservable (and untested) until a
/// fault-injecting disk exists.
pub(crate) fn flush_all<D: DiskOps>(
    cores: &mut [&mut PoolCore],
    owner: impl Fn(PageId) -> usize,
    disk: &mut D,
) -> Result<()> {
    let mut dirty: Vec<PageId> = cores.iter().flat_map(|c| c.dirty_pages()).collect();
    dirty.sort_unstable();
    flush_dirty_runs(
        &dirty,
        |pid| {
            let core = &cores[owner(pid)];
            core.slot_of(pid).map(|slot| *core.frame(slot).data)
        },
        |start, len, images| disk.write_run_dyn(start, len, &mut |j| images[j as usize]),
    )?;
    for &pid in &dirty {
        let core = &mut cores[owner(pid)];
        if let Some(slot) = core.slot_of(pid) {
            core.frame_mut(slot).dirty = false;
        }
    }
    Ok(())
}

/// Hands each [`page_runs`] run of `dirty` (sorted ascending, deduplicated),
/// with its pre-collected images, to `write`.
///
/// `image` returning `None` for a page the dirty list named is a
/// bookkeeping invariant violation (a dirty page must be resident); it
/// surfaces as [`StoreError::DirtyNotResident`] *before* any byte of that
/// run is written — unreachable through the pools' public API (the dirty
/// list is derived from the frames under the same exclusive access), but
/// defended as an error so a future bookkeeping bug reports instead of
/// aborting mid-flush.
pub(crate) fn flush_dirty_runs(
    dirty: &[PageId],
    mut image: impl FnMut(PageId) -> Option<[u8; PAGE_SIZE]>,
    mut write: impl FnMut(PageId, u32, &[[u8; PAGE_SIZE]]) -> Result<()>,
) -> Result<()> {
    for (start, len) in page_runs(dirty.iter().copied()) {
        let mut images = Vec::with_capacity(len as usize);
        for j in 0..len {
            let pid = start.offset(j);
            images.push(image(pid).ok_or(StoreError::DirtyNotResident { page: pid })?);
        }
        write(start, len, &images)?;
    }
    Ok(())
}

/// A page cache over the simulated disk with a pluggable replacement policy.
///
/// Reproduces the paper's buffer-manager behaviour:
///
/// * capacity of [`DEFAULT_BUFFER_PAGES`] = 1200 pages by default (§5.1);
/// * **fix accounting**: every page access counts one fix, hit or miss
///   (Table 6's CPU-load indicator);
/// * **write-back**: dirty pages are written only when evicted on overflow
///   or at [`PageCache::flush_all`] ("database disconnect") — §5.2: "pages
///   are written to the database relations only then if either the query
///   execution has been finished ... or the page buffer overflows";
/// * **grouped I/O calls**: contiguous misses prefetched via
///   [`PageCache::prefetch_run`] cost one read call per contiguous missing
///   run; flushes group dirty pages into contiguous runs of at most
///   [`MAX_PAGES_PER_WRITE_CALL`] pages per call.
///
/// Replacement is delegated to a [`ReplacementPolicy`] over dense frame
/// slots (see [`crate::policy`]); [`BufferPool::new`] runs the paper's LRU,
/// now an O(1) intrusive-list implementation — every `with_page` /
/// `with_page_mut` is one hash probe plus three pointer swaps, where the
/// seed paid a `BTreeMap` insert + remove per fix. Frames pinned via
/// [`PageCache::pin`] are never evicted; if nothing is evictable the pool
/// overflows transiently rather than failing.
///
/// Apart from its constructors and two residency gauges, the pool's whole
/// surface is its [`PageCache`] implementation: bring the trait into scope
/// to use it.
pub struct BufferPool {
    disk: SimDisk,
    core: PoolCore,
}

impl BufferPool {
    /// Creates a pool of `capacity` pages over `disk` with the paper's LRU
    /// policy.
    pub fn new(disk: SimDisk, capacity: usize) -> Self {
        Self::with_policy(disk, capacity, PolicyKind::Lru)
    }

    /// Creates a pool of `capacity` pages over `disk` with an explicit
    /// replacement policy.
    pub fn with_policy(disk: SimDisk, capacity: usize, policy: PolicyKind) -> Self {
        BufferPool {
            disk,
            core: PoolCore::new(capacity, policy),
        }
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.core.cached_pages()
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.core.pinned_pages()
    }
}

/// The pool's operations *are* its [`PageCache`] implementation — there is
/// no second, inherent spelling of them. Prefetch, miss and flush run the
/// module's shared `prefetch_run` / `load_run` / `flush_all` over the
/// single core (`owner = |_| 0`), the same functions the sharded pool runs
/// over its locked shard cores.
impl PageCache for BufferPool {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let slot = self.core.fix(&mut self.disk, pid, false)?;
        Ok(f(&self.core.frame(slot).data))
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let slot = self.core.fix(&mut self.disk, pid, true)?;
        Ok(f(&mut self.core.frame_mut(slot).data))
    }

    /// One read call per maximal contiguous missing sub-run — the DASDBS
    /// multi-page read (e.g. one call for a large object's data pages).
    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        prefetch_run(&mut [&mut self.core], |_| 0, &mut self.disk, first, n)
    }

    /// A counted fix (hit or miss, like any other) plus a pin. Pins nest.
    fn pin(&mut self, pid: PageId) -> Result<()> {
        let slot = self.core.fix(&mut self.disk, pid, false)?;
        self.core.frame_mut(slot).pins += 1;
        Ok(())
    }

    fn unpin(&mut self, pid: PageId) -> bool {
        self.core.unpin(pid)
    }

    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.disk.alloc_extent(n)
    }

    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        self.disk.write_run_noop(first, n)
    }

    /// The "database disconnect" of the paper's measurement protocol. A
    /// dirty page found non-resident is [`StoreError::DirtyNotResident`],
    /// as on the shared pool.
    fn flush_all(&mut self) -> Result<()> {
        flush_all(&mut [&mut self.core], |_| 0, &mut self.disk)
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.flush_all()?;
        self.core.drop_all();
        Ok(())
    }

    fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.core.stats = BufferStats::default();
    }

    fn is_cached(&self, pid: PageId) -> bool {
        self.core.is_cached(pid)
    }

    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot::combine(self.disk.stats(), self.core.stats)
    }

    fn buffer_stats(&self) -> BufferStats {
        self.core.stats
    }

    fn database_pages(&self) -> u32 {
        self.disk.allocated_pages()
    }

    fn capacity(&self) -> usize {
        self.core.capacity()
    }

    fn policy_kind(&self) -> PolicyKind {
        self.core.policy_kind()
    }

    /// An exclusively-owned pool has no concurrent accessors, so latching is
    /// pure bookkeeping here — but it is the *same* bookkeeping the sharded
    /// [`crate::SharedBufferPool`] performs for real acquisitions, which is
    /// what keeps serial and one-client-shared measurements identical over
    /// the latched write surface.
    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        // Every extent the object files hand out is strictly ascending:
        // counted as it is, no copy and no sort on the serial read path.
        let n = if pids.is_sorted_by(|a, b| a < b) {
            pids.len()
        } else {
            distinct_pids(pids).len()
        };
        self.core.note_group_latch(mode, n as u64);
        Ok(())
    }

    fn unlatch_pages(&mut self, _pids: &[PageId], _mode: LatchMode) {}

    fn disk_checksum(&self) -> u64 {
        self.disk.checksum()
    }

    /// Survives [`PageCache::reset_stats`] and [`PageCache::clear_cache`]:
    /// the heat map is workload state (like cache content), not a
    /// measurement counter.
    fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.core.page_heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize, pages: u32) -> BufferPool {
        let mut disk = SimDisk::new();
        disk.alloc_extent(pages);
        BufferPool::new(disk, cap)
    }

    fn pool_with(policy: PolicyKind, cap: usize, pages: u32) -> BufferPool {
        let mut disk = SimDisk::new();
        disk.alloc_extent(pages);
        BufferPool::with_policy(disk, cap, policy)
    }

    #[test]
    fn fix_counts_hits_and_misses() {
        let mut p = pool(10, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        let s = p.buffer_stats();
        assert_eq!(s.fixes, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(p.snapshot().read_calls, 2);
        assert_eq!(p.snapshot().pages_read, 2);
    }

    #[test]
    fn prefetch_groups_contiguous_misses() {
        let mut p = pool(10, 8);
        p.with_page(PageId(2), |_| {}).unwrap(); // cache page 2
        p.reset_stats();
        p.prefetch_run(PageId(0), 6).unwrap();
        // Missing runs: [0,1] and [3,4,5] -> 2 calls, 5 pages.
        let s = p.snapshot();
        assert_eq!(s.read_calls, 2);
        assert_eq!(s.pages_read, 5);
        assert_eq!(s.fixes, 0, "prefetch is not a fix");
        // Everything is now cached; subsequent fixes are hits.
        p.with_page(PageId(4), |_| {}).unwrap();
        assert_eq!(p.buffer_stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = pool(2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // 1 is now LRU
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 1
        assert!(p.is_cached(PageId(0)));
        assert!(!p.is_cached(PageId(1)));
        assert!(p.is_cached(PageId(2)));
        assert_eq!(p.buffer_stats().evictions, 1);
    }

    #[test]
    fn mru_evicts_most_recently_used() {
        let mut p = pool_with(PolicyKind::Mru, 2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // 0 is now MRU
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 0
        assert!(!p.is_cached(PageId(0)));
        assert!(p.is_cached(PageId(1)));
        assert!(p.is_cached(PageId(2)));
    }

    #[test]
    fn fifo_evicts_in_residency_order() {
        let mut p = pool_with(PolicyKind::Fifo, 2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // hit; FIFO ignores it
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 0 regardless
        assert!(!p.is_cached(PageId(0)));
        assert!(p.is_cached(PageId(1)));
    }

    #[test]
    fn every_policy_keeps_capacity_and_contents() {
        for kind in PolicyKind::all() {
            let mut p = pool_with(kind, 3, 20);
            for i in 0..20 {
                p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            }
            assert!(p.cached_pages() <= 3, "{kind}");
            assert_eq!(p.policy_kind(), kind);
            p.flush_all().unwrap();
            for i in 0..20 {
                p.with_page(PageId(i), |b| assert_eq!(b[0], i as u8, "{kind}"))
                    .unwrap();
            }
        }
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        for kind in PolicyKind::all() {
            let mut p = pool_with(kind, 2, 10);
            p.pin(PageId(0)).unwrap();
            for i in 1..10 {
                p.with_page(PageId(i), |_| {}).unwrap();
            }
            assert!(p.is_cached(PageId(0)), "{kind}: pinned page evicted");
            assert_eq!(p.pinned_pages(), 1, "{kind}");
            assert!(p.unpin(PageId(0)), "{kind}");
            assert!(!p.unpin(PageId(0)), "{kind}: double unpin");
            for i in 1..10 {
                p.with_page(PageId(i), |_| {}).unwrap();
            }
            // Once unpinned, the page is ordinary again. Every policy except
            // MRU drains the cold page 0; MRU keeps it by design (it always
            // evicts the hottest frame).
            if kind == PolicyKind::Mru {
                assert!(p.is_cached(PageId(0)), "MRU keeps the coldest frame");
            } else {
                assert!(!p.is_cached(PageId(0)), "{kind}: unpinned page kept");
            }
        }
    }

    #[test]
    fn all_pinned_overflows_transiently() {
        let mut p = pool(2, 4);
        p.pin(PageId(0)).unwrap();
        p.pin(PageId(1)).unwrap();
        p.with_page(PageId(2), |_| {}).unwrap(); // nothing evictable
        assert_eq!(p.cached_pages(), 3, "transient overflow");
        p.unpin(PageId(0));
        p.with_page(PageId(3), |_| {}).unwrap();
        assert!(p.cached_pages() <= 3);
        assert!(!p.is_cached(PageId(0)) || !p.is_cached(PageId(2)));
    }

    #[test]
    fn dirty_eviction_writes_one_page() {
        let mut p = pool(1, 3);
        p.with_page_mut(PageId(0), |b| b[100] = 9).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap(); // evicts dirty 0
        let s = p.snapshot();
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 1);
        assert_eq!(p.buffer_stats().dirty_evictions, 1);
        // Content survived the round trip.
        p.with_page(PageId(0), |b| assert_eq!(b[100], 9)).unwrap();
    }

    /// The buffer of `pid`'s frame, by address.
    fn buffer_of(p: &BufferPool, pid: PageId) -> *const [u8; PAGE_SIZE] {
        let slot = p.core.slot_of(pid).expect("resident");
        &*p.core.frame(slot).data
    }

    #[test]
    fn a_miss_after_an_eviction_reuses_the_victims_buffer() {
        let mut p = pool(2, 6);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        let mut buffers = [buffer_of(&p, PageId(0)), buffer_of(&p, PageId(1))];
        buffers.sort_unstable();
        // Steady state: every further miss evicts one frame and moves into
        // its buffer — the pool keeps working in the two it started with.
        for i in 2..6 {
            p.with_page(PageId(i), |_| {}).unwrap();
            let mut now = [buffer_of(&p, PageId(i - 1)), buffer_of(&p, PageId(i))];
            now.sort_unstable();
            assert_eq!(now, buffers, "miss on page {i} took a new buffer");
            assert!(p.core.spare.is_empty(), "the spare buffer was not taken");
        }
        // A cold restart keeps the buffers too.
        p.clear_cache().unwrap();
        assert_eq!(p.core.spare.len(), 2);
        p.prefetch_run(PageId(0), 2).unwrap();
        assert!(p.core.spare.is_empty());
    }

    #[test]
    fn a_dirty_victims_bytes_reach_the_disk_before_its_buffer_is_reused() {
        let mut p = pool(1, 3);
        p.with_page_mut(PageId(0), |b| b.fill(9)).unwrap();
        let victim = buffer_of(&p, PageId(0));
        p.with_page_mut(PageId(1), |b| b.fill(1)).unwrap(); // evicts dirty 0
        assert_eq!(
            buffer_of(&p, PageId(1)),
            victim,
            "page 1 lives in 0's buffer"
        );
        assert_eq!(p.snapshot().pages_written, 1);
        // What the disk holds of page 0 is page 0, not the next tenant.
        p.with_page(PageId(0), |b| assert!(b.iter().all(|&x| x == 9)))
            .unwrap();
        p.with_page(PageId(1), |b| assert!(b.iter().all(|&x| x == 1)))
            .unwrap();
    }

    #[test]
    fn flush_groups_contiguous_dirty_pages() {
        let mut p = pool(10, 10);
        for i in [0u32, 1, 2, 5, 6, 9] {
            p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        p.reset_stats();
        p.flush_all().unwrap();
        let s = p.snapshot();
        // Runs: [0..3), [5..7), [9] -> 3 calls, 6 pages.
        assert_eq!(s.write_calls, 3);
        assert_eq!(s.pages_written, 6);
        // Second flush writes nothing.
        p.flush_all().unwrap();
        assert_eq!(p.snapshot().write_calls, 3);
    }

    #[test]
    fn flush_respects_max_run_length() {
        let n = MAX_PAGES_PER_WRITE_CALL + 8;
        let mut p = pool(n as usize + 1, n);
        for i in 0..n {
            p.with_page_mut(PageId(i), |b| b[0] = 1).unwrap();
        }
        p.reset_stats();
        p.flush_all().unwrap();
        let s = p.snapshot();
        assert_eq!(s.pages_written, n as u64);
        assert_eq!(s.write_calls, 2, "40 dirty pages -> calls of 32 + 8");
    }

    #[test]
    fn page_runs_split_at_gaps_and_at_the_cap() {
        let runs = |pids: &[u32]| page_runs(pids.iter().map(|&p| PageId(p))).collect::<Vec<_>>();
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[7]), vec![(PageId(7), 1)]);
        assert_eq!(
            runs(&[0, 1, 2, 5, 6, 9]),
            vec![(PageId(0), 3), (PageId(5), 2), (PageId(9), 1)]
        );
        // Exactly the cap is one run; one more page starts the next.
        let cap = MAX_PAGES_PER_WRITE_CALL;
        let full: Vec<u32> = (10..10 + cap).collect();
        assert_eq!(runs(&full), vec![(PageId(10), cap)]);
        let over: Vec<u32> = (10..10 + cap + 1).collect();
        assert_eq!(runs(&over), vec![(PageId(10), cap), (PageId(10 + cap), 1)]);
    }

    #[test]
    fn clear_cache_flushes_then_drops() {
        let mut p = pool(10, 4);
        p.with_page_mut(PageId(3), |b| b[7] = 42).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.cached_pages(), 0);
        assert_eq!(p.snapshot().pages_written, 1);
        p.reset_stats();
        // Re-reading is a miss (cold) and sees the flushed content.
        p.with_page(PageId(3), |b| assert_eq!(b[7], 42)).unwrap();
        assert_eq!(p.buffer_stats().misses, 1);
    }

    #[test]
    fn write_pool_pages_counts_without_mutating() {
        let mut p = pool(4, 4);
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
    fn eviction_pressure_stays_within_capacity() {
        let mut p = pool(3, 20);
        for i in 0..20 {
            p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        assert!(p.cached_pages() <= 3);
        p.flush_all().unwrap();
        // All contents must survive eviction + flush.
        p.reset_stats();
        for i in 0..20 {
            p.with_page(PageId(i), |b| assert_eq!(b[0], i as u8))
                .unwrap();
        }
    }

    #[test]
    fn buffer_config_builds_configured_pools() {
        let cfg = BufferConfig::with_pages(8).policy(PolicyKind::Clock);
        let mut disk = SimDisk::new();
        disk.alloc_extent(4);
        let pool = cfg.build(disk);
        assert_eq!(pool.capacity(), 8);
        assert_eq!(pool.policy_kind(), PolicyKind::Clock);
        let d = BufferConfig::default();
        assert_eq!(d.pages, DEFAULT_BUFFER_PAGES);
        assert_eq!(d.policy, PolicyKind::Lru);
    }
}
