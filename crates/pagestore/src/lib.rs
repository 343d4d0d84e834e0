//! # starfish-pagestore — the page-based storage substrate
//!
//! A from-scratch, DASDBS-flavoured storage engine substrate that the four
//! complex-object storage models of the ICDE 1993 paper are built on. It
//! simulates exactly the quantities the paper measures:
//!
//! * **pages read / written** (`X_IO_pages`, Tables 3, 4, Figures 5, 6),
//! * **I/O calls** (`X_IO_calls`, Table 5) — one call may transfer several
//!   *contiguous* pages, as in DASDBS (separate calls for an object's root
//!   page, additional header pages, and data-page runs; batched grouped
//!   writes at flush time),
//! * **buffer fixes** (Table 6) — every page access through the buffer,
//!   hit or miss, the paper's CPU-load indicator.
//!
//! Geometry matches DASDBS: 2048-byte pages with a 36-byte page header,
//! leaving [`EFFECTIVE_PAGE_SIZE`] = 2012 bytes of content per page.
//!
//! Components:
//!
//! * [`SimDisk`] — the one data device under both pools: an in-memory page
//!   array with a bump extent allocator and physical-I/O accounting;
//! * [`BufferPool`] — a page cache (default capacity
//!   [`DEFAULT_BUFFER_PAGES`] = 1200, the size used in the paper's
//!   measurements) with fix accounting, write-back on eviction, grouped
//!   flush on "database disconnect", and a pluggable [`ReplacementPolicy`]
//!   (O(1) LRU by default — the paper's §5.1 buffer — plus Clock, MRU,
//!   FIFO and LRU-2 in [`policy`]);
//! * [`SharedBufferPool`] — the same pool engine sharded by `PageId` hash
//!   into K lock-striped shards (each with its own policy instance and
//!   counters), shareable across N client threads through
//!   [`SharedPoolHandle`]; storage layers address either pool through the
//!   [`PageCache`] trait (which is also [`BufferPool`]'s whole operational
//!   surface). The two pools share every algorithm by construction — one
//!   call grouper (contiguous runs of at most [`MAX_PAGES_PER_WRITE_CALL`]
//!   pages), one prefetch scan, one load, one flush, all in `buffer.rs`,
//!   over one device — and differ only in locking;
//! * [`slotted`] — append-only slotted-page record layout (record footprint =
//!   encoded length + 4-byte slot entry, which is how the paper's Table 2
//!   `k = ⌊2012 / S_tuple⌋` tuple-per-page counts come out);
//! * [`HeapFile`] — a relation of small records on a contiguous extent, with
//!   RID access, in-place update and full scans;
//! * [`SpannedStore`] — large-object storage: header page(s) holding the
//!   object directory, disjoint contiguous data pages holding the bytes,
//!   with whole-object, header-only and byte-range reads, under one page
//!   plan per object — packed, or explicit page starts for DASDBS's
//!   sub-tuple-aligned layout;
//! * [`ioengine`](crate::IoEngineConfig) — an optional io_uring-style
//!   submission/completion layer for buffer misses: concurrent misses
//!   queue, a leader drains the queue, coalesces adjacent page ids into
//!   multi-page read calls (the same grouper and cap as a flush), and fills
//!   frames on completion while waiters park off the shard mutexes. Disabled
//!   by default; off, the miss path and every counter are byte-identical to
//!   the synchronous pool;
//! * [`wal`](crate::WalConfig) — an optional redo-only write-ahead log
//!   under the shared pool: checksummed, LSN-stamped records of the byte
//!   range each write changed, in multi-page log segments, per-commit or
//!   group-commit flushing, and
//!   recovery-on-open replaying the committed tail past the last
//!   checkpoint. Disabled by default; off, every counter and code path is
//!   byte-identical to the pre-WAL pool;
//! * [`heat`](crate::HeatConfig) — opt-in per-page access-heat counters
//!   with count-driven decay, feeding the adaptive-placement reorganizer
//!   in `starfish-core`. Disabled by default; off, every counter stays
//!   byte-identical (the additive `heat_records` / `heat_decays` fields
//!   are provably zero).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod buffer;
mod cache;
mod disk;
mod error;
mod heap;
mod heat;
mod ioengine;
pub mod latch;
pub mod policy;
mod shared;
pub mod slotted;
mod spanned;
mod stats;
mod wal;

pub use buffer::{BufferConfig, BufferPool, MAX_PAGES_PER_WRITE_CALL};
pub use cache::PageCache;
pub use disk::SimDisk;
pub use error::StoreError;
pub use heap::{HeapFile, Rid};
pub use heat::{HeatConfig, HEAT_DECAY_EVERY};
pub use ioengine::IoEngineConfig;
pub use latch::LatchMode;
pub use policy::{PolicyKind, ReplacementPolicy};
pub use shared::{SharedBufferPool, SharedPoolHandle};
pub use spanned::{SpannedRecord, SpannedStore};
pub use stats::{BufferStats, DiskStats, IoSnapshot};
pub use wal::{FsyncMode, WalConfig, WalStats};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Physical page size in bytes (DASDBS used 2048-byte pages).
pub const PAGE_SIZE: usize = 2048;

/// Per-page header in bytes (DASDBS: 36 bytes). Holds page type, slot count
/// and free-space bookkeeping; not usable for record content.
pub const PAGE_HEADER_SIZE: usize = 36;

/// Usable content bytes per page: 2048 − 36 = 2012, the paper's "effective
/// page size" from which Table 2's `k` and `p` are computed.
pub const EFFECTIVE_PAGE_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

/// Per-record slot entry in bytes (offset + length). A stored record of
/// `n` encoded bytes consumes `n + SLOT_ENTRY_SIZE` content bytes.
pub const SLOT_ENTRY_SIZE: usize = 4;

/// Default buffer-pool capacity in pages; §5.1 of the paper: "a buffer of
/// 1200 pages".
pub const DEFAULT_BUFFER_PAGES: usize = 1200;

/// Identifies a physical page on the simulated disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    /// The page `offset` pages after this one.
    pub fn offset(self, offset: u32) -> PageId {
        PageId(self.0 + offset)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// How many pages are needed to hold `bytes` content bytes at
/// [`EFFECTIVE_PAGE_SIZE`] per page (the paper's Equation 2 with
/// `S_page = 2012`).
pub fn pages_for_bytes(bytes: usize) -> u32 {
    (bytes.div_ceil(EFFECTIVE_PAGE_SIZE)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_dasdbs() {
        assert_eq!(PAGE_SIZE, 2048);
        assert_eq!(PAGE_HEADER_SIZE, 36);
        assert_eq!(EFFECTIVE_PAGE_SIZE, 2012);
    }

    #[test]
    fn pages_for_bytes_is_eq2() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(2012), 1);
        assert_eq!(pages_for_bytes(2013), 2);
        // The paper's example: S_tuple = 6078 ⇒ p = ⌈6078/2012⌉ = 4.
        assert_eq!(pages_for_bytes(6078), 4);
    }

    #[test]
    fn page_id_offset() {
        assert_eq!(PageId(10).offset(5), PageId(15));
        assert_eq!(format!("{}", PageId(3)), "p3");
    }
}
