//! Write-ahead logging with group commit for the shared pool.
//!
//! PR 4 gave the pool concurrent writers, but their updates lived only in
//! cached frames until the next [`crate::SharedBufferPool::flush_all`] — a
//! crash in between silently lost committed writes. This module closes
//! that hole with a redo-only, physical write-ahead log:
//!
//! * every mutation through the shared pool's write path logs the **byte
//!   range it changed** — `[first changed byte, last changed byte]` of the
//!   page, found by comparing the frame before and after the write — into
//!   a per-thread op buffer, stamped with a monotonically increasing
//!   **LSN** that is also recorded in the frame table. **A write that
//!   changes nothing logs nothing** and stamps no LSN: a DSM header page
//!   rewritten with its own bytes costs one compare. An op's write of the
//!   page its last range covers, with no write of that page in between,
//!   widens that range instead of adding one (a bulk load fills a page
//!   record by record);
//! * [`Wal::commit`] moves the op's ranges (in write order) into the
//!   durable-pending queue and forces them to the log device before
//!   returning, so a committed op can never be lost;
//! * under [`FsyncMode::Group`] a **leader** thread flushes the whole
//!   pending queue in one device write while followers wait on a condvar
//!   until their commit LSN is durable — N concurrent committers amortize
//!   one log flush (one "fsync") across the batch, the classic group
//!   commit. [`FsyncMode::PerCommit`] forces one flush per commit instead
//!   (the baseline the `ext-durability` experiment compares against);
//! * the log device is organized in **multi-page segments** following the
//!   SNIPPETS.md storage spec: a versioned, checksummed header carrying
//!   the segment's `PageRange`, then length-prefixed records streamed
//!   across the segment's pages. Records themselves carry an FNV-1a
//!   checksum, so recovery can detect corruption and a torn tail;
//! * a **checkpoint** (taken by `flush_all`/`clear_cache` while the PR-4
//!   writer gate has the pool quiesced — the gate doubles as the
//!   checkpoint barrier) truncates the log: everything it described is on
//!   the data disk;
//! * [`Wal::recovered_ranges`] replays the tail past the last checkpoint:
//!   it re-reads the surviving segments (counted log I/O), validates every
//!   header and record checksum, and yields every logged page's committed
//!   ranges in **LSN order** — not commit order: a writer unlatches before
//!   it commits, so two ops on one page can commit in the opposite order
//!   to their LSNs. Recovery reads each logged page's base from the data
//!   disk (counted data I/O), applies its ranges in that order and writes
//!   it back. Physical byte-range redo applied in LSN order is idempotent,
//!   so a base page that an eviction already made newer still converges.
//!
//! # Record format
//!
//! A segment's record stream starts behind its 28-byte header and runs
//! across the segment's pages. One record is
//! `[len: u32 LE][kind: u8][lsn: u64 LE][body][checksum: u64 LE]`, where
//! `len` counts everything after itself. The checksum is FNV-1a over
//! `kind + lsn + body` — writer and reader hash exactly those bytes. The
//! length prefix is **not** covered: a damaged prefix shows as a record
//! that runs past the segment's used bytes, or as a checksum mismatch of
//! the mis-framed payload. A prefix that reads 0 (a commit's is
//! `11 00 00 00`, so one damaged byte can do it) is a zeroed tail — the end
//! of the log — in the **last** segment only; below a sealed segment's
//! used count every byte is record bytes and no record's prefix is 0, so
//! there it is corruption like any other damage. Three kinds:
//!
//! | kind | record | body |
//! |---|---|---|
//! | 1 | `Range` | `[pid: u32 LE][offset: u16 LE][bytes]` — the changed bytes of page `pid` from `offset`; `offset + bytes` never runs past the page (a record that does is `Corrupt`) |
//! | 2 | `Commit` | empty |
//! | 3 | `Checkpoint` | empty |
//!
//! A whole-page write is a 2048-byte range. The segment header's version
//! is 2; version 1 logged a full 2048-byte page image per dirtied page.
//! There is no version-1 reader: the log device lives in memory, so no
//! version-1 log outlives the process that wrote it, and
//! [`LogDevice::read_all`] rejects any other version as `Corrupt`.
//!
//! # Why there is no full image on a page's first touch
//!
//! PostgreSQL logs a page's full image the first time it is dirtied after
//! a checkpoint (`full_page_writes`), so a data page torn by a crash
//! mid-write can be rebuilt from the log alone. Range redo instead trusts
//! the base page it reads from the data disk. Nothing in this tree can
//! tear a data page — a disk write is one slice copy — so the rule would
//! guard against nothing and cost the image it logs. It belongs with torn
//! data-page fault injection, which would test it.
//!
//! The log device is separate from the data disk and keeps its own I/O
//! counters, surfaced as the `log_*` fields of [`crate::IoSnapshot`] — the
//! paper's physical-I/O accounting extended to the durability path. Lock
//! order: the WAL mutex is the **last** lock in the pool's total order
//! (gate → shards ascending → disk → log), so logging from under a shard
//! mutex and committing from no lock at all both compose deadlock-free.

use crate::disk::fnv1a_bytes;
use crate::{PageId, Result, StoreError, PAGE_SIZE};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;

/// When a commit's log records are forced to the device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FsyncMode {
    /// Every commit issues its own log flush — durability with zero
    /// batching, the per-op-fsync baseline.
    PerCommit,
    /// Group commit: one leader flushes the whole pending queue, followers
    /// wait until their commit LSN is durable. Concurrent committers
    /// amortize one flush across the batch (the default).
    #[default]
    Group,
}

impl FsyncMode {
    /// Canonical display name (`per-commit` / `group`).
    pub fn name(self) -> &'static str {
        match self {
            FsyncMode::PerCommit => "per-commit",
            FsyncMode::Group => "group",
        }
    }
}

impl std::fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FsyncMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "per" | "per-commit" | "percommit" | "per_commit" => Ok(FsyncMode::PerCommit),
            "group" => Ok(FsyncMode::Group),
            other => Err(format!(
                "unknown fsync mode '{other}' (expected one of: per, group)"
            )),
        }
    }
}

/// Write-ahead-log configuration, carried inside
/// [`crate::BufferConfig`]. Default: disabled — the WAL is strictly
/// opt-in, so every measurement that predates it stays byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Log mutations and require commits to be durable.
    pub enabled: bool,
    /// Commit-flush batching discipline.
    pub fsync: FsyncMode,
    /// Pages per log segment (min 2: a segment must fit its header plus
    /// one whole-page range record). Always `SEGMENT_PAGES` outside this
    /// module's tests, which use 2-page segments to cross boundaries.
    pub(crate) segment_pages: u32,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            enabled: false,
            fsync: FsyncMode::default(),
            segment_pages: SEGMENT_PAGES,
        }
    }
}

impl WalConfig {
    /// An enabled configuration with the given fsync mode.
    pub fn enabled(fsync: FsyncMode) -> Self {
        WalConfig {
            enabled: true,
            fsync,
            ..Default::default()
        }
    }
}

/// Pages per log segment (32 KiB at the 2 KiB page size).
const SEGMENT_PAGES: u32 = 16;

/// One logged byte range of a page: the LSN of the write that changed it,
/// the offset of its first byte and the bytes the write left there.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LoggedRange {
    pub(crate) lsn: u64,
    pub(crate) offset: u16,
    pub(crate) bytes: Vec<u8>,
}

impl LoggedRange {
    /// Redoes the write on `page`.
    pub(crate) fn apply(&self, page: &mut [u8; PAGE_SIZE]) {
        page[self.offset as usize..][..self.bytes.len()].copy_from_slice(&self.bytes);
    }
}

/// One recovered page: its id and its committed ranges, in LSN order.
pub(crate) type RecoveredPage = (PageId, Vec<LoggedRange>);

/// The smallest byte range covering every byte in which `before` and
/// `after` differ, `[first changed, last changed]`; `None` when the write
/// changed nothing. Compares 16-byte words from both ends, then bytes
/// within the first and last differing word.
pub(crate) fn changed_range(
    before: &[u8; PAGE_SIZE],
    after: &[u8; PAGE_SIZE],
) -> Option<Range<usize>> {
    const W: usize = 16;
    let (old, new) = (before.as_chunks::<W>().0, after.as_chunks::<W>().0);
    let first = old.iter().zip(new).position(|(a, b)| a != b)?;
    let last = old.iter().zip(new).rposition(|(a, b)| a != b)?;
    let lo = (0..W).position(|i| old[first][i] != new[first][i])?;
    let hi = (0..W).rposition(|i| old[last][i] != new[last][i])?;
    Some(first * W + lo..last * W + hi + 1)
}

/// Cumulative physical I/O and commit counters of the log device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Log-device write calls (each is one flush — one modeled fsync).
    pub log_write_calls: u64,
    /// Log pages written across those calls.
    pub log_pages_written: u64,
    /// Log-device read calls (recovery scans).
    pub log_read_calls: u64,
    /// Log pages read across those calls.
    pub log_pages_read: u64,
    /// Committed ops.
    pub commits: u64,
}

// ---------------------------------------------------------------------------
// On-device format (SNIPPETS.md multi-page storage spec)
// ---------------------------------------------------------------------------

/// Magic at byte 0 of every segment header.
const SEGMENT_MAGIC: [u8; 8] = *b"SFWAL001";
/// Format version in the segment header (2: page records are byte ranges).
const SEGMENT_VERSION: u32 = 2;
/// Segment header size: magic (8) + version (4) + PageRange start (4) +
/// PageRange num (4) + used bytes (4) + checksum (4).
const SEGMENT_HEADER_SIZE: usize = 28;

/// A contiguous run of log pages, as stored in a segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PageRange {
    /// First log page of the segment.
    start_page: u32,
    /// Pages in the segment.
    num_pages: u32,
}

/// Record kinds (the record layout is in the [module docs](self)).
const REC_RANGE: u8 = 1;
const REC_COMMIT: u8 = 2;
const REC_CHECKPOINT: u8 = 3;

/// Serializes one record into `out`, replacing what it held (the caller
/// reuses one buffer); `body` arrives in parts so the changed bytes are
/// copied once, straight into the record.
fn encode_record(out: &mut Vec<u8>, kind: u8, lsn: u64, body: &[&[u8]]) {
    let payload_len = 1 + 8 + body.iter().map(|part| part.len()).sum::<usize>() + 8;
    out.clear();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&lsn.to_le_bytes());
    for part in body {
        out.extend_from_slice(part);
    }
    let sum = fnv1a_bytes(&out[4..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A decoded log record.
#[derive(Debug)]
enum Record {
    Range {
        pid: PageId,
        range: LoggedRange,
    },
    Commit {
        lsn: u64,
    },
    /// The on-disk record carries the checkpoint LSN too; recovery only
    /// needs the marker (everything before it is already on the data disk).
    Checkpoint,
}

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        detail: detail.into(),
    }
}

fn decode_record(payload: &[u8]) -> Result<Record> {
    if payload.len() < 1 + 8 + 8 {
        return Err(corrupt("log record shorter than its fixed fields"));
    }
    let (data, sum_bytes) = payload.split_at(payload.len() - 8);
    let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a_bytes(data) != want {
        return Err(corrupt("log record checksum mismatch"));
    }
    let kind = data[0];
    let lsn = u64::from_le_bytes(data[1..9].try_into().expect("8 bytes"));
    let body = &data[9..];
    match kind {
        REC_RANGE => {
            if body.len() < 4 + 2 {
                return Err(corrupt("range record shorter than its page id and offset"));
            }
            let pid = PageId(u32::from_le_bytes(body[..4].try_into().expect("4 bytes")));
            let offset = u16::from_le_bytes(body[4..6].try_into().expect("2 bytes"));
            let bytes = &body[6..];
            if offset as usize + bytes.len() > PAGE_SIZE {
                return Err(corrupt(format!(
                    "range record of page {} runs past the page: offset {offset} + {} bytes",
                    pid.0,
                    bytes.len()
                )));
            }
            let range = LoggedRange {
                lsn,
                offset,
                bytes: bytes.to_vec(),
            };
            Ok(Record::Range { pid, range })
        }
        REC_COMMIT => Ok(Record::Commit { lsn }),
        REC_CHECKPOINT => Ok(Record::Checkpoint),
        other => Err(corrupt(format!("unknown log record kind {other}"))),
    }
}

// ---------------------------------------------------------------------------
// The log device
// ---------------------------------------------------------------------------

/// The simulated log device: segments of `segment_pages` pages, each with
/// a checksummed header and a byte stream of records. Content only reaches
/// the device at flush time, so device content ≡ durable log.
struct LogDevice {
    segment_pages: u32,
    pages: Vec<[u8; PAGE_SIZE]>,
    /// First page of the currently open segment.
    seg_start: u32,
    /// Record bytes appended to the open segment.
    seg_used: u32,
    /// Device pages touched since the last flush accounting.
    touched: Vec<u32>,
    stats: WalStats,
}

impl LogDevice {
    fn new(segment_pages: u32) -> Self {
        let mut d = LogDevice {
            segment_pages: segment_pages.max(2),
            pages: Vec::new(),
            seg_start: 0,
            seg_used: 0,
            touched: Vec::new(),
            stats: WalStats::default(),
        };
        d.open_segment();
        d
    }

    fn seg_capacity(&self) -> u32 {
        self.segment_pages * PAGE_SIZE as u32 - SEGMENT_HEADER_SIZE as u32
    }

    fn open_segment(&mut self) {
        self.seg_start = self.pages.len() as u32;
        self.seg_used = 0;
        self.pages.resize(
            self.pages.len() + self.segment_pages as usize,
            [0u8; PAGE_SIZE],
        );
        self.write_header();
    }

    /// Serializes the open segment's header (magic, version, `PageRange`,
    /// used bytes, checksum) into its first page.
    fn write_header(&mut self) {
        let mut h = [0u8; SEGMENT_HEADER_SIZE];
        h[..8].copy_from_slice(&SEGMENT_MAGIC);
        h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&self.seg_start.to_le_bytes());
        h[16..20].copy_from_slice(&self.segment_pages.to_le_bytes());
        h[20..24].copy_from_slice(&self.seg_used.to_le_bytes());
        let sum = (fnv1a_bytes(&h[..24]) & 0xFFFF_FFFF) as u32;
        h[24..28].copy_from_slice(&sum.to_le_bytes());
        self.pages[self.seg_start as usize][..SEGMENT_HEADER_SIZE].copy_from_slice(&h);
        self.touch(self.seg_start);
    }

    fn touch(&mut self, page: u32) {
        if !self.touched.contains(&page) {
            self.touched.push(page);
        }
    }

    /// The device address of record byte `off` of the segment starting at
    /// page `seg`: `(page, offset in page)`. The record stream sits behind
    /// the segment header — the one place that is spelled.
    fn locate(seg: u32, off: u32) -> (usize, usize) {
        let at = SEGMENT_HEADER_SIZE + off as usize;
        (seg as usize + at / PAGE_SIZE, at % PAGE_SIZE)
    }

    /// The page chunks holding record bytes `[off, off + len)` of segment
    /// `seg`, in order: `(page, in-page byte range)`.
    fn chunks(seg: u32, off: u32, len: u32) -> impl Iterator<Item = (usize, Range<usize>)> {
        let end = off + len;
        let mut off = off;
        std::iter::from_fn(move || {
            (off < end).then(|| {
                let (page, at) = Self::locate(seg, off);
                let n = (PAGE_SIZE - at).min((end - off) as usize);
                off += n as u32;
                (page, at..at + n)
            })
        })
    }

    /// Appends one encoded record to the open segment, sealing it and
    /// opening a new one when the record does not fit.
    fn append(&mut self, rec: &[u8]) {
        debug_assert!(
            rec.len() as u32 <= self.seg_capacity(),
            "record larger than a whole segment"
        );
        if self.seg_used + rec.len() as u32 > self.seg_capacity() {
            self.open_segment();
        }
        let mut rest = rec;
        for (page, span) in Self::chunks(self.seg_start, self.seg_used, rec.len() as u32) {
            let (head, tail) = rest.split_at(span.len());
            self.pages[page][span].copy_from_slice(head);
            self.touch(page as u32);
            rest = tail;
        }
        self.seg_used += rec.len() as u32;
        self.write_header();
    }

    /// Accounts one device write call ("fsync") covering every page
    /// touched since the previous flush. No-op when nothing was appended.
    fn flush(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        self.stats.log_write_calls += 1;
        self.stats.log_pages_written += self.touched.len() as u64;
        self.touched.clear();
    }

    /// Drops all log content and starts a fresh first segment (checkpoint
    /// truncation). Counters are cumulative and survive.
    fn truncate(&mut self) {
        self.pages.clear();
        self.touched.clear();
        self.open_segment();
    }

    /// Crash-test hook: tears `n` record bytes off the open (last)
    /// segment's tail — the device acknowledged only `seg_used - n` bytes,
    /// so the header's used count rewinds and the dropped bytes zero. A
    /// record cut by the tear survives partially and must read back as
    /// end-of-log, not corruption.
    fn truncate_tail(&mut self, n: u32) {
        let dropped = n.min(self.seg_used);
        self.seg_used -= dropped;
        for (page, span) in Self::chunks(self.seg_start, self.seg_used, dropped) {
            self.pages[page][span].fill(0);
        }
        self.write_header();
        self.touched.clear();
    }

    /// Reads every segment back (counted log I/O), validating headers, and
    /// returns the decoded records in append order.
    fn read_all(&mut self) -> Result<Vec<Record>> {
        let mut records = Vec::new();
        let mut seg = 0u32;
        while (seg as usize) < self.pages.len() {
            let head = &self.pages[seg as usize];
            if head[..8] != SEGMENT_MAGIC {
                return Err(corrupt(format!("log segment at page {seg}: bad magic")));
            }
            let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
            if version != SEGMENT_VERSION {
                return Err(corrupt(format!(
                    "log segment at page {seg}: version {version}, expected {SEGMENT_VERSION}"
                )));
            }
            let range = PageRange {
                start_page: u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")),
                num_pages: u32::from_le_bytes(head[16..20].try_into().expect("4 bytes")),
            };
            let used = u32::from_le_bytes(head[20..24].try_into().expect("4 bytes"));
            let sum = u32::from_le_bytes(head[24..28].try_into().expect("4 bytes"));
            if (fnv1a_bytes(&head[..24]) & 0xFFFF_FFFF) as u32 != sum {
                return Err(corrupt(format!(
                    "log segment at page {seg}: header checksum mismatch"
                )));
            }
            if range.start_page != seg || range.num_pages != self.segment_pages {
                return Err(corrupt(format!(
                    "log segment at page {seg}: header PageRange {}+{} does not match",
                    range.start_page, range.num_pages
                )));
            }
            // One read call per segment, sized to the pages the records
            // actually occupy.
            let used_pages = ((SEGMENT_HEADER_SIZE as u32 + used).div_ceil(PAGE_SIZE as u32))
                .clamp(1, self.segment_pages);
            self.stats.log_read_calls += 1;
            self.stats.log_pages_read += used_pages as u64;
            // Re-assemble the segment's record byte stream.
            let mut bytes = Vec::with_capacity(used as usize);
            for (page, span) in Self::chunks(seg, 0, used) {
                bytes.extend_from_slice(&self.pages[page][span]);
            }
            // Torn-tail tolerance applies only to the *last* segment: a
            // crash can tear the final record of the final flush, but any
            // damage with a later segment (or a later record — checked via
            // position below) after it is real corruption.
            let last_segment = (seg + self.segment_pages) as usize >= self.pages.len();
            let mut pos = 0usize;
            while pos + 4 <= bytes.len() {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                if len == 0 {
                    if last_segment {
                        break; // zeroed tail
                    }
                    // Below a sealed segment's used count every byte is
                    // record bytes, and no record's prefix is 0.
                    return Err(corrupt("zero-length log record in a sealed segment"));
                }
                if pos + 4 + len > bytes.len() {
                    if last_segment {
                        break; // torn final record: end of log, not an error
                    }
                    return Err(corrupt("log record runs past the segment's used bytes"));
                }
                match decode_record(&bytes[pos + 4..pos + 4 + len]) {
                    Ok(rec) => records.push(rec),
                    // A checksum/shape failure of the *positionally final*
                    // record of the last segment is a torn tail — the crash
                    // interrupted the flush mid-record. Anywhere else it is
                    // corruption of an already-acknowledged record.
                    Err(_) if last_segment && pos + 4 + len == bytes.len() => break,
                    Err(e) => return Err(e),
                }
                pos += 4 + len;
            }
            seg += self.segment_pages;
        }
        Ok(records)
    }
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

/// One thread's active (uncommitted) op: the ranges it changed, in write
/// order.
type OpBuffer = Vec<(PageId, LoggedRange)>;

/// Buffers into `op` the write stamped `lsn` that changed the `changed`
/// bytes of page `pid`, leaving the page `after`. `frame_lsn` is the LSN
/// the page carried before the write. When that is the LSN of the op's
/// last range, nobody has written the page since (LSNs are unique, and
/// every changing write stamps one) — a load filling a page record by
/// record — so that range's bytes still match the page: the write widens
/// and restamps it instead of adding one.
fn buffer_write(
    op: &mut OpBuffer,
    pid: PageId,
    lsn: u64,
    frame_lsn: u64,
    changed: Range<usize>,
    after: &[u8; PAGE_SIZE],
) {
    if let Some((_, last)) = op.last_mut().filter(|(_, last)| last.lsn == frame_lsn) {
        let (offset, end) = (
            last.offset as usize,
            last.offset as usize + last.bytes.len(),
        );
        if offset <= changed.start && changed.end <= end {
            // Inside the range (a record insert after the first): copy only
            // what changed, not the page again.
            last.bytes[changed.start - offset..][..changed.len()].copy_from_slice(&after[changed]);
        } else {
            let span = changed.start.min(offset)..changed.end.max(end);
            last.offset = span.start as u16;
            last.bytes.clear();
            last.bytes.extend_from_slice(&after[span]);
        }
        last.lsn = lsn;
        return;
    }
    let offset = changed.start as u16;
    let bytes = after[changed].to_vec();
    op.push((pid, LoggedRange { lsn, offset, bytes }));
}

/// One committed-but-possibly-not-yet-durable op in the pending queue.
struct PendingOp {
    commit_lsn: u64,
    ranges: OpBuffer,
}

struct WalState {
    device: LogDevice,
    /// Per-thread active op buffers.
    active: HashMap<ThreadId, OpBuffer>,
    /// Committed ops waiting for a leader to flush them.
    pending: Vec<PendingOp>,
    /// The one record buffer every append is encoded in.
    scratch: Vec<u8>,
    /// A group-commit leader is currently flushing.
    flushing: bool,
    /// Every commit LSN ≤ this is durable on the device.
    durable_lsn: u64,
    commits: u64,
}

/// The write-ahead log of one [`crate::SharedBufferPool`]. See the
/// [module docs](self).
pub(crate) struct Wal {
    config: WalConfig,
    state: Mutex<WalState>,
    /// Followers wait here for the leader's durable-LSN advance.
    cond: Condvar,
    next_lsn: AtomicU64,
}

impl Wal {
    pub(crate) fn new(config: WalConfig) -> Self {
        Wal {
            config,
            state: Mutex::new(WalState {
                device: LogDevice::new(config.segment_pages),
                active: HashMap::new(),
                pending: Vec::new(),
                scratch: Vec::new(),
                flushing: false,
                durable_lsn: 0,
                commits: 0,
            }),
            cond: Condvar::new(),
            next_lsn: AtomicU64::new(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalState> {
        // Recover from poisoning: WAL state is only mutated through
        // panic-free counter/queue updates, so a poisoned mutex means some
        // *caller* panicked — its op buffer is simply abandoned.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Logs the bytes of `pid` a write changed — `before` and `after` are
    /// the page around it, `frame_lsn` the LSN the frame carried before it
    /// — into the calling thread's op, returning the stamped LSN (recorded
    /// in the frame table by the caller). A write that changed nothing
    /// logs nothing and returns `None`. Called under a shard mutex — the
    /// WAL mutex is last in the lock order, so this composes deadlock-free;
    /// the compare runs before it is taken.
    pub(crate) fn note_page_write(
        &self,
        pid: PageId,
        frame_lsn: u64,
        before: &[u8; PAGE_SIZE],
        after: &[u8; PAGE_SIZE],
    ) -> Option<u64> {
        let changed = changed_range(before, after)?;
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        let mut st = self.lock();
        let op = st.active.entry(std::thread::current().id()).or_default();
        buffer_write(op, pid, lsn, frame_lsn, changed, after);
        Some(lsn)
    }

    /// Commits the calling thread's active op: moves its ranges into the
    /// pending queue and returns once they are durable on the log device.
    /// Under [`FsyncMode::Group`], one leader flushes the whole queue
    /// while followers wait — the group commit.
    pub(crate) fn commit(&self) -> Result<()> {
        let tid = std::thread::current().id();
        let mut st = self.lock();
        let Some(ranges) = st.active.remove(&tid).filter(|op| !op.is_empty()) else {
            return Ok(()); // nothing changed, or a checkpoint raced us
        };
        let commit_lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        st.pending.push(PendingOp { commit_lsn, ranges });
        st.commits += 1;
        match self.config.fsync {
            FsyncMode::PerCommit => {
                Self::flush_pending(&mut st);
                Ok(())
            }
            FsyncMode::Group => {
                loop {
                    if st.durable_lsn >= commit_lsn {
                        return Ok(());
                    }
                    if !st.flushing {
                        st.flushing = true;
                        drop(st);
                        // Batching window: give racing committers a chance
                        // to enqueue before the leader flushes for all.
                        std::thread::yield_now();
                        let mut st = self.lock();
                        Self::flush_pending(&mut st);
                        st.flushing = false;
                        drop(st);
                        self.cond.notify_all();
                        return Ok(());
                    }
                    st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Discards the calling thread's active op buffer (the op failed after
    /// buffering — its ranges must not leak into the next commit).
    pub(crate) fn abort(&self) {
        self.lock().active.remove(&std::thread::current().id());
    }

    /// Serializes every pending op into the device and flushes in one
    /// write call, advancing the durable LSN.
    fn flush_pending(st: &mut WalState) {
        if st.pending.is_empty() {
            return;
        }
        let WalState {
            device,
            pending,
            scratch,
            durable_lsn,
            ..
        } = st;
        for PendingOp { commit_lsn, ranges } in pending.drain(..) {
            for (pid, r) in &ranges {
                let body = [&pid.0.to_le_bytes()[..], &r.offset.to_le_bytes(), &r.bytes];
                encode_record(scratch, REC_RANGE, r.lsn, &body);
                device.append(scratch);
            }
            encode_record(scratch, REC_COMMIT, commit_lsn, &[]);
            device.append(scratch);
            *durable_lsn = (*durable_lsn).max(commit_lsn);
        }
        device.flush();
    }

    /// Checkpoint: everything logged so far is on the data disk (the
    /// caller flushed the pool under the writer gate), so the log
    /// truncates to a fresh segment holding one checkpoint record. Active
    /// buffers and pending ops are dropped — their effects are durable via
    /// the data-disk flush.
    pub(crate) fn checkpoint(&self) {
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        let mut st = self.lock();
        st.active.clear();
        st.pending.clear();
        st.durable_lsn = lsn;
        let WalState {
            device, scratch, ..
        } = &mut *st;
        device.truncate();
        encode_record(scratch, REC_CHECKPOINT, lsn, &[]);
        device.append(scratch);
        device.flush();
        drop(st);
        self.cond.notify_all();
    }

    /// Crash-test hook: tears `bytes` record bytes off the end of the
    /// durable log, as a crash that interrupted the final flush mid-record
    /// would. Recovery treats the torn record as end-of-log.
    #[doc(hidden)]
    pub(crate) fn truncate_log_tail(&self, bytes: u32) {
        self.lock().device.truncate_tail(bytes);
    }

    /// Simulated crash: volatile state (active op buffers, pending commits
    /// that never reached the device) is lost; durable device content
    /// survives untouched.
    pub(crate) fn crash(&self) {
        let mut st = self.lock();
        st.active.clear();
        st.pending.clear();
        st.flushing = false;
        drop(st);
        self.cond.notify_all();
    }

    /// Recovery scan: re-reads the whole surviving log (counted log I/O),
    /// validates it, and returns every committed range past the last
    /// checkpoint, grouped per page in ascending `PageId` order and, within
    /// a page, in **LSN order** — the order the writes happened in, which
    /// is not the commit order when two ops on one page committed the
    /// other way round. Ranges count only once their op's commit marker is
    /// seen; a trailing run of ranges with no commit record (a torn final
    /// flush) is ignored, not an error.
    pub(crate) fn recovered_ranges(&self) -> Result<Vec<RecoveredPage>> {
        let records = self.lock().device.read_all()?;
        let mut pages: BTreeMap<PageId, Vec<LoggedRange>> = BTreeMap::new();
        let mut staged: Vec<(PageId, LoggedRange)> = Vec::new();
        for rec in records {
            match rec {
                Record::Checkpoint => {
                    pages.clear();
                    staged.clear();
                }
                Record::Range { pid, range } => staged.push((pid, range)),
                Record::Commit { lsn } => {
                    for (pid, range) in staged.drain(..) {
                        if range.lsn >= lsn {
                            return Err(corrupt(format!(
                                "range lsn {} not covered by commit lsn {lsn}",
                                range.lsn
                            )));
                        }
                        pages.entry(pid).or_default().push(range);
                    }
                }
            }
        }
        Ok(pages
            .into_iter()
            .map(|(pid, mut ranges)| {
                ranges.sort_unstable_by_key(|r| r.lsn);
                (pid, ranges)
            })
            .collect())
    }

    pub(crate) fn stats(&self) -> WalStats {
        let st = self.lock();
        let mut s = st.device.stats;
        s.commits = st.commits;
        s
    }

    pub(crate) fn reset_stats(&self) {
        let mut st = self.lock();
        st.device.stats = WalStats::default();
        st.commits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

    fn image(b: u8) -> [u8; PAGE_SIZE] {
        [b; PAGE_SIZE]
    }

    /// Logs a write that turns zeroed page `pid` into `image(b)`: a
    /// whole-page range.
    fn write_image(wal: &Wal, pid: u32, b: u8) -> u64 {
        wal.note_page_write(PageId(pid), 0, &ZERO, &image(b))
            .expect("a write that changes the page is logged")
    }

    /// Every recovered page rebuilt from a zeroed base — what recovery
    /// makes of pages the data disk never received.
    fn replayed(wal: &Wal) -> Result<Vec<(PageId, [u8; PAGE_SIZE])>> {
        let pages = wal.recovered_ranges()?;
        Ok((pages.into_iter())
            .map(|(pid, ranges)| {
                let mut page = ZERO;
                ranges.iter().for_each(|range| range.apply(&mut page));
                (pid, page)
            })
            .collect())
    }

    /// One encoded record.
    fn record(kind: u8, lsn: u64, body: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&mut out, kind, lsn, body);
        out
    }

    #[test]
    fn commit_makes_images_recoverable() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        let l1 = write_image(&wal, 3, 7);
        let l2 = write_image(&wal, 1, 9);
        assert!(l2 > l1);
        wal.commit().unwrap();
        let got = replayed(&wal).unwrap();
        assert_eq!(got, vec![(PageId(1), image(9)), (PageId(3), image(7))]);
    }

    #[test]
    fn uncommitted_and_aborted_ops_never_surface() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.abort();
        write_image(&wal, 2, 2);
        wal.crash(); // volatile buffer lost
        assert!(wal.recovered_ranges().unwrap().is_empty());
    }

    #[test]
    fn last_image_per_page_wins_within_and_across_ops() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::Group));
        let lsn = write_image(&wal, 5, 1);
        let lsn = wal.note_page_write(PageId(5), lsn, &image(1), &image(2)); // same op
        wal.commit().unwrap();
        let mut third = image(2);
        third[100..200].fill(3);
        wal.note_page_write(PageId(5), lsn.unwrap(), &image(2), &third);
        wal.commit().unwrap();
        let got = replayed(&wal).unwrap();
        assert_eq!(got, vec![(PageId(5), third)]);
        // The op's two writes of page 5 coalesced into one range; the next
        // op's is applied after it, in LSN order.
        let ranges = &wal.recovered_ranges().unwrap()[0].1;
        assert_eq!(ranges.len(), 2, "one range per op");
        assert_eq!((ranges[1].offset, ranges[1].bytes.len()), (100, 100));
        assert!(ranges[0].lsn < ranges[1].lsn);
    }

    #[test]
    fn consecutive_writes_of_a_page_widen_one_range() {
        // Page 5 written at 100..110, at 50..60 (the range widens to
        // 50..110) and at 70..80 (inside it: patched in place) — one range,
        // stamped with the last LSN. Then page 6, then page 5 again: its
        // frame LSN is no longer the op's last range's, so that write is a
        // range of its own; so is one over a frame that was re-read from
        // disk (LSN 0).
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        let filled = |p: &[u8; PAGE_SIZE], at: Range<usize>, b: u8| {
            let mut next = *p;
            next[at].fill(b);
            next
        };
        let p1 = filled(&ZERO, 100..110, 1);
        let p2 = filled(&p1, 50..60, 2);
        let p3 = filled(&p2, 70..80, 3);
        let p4 = filled(&p3, 0..1, 4);
        let p5 = filled(&p4, 2047..2048, 5);
        let l1 = wal.note_page_write(PageId(5), 0, &ZERO, &p1).unwrap();
        let l2 = wal.note_page_write(PageId(5), l1, &p1, &p2).unwrap();
        let l3 = wal.note_page_write(PageId(5), l2, &p2, &p3).unwrap();
        wal.note_page_write(PageId(6), 0, &ZERO, &image(6)).unwrap();
        let l4 = wal.note_page_write(PageId(5), l3, &p3, &p4).unwrap();
        let l5 = wal.note_page_write(PageId(5), 0, &p4, &p5).unwrap();
        wal.commit().unwrap();
        let range = |lsn, offset: u16, bytes: &[u8]| LoggedRange {
            lsn,
            offset,
            bytes: bytes.to_vec(),
        };
        let want = vec![
            range(l3, 50, &p3[50..110]),
            range(l4, 0, &[4]),
            range(l5, 2047, &[5]),
        ];
        assert_eq!(wal.recovered_ranges().unwrap()[0], (PageId(5), want));
        assert_eq!(replayed(&wal).unwrap()[0], (PageId(5), p5));
    }

    #[test]
    fn checkpoint_truncates_the_tail() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        wal.checkpoint();
        assert!(wal.recovered_ranges().unwrap().is_empty());
        write_image(&wal, 1, 4);
        wal.commit().unwrap();
        let got = replayed(&wal).unwrap();
        assert_eq!(got, vec![(PageId(1), image(4))]);
    }

    #[test]
    fn records_span_segment_boundaries() {
        // 2-page segments: one whole-page range (~2 KiB + framing) per
        // segment, so three commits force at least two segment rollovers.
        let config = WalConfig {
            enabled: true,
            fsync: FsyncMode::PerCommit,
            segment_pages: 2,
        };
        let wal = Wal::new(config);
        for i in 0..3u8 {
            write_image(&wal, i as u32, i + 1);
            wal.commit().unwrap();
        }
        let got = replayed(&wal).unwrap();
        assert_eq!(got.len(), 3);
        for (i, (pid, img)) in got.iter().enumerate() {
            assert_eq!(*pid, PageId(i as u32));
            assert_eq!(*img, image(i as u8 + 1));
        }
        let s = wal.stats();
        assert!(s.log_read_calls >= 2, "multiple segments scanned: {s:?}");
    }

    #[test]
    fn changed_range_is_first_to_last_changed_byte() {
        // Every (first, last) pair around the 16-byte word edges, plus the
        // page's two ends: the compare finds exactly the bytes changed.
        let edges = [0, 1, 14, 15, 16, 17, 31, 32, 1000, 2031, 2032, 2046, 2047];
        for &a in &edges {
            for &b in edges.iter().filter(|&&b| b >= a) {
                let mut after = ZERO;
                after[a] = 1;
                after[b] = 2;
                assert_eq!(changed_range(&ZERO, &after), Some(a..b + 1), "{a}..={b}");
            }
        }
        assert_eq!(changed_range(&image(7), &image(7)), None);
        assert_eq!(changed_range(&ZERO, &image(7)), Some(0..PAGE_SIZE));
    }

    #[test]
    fn a_write_logs_exactly_the_bytes_it_changed() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        let before = image(5);
        let mut after = before;
        after[300..420].fill(9);
        after[350] = 5; // unchanged inside the range: still inside it
        let lsn = wal.note_page_write(PageId(4), 0, &before, &after).unwrap();
        wal.commit().unwrap();
        let got = wal.recovered_ranges().unwrap();
        let want = LoggedRange {
            lsn,
            offset: 300,
            bytes: after[300..420].to_vec(),
        };
        assert_eq!(got, vec![(PageId(4), vec![want])]);
        // Applied over the page it was computed from, it rebuilds the write.
        let mut page = before;
        got[0].1[0].apply(&mut page);
        assert_eq!(page, after);
    }

    #[test]
    fn a_write_that_changes_nothing_logs_nothing() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        let page = image(6);
        assert_eq!(
            wal.note_page_write(PageId(2), 0, &page, &page),
            None,
            "no LSN"
        );
        wal.commit().unwrap();
        let s = wal.stats();
        assert_eq!(s.commits, 0, "an op that changed nothing commits nothing");
        assert_eq!(s.log_write_calls, 0, "and flushes nothing");
        assert!(wal.recovered_ranges().unwrap().is_empty());
    }

    #[test]
    fn ops_that_commit_against_lsn_order_recover_in_lsn_order() {
        // A writer unlatches before it commits, so a second op on the same
        // page can commit first. Byte 15..20 is written by both: the later
        // write (higher LSN) must win, whatever the commit order was.
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        let mut first = ZERO;
        first[10..20].fill(1);
        let mut second = first;
        second[15..25].fill(2);
        let early = wal.note_page_write(PageId(0), 0, &ZERO, &first).unwrap();
        let late = std::thread::scope(|s| {
            s.spawn(|| {
                let lsn = wal
                    .note_page_write(PageId(0), early, &first, &second)
                    .unwrap();
                wal.commit().unwrap();
                lsn
            })
            .join()
            .unwrap()
        });
        wal.commit().unwrap();
        assert!(early < late);
        let got = wal.recovered_ranges().unwrap();
        let lsns: Vec<u64> = got[0].1.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, [early, late], "LSN order, not commit order");
        assert_eq!(replayed(&wal).unwrap(), vec![(PageId(0), second)]);
    }

    #[test]
    fn a_range_past_its_page_is_corrupt() {
        let body = |offset: u16, len: usize| {
            record(
                REC_RANGE,
                1,
                &[&7u32.to_le_bytes(), &offset.to_le_bytes(), &vec![1; len]],
            )
        };
        // The last byte of the page is in bounds; one more is not.
        assert!(decode_record(&body(2040, 8)[4..]).is_ok());
        for (offset, len) in [(2040, 9), (0, PAGE_SIZE + 1), (u16::MAX, 1)] {
            let err = decode_record(&body(offset, len)[4..]).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt { detail } if detail.contains("runs past")),
                "offset {offset} len {len}: {err}"
            );
        }
    }

    #[test]
    fn a_version_1_segment_is_corrupt_and_named() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        {
            // A well-formed header in every field but the version.
            let mut st = wal.lock();
            let head = &mut st.device.pages[0];
            head[8..12].copy_from_slice(&1u32.to_le_bytes());
            let sum = (fnv1a_bytes(&head[..24]) & 0xFFFF_FFFF) as u32;
            head[24..28].copy_from_slice(&sum.to_le_bytes());
        }
        let err = wal.recovered_ranges().unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail } if detail.contains("version 1")),
            "{err}"
        );
    }

    #[test]
    fn flush_accounting_counts_calls_and_pages() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        let s = wal.stats();
        assert_eq!(s.log_write_calls, 1, "one commit = one flush");
        assert!(s.log_pages_written >= 1);
        assert_eq!(s.commits, 1);
        wal.reset_stats();
        assert_eq!(wal.stats(), WalStats::default());
    }

    #[test]
    fn corrupted_record_is_detected() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        {
            // Flip a byte inside the first record's payload.
            let mut st = wal.lock();
            let p = st.device.seg_start as usize;
            st.device.pages[p][SEGMENT_HEADER_SIZE + 20] ^= 0xFF;
        }
        let err = wal.recovered_ranges().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    /// Two-page segments: one whole-page range record plus its commit fill
    /// a segment, so every commit after the first seals one.
    fn two_page_segments() -> WalConfig {
        WalConfig {
            enabled: true,
            fsync: FsyncMode::PerCommit,
            segment_pages: 2,
        }
    }

    #[test]
    fn damaged_length_prefix_in_a_sealed_segment_is_corruption() {
        for byte in 0..4 {
            let wal = Wal::new(two_page_segments());
            for i in 0..3u8 {
                write_image(&wal, i as u32, i + 1);
                wal.commit().unwrap();
            }
            {
                let mut st = wal.lock();
                assert!(st.device.seg_start > 0, "segment 0 must be sealed");
                let (page, at) = LogDevice::locate(0, byte);
                st.device.pages[page][at] ^= 0xFF;
            }
            let err = wal.recovered_ranges().unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "byte {byte}: {err}"
            );
        }
    }

    #[test]
    fn length_prefix_damaged_to_zero_in_a_sealed_segment_is_corruption() {
        // A prefix that reads 0 looks like a zeroed tail, but a sealed
        // segment has none below its used count: the commit record behind
        // it must not vanish without an error.
        let wal = Wal::new(two_page_segments());
        for i in 0..3u8 {
            write_image(&wal, i as u32, i + 1);
            wal.commit().unwrap();
        }
        assert_eq!(wal.lock().device.read_all().unwrap().len(), 6);
        {
            let mut st = wal.lock();
            assert!(st.device.seg_start > 0, "segment 0 must be sealed");
            // Segment 0 holds one whole-page range record, then its commit.
            let commit_at = record(REC_RANGE, 0, &[&[0; 4], &[0; 2], &image(0)]).len() as u32;
            let (page, at) = LogDevice::locate(0, commit_at);
            assert_eq!(st.device.pages[page][at..at + 4], [0x11, 0, 0, 0]);
            st.device.pages[page][at] ^= 0x11;
        }
        let err = wal.recovered_ranges().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn damaged_length_prefix_in_the_last_segment_never_surfaces_its_record() {
        // Two ops in one segment; the damage hits the length prefix of the
        // second op's range record. The prefix is outside the record
        // checksum, so what recovery sees is a mis-framed record: one that
        // runs past the used bytes (end of log) or one whose checksum fails
        // (corruption). Either way page 1 — the range it could not verify —
        // never comes back.
        let build = |ops: u8| {
            let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
            for i in 0..ops {
                write_image(&wal, i as u32, i + 1);
                wal.commit().unwrap();
            }
            wal
        };
        let second_image_at = build(1).lock().device.seg_used;
        for byte in 0..4u32 {
            for mask in [0xFFu8, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80] {
                let wal = build(2);
                {
                    let mut st = wal.lock();
                    let (page, at) = LogDevice::locate(st.device.seg_start, second_image_at + byte);
                    st.device.pages[page][at] ^= mask;
                }
                match replayed(&wal) {
                    Ok(got) => {
                        let want = vec![(PageId(0), image(1))];
                        assert_eq!(got, want, "byte {byte} mask {mask:#x}");
                    }
                    Err(err) => {
                        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
                        assert_ne!(mask, 0xFF, "an over-long record is end of log");
                    }
                }
            }
        }
    }

    #[test]
    fn locate_at_the_edges() {
        // Byte 0 of the record stream sits behind the 28-byte header.
        assert_eq!(LogDevice::locate(0, 0), (0, SEGMENT_HEADER_SIZE));
        assert_eq!(LogDevice::locate(6, 0), (6, SEGMENT_HEADER_SIZE));
        // Last byte of a page, first byte of the next.
        let page_end = (PAGE_SIZE - SEGMENT_HEADER_SIZE) as u32;
        assert_eq!(LogDevice::locate(0, page_end - 1), (0, PAGE_SIZE - 1));
        assert_eq!(LogDevice::locate(0, page_end), (1, 0));
        // Last byte of a segment.
        let d = LogDevice::new(2);
        assert_eq!(
            LogDevice::locate(4, d.seg_capacity() - 1),
            (5, PAGE_SIZE - 1)
        );
        // Chunks tile a range exactly, one per page.
        let chunks: Vec<_> = LogDevice::chunks(4, page_end - 3, 5).collect();
        assert_eq!(
            chunks,
            vec![(4, PAGE_SIZE - 3..PAGE_SIZE), (5, 0..2)],
            "a range across a page boundary"
        );
        assert_eq!(LogDevice::chunks(4, 7, 0).count(), 0);
        assert_eq!(
            LogDevice::chunks(0, 0, d.seg_capacity()).collect::<Vec<_>>(),
            vec![(0, SEGMENT_HEADER_SIZE..PAGE_SIZE), (1, 0..PAGE_SIZE)]
        );
    }

    /// The oracle for the chunked `append`: a per-byte writer that finds
    /// its place by walking a `(page, offset)` cursor from the segment's
    /// first byte — no address arithmetic shared with `locate`.
    fn append_per_byte(d: &mut LogDevice, rec: &[u8]) {
        if d.seg_used + rec.len() as u32 > d.seg_capacity() {
            d.open_segment();
        }
        let (mut page, mut at) = (d.seg_start, 0);
        let skip = SEGMENT_HEADER_SIZE + d.seg_used as usize;
        for i in 0..skip + rec.len() {
            if i >= skip {
                d.pages[page as usize][at] = rec[i - skip];
                d.touch(page);
            }
            at += 1;
            if at == PAGE_SIZE {
                (page, at) = (page + 1, 0);
            }
        }
        d.seg_used += rec.len() as u32;
        d.write_header();
    }

    /// A valid (commit-kind) record of exactly `len` encoded bytes.
    fn record_of(len: usize, lsn: u64) -> Vec<u8> {
        let pad = vec![lsn as u8; len - record(REC_COMMIT, lsn, &[]).len()];
        let rec = record(REC_COMMIT, lsn, &[&pad]);
        assert_eq!(rec.len(), len);
        rec
    }

    #[test]
    fn chunked_append_writes_the_bytes_the_per_byte_writer_wrote() {
        let min = record(REC_COMMIT, 0, &[]).len();
        let capacity = LogDevice::new(2).seg_capacity() as usize;
        // A filler record of `fill` bytes puts the next record at in-page
        // offset (28 + fill) mod PAGE_SIZE: this range reaches all of them.
        let fills = std::iter::once(0).chain(min..min + PAGE_SIZE);
        for fill in fills {
            for size in [1, 2047, 2048, 2061, capacity] {
                let (mut recs, mut want_lsns) = (Vec::new(), Vec::new());
                if fill > 0 {
                    recs.push(record_of(fill, 1));
                    want_lsns.push(1);
                }
                if size >= min {
                    recs.push(record_of(size, 2));
                    want_lsns.push(2);
                } else {
                    // One byte is no record; it still has to land where
                    // the oracle puts it.
                    recs.push(vec![0xAB; size]);
                }
                let (mut got, mut want) = (LogDevice::new(2), LogDevice::new(2));
                for rec in &recs {
                    got.append(rec);
                    append_per_byte(&mut want, rec);
                }
                assert_eq!(got.pages, want.pages, "fill {fill} size {size}");
                assert_eq!(got.touched, want.touched, "fill {fill} size {size}");
                assert_eq!(
                    (got.seg_start, got.seg_used),
                    (want.seg_start, want.seg_used)
                );
                let lsns: Vec<u64> = got
                    .read_all()
                    .unwrap_or_else(|e| panic!("fill {fill} size {size}: {e}"))
                    .iter()
                    .map(|rec| match rec {
                        Record::Commit { lsn } => *lsn,
                        other => panic!("unexpected record {other:?}"),
                    })
                    .collect();
                assert_eq!(lsns, want_lsns, "fill {fill} size {size}");
            }
        }
    }

    #[test]
    fn torn_final_record_reads_as_end_of_log() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        write_image(&wal, 1, 2);
        wal.commit().unwrap();
        // Tear into the second op's commit record: its range stays
        // staged-but-uncommitted, the first op survives intact.
        wal.truncate_log_tail(10);
        let got = replayed(&wal).unwrap();
        assert_eq!(got, vec![(PageId(0), image(1))]);
    }

    #[test]
    fn corrupt_final_record_is_torn_tail_not_error() {
        let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
        write_image(&wal, 0, 1);
        wal.commit().unwrap();
        {
            // Flip a byte inside the positionally final (commit) record —
            // a flush the crash cut mid-record, with the length prefix
            // already down.
            let mut st = wal.lock();
            let (page, at) = LogDevice::locate(st.device.seg_start, st.device.seg_used - 2);
            st.device.pages[page][at] ^= 0xFF;
        }
        let got = wal.recovered_ranges().unwrap();
        assert!(got.is_empty(), "torn commit must not surface its op");
    }

    #[test]
    fn torn_tolerance_is_limited_to_the_last_segment() {
        // Corruption at the end of a *non-last* segment is real corruption:
        // later segments prove the log continued past it.
        let config = WalConfig {
            enabled: true,
            fsync: FsyncMode::PerCommit,
            segment_pages: 2,
        };
        let wal = Wal::new(config);
        for i in 0..3u8 {
            write_image(&wal, i as u32, i + 1);
            wal.commit().unwrap();
        }
        {
            let mut st = wal.lock();
            assert!(st.device.pages.len() > 4, "expected multiple segments");
            let used = u32::from_le_bytes(st.device.pages[0][20..24].try_into().unwrap());
            let (page, at) = LogDevice::locate(0, used - 2);
            st.device.pages[page][at] ^= 0xFF;
        }
        let err = wal.recovered_ranges().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn any_tail_truncation_yields_a_committed_prefix() {
        let build = || {
            let wal = Wal::new(WalConfig::enabled(FsyncMode::PerCommit));
            for i in 0..3u32 {
                write_image(&wal, i, i as u8 + 1);
                wal.commit().unwrap();
            }
            wal
        };
        let full = build().lock().device.seg_used;
        for cut in 0..=full {
            let wal = build();
            wal.truncate_log_tail(cut);
            let got = replayed(&wal).unwrap_or_else(|e| panic!("cut {cut}: recovery errored: {e}"));
            // Whatever survives is a prefix of the commit order, never an
            // error and never an uncommitted or reordered write.
            assert!(got.len() <= 3, "cut {cut}");
            for (i, (pid, img)) in got.iter().enumerate() {
                assert_eq!(*pid, PageId(i as u32), "cut {cut}");
                assert_eq!(*img, image(i as u8 + 1), "cut {cut}");
            }
        }
    }

    #[test]
    fn group_commit_amortizes_flushes_across_threads() {
        use std::sync::Arc;
        let wal = Arc::new(Wal::new(WalConfig::enabled(FsyncMode::Group)));
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    write_image(&wal, i, i as u8 + 1);
                    wal.commit().unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.commits, 8);
        // Scheduling decides the exact batching, but a flush can never
        // outnumber the commits, and all 8 writes must be recoverable.
        assert!(s.log_write_calls <= 8);
        assert_eq!(wal.recovered_ranges().unwrap().len(), 8);
    }
}
