use std::ops::Sub;

/// Physical-disk I/O counters (the paper's `X_IO_calls` and `X_IO_pages`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read calls issued (each transfers ≥ 1 contiguous pages).
    pub read_calls: u64,
    /// Total pages transferred by read calls.
    pub pages_read: u64,
    /// Number of write calls issued.
    pub write_calls: u64,
    /// Total pages transferred by write calls.
    pub pages_written: u64,
}

/// Buffer-manager counters (the paper's Table 6 "page fixes in buffer",
/// used as an indicator of CPU load).
///
/// The `latch_*` fields are **additive observability counters** introduced
/// with the concurrent write path: group-latch acquisitions are counted by
/// every pool flavour (the exclusive [`crate::BufferPool`] counts them as
/// bookkeeping-only no-ops, the sharded [`crate::SharedBufferPool`] counts
/// real acquisitions), so the same storage-layer code produces the same
/// latch totals on either pool. `latch_waits` counts blocked acquisitions
/// and is inherently scheduling-dependent: it is zero for any single-client
/// run and may vary run-to-run under contention.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page fixes: every page access through the buffer, hit or miss.
    pub fixes: u64,
    /// Fixes satisfied from the cache.
    pub hits: u64,
    /// Fixes that required a physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that were dirty (each costs a physical write).
    pub dirty_evictions: u64,
    /// Pages acquired under shared (read) group latches.
    pub latch_shared: u64,
    /// Pages acquired under exclusive (write) group latches.
    pub latch_exclusive: u64,
    /// Times an access or latch acquisition had to wait for a conflicting
    /// latch (or for writer quiescence at flush). Scheduling-dependent.
    pub latch_waits: u64,
    /// Page accesses recorded by the heat tracker. Zero whenever heat
    /// tracking is disabled, so pre-placement measurements are
    /// byte-identical.
    pub heat_records: u64,
    /// Heat-counter decay sweeps performed (zero with tracking off).
    pub heat_decays: u64,
}

impl BufferStats {
    /// Field-wise accumulation (used when merging shard or node counters).
    pub fn accumulate(&mut self, s: &BufferStats) {
        self.fixes += s.fixes;
        self.hits += s.hits;
        self.misses += s.misses;
        self.evictions += s.evictions;
        self.dirty_evictions += s.dirty_evictions;
        self.latch_shared += s.latch_shared;
        self.latch_exclusive += s.latch_exclusive;
        self.latch_waits += s.latch_waits;
        self.heat_records += s.heat_records;
        self.heat_decays += s.heat_decays;
    }
}

/// A combined snapshot of disk and buffer counters.
///
/// Take a snapshot before and after a query and subtract to get the query's
/// logical measurement, e.g. `after - before`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Read calls issued.
    pub read_calls: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Write calls issued.
    pub write_calls: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Buffer fixes.
    pub fixes: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses.
    pub misses: u64,
    /// Pages acquired under shared group latches (see [`BufferStats`]).
    pub latch_shared: u64,
    /// Pages acquired under exclusive group latches.
    pub latch_exclusive: u64,
    /// Latch-contention waits (scheduling-dependent; zero single-client).
    pub latch_waits: u64,
    /// Log-device write calls (each is one flush — one modeled fsync).
    /// Zero whenever the WAL is disabled, so pre-WAL measurements are
    /// byte-identical.
    pub log_write_calls: u64,
    /// Log pages written.
    pub log_pages_written: u64,
    /// Log-device read calls (recovery scans).
    pub log_read_calls: u64,
    /// Log pages read.
    pub log_pages_read: u64,
    /// Committed (durably logged) update ops.
    pub commits: u64,
    /// Physical read calls issued by the batched I/O engine's drain path.
    /// Zero whenever batching is disabled, so paper measurements are
    /// byte-identical.
    pub batched_read_calls: u64,
    /// Pages transferred by engine read calls that merged ≥ 2 queued
    /// requests into one multi-page run (the coalescing win; zero with
    /// batching off).
    pub coalesced_pages: u64,
    /// High-water mark of the engine's submission queue (requests queued at
    /// once; zero with batching off). Scheduling-dependent under
    /// contention, like `latch_waits`.
    pub max_queue_depth: u64,
    /// Page accesses recorded by the heat tracker (zero with tracking off,
    /// so paper measurements are byte-identical).
    pub heat_records: u64,
    /// Heat-counter decay sweeps performed (zero with tracking off).
    pub heat_decays: u64,
}

impl IoSnapshot {
    /// Combines raw disk and buffer counters. The `log_*`/`commits` and
    /// I/O-engine fields start at zero; the shared pool overlays its WAL
    /// and engine counters.
    pub fn combine(disk: DiskStats, buf: BufferStats) -> IoSnapshot {
        IoSnapshot {
            read_calls: disk.read_calls,
            pages_read: disk.pages_read,
            write_calls: disk.write_calls,
            pages_written: disk.pages_written,
            fixes: buf.fixes,
            hits: buf.hits,
            misses: buf.misses,
            latch_shared: buf.latch_shared,
            latch_exclusive: buf.latch_exclusive,
            latch_waits: buf.latch_waits,
            heat_records: buf.heat_records,
            heat_decays: buf.heat_decays,
            ..Default::default()
        }
    }

    /// Total pages transferred (read + written) — the paper's headline
    /// `X_IO_pages` metric counts page *reads and writes* per query.
    pub fn pages_io(&self) -> u64 {
        self.pages_read + self.pages_written
    }

    /// Total I/O calls (read + write) — the paper's `X_IO_calls`.
    pub fn io_calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Field-wise accumulation (used when folding per-node snapshots into a
    /// cluster total). Every counter adds; `max_queue_depth` is a high-water
    /// mark, so the fold keeps the maximum across nodes instead of summing.
    pub fn accumulate(&mut self, s: &IoSnapshot) {
        self.read_calls += s.read_calls;
        self.pages_read += s.pages_read;
        self.write_calls += s.write_calls;
        self.pages_written += s.pages_written;
        self.fixes += s.fixes;
        self.hits += s.hits;
        self.misses += s.misses;
        self.latch_shared += s.latch_shared;
        self.latch_exclusive += s.latch_exclusive;
        self.latch_waits += s.latch_waits;
        self.log_write_calls += s.log_write_calls;
        self.log_pages_written += s.log_pages_written;
        self.log_read_calls += s.log_read_calls;
        self.log_pages_read += s.log_pages_read;
        self.commits += s.commits;
        self.batched_read_calls += s.batched_read_calls;
        self.coalesced_pages += s.coalesced_pages;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
        self.heat_records += s.heat_records;
        self.heat_decays += s.heat_decays;
    }
}

impl Sub for IoSnapshot {
    type Output = IoSnapshot;

    /// Saturating per-field delta: a snapshot taken *across* a
    /// [`reset_stats`](crate::PageCache::reset_stats) has a "before" that
    /// is larger than the "after", and raw `u64` subtraction would panic in
    /// debug builds. Counters clamp to zero instead — a delta can never be
    /// negative.
    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_calls: self.read_calls.saturating_sub(rhs.read_calls),
            pages_read: self.pages_read.saturating_sub(rhs.pages_read),
            write_calls: self.write_calls.saturating_sub(rhs.write_calls),
            pages_written: self.pages_written.saturating_sub(rhs.pages_written),
            fixes: self.fixes.saturating_sub(rhs.fixes),
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            latch_shared: self.latch_shared.saturating_sub(rhs.latch_shared),
            latch_exclusive: self.latch_exclusive.saturating_sub(rhs.latch_exclusive),
            latch_waits: self.latch_waits.saturating_sub(rhs.latch_waits),
            log_write_calls: self.log_write_calls.saturating_sub(rhs.log_write_calls),
            log_pages_written: self.log_pages_written.saturating_sub(rhs.log_pages_written),
            log_read_calls: self.log_read_calls.saturating_sub(rhs.log_read_calls),
            log_pages_read: self.log_pages_read.saturating_sub(rhs.log_pages_read),
            commits: self.commits.saturating_sub(rhs.commits),
            batched_read_calls: self
                .batched_read_calls
                .saturating_sub(rhs.batched_read_calls),
            coalesced_pages: self.coalesced_pages.saturating_sub(rhs.coalesced_pages),
            // A high-water mark is not additive; deltas clamp like the rest
            // so `after - before` stays well-defined.
            max_queue_depth: self.max_queue_depth.saturating_sub(rhs.max_queue_depth),
            heat_records: self.heat_records.saturating_sub(rhs.heat_records),
            heat_decays: self.heat_decays.saturating_sub(rhs.heat_decays),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_totals() {
        let before = IoSnapshot {
            read_calls: 10,
            pages_read: 25,
            write_calls: 2,
            pages_written: 8,
            fixes: 100,
            hits: 80,
            misses: 20,
            ..Default::default()
        };
        let after = IoSnapshot {
            read_calls: 15,
            pages_read: 40,
            write_calls: 3,
            pages_written: 10,
            fixes: 160,
            hits: 130,
            misses: 30,
            latch_shared: 4,
            latch_exclusive: 2,
            latch_waits: 1,
            log_write_calls: 2,
            log_pages_written: 3,
            commits: 2,
            ..Default::default()
        };
        let d = after - before;
        assert_eq!(d.read_calls, 5);
        assert_eq!(d.log_write_calls, 2);
        assert_eq!(d.log_pages_written, 3);
        assert_eq!(d.commits, 2);
        assert_eq!(d.latch_shared, 4);
        assert_eq!(d.latch_exclusive, 2);
        assert_eq!(d.latch_waits, 1);
        assert_eq!(d.pages_read, 15);
        assert_eq!(d.pages_io(), 17);
        assert_eq!(d.io_calls(), 6);
        assert_eq!(d.fixes, 60);
    }

    /// Regression: a snapshot delta taken across a `reset_stats` must not
    /// underflow (the raw subtraction panicked in debug builds when the
    /// "before" snapshot predated the reset).
    #[test]
    fn delta_across_reset_saturates_instead_of_underflowing() {
        let before = IoSnapshot {
            read_calls: 10,
            pages_read: 25,
            write_calls: 2,
            pages_written: 8,
            fixes: 100,
            hits: 80,
            misses: 20,
            ..Default::default()
        };
        // Counters were reset, then a little work happened.
        let after = IoSnapshot {
            read_calls: 1,
            pages_read: 1,
            fixes: 1,
            misses: 1,
            ..Default::default()
        };
        let d = after - before;
        assert_eq!(d.read_calls, 0);
        assert_eq!(d.pages_read, 0);
        assert_eq!(d.write_calls, 0);
        assert_eq!(d.pages_written, 0);
        assert_eq!(d.fixes, 0);
        assert_eq!(d.hits, 0);
        assert_eq!(d.misses, 0);
        assert_eq!(d.pages_io(), 0);
        assert_eq!(d.io_calls(), 0);
    }

    /// Cluster folds add every counter but keep the *maximum* queue-depth
    /// high-water mark — queue depths on different nodes never stack.
    #[test]
    fn accumulate_adds_counters_and_maxes_queue_depth() {
        let mut total = IoSnapshot {
            read_calls: 3,
            fixes: 10,
            commits: 1,
            batched_read_calls: 2,
            coalesced_pages: 4,
            max_queue_depth: 5,
            ..Default::default()
        };
        total.accumulate(&IoSnapshot {
            read_calls: 2,
            fixes: 7,
            commits: 2,
            batched_read_calls: 1,
            coalesced_pages: 3,
            max_queue_depth: 3,
            ..Default::default()
        });
        assert_eq!(total.read_calls, 5);
        assert_eq!(total.fixes, 17);
        assert_eq!(total.commits, 3);
        assert_eq!(total.batched_read_calls, 3);
        assert_eq!(total.coalesced_pages, 7);
        assert_eq!(total.max_queue_depth, 5, "high-water keeps the max");
    }
}
