//! The traced run's records: spans at the `workload → core` boundary,
//! aggregated timers at the `core → pagestore` boundary (10^5–10^6 calls
//! per repetition, too many for spans), and the timer calibration.
//!
//! Everything here is recorded from the benchmark's own decorators
//! (`adapter::TracedStore`, `adapter::TracedPool`) and client loops; the
//! program under test carries no tracing of its own yet.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One call across a layer boundary. The repetition (serial) or request
/// (closed loop) is the root span (`parent == 0`); the store calls it
/// caused name it as their parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub workload: &'static str,
    pub model: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count, busy time and a log2 latency histogram of one operation.
#[derive(Clone, Debug)]
pub struct OpTimer {
    pub count: u64,
    pub busy_ns: u64,
    /// Bucket `i` counts calls of `2^i ..= 2^(i+1) - 1` ns (bucket 0 also
    /// holds 0 ns).
    pub hist: [u64; 40],
}

impl Default for OpTimer {
    fn default() -> Self {
        OpTimer {
            count: 0,
            busy_ns: 0,
            hist: [0; 40],
        }
    }
}

impl OpTimer {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.busy_ns += ns;
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(39);
        self.hist[bucket] += 1;
    }

    pub fn add(&mut self, other: &OpTimer) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }
}

/// The store operations a span can name, in `SpanLog::ops` order.
pub const STORE_OPS: [&str; 8] = [
    "children_of",
    "root_records",
    "get_by_key",
    "get_by_oid",
    "scan_all",
    "update_roots",
    "flush",
    "clear_cache",
];

/// Spans and per-operation totals of one traced cell.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    pub workload: &'static str,
    pub model: &'static str,
    pub thread: u32,
    /// Spans of the current (last) repetition or of the last requests.
    pub spans: Vec<Span>,
    /// Totals over every traced repetition, indexed like [`STORE_OPS`].
    pub ops: [OpTimer; 8],
    next_id: u64,
    /// Id and index in `spans` of the open root span.
    root: Option<(u64, usize)>,
}

impl SpanLog {
    pub fn new(workload: &'static str, model: &'static str, thread: u32) -> SpanLog {
        SpanLog {
            workload,
            model,
            thread,
            // Ids are unique across threads of a cell: the thread number
            // sits in the high bits.
            next_id: ((thread as u64) << 40) + 1,
            ..Default::default()
        }
    }

    fn push(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            workload: self.workload,
            model: self.model,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a root span (a repetition or a request); store calls recorded
    /// until [`close_root`](Self::close_root) become its children.
    pub fn open_root(&mut self, name: &'static str, start_ns: u64) {
        let idx = self.spans.len();
        self.root = Some((self.push(0, name, start_ns, start_ns), idx));
    }

    pub fn close_root(&mut self, end_ns: u64) {
        if let Some((_, idx)) = self.root.take() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Records one store call as a child of the open root.
    pub fn record_op(&mut self, op: usize, start_ns: u64, end_ns: u64) {
        self.ops[op].record(end_ns.saturating_sub(start_ns));
        let parent = self.root.map_or(0, |(id, _)| id);
        self.push(parent, STORE_OPS[op], start_ns, end_ns);
    }
}

/// Aggregated timers of the pool decorator. `fix`/`fix_mut` hold the whole
/// `with_page*` call; `closure_ns` is the part spent inside the closures
/// the storage layer passed in (slot lookup and decode under the fix), so
/// the pool's own busy time is `fix + fix_mut − closure`.
#[derive(Clone, Debug, Default)]
pub struct PoolTimers {
    pub fix: OpTimer,
    pub fix_mut: OpTimer,
    pub closure_ns: u64,
    pub prefetch: OpTimer,
    pub flush: OpTimer,
    pub clear: OpTimer,
    pub pool_write: OpTimer,
    pub latch: OpTimer,
}

impl PoolTimers {
    /// Whole time inside the pool decorator, closures included.
    pub fn total_ns(&self) -> u64 {
        self.fix.busy_ns
            + self.fix_mut.busy_ns
            + self.prefetch.busy_ns
            + self.flush.busy_ns
            + self.clear.busy_ns
            + self.pool_write.busy_ns
            + self.latch.busy_ns
    }
}

/// Calibrated cost of one `now_ns()` pair, in ns: the median of batches.
pub fn timer_pair_ns() -> f64 {
    let mut per_pair = Vec::with_capacity(32);
    for _ in 0..32 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..1000 {
            let a = now_ns();
            let b = now_ns();
            acc = acc.wrapping_add(b - a);
        }
        std::hint::black_box(acc);
        per_pair.push(t0.elapsed().as_nanos() as f64 / 1000.0);
    }
    crate::stats::median(&per_pair)
}

/// Writes the spans as a JSON array, one object per span.
pub fn write_trace_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"model\":\"{}\",\
             \"thread\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.name, s.workload, s.model, s.thread, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_timer_buckets_by_log2() {
        let mut t = OpTimer::default();
        t.record(0);
        t.record(1);
        t.record(1024);
        assert_eq!((t.count, t.busy_ns), (3, 1025));
        assert_eq!((t.hist[0], t.hist[10]), (2, 1));
    }

    #[test]
    fn children_name_their_root() {
        let mut log = SpanLog::new("w", "m", 1);
        log.open_root("repetition", 10);
        log.record_op(0, 11, 15);
        log.close_root(20);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].parent, 0);
        assert_eq!(log.spans[0].end_ns, 20);
        assert_eq!(log.spans[1].parent, log.spans[0].id);
        assert_eq!(log.ops[0].busy_ns, 4);
    }
}
