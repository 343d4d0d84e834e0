//! The one file that touches the program under test.
//!
//! Every call into the `starfish-*` crates goes through here: dataset
//! generation, store construction, `Executor::run*`, the `shared_*` calls,
//! `IoSnapshot` field reads, the probe fixtures and the two tracing
//! decorators. When ROADMAP item 2 removes `BufferPool` or the `&mut`
//! surface, this is the file that follows; no workload or metric is
//! redefined.
//!
//! Public items of the program used here (nothing else is):
//!
//! * `starfish_workload`: `generate`, `DatasetParams`, `Executor::{new, run,
//!   run_concurrent, run_cluster, run_stream}`, `WorkloadSpec::{hot_set,
//!   q2b, q1c, q1b, q3b, mixed, drift_sudden}` and its `ops` field,
//!   `Op::{Loop, PickSkewed}`, `Count::Fixed`, `Drift`, `MixKind::ReadOnly`,
//!   `PlanOutcome`, `PlanRun`, `ClusterRun`, `MixedRun`;
//! * `starfish_core`: `ModelKind`, `ObjRef`, `RootPatch`, `StoreConfig`
//!   (`with_buffer_pages`, `wal`, `io_engine`, `heat`, `buffer`),
//!   `make_store`, `make_shared_store`, `ComplexObjectStore` (all methods),
//!   `ConcurrentObjectStore::{shared_children_of, shared_root_records,
//!   shared_update_roots, shared_flush, simulate_crash, recover,
//!   shard_stats}`, `DirectStore::with_pool`, `NsmStore::with_pool`,
//!   `DasdbsNsmStore::with_pool`, `PartitionedStore::{with_shards,
//!   node_checksums, node_snapshots}`, `Placement::RoundRobin`,
//!   `ReorgReport`, `PlacementStats`, `RelationInfo`, `CoreError`;
//! * `starfish_pagestore`: `PageCache` (implemented by `TracedPool`),
//!   `BufferPool` (through `BufferConfig::{with_pages, build}`), `SharedPoolHandle`,
//!   `SimDisk::{new, alloc_extent, read_run, write_run}`, `IoSnapshot`
//!   (fields and `accumulate`), `BufferStats`, `LatchMode`, `PageId`,
//!   `PolicyKind`, `StoreError`, `WalConfig::enabled`, `FsyncMode`,
//!   `IoEngineConfig::enabled`, `HeatConfig::enabled`, `PAGE_SIZE`;
//! * `starfish_nf2`: `encode`, `encode_with_layout`, `decode`,
//!   `decode_projected`, `station::{Station, station_schema,
//!   proj_root_record}`, `Tuple`, `Value`, `Key`, `Oid`, `Projection`;
//! * `starfish_cost`: `CostWeights::sun_3_60_era`.

use crate::trace::{now_ns, PoolTimers, SpanLog};
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, ConcurrentObjectStore, CoreError,
    DasdbsNsmStore, DirectStore, NsmStore, PartitionedStore, Placement, PlacementStats,
    RelationInfo, ReorgReport, RootPatch, StoreConfig,
};
use starfish_cost::CostWeights;
use starfish_nf2::station::{proj_root_record, station_schema, Station};
use starfish_nf2::{Key, Oid, Projection, Tuple, Value};
use starfish_pagestore::{
    BufferConfig, BufferStats, FsyncMode, HeatConfig, IoEngineConfig, IoSnapshot, LatchMode,
    PageCache, PageId, PolicyKind, SharedPoolHandle, SimDisk, StoreError, WalConfig, PAGE_SIZE,
};
use starfish_workload::{
    generate, Count, DatasetParams, Drift, Executor, MixKind, Op, PlanOutcome, WorkloadSpec,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

pub use starfish_core::{ModelKind, ObjRef};

/// Errors of the program under test, as text (the benchmark only reports
/// them).
pub type Result<T> = std::result::Result<T, String>;

fn text(e: CoreError) -> String {
    e.to_string()
}

/// Bytes per physical page.
pub const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// The metric-name spelling of a model (`units_per_s.<label>`).
pub fn model_label(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Dsm => "dsm",
        ModelKind::DasdbsDsm => "dasdbs_dsm",
        ModelKind::Nsm => "nsm",
        ModelKind::NsmIndexed => "nsm_index",
        ModelKind::DasdbsNsm => "dasdbs_nsm",
    }
}

/// All five models, in the paper's order.
pub fn all_models() -> Vec<ModelKind> {
    ModelKind::all().to_vec()
}

/// The four models with an address path (everything but pure NSM, which
/// answers every request with whole-relation scans).
pub fn addressable_models() -> Vec<ModelKind> {
    ModelKind::all()
        .into_iter()
        .filter(|k| *k != ModelKind::Nsm)
        .collect()
}

/// Ordinal of an object (OIDs are dense load ordinals).
pub fn ordinal(r: ObjRef) -> usize {
    r.oid.0 as usize
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

/// The generated database plus the seed the pick sequences derive from.
pub struct Dataset {
    stations: Vec<Station>,
    pub pick_seed: u64,
}

impl Dataset {
    /// The paper's database (1500 objects) from the benchmark seed: the
    /// default `--seed 1993` is `HarnessConfig::default()` (dataset seed
    /// 4242, pick seed 1993, so `nav-update` lands on table 4's 3b column);
    /// any other seed `S` picks with `S` over dataset `S + 2249`.
    pub fn generate(seed: u64, n_objects: usize) -> Dataset {
        let dataset_seed = if seed == 1993 {
            4242
        } else {
            seed.wrapping_add(2249)
        };
        Dataset {
            stations: generate(&DatasetParams {
                n_objects,
                seed: dataset_seed,
                ..Default::default()
            }),
            pick_seed: seed,
        }
    }

    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// The first `n` stations, for fixtures that never navigate (their
    /// references still point into the whole database).
    pub fn head(&self, n: usize) -> Dataset {
        Dataset {
            stations: self.stations[..n.min(self.stations.len())].to_vec(),
            pick_seed: self.pick_seed,
        }
    }

    /// The name object `ord` was loaded with.
    pub fn original_name(&self, ord: usize) -> &str {
        &self.stations[ord].name
    }

    /// Σ `nf2::encode` length of the stations: the user bytes `space_amp`
    /// divides by.
    pub fn user_bytes(&self) -> u64 {
        let schema = station_schema();
        self.stations
            .iter()
            .map(|s| {
                starfish_nf2::encode(&s.to_tuple(), &schema)
                    .expect("generated stations encode")
                    .len() as u64
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// An `IoSnapshot` behind the reads the metrics need.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts(IoSnapshot);

impl Counts {
    /// The paper's `X_IO_pages`: read + written, data and log devices.
    pub fn pages(&self) -> u64 {
        self.0.pages_io() + self.0.log_pages_written + self.0.log_pages_read
    }

    /// The paper's `X_IO_calls`, data and log devices.
    pub fn io_calls(&self) -> u64 {
        self.0.io_calls() + self.0.log_write_calls + self.0.log_read_calls
    }

    /// Equation 1's device time with the Sun 3/60-era disk terms only
    /// (30 ms per call + 2 ms per page), in ms.
    pub fn device_ms(&self) -> f64 {
        let w = CostWeights::sun_3_60_era();
        w.ms_per_io_call * self.io_calls() as f64 + w.ms_per_page * self.pages() as f64
    }

    pub fn fixes(&self) -> u64 {
        self.0.fixes
    }
    pub fn misses(&self) -> u64 {
        self.0.misses
    }
    pub fn read_calls(&self) -> u64 {
        self.0.read_calls
    }
    pub fn pages_read(&self) -> u64 {
        self.0.pages_read
    }
    pub fn latch_waits(&self) -> u64 {
        self.0.latch_waits
    }
    pub fn latch_exclusive(&self) -> u64 {
        self.0.latch_exclusive
    }
    pub fn commits(&self) -> u64 {
        self.0.commits
    }
    pub fn log_write_calls(&self) -> u64 {
        self.0.log_write_calls
    }
    pub fn log_pages_written(&self) -> u64 {
        self.0.log_pages_written
    }
    pub fn coalesced_pages(&self) -> u64 {
        self.0.coalesced_pages
    }
    pub fn max_queue_depth(&self) -> u64 {
        self.0.max_queue_depth
    }

    pub fn add(&mut self, other: &Counts) {
        self.0.accumulate(&other.0);
    }

    /// Counter delta `self − before`.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts(self.0 - before.0)
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// An access plan of the program's IR.
pub struct Spec(WorkloadSpec);

impl Spec {
    fn fixed(mut spec: WorkloadSpec, units: u64) -> Spec {
        match spec.ops.first_mut() {
            Some(Op::Loop { count, .. }) => *count = Count::Fixed(units),
            _ => panic!("{}: expected a top-level loop", spec.name),
        }
        Spec(spec)
    }

    /// The `hot_set` body (90 % of roots from a 16-object hot window, 2 hops
    /// and the root records) for `units` loops, the window moving on by its
    /// own width every `window_loops` loops.
    pub fn hot_set(units: u64, window_loops: u64) -> Spec {
        let mut spec = WorkloadSpec::hot_set();
        match spec.ops.first_mut() {
            Some(Op::Loop { body, .. }) => match body.first_mut() {
                Some(Op::PickSkewed { hot, drift, .. }) => {
                    *drift = Some(Drift {
                        shift: *hot,
                        period: window_loops,
                    });
                }
                _ => panic!("{}: expected a skewed pick first", spec.name),
            },
            _ => panic!("{}: expected a top-level loop", spec.name),
        }
        Spec::fixed(spec, units)
    }
    /// Query 2b's body (uniform roots) with a fixed loop count.
    pub fn q2b(units: u64) -> Spec {
        Spec::fixed(WorkloadSpec::q2b(), units)
    }
    pub fn q1c() -> Spec {
        Spec(WorkloadSpec::q1c())
    }
    pub fn q1b() -> Spec {
        Spec(WorkloadSpec::q1b())
    }
    /// Exactly the paper's query 3b (objects/5 loops).
    pub fn q3b() -> Spec {
        Spec(WorkloadSpec::q3b())
    }
    pub fn mixed_read_only() -> Spec {
        Spec(WorkloadSpec::mixed(MixKind::ReadOnly))
    }
    pub fn drift_sudden() -> Spec {
        Spec(WorkloadSpec::drift_sudden())
    }
}

/// What one plan run reported.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub counts: Counts,
    pub units: u64,
    pub nav_seen: Vec<u64>,
    pub scanned: u64,
    pub updates_applied: u64,
}

fn run_result(outcome: PlanOutcome) -> Result<RunResult> {
    match outcome {
        PlanOutcome::Measured(r) => Ok(RunResult {
            counts: Counts(r.snapshot),
            units: r.units,
            nav_seen: r.nav_seen,
            scanned: r.scanned,
            updates_applied: r.updates_applied,
        }),
        PlanOutcome::Unsupported => Err("the model does not support an op of the plan".into()),
    }
}

// ---------------------------------------------------------------------------
// The two decorators
// ---------------------------------------------------------------------------

/// `PageCache` by delegation, timing every call into aggregates. The
/// closure handed to `with_page*` is timed separately: it is the storage
/// layer's work under the fix, the pool's child in the span tree.
pub struct TracedPool<P: PageCache> {
    inner: P,
    timers: Rc<RefCell<PoolTimers>>,
}

macro_rules! timed {
    ($self:ident, $field:ident, $call:expr) => {{
        let t0 = now_ns();
        let r = $call;
        let dt = now_ns() - t0;
        $self.timers.borrow_mut().$field.record(dt);
        r
    }};
}

impl<P: PageCache> PageCache for TracedPool<P> {
    fn with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> std::result::Result<R, StoreError> {
        let mut inside = 0;
        let t0 = now_ns();
        let r = self.inner.with_page(pid, |page| {
            let c0 = now_ns();
            let r = f(page);
            inside = now_ns() - c0;
            r
        });
        let dt = now_ns() - t0;
        let mut t = self.timers.borrow_mut();
        t.fix.record(dt);
        t.closure_ns += inside;
        r
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> std::result::Result<R, StoreError> {
        let mut inside = 0;
        let t0 = now_ns();
        let r = self.inner.with_page_mut(pid, |page| {
            let c0 = now_ns();
            let r = f(page);
            inside = now_ns() - c0;
            r
        });
        let dt = now_ns() - t0;
        let mut t = self.timers.borrow_mut();
        t.fix_mut.record(dt);
        t.closure_ns += inside;
        r
    }

    fn prefetch_run(&mut self, first: PageId, n: u32) -> std::result::Result<(), StoreError> {
        timed!(self, prefetch, self.inner.prefetch_run(first, n))
    }
    fn pin(&mut self, pid: PageId) -> std::result::Result<(), StoreError> {
        self.inner.pin(pid)
    }
    fn unpin(&mut self, pid: PageId) -> bool {
        self.inner.unpin(pid)
    }
    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.inner.alloc_extent(n)
    }
    fn write_pool_pages(&mut self, first: PageId, n: u32) -> std::result::Result<(), StoreError> {
        timed!(self, pool_write, self.inner.write_pool_pages(first, n))
    }
    fn flush_all(&mut self) -> std::result::Result<(), StoreError> {
        timed!(self, flush, self.inner.flush_all())
    }
    fn clear_cache(&mut self) -> std::result::Result<(), StoreError> {
        timed!(self, clear, self.inner.clear_cache())
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn is_cached(&self, pid: PageId) -> bool {
        self.inner.is_cached(pid)
    }
    fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }
    fn buffer_stats(&self) -> BufferStats {
        self.inner.buffer_stats()
    }
    fn database_pages(&self) -> u32 {
        self.inner.database_pages()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn policy_kind(&self) -> PolicyKind {
        self.inner.policy_kind()
    }
    fn latch_pages(
        &mut self,
        pids: &[PageId],
        mode: LatchMode,
    ) -> std::result::Result<(), StoreError> {
        timed!(self, latch, self.inner.latch_pages(pids, mode))
    }
    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode) {
        self.inner.unlatch_pages(pids, mode)
    }
    fn disk_checksum(&self) -> u64 {
        self.inner.disk_checksum()
    }
    fn log_commit(&mut self) -> std::result::Result<(), StoreError> {
        self.inner.log_commit()
    }
    fn log_abort(&mut self) {
        self.inner.log_abort()
    }
    fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.inner.page_heat()
    }
}

/// `ComplexObjectStore` by delegation, recording one span per call that
/// crosses the `workload → core` boundary.
struct TracedStore {
    inner: Box<dyn ComplexObjectStore>,
    log: Rc<RefCell<SpanLog>>,
}

macro_rules! span {
    ($self:ident, $op:expr, $call:expr) => {{
        let t0 = now_ns();
        let r = $call;
        let t1 = now_ns();
        $self.log.borrow_mut().record_op($op, t0, t1);
        r
    }};
}

impl ComplexObjectStore for TracedStore {
    fn model(&self) -> ModelKind {
        self.inner.model()
    }
    fn load(&mut self, stations: &[Station]) -> starfish_core::Result<Vec<ObjRef>> {
        self.inner.load(stations)
    }
    fn object_count(&self) -> usize {
        self.inner.object_count()
    }
    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> starfish_core::Result<Tuple> {
        span!(self, 3, self.inner.get_by_oid(oid, proj))
    }
    fn get_by_key(&mut self, key: Key, proj: &Projection) -> starfish_core::Result<Tuple> {
        span!(self, 2, self.inner.get_by_key(key, proj))
    }
    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> starfish_core::Result<()> {
        span!(self, 4, self.inner.scan_all(f))
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> starfish_core::Result<Vec<ObjRef>> {
        span!(self, 0, self.inner.children_of(refs))
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> starfish_core::Result<Vec<Tuple>> {
        span!(self, 1, self.inner.root_records(refs))
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> starfish_core::Result<()> {
        span!(self, 5, self.inner.update_roots(refs, patch))
    }
    fn flush(&mut self) -> starfish_core::Result<()> {
        span!(self, 6, self.inner.flush())
    }
    fn clear_cache(&mut self) -> starfish_core::Result<()> {
        span!(self, 7, self.inner.clear_cache())
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }
    fn buffer_stats(&self) -> BufferStats {
        self.inner.buffer_stats()
    }
    fn relation_info(&self) -> Vec<RelationInfo> {
        self.inner.relation_info()
    }
    fn database_pages(&self) -> u32 {
        self.inner.database_pages()
    }
    fn disk_checksum(&self) -> u64 {
        self.inner.disk_checksum()
    }
    fn placement_stats(&mut self) -> starfish_core::Result<PlacementStats> {
        self.inner.placement_stats()
    }
    fn reorganize(&mut self) -> starfish_core::Result<ReorgReport> {
        self.inner.reorganize()
    }
}

// ---------------------------------------------------------------------------
// Serial stores (the `&mut` surface behind `Executor::run`)
// ---------------------------------------------------------------------------

/// The traced side of a serial store: what its two decorators recorded.
#[derive(Clone)]
pub struct SerialTrace {
    pub spans: Rc<RefCell<SpanLog>>,
    pub pool: Rc<RefCell<PoolTimers>>,
}

/// A store on the exclusive surface plus the executor that drives it.
pub struct SerialStore {
    store: Box<dyn ComplexObjectStore>,
    exec: Option<Executor>,
    pub trace: Option<SerialTrace>,
}

/// What one reorganization pass cost.
pub struct Reorg {
    pub pages_rewritten: u64,
}

impl SerialStore {
    /// `make_store(kind, pages)`, optionally with page heat tracked.
    pub fn build(kind: ModelKind, pages: usize, heat: bool) -> SerialStore {
        SerialStore {
            store: make_store(kind, serial_config(pages, heat)),
            exec: None,
            trace: None,
        }
    }

    /// The same store with both decorators on: a `TracedPool` under the
    /// model (via its `with_pool` constructor) and a `TracedStore` over it.
    pub fn build_traced(kind: ModelKind, pages: usize, workload: &'static str) -> SerialStore {
        let config = serial_config(pages, false);
        let timers = Rc::new(RefCell::new(PoolTimers::default()));
        let pool = TracedPool {
            inner: config.buffer.build(SimDisk::new()),
            timers: timers.clone(),
        };
        let inner: Box<dyn ComplexObjectStore> = match kind {
            ModelKind::Dsm => Box::new(DirectStore::with_pool(false, &config, pool)),
            ModelKind::DasdbsDsm => Box::new(DirectStore::with_pool(true, &config, pool)),
            ModelKind::Nsm => Box::new(NsmStore::with_pool(false, &config, pool)),
            ModelKind::NsmIndexed => Box::new(NsmStore::with_pool(true, &config, pool)),
            ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::with_pool(&config, pool)),
        };
        let spans = Rc::new(RefCell::new(SpanLog::new(workload, model_label(kind), 0)));
        SerialStore {
            store: Box::new(TracedStore {
                inner,
                log: spans.clone(),
            }),
            exec: None,
            trace: Some(SerialTrace {
                spans,
                pool: timers,
            }),
        }
    }

    pub fn load(&mut self, data: &Dataset) -> Result<()> {
        let refs = self.store.load(&data.stations).map_err(text)?;
        self.exec = Some(Executor::new(refs, data.pick_seed));
        Ok(())
    }

    /// `Executor::run`: cold start, the plan, the disconnect flush.
    pub fn run(&mut self, spec: &Spec) -> Result<RunResult> {
        let exec = self.exec.as_ref().ok_or("store not loaded")?;
        run_result(exec.run(self.store.as_mut(), &spec.0).map_err(text)?)
    }

    pub fn database_pages(&self) -> u64 {
        self.store.database_pages() as u64
    }

    /// One adaptive-placement pass.
    pub fn reorganize(&mut self) -> Result<Reorg> {
        let r = self.store.reorganize().map_err(text)?;
        Ok(Reorg {
            pages_rewritten: r.pages_written,
        })
    }
}

fn serial_config(pages: usize, heat: bool) -> StoreConfig {
    let config = StoreConfig::with_buffer_pages(pages);
    if heat {
        config.heat(HeatConfig::enabled())
    } else {
        config
    }
}

// ---------------------------------------------------------------------------
// Shared stores (the `&self` surface the closed loops call)
// ---------------------------------------------------------------------------

/// WAL flush discipline of a shared store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wal {
    Off,
    /// Leader-elected group commit.
    Group,
    /// One log flush per commit.
    PerCommit,
}

/// Root records as the store returned them.
pub struct Records(Vec<Tuple>);

impl Records {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `Name` of each record, in request order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|t| match t.values.get(3) {
            Some(Value::Str(s)) => s.as_str(),
            _ => "",
        })
    }

    /// Order-sensitive digest of the atomic root attributes (key,
    /// counters, name) of every record.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h = (h ^ x).wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        };
        for t in &self.0 {
            for v in t.values.iter().take(4) {
                match v {
                    Value::Int(i) => mix(*i as u32 as u64),
                    Value::Str(s) => {
                        let mut chunks = s.as_bytes().chunks_exact(8);
                        for c in &mut chunks {
                            mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                        }
                        for b in chunks.remainder() {
                            mix(*b as u64);
                        }
                        mix(s.len() as u64);
                    }
                    Value::Link(o) => mix(o.0 as u64),
                    Value::Rel(_) => {}
                }
            }
        }
        h
    }
}

/// A store on the shared surface plus its executor.
pub struct SharedStore {
    store: Box<dyn ConcurrentObjectStore>,
    exec: Option<Executor>,
}

impl SharedStore {
    /// `make_shared_store(kind, pages, shards)` with the WAL and the
    /// batched I/O engine as asked (both off in every workload but
    /// `update-durable`).
    pub fn build(kind: ModelKind, pages: usize, shards: usize, wal: Wal, engine: bool) -> Self {
        let mut config = StoreConfig::with_buffer_pages(pages);
        config = match wal {
            Wal::Off => config,
            Wal::Group => config.wal(WalConfig::enabled(FsyncMode::Group)),
            Wal::PerCommit => config.wal(WalConfig::enabled(FsyncMode::PerCommit)),
        };
        if engine {
            config = config.io_engine(IoEngineConfig::enabled());
        }
        SharedStore {
            store: make_shared_store(kind, config, shards),
            exec: None,
        }
    }

    pub fn load(&mut self, data: &Dataset) -> Result<()> {
        let refs = self.store.load(&data.stations).map_err(text)?;
        self.exec = Some(Executor::new(refs, data.pick_seed));
        Ok(())
    }

    fn exec(&self) -> &Executor {
        self.exec.as_ref().expect("store loaded before use")
    }

    /// The loaded objects, in OID order.
    pub fn refs(&self) -> &[ObjRef] {
        self.exec().refs()
    }

    pub fn children_of(&self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.store.shared_children_of(refs).map_err(text)
    }
    pub fn root_records(&self, refs: &[ObjRef]) -> Result<Records> {
        self.store
            .shared_root_records(refs)
            .map(Records)
            .map_err(text)
    }
    pub fn update_roots(&self, refs: &[ObjRef], new_name: &str) -> Result<()> {
        let patch = RootPatch {
            new_name: new_name.to_string(),
        };
        self.store.shared_update_roots(refs, &patch).map_err(text)
    }
    /// Checkpoint: flush the deferred pages and truncate the log.
    pub fn flush(&self) -> Result<()> {
        self.store.shared_flush().map_err(text)
    }
    pub fn simulate_crash(&self) {
        self.store.simulate_crash()
    }
    /// Replays the durable log; returns the pages replayed.
    pub fn recover(&self) -> Result<usize> {
        self.store.recover().map_err(text)
    }
    /// Running counters (never reset by the closed loops).
    pub fn counts(&self) -> Counts {
        Counts(self.store.snapshot())
    }
    /// Buffer fixes per pool shard.
    pub fn shard_fixes(&self) -> Vec<u64> {
        self.store.shard_stats().iter().map(|s| s.fixes).collect()
    }
    pub fn database_pages(&self) -> u64 {
        self.store.database_pages() as u64
    }

    /// `Executor::run_concurrent`, the whole call.
    pub fn run_concurrent(&mut self, spec: &Spec, threads: usize) -> Result<RunResult> {
        let exec = self.exec.as_ref().ok_or("store not loaded")?;
        let run = exec
            .run_concurrent(self.store.as_mut(), &spec.0, threads)
            .map_err(text)?;
        run_result(run.outcome)
    }

    /// `Executor::run_stream`: requests served and the serving wall.
    pub fn run_stream(&mut self, spec: &Spec, threads: usize) -> Result<(u64, Duration)> {
        let exec = self.exec.as_ref().ok_or("store not loaded")?;
        let run = exec
            .run_stream(self.store.as_mut(), &spec.0, threads)
            .map_err(text)?;
        Ok((run.requests, run.elapsed))
    }
}

// ---------------------------------------------------------------------------
// The routed cluster
// ---------------------------------------------------------------------------

/// A `PartitionedStore` (round-robin placement) plus its executor.
pub struct Cluster {
    store: PartitionedStore,
    exec: Option<Executor>,
}

impl Cluster {
    pub fn build(kind: ModelKind, nodes: usize, pages_per_node: usize, shards: usize) -> Cluster {
        Cluster {
            store: PartitionedStore::with_shards(
                kind,
                nodes,
                Placement::RoundRobin,
                StoreConfig::with_buffer_pages(pages_per_node),
                shards,
            ),
            exec: None,
        }
    }

    pub fn load(&mut self, data: &Dataset) -> Result<()> {
        let refs = self.store.load(&data.stations).map_err(text)?;
        self.exec = Some(Executor::new(refs, data.pick_seed));
        Ok(())
    }

    /// `Executor::run_cluster`: the run plus the largest per-node queue
    /// high-water mark.
    pub fn run_routed(
        &mut self,
        spec: &Spec,
        clients: usize,
        workers_per_node: usize,
    ) -> Result<(RunResult, u64)> {
        let exec = self.exec.as_ref().ok_or("cluster not loaded")?;
        let run = exec
            .run_cluster(&mut self.store, &spec.0, clients, workers_per_node)
            .map_err(text)?;
        let high_water = run.queue_high_water.iter().copied().max().unwrap_or(0);
        Ok((run_result(run.run.outcome)?, high_water))
    }

    /// The same plan driven serially over the cluster's `&mut` surface
    /// (the oracle the routed runs are compared with).
    pub fn run_serial(&mut self, spec: &Spec) -> Result<RunResult> {
        let exec = self.exec.as_ref().ok_or("cluster not loaded")?;
        run_result(exec.run(&mut self.store, &spec.0).map_err(text)?)
    }

    /// Per-node on-disk fingerprints.
    pub fn node_checksums(&self) -> Vec<u64> {
        self.store.node_checksums()
    }

    /// Buffer fixes per node since the last counter reset.
    pub fn node_fixes(&self) -> Vec<u64> {
        self.store
            .node_snapshots()
            .iter()
            .map(|s| s.fixes)
            .collect()
    }

    pub fn database_pages(&self) -> u64 {
        self.store.database_pages() as u64
    }
}

// ---------------------------------------------------------------------------
// Probe fixtures: each returns a closure doing one batch of the probed
// operation and returning how many operations that was.
// ---------------------------------------------------------------------------

/// A batch of a probed operation.
pub type Batch = Box<dyn FnMut() -> u64 + Send>;

const PROBE_PAGES: u32 = 256;

fn probe_disk(pages: u32) -> SimDisk {
    let mut disk = SimDisk::new();
    disk.alloc_extent(pages);
    disk
}

/// Resident `with_page` on the exclusive `BufferPool`.
pub fn probe_buffer_hit() -> Batch {
    let mut pool =
        BufferConfig::with_pages(2 * PROBE_PAGES as usize).build(probe_disk(PROBE_PAGES));
    for p in 0..PROBE_PAGES {
        pool.with_page(PageId(p), |_| ()).expect("page in extent");
    }
    Box::new(move || {
        let mut acc = 0u64;
        for p in 0..PROBE_PAGES {
            acc += pool
                .with_page(PageId(p), |page| page[0] as u64)
                .expect("page in extent");
        }
        std::hint::black_box(acc);
        PROBE_PAGES as u64
    })
}

/// Resident `with_page` on a `SharedBufferPool` of `shards` shards; one
/// batch closure per client thread over the same pool.
pub fn probe_shared_hit(shards: usize, clients: usize) -> Vec<Batch> {
    let handle = SharedPoolHandle::new(BufferConfig::with_pages(4 * PROBE_PAGES as usize), shards);
    handle.pool().alloc_extent(PROBE_PAGES);
    for p in 0..PROBE_PAGES {
        handle
            .pool()
            .with_page(PageId(p), |_| ())
            .expect("page in extent");
    }
    (0..clients)
        .map(|c| {
            let h = handle.clone();
            // Each client starts its walk elsewhere, so two of them do not
            // march over the same shard in lock step.
            let start = c as u32 * PROBE_PAGES / clients as u32;
            Box::new(move || {
                let mut acc = 0u64;
                for i in 0..PROBE_PAGES {
                    acc += h
                        .pool()
                        .with_page(PageId((start + i) % PROBE_PAGES), |page| page[0] as u64)
                        .expect("page in extent");
                }
                std::hint::black_box(acc);
                PROBE_PAGES as u64
            }) as Batch
        })
        .collect()
}

/// Churn: a cyclic walk over a page set four times the pool, so under LRU
/// every fix misses and evicts.
pub fn probe_buffer_miss() -> Batch {
    let mut pool =
        BufferConfig::with_pages(PROBE_PAGES as usize / 4).build(probe_disk(PROBE_PAGES));
    Box::new(move || {
        let mut acc = 0u64;
        for p in 0..PROBE_PAGES {
            acc += pool
                .with_page(PageId(p), |page| page[0] as u64)
                .expect("page in extent");
        }
        std::hint::black_box(acc);
        PROBE_PAGES as u64
    })
}

/// `SimDisk::read_run` (`write == false`) or `write_run`: eight 1-page
/// runs and one 8-page run per 16 pages; the batch counts pages.
pub fn probe_disk_runs(write: bool) -> Batch {
    let mut disk = probe_disk(PROBE_PAGES);
    // The pool copies every transferred page between the disk and a frame;
    // the probe does the same with one frame.
    let mut frame = Box::new([7u8; PAGE_SIZE]);
    Box::new(move || {
        for base in (0..PROBE_PAGES).step_by(16) {
            let runs = (0..8).map(|i| (base + i, 1)).chain([(base + 8, 8)]);
            for (first, n) in runs {
                if write {
                    disk.write_run(PageId(first), n, |_| *std::hint::black_box(&*frame))
                        .expect("run in extent");
                } else {
                    disk.read_run(PageId(first), n, |_, page| {
                        frame.copy_from_slice(page);
                        std::hint::black_box(&mut *frame);
                    })
                    .expect("run in extent");
                }
            }
        }
        PROBE_PAGES as u64
    })
}

/// Uncontended exclusive `latch_pages` + `unlatch_pages` on 4 pages of a
/// shared pool.
pub fn probe_latch_group() -> Batch {
    let mut handle = SharedPoolHandle::new(BufferConfig::with_pages(64), 2);
    handle.pool().alloc_extent(16);
    let pids = [PageId(1), PageId(2), PageId(3), PageId(4)];
    Box::new(move || {
        for _ in 0..64 {
            handle
                .latch_pages(&pids, LatchMode::Exclusive)
                .expect("uncontended latch");
            handle.unlatch_pages(&pids, LatchMode::Exclusive);
        }
        64
    })
}

/// One client committing `shared_update_roots` on one object of a small
/// DASDBS-NSM store under the given WAL discipline.
pub fn probe_wal_commit(data: &Dataset, wal: Wal) -> Result<Batch> {
    let mut store = SharedStore::build(ModelKind::DasdbsNsm, 64, 1, wal, false);
    store.load(&data.head(64))?;
    let target = [store.refs()[0]];
    let name = "w".repeat(data.original_name(0).len());
    Ok(Box::new(move || {
        for _ in 0..16 {
            store
                .update_roots(&target, &name)
                .expect("probe update commits");
        }
        16
    }))
}

/// The nf2 codec over the first generated stations.
pub struct Nf2Probe {
    tuples: Vec<Tuple>,
    encoded: Vec<(Vec<u8>, starfish_nf2::TupleLayout)>,
    schema: starfish_nf2::RelSchema,
    root: Projection,
}

impl Nf2Probe {
    pub fn new(data: &Dataset, n: usize) -> Nf2Probe {
        let schema = station_schema();
        let tuples: Vec<Tuple> = data.stations.iter().take(n).map(|s| s.to_tuple()).collect();
        let encoded = tuples
            .iter()
            .map(|t| starfish_nf2::encode_with_layout(t, &schema).expect("stations encode"))
            .collect();
        Nf2Probe {
            tuples,
            encoded,
            schema,
            root: proj_root_record(),
        }
    }

    pub fn tuples(&self) -> u64 {
        self.tuples.len() as u64
    }

    pub fn encoded_bytes(&self) -> u64 {
        self.encoded.iter().map(|(b, _)| b.len() as u64).sum()
    }

    /// Encodes every tuple once.
    pub fn encode_all(&self) -> u64 {
        for t in &self.tuples {
            std::hint::black_box(starfish_nf2::encode(t, &self.schema).expect("stations encode"));
        }
        self.tuples()
    }

    /// Decodes every tuple once, in full.
    pub fn decode_all(&self) -> u64 {
        for (bytes, _) in &self.encoded {
            std::hint::black_box(starfish_nf2::decode(bytes, &self.schema).expect("decodes"));
        }
        self.tuples()
    }

    /// Decodes only the root record of every tuple.
    pub fn decode_roots(&self) -> u64 {
        for (bytes, layout) in &self.encoded {
            std::hint::black_box(
                starfish_nf2::decode_projected(bytes, &self.schema, layout, &self.root)
                    .expect("decodes"),
            );
        }
        self.tuples()
    }
}
