//! The public construction surface, pinned in tier-1.
//!
//! Two contracts nothing else tests:
//!
//! * **Pool genericity.** `DirectStore::with_pool`, `NsmStore::with_pool`
//!   and `DasdbsNsmStore::with_pool` accept *any* [`PageCache`] — the
//!   benchmark's tracing adapter depends on exactly this spelling. A
//!   delegating decorator over `BufferPool`, handed to all five models and
//!   boxed as `dyn ComplexObjectStore`, must measure query 2b exactly like
//!   the `make_store` build.
//! * **One error order.** The `&mut` and `&self` surfaces run the same code,
//!   so on an empty store, an out-of-range OID and an unknown key they
//!   must fail with the same `CoreError` text, on every model.

use starfish::core::{
    make_shared_store, make_store, ComplexObjectStore, ConcurrentObjectStore, CoreError,
    DasdbsNsmStore, DirectStore, ModelKind, NsmStore, ObjRef, RootPatch, StoreConfig,
};
use starfish::nf2::station::Station;
use starfish::pagestore::{
    BufferPool, BufferStats, IoSnapshot, LatchMode, PageCache, PageId, PolicyKind, SimDisk,
    StoreError, PAGE_SIZE,
};
use starfish::prelude::*;
use starfish::workload::{generate, PlanOutcome};
use std::cell::Cell;
use std::rc::Rc;

const SEED: u64 = 1993;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: 60,
        seed: SEED,
        ..Default::default()
    })
}

/// A `PageCache` that forwards every call to a `BufferPool` and counts the
/// fixes that pass through it.
struct Delegating {
    inner: BufferPool,
    fixes: Rc<Cell<u64>>,
}

type PoolResult<T> = Result<T, StoreError>;

impl PageCache for Delegating {
    fn with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> PoolResult<R> {
        self.fixes.set(self.fixes.get() + 1);
        self.inner.with_page(pid, f)
    }
    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> PoolResult<R> {
        self.fixes.set(self.fixes.get() + 1);
        self.inner.with_page_mut(pid, f)
    }
    fn prefetch_run(&mut self, first: PageId, n: u32) -> PoolResult<()> {
        self.inner.prefetch_run(first, n)
    }
    fn pin(&mut self, pid: PageId) -> PoolResult<()> {
        self.inner.pin(pid)
    }
    fn unpin(&mut self, pid: PageId) -> bool {
        self.inner.unpin(pid)
    }
    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.inner.alloc_extent(n)
    }
    fn write_pool_pages(&mut self, first: PageId, n: u32) -> PoolResult<()> {
        self.inner.write_pool_pages(first, n)
    }
    fn flush_all(&mut self) -> PoolResult<()> {
        self.inner.flush_all()
    }
    fn clear_cache(&mut self) -> PoolResult<()> {
        self.inner.clear_cache()
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
    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> PoolResult<()> {
        PageCache::latch_pages(&mut self.inner, pids, mode)
    }
    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode) {
        PageCache::unlatch_pages(&mut self.inner, pids, mode)
    }
    fn disk_checksum(&self) -> u64 {
        self.inner.disk_checksum()
    }
}

fn decorated(
    kind: ModelKind,
    config: &StoreConfig,
    pool: Delegating,
) -> Box<dyn ComplexObjectStore> {
    match kind {
        ModelKind::Dsm => Box::new(DirectStore::with_pool(false, config, pool)),
        ModelKind::DasdbsDsm => Box::new(DirectStore::with_pool(true, config, pool)),
        ModelKind::Nsm => Box::new(NsmStore::with_pool(false, config, pool)),
        ModelKind::NsmIndexed => Box::new(NsmStore::with_pool(true, config, pool)),
        ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::with_pool(config, pool)),
    }
}

fn q2b(store: &mut dyn ComplexObjectStore, db: &[Station]) -> IoSnapshot {
    let refs = store.load(db).expect("load");
    match Executor::new(refs, SEED)
        .run(store, &WorkloadSpec::q2b())
        .expect("q2b")
    {
        PlanOutcome::Measured(run) => run.snapshot,
        PlanOutcome::Unsupported => panic!("every model supports query 2b"),
    }
}

#[test]
fn with_pool_accepts_any_page_cache_and_measures_like_make_store() {
    let db = dataset();
    let config = StoreConfig::with_buffer_pages(48);
    for kind in ModelKind::all() {
        let want = q2b(make_store(kind, config.clone()).as_mut(), &db);

        let fixes = Rc::new(Cell::new(0));
        let pool = Delegating {
            inner: config.buffer.build(SimDisk::new()),
            fixes: fixes.clone(),
        };
        let got = q2b(decorated(kind, &config, pool).as_mut(), &db);

        assert_eq!(got, want, "{kind}: decorated pool changed the measurement");
        assert!(want.fixes > 0, "{kind}: query 2b fixed nothing");
        assert!(
            fixes.get() >= want.fixes,
            "{kind}: the decorator saw {} fixes, the store counted {}",
            fixes.get(),
            want.fixes
        );
    }
}

fn text<T>(op: &str, outcome: Result<T, CoreError>) -> String {
    match outcome {
        Ok(_) => format!("{op}: ok"),
        Err(e) => format!("{op}: {e}"),
    }
}

fn patch() -> RootPatch {
    RootPatch {
        new_name: "x".into(),
    }
}

/// The outcome of every retrieval and update primitive on `r`, as text,
/// over the `&mut` surface.
fn exclusive_outcomes(store: &mut dyn ComplexObjectStore, r: ObjRef) -> Vec<String> {
    vec![
        text("get_by_oid", store.get_by_oid(r.oid, &Projection::All)),
        text("get_by_key", store.get_by_key(r.key, &Projection::All)),
        text("scan_all", store.scan_all(&mut |_| {})),
        text("children_of", store.children_of(&[r])),
        text("root_records", store.root_records(&[r])),
        text("update_roots", store.update_roots(&[r], &patch())),
    ]
}

/// The outcome of the two placement operations, as text: statistics, then
/// one reorganization pass (the pass changes the store, so it goes last).
fn placement_outcomes(store: &mut dyn ComplexObjectStore) -> Vec<String> {
    vec![
        text("placement_stats", store.placement_stats()),
        text("reorganize", store.reorganize()),
    ]
}

/// [`exclusive_outcomes`] over the `&self` surface.
fn shared_outcomes(store: &dyn ConcurrentObjectStore, r: ObjRef) -> Vec<String> {
    vec![
        text(
            "get_by_oid",
            store.shared_get_by_oid(r.oid, &Projection::All),
        ),
        text(
            "get_by_key",
            store.shared_get_by_key(r.key, &Projection::All),
        ),
        text("scan_all", store.shared_scan_all(&mut |_| {})),
        text("children_of", store.shared_children_of(&[r])),
        text("root_records", store.shared_root_records(&[r])),
        text("update_roots", store.shared_update_roots(&[r], &patch())),
    ]
}

#[test]
fn exclusive_and_shared_surfaces_fail_with_the_same_error() {
    let db = dataset();
    let known = db[0].key;
    let unknown = db.iter().map(|s| s.key).max().unwrap() + 1;
    let r = |oid: u32, key| ObjRef { oid: Oid(oid), key };
    // (case, load first?, the object asked for)
    let cases = [
        ("empty store", false, r(0, known)),
        ("out-of-range OID", true, r(db.len() as u32 + 7, known)),
        ("unknown key", true, r(0, unknown)),
    ];
    for kind in ModelKind::all() {
        for (case, load, r) in cases {
            let mut serial = make_store(kind, StoreConfig::default());
            let mut shared = make_shared_store(kind, StoreConfig::default(), 2);
            if load {
                serial.load(&db).expect("load");
                shared.load(&db).expect("load");
            }
            let want = exclusive_outcomes(serial.as_mut(), r);
            assert!(
                want.iter().any(|line| !line.ends_with(": ok")),
                "{kind}, {case}: nothing failed: {want:#?}"
            );
            assert_eq!(
                exclusive_outcomes(shared.as_mut(), r),
                want,
                "{kind}, {case}: `&mut` surface over the shared pool"
            );
            assert_eq!(
                shared_outcomes(shared.as_ref(), r),
                want,
                "{kind}, {case}: `&self` surface"
            );
            let want = placement_outcomes(serial.as_mut());
            assert_eq!(
                want.iter().all(|line| line.ends_with(": empty database")),
                !load,
                "{kind}, {case}: {want:#?}"
            );
            assert_eq!(
                placement_outcomes(shared.as_mut()),
                want,
                "{kind}, {case}: placement over the shared pool"
            );
        }
    }
}
