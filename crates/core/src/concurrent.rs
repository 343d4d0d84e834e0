//! The concurrent (multi-client) query surface.
//!
//! The paper measures a single client; the [`ComplexObjectStore`] trait
//! mirrors that with `&mut self` everywhere. Serving N clients from one
//! buffer pool needs a `&self` read path instead — this module declares it:
//!
//! * [`ConcurrentObjectStore`] extends [`ComplexObjectStore`] with `&self`
//!   retrieval/navigation operations (`shared_get_by_oid`,
//!   `shared_children_of`, `shared_root_records`) that N threads can call
//!   concurrently over one store (implemented once for all five models,
//!   beside the `&mut` surface, in `store.rs`);
//! * [`make_shared_store`] builds any of the five storage models over a
//!   lock-striped [`SharedBufferPool`](starfish_pagestore::SharedBufferPool)
//!   with K shards.
//!
//! **Updates are concurrent too** (since the latch layer,
//! [`starfish_pagestore::latch`]): [`ConcurrentObjectStore::shared_update_roots`]
//! applies root patches from any number of threads over disjoint update
//! partitions — every model's write path runs under per-page latches
//! (exclusive group over the object's pages for writers, shared for
//! multi-page readers), so concurrent readers never observe torn objects
//! and disjoint-object writers proceed in parallel.
//! [`ConcurrentObjectStore::shared_flush`] cooperates with in-flight
//! writers through the pool's quiesce gate. Only bulk loading stays
//! `&mut`-single-writer.
//!
//! The query *answers*, the buffer-fix counts and the post-flush on-disk
//! bytes of the concurrent surface are identical to the serial surface's —
//! only physical reads and writes may differ with the interleaving
//! (`tests/concurrent_differential.rs` and
//! `tests/concurrent_writer_differential.rs` pin those invariants, exactly
//! like the cross-policy differential does for replacement policies).

use crate::dasdbs_nsm::DasdbsNsmStore;
use crate::direct::DirectStore;
use crate::nsm::NsmStore;
use crate::traits::{ComplexObjectStore, ObjRef, RootPatch};
use crate::{ModelKind, Result, StoreConfig};
use starfish_nf2::{Key, Oid, Projection, Tuple};
use starfish_pagestore::{BufferStats, SharedPoolHandle};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// A storage model whose retrieval/navigation surface can be shared across
/// threads (`&self`), on top of the usual exclusive surface.
///
/// Every model built by [`make_shared_store`] implements it; the `&self`
/// methods answer exactly like their `&mut` counterparts
/// ([`ComplexObjectStore::get_by_oid`], [`ComplexObjectStore::children_of`],
/// [`ComplexObjectStore::root_records`]) and count fixes identically. That
/// holds by construction: both traits are implemented once, in `store.rs`,
/// and each pair of methods calls the same model access path — the `&mut`
/// one with the store's pool, the `&self` one with a cloned handle to it.
pub trait ConcurrentObjectStore: ComplexObjectStore + Send + Sync {
    /// Query 1a retrieval by OID, callable from N threads concurrently.
    fn shared_get_by_oid(&self, oid: Oid, proj: &Projection) -> Result<Tuple>;

    /// Query 1b retrieval by key attribute, callable concurrently. Answers
    /// and counts fixes exactly like [`ComplexObjectStore::get_by_key`].
    fn shared_get_by_key(&self, key: Key, proj: &Projection) -> Result<Tuple>;

    /// Query 1c full scan, callable concurrently. Materializes every object
    /// in the same order (and with the same fixes) as
    /// [`ComplexObjectStore::scan_all`].
    fn shared_scan_all(&self, f: &mut dyn FnMut(&Tuple)) -> Result<()>;

    /// Navigation step (children references), callable concurrently.
    fn shared_children_of(&self, refs: &[ObjRef]) -> Result<Vec<ObjRef>>;

    /// Root records of `refs`, callable concurrently.
    fn shared_root_records(&self, refs: &[ObjRef]) -> Result<Vec<Tuple>>;

    /// Queries 3a/3b root update over the `&self` write surface, callable
    /// from N threads concurrently on **disjoint ref partitions**. Each
    /// object's read-modify-write runs under an exclusive per-page latch
    /// group, so writers on different objects proceed in parallel, writers
    /// on shared pages serialize, and concurrent readers never observe a
    /// torn object. Counts the exact fixes and I/O of
    /// [`ComplexObjectStore::update_roots`] — they run the same code.
    fn shared_update_roots(&self, refs: &[ObjRef], patch: &RootPatch) -> Result<()>;

    /// Database-disconnect flush through the shared pool: quiesces
    /// in-flight writers (the pool's gate) and writes all deferred pages in
    /// grouped calls. Safe to call while readers keep running.
    fn shared_flush(&self) -> Result<()>;

    /// Cold restart through the shared pool (query 1a's per-retrieval cache
    /// clear). Quiesces writers like [`shared_flush`](Self::shared_flush);
    /// safe to interleave with concurrent reads (they just go cold).
    fn shared_clear_cache(&self) -> Result<()>;

    /// Per-shard buffer counters of the underlying pool, for
    /// load-imbalance analysis.
    fn shard_stats(&self) -> Vec<BufferStats>;

    /// Number of shards in the underlying pool.
    fn shard_count(&self) -> usize {
        self.shard_stats().len()
    }

    /// Simulated crash: drops the pool's volatile state (cache frames,
    /// unflushed WAL buffers) without flushing. The data disk and the
    /// durable log survive. Committed updates are recoverable via
    /// [`recover`](Self::recover); uncommitted ones are gone — exactly a
    /// process kill. Quiesces in-flight writers first so no latched update
    /// is torn mid-op.
    fn simulate_crash(&self);

    /// Recovery-on-open: replays the committed tail of the WAL onto the
    /// data disk and checkpoints. Returns the number of pages replayed
    /// (always 0 with the WAL disabled). Call after
    /// [`simulate_crash`](Self::simulate_crash), before serving.
    fn recover(&self) -> Result<usize>;

    /// Crash-test hook: tears `bytes` record bytes off the end of the
    /// durable log, as a crash that interrupted the final flush mid-record
    /// would leave it. [`recover`](Self::recover) must treat the torn
    /// record as end-of-log. No-op with the WAL disabled.
    #[doc(hidden)]
    fn damage_log_tail(&self, bytes: u32);

    /// Adaptive placement through the shared pool: runs the heat-ranked
    /// rewrite of [`ComplexObjectStore::reorganize`] inside a **writer
    /// quiesce window** (the pool's PR-4 gate): in-flight exclusive writers
    /// drain, new ones wait, while concurrent *readers* keep running
    /// throughout — they hold a snapshot of the old placement, whose
    /// extents stay valid on disk, until the atomic swap publishes the new
    /// one. Lock order inside the window: the pass may fix pages and take
    /// shared latches, but must never enter an exclusive latch group (it
    /// would self-deadlock behind its own gate). Defaults to
    /// [`crate::CoreError::Unsupported`].
    fn shared_reorganize(&self) -> Result<crate::placement::ReorgReport> {
        Err(crate::CoreError::Unsupported {
            model: self.model().paper_name(),
            op: "reorganize (adaptive placement)",
        })
    }
}

/// Builds an empty store of `kind` over a [`SharedPoolHandle`] with
/// `shards` lock-striped shards, ready for concurrent serving.
///
/// With `shards == 1` the pool runs the identical replacement and call
/// grouping logic as the single-threaded [`starfish_pagestore::BufferPool`],
/// so a one-client run reproduces the serial measurements counter for
/// counter.
///
/// ```
/// use starfish_core::{make_shared_store, ModelKind, StoreConfig};
/// use starfish_nf2::{station::Station, Projection};
///
/// let mut store = make_shared_store(ModelKind::DasdbsNsm, StoreConfig::default(), 4);
/// let db = vec![Station { key: 1, name: "A".into(), platforms: vec![], sightseeings: vec![] }];
/// let refs = store.load(&db)?;
/// // Reads go through the `&self` surface — shareable across threads.
/// let tuple = store.shared_get_by_oid(refs[0].oid, &Projection::All)?;
/// assert_eq!(Station::from_tuple(&tuple).unwrap(), db[0]);
/// # Ok::<(), starfish_core::CoreError>(())
/// ```
pub fn make_shared_store(
    kind: ModelKind,
    config: StoreConfig,
    shards: usize,
) -> Box<dyn ConcurrentObjectStore> {
    let pool = SharedPoolHandle::new(config.buffer, shards);
    match kind {
        ModelKind::Dsm => Box::new(DirectStore::with_pool(false, &config, pool)),
        ModelKind::DasdbsDsm => Box::new(DirectStore::with_pool(true, &config, pool)),
        ModelKind::Nsm => Box::new(NsmStore::with_pool(false, &config, pool)),
        ModelKind::NsmIndexed => Box::new(NsmStore::with_pool(true, &config, pool)),
        ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::with_pool(&config, pool)),
    }
}

// ---------------------------------------------------------------------------
// The reactor: an event-loop client surface over the concurrent store
// ---------------------------------------------------------------------------

/// A completion token returned by [`Reactor::submit`], redeemed through
/// [`Reactor::poll_complete`] or [`Reactor::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// One operation submitted to a [`Reactor`] — the concurrent query surface
/// as data, so a client *enqueues* work and collects completions instead of
/// dedicating a thread per in-flight call. This is the client-side analogue
/// of the pool's batched I/O engine: many logical requests in flight over a
/// fixed set of worker threads.
#[derive(Clone, Debug)]
pub enum QueryRequest {
    /// Query 1a retrieval by OID
    /// ([`shared_get_by_oid`](ConcurrentObjectStore::shared_get_by_oid)).
    GetByOid {
        /// Object to retrieve.
        oid: Oid,
        /// Attribute projection.
        proj: Projection,
    },
    /// Query 1b retrieval by key
    /// ([`shared_get_by_key`](ConcurrentObjectStore::shared_get_by_key)).
    GetByKey {
        /// Root key to look up.
        key: Key,
        /// Attribute projection.
        proj: Projection,
    },
    /// Query 1c full scan. Completes with the object count — per-tuple
    /// callbacks do not serialize into a completion queue.
    ScanAll,
    /// Navigation step
    /// ([`shared_children_of`](ConcurrentObjectStore::shared_children_of)).
    ChildrenOf {
        /// Parents to expand.
        refs: Vec<ObjRef>,
    },
    /// Root records
    /// ([`shared_root_records`](ConcurrentObjectStore::shared_root_records)).
    RootRecords {
        /// Objects whose root records to read.
        refs: Vec<ObjRef>,
    },
    /// Query 3a/3b root update over a disjoint partition
    /// ([`shared_update_roots`](ConcurrentObjectStore::shared_update_roots)).
    UpdateRoots {
        /// Objects to patch (disjoint from other in-flight updates).
        refs: Vec<ObjRef>,
        /// The patch to apply.
        patch: RootPatch,
    },
    /// Database-disconnect flush
    /// ([`shared_flush`](ConcurrentObjectStore::shared_flush)).
    Flush,
}

/// The payload of a completed [`QueryRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// A single retrieved object (`GetByOid`, `GetByKey`).
    Tuple(Tuple),
    /// Retrieved root records (`RootRecords`).
    Tuples(Vec<Tuple>),
    /// Navigation results (`ChildrenOf`).
    Refs(Vec<ObjRef>),
    /// Objects visited (`ScanAll`).
    ScanCount(usize),
    /// Completed without a payload (`UpdateRoots`, `Flush`).
    Done,
}

struct ReactorState {
    next_ticket: u64,
    queue: VecDeque<(u64, QueryRequest)>,
    /// Completions not yet redeemed: ticket → result.
    done: HashMap<u64, Result<QueryResponse>>,
    /// High-water mark of queued (not yet executing) requests — the
    /// client-side analogue of the I/O engine's `max_queue_depth`.
    max_depth: u64,
    shutdown: bool,
}

/// An event-loop client surface over a [`ConcurrentObjectStore`]: requests
/// are submitted as [`QueryRequest`] values and executed by a fixed pool of
/// worker threads, completions redeemed by [`Ticket`]. Built by
/// [`with_reactor`], which owns the workers' lifetimes (scoped threads).
///
/// With the store's pool running the batched I/O engine, N in-flight
/// requests become N concurrent misses — exactly the queue pressure the
/// engine coalesces into multi-page reads.
pub struct Reactor<'a> {
    store: &'a dyn ConcurrentObjectStore,
    state: Mutex<ReactorState>,
    /// Workers park here for new requests (or shutdown).
    work_cond: Condvar,
    /// Clients park here for completions.
    done_cond: Condvar,
}

impl<'a> Reactor<'a> {
    pub(crate) fn new(store: &'a dyn ConcurrentObjectStore) -> Self {
        Reactor {
            store,
            state: Mutex::new(ReactorState {
                next_ticket: 0,
                queue: VecDeque::new(),
                done: HashMap::new(),
                max_depth: 0,
                shutdown: false,
            }),
            work_cond: Condvar::new(),
            done_cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReactorState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `req` and returns its completion ticket immediately.
    pub fn submit(&self, req: QueryRequest) -> Ticket {
        let mut st = self.lock();
        let t = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back((t, req));
        let depth = st.queue.len() as u64;
        st.max_depth = st.max_depth.max(depth);
        drop(st);
        self.work_cond.notify_one();
        Ticket(t)
    }

    /// High-water mark of queued requests since the reactor was built —
    /// how far clients ran ahead of the worker pool. Scheduling-dependent
    /// under contention, like the engine's `max_queue_depth`.
    pub fn queue_high_water(&self) -> u64 {
        self.lock().max_depth
    }

    /// Redeems `ticket` if its request has completed; `None` while it is
    /// still queued or executing. Each ticket redeems at most once.
    pub fn poll_complete(&self, ticket: Ticket) -> Option<Result<QueryResponse>> {
        self.lock().done.remove(&ticket.0)
    }

    /// Blocks until `ticket`'s request completes and redeems it.
    pub fn wait(&self, ticket: Ticket) -> Result<QueryResponse> {
        let mut st = self.lock();
        loop {
            if let Some(result) = st.done.remove(&ticket.0) {
                return result;
            }
            st = self.done_cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn execute(store: &dyn ConcurrentObjectStore, req: QueryRequest) -> Result<QueryResponse> {
        match req {
            QueryRequest::GetByOid { oid, proj } => store
                .shared_get_by_oid(oid, &proj)
                .map(QueryResponse::Tuple),
            QueryRequest::GetByKey { key, proj } => store
                .shared_get_by_key(key, &proj)
                .map(QueryResponse::Tuple),
            QueryRequest::ScanAll => {
                let mut n = 0usize;
                store.shared_scan_all(&mut |_| n += 1)?;
                Ok(QueryResponse::ScanCount(n))
            }
            QueryRequest::ChildrenOf { refs } => {
                store.shared_children_of(&refs).map(QueryResponse::Refs)
            }
            QueryRequest::RootRecords { refs } => {
                store.shared_root_records(&refs).map(QueryResponse::Tuples)
            }
            QueryRequest::UpdateRoots { refs, patch } => store
                .shared_update_roots(&refs, &patch)
                .map(|()| QueryResponse::Done),
            QueryRequest::Flush => store.shared_flush().map(|()| QueryResponse::Done),
        }
    }

    /// Worker loop: drain requests until shutdown *and* an empty queue —
    /// work submitted before shutdown always completes.
    pub(crate) fn worker(&self) {
        loop {
            let (ticket, req) = {
                let mut st = self.lock();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work_cond.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            let result = Self::execute(self.store, req);
            self.lock().done.insert(ticket, result);
            self.done_cond.notify_all();
        }
    }

    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cond.notify_all();
    }
}

/// Signals reactor shutdown even if the client closure panics, so scoped
/// workers never park forever on the work condvar.
pub(crate) struct ShutdownGuard<'r, 'a>(pub(crate) &'r Reactor<'a>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `f` against a [`Reactor`] serving `store` with `workers` event-loop
/// threads (at least one). Requests still queued when `f` returns are
/// drained before the reactor tears down; unredeemed completions are
/// dropped.
///
/// ```
/// use starfish_core::{
///     make_shared_store, with_reactor, ModelKind, QueryRequest, QueryResponse, StoreConfig,
/// };
/// use starfish_nf2::{station::Station, Projection};
///
/// let mut store = make_shared_store(ModelKind::DasdbsNsm, StoreConfig::default(), 4);
/// let db = vec![Station { key: 1, name: "A".into(), platforms: vec![], sightseeings: vec![] }];
/// let refs = store.load(&db)?;
/// let answer = with_reactor(store.as_ref(), 2, |r| {
///     let t = r.submit(QueryRequest::GetByOid { oid: refs[0].oid, proj: Projection::All });
///     r.wait(t)
/// })?;
/// assert!(matches!(answer, QueryResponse::Tuple(_)));
/// # Ok::<(), starfish_core::CoreError>(())
/// ```
pub fn with_reactor<R>(
    store: &dyn ConcurrentObjectStore,
    workers: usize,
    f: impl FnOnce(&Reactor<'_>) -> R,
) -> R {
    let reactor = Reactor::new(store);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| reactor.worker());
        }
        let guard = ShutdownGuard(&reactor);
        let out = f(&reactor);
        drop(guard);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use starfish_nf2::station::Station;

    #[test]
    fn factory_builds_every_model_sharded() {
        for kind in ModelKind::all() {
            for shards in [1, 4] {
                let store = make_shared_store(kind, StoreConfig::default(), shards);
                assert_eq!(store.model(), kind);
                assert_eq!(store.object_count(), 0);
                assert_eq!(store.shard_count(), shards);
            }
        }
    }

    fn tiny_db(n: i32) -> Vec<Station> {
        (0..n)
            .map(|k| Station {
                key: k,
                // Fixed-width names: root patches are in-place, so every
                // patch must keep the encoded length.
                name: format!("S{k:06}"),
                platforms: vec![],
                sightseeings: vec![],
            })
            .collect()
    }

    #[test]
    fn reactor_answers_match_direct_calls() {
        let db = tiny_db(6);
        let mut store = make_shared_store(ModelKind::DasdbsNsm, StoreConfig::default(), 2);
        let refs = store.load(&db).unwrap();
        with_reactor(store.as_ref(), 3, |r| {
            // Many requests in flight at once, redeemed out of submission
            // order.
            let tickets: Vec<_> = refs
                .iter()
                .map(|o| {
                    r.submit(QueryRequest::GetByOid {
                        oid: o.oid,
                        proj: Projection::All,
                    })
                })
                .collect();
            let scan = r.submit(QueryRequest::ScanAll);
            assert_eq!(r.wait(scan).unwrap(), QueryResponse::ScanCount(db.len()));
            for (i, t) in tickets.iter().enumerate().rev() {
                match r.wait(*t).unwrap() {
                    QueryResponse::Tuple(tup) => {
                        assert_eq!(Station::from_tuple(&tup).unwrap(), db[i]);
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
            // A redeemed ticket is spent.
            assert!(r.poll_complete(tickets[0]).is_none());
        });
    }

    #[test]
    fn reactor_updates_flush_and_errors_complete() {
        let db = tiny_db(4);
        let mut store = make_shared_store(ModelKind::Nsm, StoreConfig::default(), 2);
        let refs = store.load(&db).unwrap();
        let patch = RootPatch {
            new_name: "patched".into(),
        };
        with_reactor(store.as_ref(), 2, |r| {
            let upd = r.submit(QueryRequest::UpdateRoots {
                refs: refs.clone(),
                patch: patch.clone(),
            });
            assert_eq!(r.wait(upd).unwrap(), QueryResponse::Done);
            let flush = r.submit(QueryRequest::Flush);
            assert_eq!(r.wait(flush).unwrap(), QueryResponse::Done);
            let good = r.submit(QueryRequest::GetByKey {
                key: 2,
                proj: Projection::All,
            });
            match r.wait(good).unwrap() {
                QueryResponse::Tuple(t) => {
                    assert_eq!(Station::from_tuple(&t).unwrap().name, patch.new_name);
                }
                other => panic!("unexpected response {other:?}"),
            }
            // Errors surface through the ticket, and the reactor survives.
            let bad = r.submit(QueryRequest::GetByKey {
                key: 999,
                proj: Projection::All,
            });
            assert!(r.wait(bad).is_err());
            let scan = r.submit(QueryRequest::ScanAll);
            assert_eq!(r.wait(scan).unwrap(), QueryResponse::ScanCount(4));
        });
    }
}
