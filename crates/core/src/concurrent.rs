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
//! writers through the pool's quiesce gate. The bulk load and the
//! adaptive-placement pass ([`ComplexObjectStore::reorganize`]) stay
//! `&mut`-single-writer: a placement never changes under a `&self` call.
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
/// There is no `&self` load or reorganization: both stay `&mut`, so the
/// placement a `&self` call reads cannot change under it.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_model_sharded() {
        for kind in ModelKind::all() {
            for shards in [1, 4] {
                let store = make_shared_store(kind, StoreConfig::default(), shards);
                assert_eq!(store.model(), kind);
                assert_eq!(store.object_count(), 0);
                assert_eq!(store.shard_stats().len(), shards);
            }
        }
    }
}
