//! The one store behind every storage model.
//!
//! The paper's models differ in exactly one thing — which pages an
//! operation touches. That difference is a [`Model`]: a layout
//! ([`Model::Placement`]) plus the access paths over it, every one taking
//! the placement and a pool by argument. Everything else — owning the pool
//! and the loaded refs and placement, the pool pass-throughs, the
//! reorganization — is [`Store`], written once. Like the paper's, a
//! placement is fixed between the store's two single-writer (`&mut`)
//! operations, `load` and `reorganize`.
//!
//! [`ComplexObjectStore`] is implemented for `Store<M, P>` over `&mut
//! self.pool` and [`ConcurrentObjectStore`] for `Store<M,
//! SharedPoolHandle>` over a cloned handle; both call the same `Model`
//! method, so "the two surfaces run the same code" is a fact of the types.

use crate::concurrent::ConcurrentObjectStore;
use crate::placement::{self, HeatRanking, ObjectHeat, PlacementStats, ReorgReport};
use crate::traits::{overwrite_str, ComplexObjectStore, ObjRef, RelationInfo, RootPatch};
use crate::{CoreError, ModelKind, Result};
use starfish_nf2::station::Station;
use starfish_nf2::{validate_at, Key, Oid, Projection, RelSchema, Tuple};
use starfish_pagestore::{
    BufferPool, BufferStats, HeapFile, IoSnapshot, LatchMode, PageCache, PageId, Rid,
    SharedPoolHandle,
};
use std::collections::HashMap;

/// A storage model: its on-disk layout and the access paths over it.
///
/// `pub` only so it can bound the public [`Store`]; it is not re-exported
/// and is not an extension point. Every method is a pure function of the
/// placement snapshot and the pool it is handed, which is what lets one
/// implementation serve both the exclusive and the shared pool.
pub trait Model {
    /// What a load builds and a reorganization replaces in one shot: the
    /// files plus the memory-resident address tables that point into them.
    type Placement;

    /// Which storage model this is.
    fn kind(&self) -> ModelKind;

    /// Bulk-loads `stations` (object `i` gets OID `i`) into fresh extents.
    fn load(&self, pool: &mut impl PageCache, stations: &[Station]) -> Result<Self::Placement>;

    /// Query 1a. `objects` are the loaded refs, in OID order.
    fn get_by_oid(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        oid: Oid,
        proj: &Projection,
    ) -> Result<Tuple>;

    /// Query 1b.
    fn get_by_key(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        key: Key,
        proj: &Projection,
    ) -> Result<Tuple>;

    /// Query 1c, in `objects` (OID) order.
    fn scan_all(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<()>;

    /// Navigation step: children references of `refs`, concatenated.
    fn children_of(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<ObjRef>>;

    /// Navigation step: root records of `refs`.
    fn root_records(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<Tuple>>;

    /// Queries 3a/3b: each object's update is one latched, logged op.
    fn update_roots(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
        patch: &RootPatch,
    ) -> Result<()>;

    /// Per-relation storage statistics (Table 2) of `objects` loaded objects.
    fn relation_info(&self, at: &Self::Placement, objects: usize) -> Vec<RelationInfo>;

    /// Where each object lives and how hot it is under `heat`, in OID
    /// order. Metadata-only where addresses are memory-resident; pure NSM
    /// pays counted relation scans.
    fn object_heats(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        heat: &HashMap<PageId, u64>,
    ) -> Result<Vec<ObjectHeat>>;

    /// The heat-ranked rewrite: builds a fresh placement off to the side
    /// (counted reads; the new pages stay dirty in the pool) and returns it
    /// with the ranking it placed by and the distinct pages the hot set now
    /// spans. Flushing and measuring are `Store`'s.
    fn rebuild(
        &self,
        at: &Self::Placement,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
    ) -> Result<(Self::Placement, HeatRanking, u32)>;
}

/// A store of model `M` over pool `P`: [`BufferPool`] (the default — every
/// original paper measurement) or [`SharedPoolHandle`] (the thread-shareable
/// pool behind [`crate::make_shared_store`], which also unlocks the `&self`
/// surface of [`ConcurrentObjectStore`]).
pub struct Store<M: Model, P: PageCache = BufferPool> {
    model: M,
    pool: P,
    /// The current placement: set by `load`, replaced by `reorganize`.
    placement: Option<M::Placement>,
    refs: Vec<ObjRef>,
}

impl<M: Model, P: PageCache> Store<M, P> {
    /// An empty store of `model` over `pool`.
    pub(crate) fn over(model: M, pool: P) -> Self {
        Store {
            model,
            pool,
            placement: None,
            refs: Vec::new(),
        }
    }

    /// The current placement, or the empty-database error — the first
    /// check of every operation on either surface.
    pub(crate) fn placement(&self) -> Result<&M::Placement> {
        loaded(&self.placement)
    }
}

/// [`Store::placement`] over the field alone, so an operation can borrow
/// the placement beside `&mut` the pool.
fn loaded<T>(placement: &Option<T>) -> Result<&T> {
    placement.as_ref().ok_or_else(|| CoreError::NotFound {
        what: "empty database".into(),
    })
}

impl<M: Model, P: PageCache> ComplexObjectStore for Store<M, P> {
    fn model(&self) -> ModelKind {
        self.model.kind()
    }

    fn load(&mut self, stations: &[Station]) -> Result<Vec<ObjRef>> {
        self.placement = Some(self.model.load(&mut self.pool, stations)?);
        self.refs = stations
            .iter()
            .enumerate()
            .map(|(i, s)| ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            })
            .collect();
        self.pool.clear_cache()?;
        self.pool.reset_stats();
        Ok(self.refs.clone())
    }

    fn object_count(&self) -> usize {
        self.refs.len()
    }

    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        let at = loaded(&self.placement)?;
        self.model
            .get_by_oid(at, &mut self.pool, &self.refs, oid, proj)
    }

    fn get_by_key(&mut self, key: Key, proj: &Projection) -> Result<Tuple> {
        let at = loaded(&self.placement)?;
        self.model.get_by_key(at, &mut self.pool, key, proj)
    }

    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        let at = loaded(&self.placement)?;
        self.model.scan_all(at, &mut self.pool, &self.refs, f)
    }

    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        let at = loaded(&self.placement)?;
        self.model.children_of(at, &mut self.pool, refs)
    }

    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        let at = loaded(&self.placement)?;
        self.model.root_records(at, &mut self.pool, refs)
    }

    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        let at = loaded(&self.placement)?;
        self.model.update_roots(at, &mut self.pool, refs, patch)
    }

    fn flush(&mut self) -> Result<()> {
        self.pool.flush_all().map_err(Into::into)
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.pool.clear_cache().map_err(Into::into)
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats();
    }

    fn snapshot(&self) -> IoSnapshot {
        self.pool.snapshot()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.pool.buffer_stats()
    }

    fn relation_info(&self) -> Vec<RelationInfo> {
        match self.placement() {
            Ok(at) => self.model.relation_info(at, self.refs.len()),
            Err(_) => Vec::new(),
        }
    }

    fn database_pages(&self) -> u32 {
        self.pool.database_pages()
    }

    fn disk_checksum(&self) -> u64 {
        self.pool.disk_checksum()
    }

    fn placement_stats(&mut self) -> Result<PlacementStats> {
        let at = loaded(&self.placement)?;
        let heat = placement::heat_map(self.pool.page_heat());
        let heats = self
            .model
            .object_heats(at, &mut self.pool, &self.refs, &heat)?;
        Ok(placement::rank(&heats).stats)
    }

    fn reorganize(&mut self) -> Result<ReorgReport> {
        let at = loaded(&self.placement)?;
        let before = self.pool.snapshot();
        let (new, ranking, hot_pages_after) = self.model.rebuild(at, &mut self.pool, &self.refs)?;
        self.pool.flush_all()?;
        let spent = self.pool.snapshot() - before;
        self.placement = Some(new);
        Ok(ranking.report(hot_pages_after, spent))
    }
}

impl<M> ConcurrentObjectStore for Store<M, SharedPoolHandle>
where
    M: Model + Send + Sync,
    M::Placement: Send + Sync,
{
    fn shared_get_by_oid(&self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        let at = self.placement()?;
        self.model
            .get_by_oid(at, &mut self.pool.clone(), &self.refs, oid, proj)
    }

    fn shared_get_by_key(&self, key: Key, proj: &Projection) -> Result<Tuple> {
        let at = self.placement()?;
        self.model.get_by_key(at, &mut self.pool.clone(), key, proj)
    }

    fn shared_scan_all(&self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        let at = self.placement()?;
        self.model
            .scan_all(at, &mut self.pool.clone(), &self.refs, f)
    }

    fn shared_children_of(&self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        let at = self.placement()?;
        self.model.children_of(at, &mut self.pool.clone(), refs)
    }

    fn shared_root_records(&self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        let at = self.placement()?;
        self.model.root_records(at, &mut self.pool.clone(), refs)
    }

    fn shared_update_roots(&self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        let at = self.placement()?;
        self.model
            .update_roots(at, &mut self.pool.clone(), refs, patch)
    }

    fn shared_flush(&self) -> Result<()> {
        self.pool.pool().flush_all().map_err(Into::into)
    }

    fn shared_clear_cache(&self) -> Result<()> {
        self.pool.pool().clear_cache().map_err(Into::into)
    }

    fn shard_stats(&self) -> Vec<BufferStats> {
        self.pool.pool().shard_stats()
    }

    fn simulate_crash(&self) {
        self.pool.pool().crash_volatile()
    }

    fn recover(&self) -> Result<usize> {
        self.pool.pool().recover().map_err(Into::into)
    }

    fn damage_log_tail(&self, bytes: u32) {
        self.pool.pool().truncate_log_tail(bytes)
    }
}

/// The op boundary of every update path, given the outcome of its latched
/// read-modify-write: make it durable (WAL pools flush or group-commit
/// here; everything else no-ops), or drop the images a failed op buffered
/// so they cannot leak into the next commit.
pub(crate) fn commit_or_abort<T>(pool: &mut impl PageCache, res: Result<T>) -> Result<T> {
    match res {
        Ok(v) => {
            pool.log_commit()?;
            Ok(v)
        }
        Err(e) => {
            pool.log_abort();
            Err(e)
        }
    }
}

/// Position of `Name` in the flat root relation of both normalized models.
const ROOT_NAME: usize = 3;

/// The normalized models' root update: overwrites `Name` of the flat root
/// tuple at `rid` — one op, read-modify-written under an **exclusive
/// latch** on its page, so concurrent writers on root records sharing a
/// page serialize and never lose updates (root tuples are small — "there
/// are many on a single page", §5.3). The record is validated as a full
/// decode would check it and patched where its directory says `Name` is.
pub(crate) fn patch_root_name(
    station: &HeapFile,
    schema: &RelSchema,
    pool: &mut impl PageCache,
    rid: Rid,
    patch: &RootPatch,
) -> Result<()> {
    let res = pool.with_latched(&[rid.page], LatchMode::Exclusive, |pool| {
        let mut bytes = station.read(pool, rid)?;
        validate_at(&bytes, schema, 0)?;
        overwrite_str(&mut bytes, ROOT_NAME, &patch.new_name)?;
        Ok(station.update(pool, rid, &bytes)?)
    });
    commit_or_abort(pool, res)
}
