use crate::placement::{PlacementStats, ReorgReport};
use crate::{ModelKind, Result};
use starfish_nf2::station::Station;
use starfish_nf2::{AttrType, ByteSource, Key, Oid, Projection, Tuple, Value};
use starfish_pagestore::{BufferStats, IoSnapshot};
use std::ops::Range;

/// A reference to a complex object: its OID (physical handle) and its key
/// (logical value).
///
/// The benchmark's `Connection` sub-tuples carry both (`KeyConnection`,
/// `OidConnection`), so navigation always has both at hand; each storage
/// model uses whichever access path it supports (direct models and
/// DASDBS-NSM resolve OIDs/keys through memory-resident address tables, pure
/// NSM must select by key value).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjRef {
    /// Object identifier.
    pub oid: Oid,
    /// Logical key (`Station.Key`).
    pub key: Key,
}

/// The update applied by queries 3a/3b: overwrite the root record's `Name`
/// with a same-length string ("We update atomic attributes, that is, the
/// object structure is not changed", §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootPatch {
    /// Replacement for `Name`; must have the same byte length as the stored
    /// value so the update is structure-preserving.
    pub new_name: String,
}

/// Per-relation storage statistics, the raw material of the paper's Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationInfo {
    /// Relation name, e.g. `"NSM-Connection"`.
    pub name: String,
    /// Average tuples per `Station` object.
    pub tuples_per_object: f64,
    /// Total stored tuples.
    pub total_tuples: u64,
    /// Average stored tuple size in bytes (`S_tuple`), including the 4-byte
    /// slot entry for page-sharing tuples, mirroring Table 2's accounting.
    pub avg_tuple_bytes: f64,
    /// Tuples per page (`k = ⌊2012 / S_tuple⌋`) for page-sharing tuples.
    pub k: Option<u32>,
    /// Average pages per tuple (`p`) for page-spanning tuples.
    pub p: Option<f64>,
    /// Total pages storing the relation (`m`).
    pub m: u32,
}

/// The common interface of the four storage models.
///
/// The operations are exactly the benchmark's primitives (§2.2):
///
/// * query 1a → [`get_by_oid`](Self::get_by_oid),
/// * query 1b → [`get_by_key`](Self::get_by_key),
/// * query 1c → [`scan_all`](Self::scan_all),
/// * queries 2/3 navigation steps → [`children_of`](Self::children_of) and
///   [`root_records`](Self::root_records) (set-oriented, so the normalized
///   models can use one relation scan per step),
/// * queries 3a/3b updates → [`update_roots`](Self::update_roots)
///   (set-oriented `replace set of tuples` where the model supports it).
pub trait ComplexObjectStore {
    /// Which storage model this is.
    fn model(&self) -> ModelKind;

    /// Bulk-loads the database. Object `i` of `stations` gets OID `i`.
    /// Resets I/O statistics afterwards, so loading is never part of a
    /// measurement.
    fn load(&mut self, stations: &[Station]) -> Result<Vec<ObjRef>>;

    /// Number of loaded objects.
    fn object_count(&self) -> usize;

    /// Query 1a: retrieve one object by OID (address access). Errors with
    /// [`crate::CoreError::Unsupported`] under pure NSM.
    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> Result<Tuple>;

    /// Query 1b: retrieve one object by key (value selection — scans where
    /// the model has no better path; the paper's selections are
    /// set-oriented, so scans always read the whole relation).
    fn get_by_key(&mut self, key: Key, proj: &Projection) -> Result<Tuple>;

    /// Query 1c: materialize every object, in OID order where the model has
    /// OIDs (key order otherwise).
    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> Result<()>;

    /// Navigation step: the children references
    /// (`Platform.Connection.{KeyConnection, OidConnection}`) of each of
    /// `refs`, concatenated. Duplicates are preserved (an object referenced
    /// twice counts twice, as in the paper's child counts).
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>>;

    /// Navigation step: the root records (atomic attributes) of `refs`.
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>>;

    /// Queries 3a/3b: update the root records of `refs` with `patch`.
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()>;

    /// Writes all deferred (dirty) pages — the paper's "database
    /// disconnect", the point where deferred writes hit the disk.
    fn flush(&mut self) -> Result<()>;

    /// Flushes and empties the buffer: a cold restart between measurements.
    fn clear_cache(&mut self) -> Result<()>;

    /// Resets all I/O counters (cache content is kept).
    fn reset_stats(&mut self);

    /// Current combined I/O counters.
    fn snapshot(&self) -> IoSnapshot;

    /// Current buffer counters.
    fn buffer_stats(&self) -> BufferStats;

    /// Per-relation storage statistics (Table 2).
    fn relation_info(&self) -> Vec<RelationInfo>;

    /// Total pages allocated for the database.
    fn database_pages(&self) -> u32;

    /// FNV-1a fingerprint of the store's on-disk page array (uncounted).
    ///
    /// Meaningful after a [`flush`](Self::flush): the differential tests use
    /// it to prove that multi-writer runs leave byte-identical databases
    /// behind, whatever the thread count.
    fn disk_checksum(&self) -> u64;

    /// Adaptive placement: statistics of the current heat-tracked placement
    /// (hot-set size and page spans), the inputs of the cost-model
    /// reorganization trigger. Models whose tuple addresses are
    /// memory-resident answer from metadata alone; pure NSM has to scan its
    /// relations (counted I/O) to locate tuples. All-zero with heat
    /// tracking off. Defaults to [`crate::CoreError::Unsupported`] for
    /// stores without a placement pass.
    fn placement_stats(&mut self) -> Result<PlacementStats> {
        Err(crate::CoreError::Unsupported {
            model: self.model().paper_name(),
            op: "placement statistics (adaptive placement)",
        })
    }

    /// Adaptive placement: rewrite the store's relations with objects in
    /// heat order (hottest first), co-locating the hot set and pushing cold
    /// extents behind it. Logically invisible — OIDs, keys and all query
    /// answers are unchanged — and its I/O is counted like any other
    /// access (reported in the [`ReorgReport`]). With heat tracking off the
    /// pass degenerates to an identity rewrite. Defaults to
    /// [`crate::CoreError::Unsupported`] for stores without a placement
    /// pass.
    fn reorganize(&mut self) -> Result<ReorgReport> {
        Err(crate::CoreError::Unsupported {
            model: self.model().paper_name(),
            op: "reorganize (adaptive placement)",
        })
    }
}

/// Resolves an OID to its logical key via the loaded refs (OIDs are dense
/// ordinals).
pub(crate) fn key_of_oid(refs: &[ObjRef], oid: Oid) -> crate::Result<Key> {
    refs.get(oid.0 as usize)
        .map(|r| r.key)
        .ok_or_else(|| crate::CoreError::no_such_object(oid))
}

/// Decodes attribute `attr` (of type `ty`) of the tuple encoded in `bytes`
/// at the offset the tuple's own directory gives, touching nothing else.
/// For `INT`/`LINK` attributes this allocates nothing, so it is safe inside
/// a page closure.
pub(crate) fn peek_attr<S: ByteSource + ?Sized>(
    bytes: &S,
    attr: usize,
    ty: &AttrType,
) -> Result<Value> {
    let at = starfish_nf2::attr_offset(bytes, 0, attr)?;
    Ok(starfish_nf2::decode_attr(bytes, ty, at)?)
}

/// [`peek_attr`] of an `INT` attribute (the keys and counters).
pub(crate) fn peek_int<S: ByteSource + ?Sized>(bytes: &S, attr: usize) -> Result<i32> {
    Ok(peek_attr(bytes, attr, &AttrType::Int)?
        .as_int()
        .expect("decode_attr(Int) yields Int"))
}

/// The body of `STR` attribute `attr` of the tuple encoded in `bytes`
/// (after its length prefix), found where the tuple's own directory says
/// it is: the bytes a root update overwrites. The stored string must be
/// valid and `len` bytes long (updates preserve structure, §2.2), else
/// [`crate::CoreError::size_changed`].
pub(crate) fn str_body<S: ByteSource + ?Sized>(
    bytes: &S,
    attr: usize,
    len: usize,
) -> Result<Range<usize>> {
    let at = starfish_nf2::attr_offset(bytes, 0, attr)?;
    let old = bytes.str_value(at)?.len();
    if old != len {
        return Err(crate::CoreError::size_changed(old, len));
    }
    let body = at + starfish_nf2::overhead::PER_STRING;
    Ok(body..body + old)
}

/// Overwrites `STR` attribute `attr` of the tuple encoded in `bytes` with
/// `new`, in place ([`str_body`]) — the root update of every model that
/// patches a copy. On an error `bytes` is untouched.
pub(crate) fn overwrite_str(bytes: &mut [u8], attr: usize, new: &str) -> Result<()> {
    let body = str_body(&*bytes, attr, new.len())?;
    bytes[body].copy_from_slice(new.as_bytes());
    Ok(())
}

/// Indices of the four relations of the normalized models in schema order:
/// every per-relation array of `nsm.rs` and `dasdbs_nsm.rs` is indexed by
/// them.
pub(crate) const STATION: usize = 0;
pub(crate) const PLATFORM: usize = 1;
pub(crate) const CONNECTION: usize = 2;
pub(crate) const SIGHTSEEING: usize = 3;

/// Applies `proj` to a fully materialized station tuple (identity for the
/// full projection) — the common tail of every retrieval path.
pub(crate) fn apply_station_proj(t: Tuple, proj: &Projection) -> Tuple {
    if proj.is_all() {
        t
    } else {
        proj.apply(&t, &starfish_nf2::station::station_schema())
    }
}

/// The nested `Station` tuple of a normalized model's flat root tuple
/// (`Key`, `NoPlatform`, `NoSeeing`, `Name` lead it) and the object's
/// reassembled sub-relations — with both empty, the object's root record.
pub(crate) fn station_tuple(root: &Tuple, platforms: Vec<Tuple>, seeings: Vec<Tuple>) -> Tuple {
    let mut values = Vec::with_capacity(6);
    values.extend_from_slice(&root.values[..4]);
    values.push(Value::Rel(platforms));
    values.push(Value::Rel(seeings));
    Tuple::new(values)
}

/// Computes `tuples_per_object`, guarding the empty database.
pub(crate) fn per_object(total: u64, objects: usize) -> f64 {
    if objects == 0 {
        0.0
    } else {
        total as f64 / objects as f64
    }
}

/// Computes the average of `total_bytes` over `count` items, 0 when empty.
pub(crate) fn avg(total_bytes: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_bytes as f64 / count as f64
    }
}
