//! The normalized storage model **NSM** (§3.3), with its optional in-memory
//! index ("NSM+index").
//!
//! The complex object is unnested into four flat relations (Figure 3),
//! with foreign-key attributes added to preserve the object structure
//! (superfluous keys omitted exactly as in the paper):
//!
//! ```text
//! NSM-Station     [ Key | NoPlatform | NoSeeing | Name ]
//! NSM-Platform    [ RootKey | OwnKey | PlatformNr | NoLine | TicketCode | Information ]
//! NSM-Connection  [ RootKey | ParentKey | LineNr | KeyConnection | OidConnection | DepartureTimes ]
//! NSM-Sightseeing [ RootKey | SeeingNr | Description | Location | History | Remarks ]
//! ```
//!
//! Pure NSM has "no efficient addressing mechanism": every lookup is a
//! set-oriented relation scan, and object reassembly joins in main memory
//! (the paper's explicit best-case assumption). With the index enabled, a
//! memory-resident map `key → RIDs` lets NSM read a page "then and only then
//! if a tuple it stores is requested" (§4).

use crate::placement::{self, HeatRanking, ObjectHeat};
use crate::store::{patch_root_name, Model, Store};
use crate::traits::{
    apply_station_proj, avg, key_of_oid, peek_attr, peek_int, per_object, station_tuple, ObjRef,
    RelationInfo, RootPatch, CONNECTION, PLATFORM, SIGHTSEEING, STATION,
};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::Station;
use starfish_nf2::{
    decode, encode, AttrDef, AttrType, Key, Oid, Projection, RelSchema, Tuple, Value,
};
use starfish_pagestore::{BufferPool, HeapFile, PageCache, PageId, Rid, SimDisk};
use std::collections::{HashMap, HashSet};

/// Flat schema of `NSM-Station`.
pub fn nsm_station_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Station",
        vec![
            AttrDef::new("Key", AttrType::Int),
            AttrDef::new("NoPlatform", AttrType::Int),
            AttrDef::new("NoSeeing", AttrType::Int),
            AttrDef::new("Name", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Platform`.
pub fn nsm_platform_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Platform",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("OwnKey", AttrType::Int),
            AttrDef::new("PlatformNr", AttrType::Int),
            AttrDef::new("NoLine", AttrType::Int),
            AttrDef::new("TicketCode", AttrType::Int),
            AttrDef::new("Information", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Connection`.
pub fn nsm_connection_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Connection",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("ParentKey", AttrType::Int),
            AttrDef::new("LineNr", AttrType::Int),
            AttrDef::new("KeyConnection", AttrType::Int),
            AttrDef::new("OidConnection", AttrType::Link),
            AttrDef::new("DepartureTimes", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Sightseeing`.
pub fn nsm_sightseeing_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Sightseeing",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("SeeingNr", AttrType::Int),
            AttrDef::new("Description", AttrType::Str),
            AttrDef::new("Location", AttrType::Str),
            AttrDef::new("History", AttrType::Str),
            AttrDef::new("Remarks", AttrType::Str),
        ],
    )
}

/// The NSM store (pure or indexed), generic over the buffer pool it runs
/// on (see `Store` in `store.rs`).
pub type NsmStore<P = BufferPool> = Store<NsmModel, P>;

/// Layout and access paths of NSM.
pub struct NsmModel {
    /// `true` = the NSM+index variant.
    indexed: bool,
    /// The flat schemas of the four relations in schema order (station,
    /// platform, connection, sightseeing), built once.
    schemas: [RelSchema; 4],
}

impl NsmStore {
    /// Creates an empty NSM store; `indexed` selects the NSM+index variant.
    pub fn new(indexed: bool, config: StoreConfig) -> Self {
        let pool = config.buffer.build(SimDisk::new());
        Self::with_pool(indexed, &config, pool)
    }
}

impl<P: PageCache> NsmStore<P> {
    /// Creates an empty NSM store over an externally built pool.
    pub fn with_pool(indexed: bool, _config: &StoreConfig, pool: P) -> Self {
        let schemas = [
            nsm_station_schema(),
            nsm_platform_schema(),
            nsm_connection_schema(),
            nsm_sightseeing_schema(),
        ];
        Store::over(NsmModel { indexed, schemas }, pool)
    }
}

/// Per-object RIDs kept by the NSM+index variant.
#[derive(Clone, Debug, Default)]
struct ObjRids {
    station: Option<Rid>,
    platforms: Vec<Rid>,
    connections: Vec<Rid>,
    sightseeings: Vec<Rid>,
}

#[derive(Clone, Copy)]
struct RelationBytes {
    total_bytes: u64,
    count: u64,
}

/// Everything a reorganization replaces in one shot: the four heap files
/// plus the address tables that point into them. The adaptive-placement
/// pass builds a fresh copy off to the side and the store swaps it in
/// (the old extents stay on disk, merely orphaned).
pub struct NsmState {
    station: HeapFile,
    platform: HeapFile,
    connection: HeapFile,
    sightseeing: HeapFile,
    /// Memory-resident addresses of root tuples, kept so updates can write
    /// back the tuples just read without a second scan (matching the paper's
    /// measured query-3 overheads); never used for *read* paths in pure NSM.
    station_rids: HashMap<Key, Rid>,
    /// NSM+index only: `key → RIDs of all the object's tuples`.
    index: HashMap<Key, ObjRids>,
    /// Encoded bytes and tuple count per relation, fixed at load.
    sizes: [RelationBytes; 4],
}

impl NsmState {
    /// The four relations in schema order.
    fn files(&self) -> [&HeapFile; 4] {
        [
            &self.station,
            &self.platform,
            &self.connection,
            &self.sightseeing,
        ]
    }

    /// Assembles a state from freshly bulk-loaded relations, (re)building
    /// the address tables from per-relation `(owner key, RID)` pairs — the
    /// one constructor behind `load` and the reorganization pass, so the
    /// two can never drift. The index stays empty for pure NSM.
    fn new(
        indexed: bool,
        loaded: [(HeapFile, Vec<Rid>); 4],
        owners: [&[Key]; 4],
        sizes: [RelationBytes; 4],
    ) -> NsmState {
        fn pairs<'a>(keys: &'a [Key], rids: &'a [Rid]) -> impl Iterator<Item = (Key, Rid)> + 'a {
            keys.iter().copied().zip(rids.iter().copied())
        }
        let [(station, st_rids), (platform, pl_rids), (connection, co_rids), (sightseeing, se_rids)] =
            loaded;
        let mut index: HashMap<Key, ObjRids> = HashMap::new();
        if indexed {
            for (k, rid) in pairs(owners[0], &st_rids) {
                index.entry(k).or_default().station = Some(rid);
            }
            for (k, rid) in pairs(owners[1], &pl_rids) {
                index.entry(k).or_default().platforms.push(rid);
            }
            for (k, rid) in pairs(owners[2], &co_rids) {
                index.entry(k).or_default().connections.push(rid);
            }
            for (k, rid) in pairs(owners[3], &se_rids) {
                index.entry(k).or_default().sightseeings.push(rid);
            }
        }
        NsmState {
            station,
            platform,
            connection,
            sightseeing,
            station_rids: pairs(owners[0], &st_rids).collect(),
            index,
            sizes,
        }
    }
}

/// Bulk-loads the four relations in schema order.
fn bulk_load_relations(
    pool: &mut impl PageCache,
    recs: &[Vec<Vec<u8>>; 4],
) -> Result<[(HeapFile, Vec<Rid>); 4]> {
    Ok([
        HeapFile::bulk_load(pool, "NSM-Station", &recs[0])?,
        HeapFile::bulk_load(pool, "NSM-Platform", &recs[1])?,
        HeapFile::bulk_load(pool, "NSM-Connection", &recs[2])?,
        HeapFile::bulk_load(pool, "NSM-Sightseeing", &recs[3])?,
    ])
}

/// Assembles the nested `Station` tuple from flat parts.
fn assemble(
    station: &Tuple,
    platforms: &[Tuple],
    connections: &[Tuple],
    sightseeings: &[Tuple],
) -> Tuple {
    let mut conns_by_parent: HashMap<i32, Vec<Tuple>> = HashMap::new();
    for c in connections {
        let parent = c.attr(1).and_then(Value::as_int).unwrap_or(0);
        // Strip RootKey + ParentKey: (LineNr, KeyConnection, Oid, Times).
        conns_by_parent
            .entry(parent)
            .or_default()
            .push(Tuple::new(c.values[2..].to_vec()));
    }
    let platform_tuples: Vec<Tuple> = platforms
        .iter()
        .map(|p| {
            let own = p.attr(1).and_then(Value::as_int).unwrap_or(0);
            let mut vals = p.values[2..].to_vec(); // PNr, NoLine, TCode, Inform
            vals.push(Value::Rel(conns_by_parent.remove(&own).unwrap_or_default()));
            Tuple::new(vals)
        })
        .collect();
    let seeing_tuples: Vec<Tuple> = sightseeings
        .iter()
        .map(|s| Tuple::new(s.values[1..].to_vec()))
        .collect();
    station_tuple(station, platform_tuples, seeing_tuples)
}

/// Scans a relation, extracting (with `extract`) the tuples whose `RootKey`
/// (attribute 0) is in `keys`, grouped per key in encounter order. Always
/// reads the whole relation (set-oriented selection).
fn scan_matching<T>(
    pool: &mut impl PageCache,
    file: &HeapFile,
    keys: &HashSet<Key>,
    extract: impl Fn(&[u8]) -> Result<T>,
) -> Result<HashMap<Key, Vec<T>>> {
    let mut out: HashMap<Key, Vec<T>> = HashMap::new();
    let mut err = None;
    file.scan(pool, |_, bytes| {
        if err.is_some() {
            return;
        }
        match peek_int(bytes, 0) {
            Ok(k) if keys.contains(&k) => match extract(bytes) {
                Ok(t) => out.entry(k).or_default().push(t),
                Err(e) => err = Some(e),
            },
            Ok(_) => {}
            Err(e) => err = Some(e),
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// [`scan_matching`] decoding whole tuples against `schema`.
fn scan_tuples(
    pool: &mut impl PageCache,
    file: &HeapFile,
    schema: &RelSchema,
    keys: &HashSet<Key>,
) -> Result<HashMap<Key, Vec<Tuple>>> {
    scan_matching(pool, file, keys, |bytes| Ok(decode(bytes, schema)?))
}

/// Reads tuples by RID (NSM+index path): a page is fixed iff a tuple on
/// it is requested.
fn read_rids(
    pool: &mut impl PageCache,
    file: &HeapFile,
    schema: &RelSchema,
    rids: &[Rid],
) -> Result<Vec<Tuple>> {
    rids.iter()
        .map(|rid| {
            let bytes = file.read(pool, *rid)?;
            Ok(decode(&bytes, schema)?)
        })
        .collect()
}

/// The child reference a flat `NSM-Connection` tuple carries:
/// `KeyConnection` and `OidConnection` read at their directory offsets, so
/// `DepartureTimes` is never decoded and nothing is allocated.
fn connection_ref(bytes: &[u8]) -> Result<ObjRef> {
    Ok(ObjRef {
        key: peek_int(bytes, 3)?,
        oid: peek_attr(bytes, 4, &AttrType::Link)?
            .as_link()
            .expect("decode_attr(Link) yields Link"),
    })
}

impl NsmModel {
    /// Materializes one full object by key: pure NSM scans all relations,
    /// NSM+index reads the root by scan/index depending on `root_by_scan`
    /// and the sub-tuples by RID.
    fn materialize(
        &self,
        state: &NsmState,
        pool: &mut impl PageCache,
        key: Key,
        root_by_scan: bool,
    ) -> Result<Tuple> {
        let schemas = &self.schemas;
        let keys = HashSet::from([key]);
        let root = if root_by_scan {
            let found = scan_tuples(pool, &state.station, &schemas[STATION], &keys)?;
            found
                .get(&key)
                .and_then(|v| v.first())
                .cloned()
                .ok_or_else(|| CoreError::no_such_key(key))?
        } else {
            let rid = state
                .index
                .get(&key)
                .and_then(|r| r.station)
                .ok_or_else(|| CoreError::no_such_key(key))?;
            decode(&state.station.read(pool, rid)?, &schemas[STATION])?
        };
        let (platforms, connections, sightseeings) = if self.indexed {
            let rids = state.index.get(&key).cloned().unwrap_or_default();
            (
                read_rids(pool, &state.platform, &schemas[PLATFORM], &rids.platforms)?,
                read_rids(
                    pool,
                    &state.connection,
                    &schemas[CONNECTION],
                    &rids.connections,
                )?,
                read_rids(
                    pool,
                    &state.sightseeing,
                    &schemas[SIGHTSEEING],
                    &rids.sightseeings,
                )?,
            )
        } else {
            let mut p = scan_tuples(pool, &state.platform, &schemas[PLATFORM], &keys)?;
            let mut c = scan_tuples(pool, &state.connection, &schemas[CONNECTION], &keys)?;
            let mut s = scan_tuples(pool, &state.sightseeing, &schemas[SIGHTSEEING], &keys)?;
            (
                p.remove(&key).unwrap_or_default(),
                c.remove(&key).unwrap_or_default(),
                s.remove(&key).unwrap_or_default(),
            )
        };
        Ok(assemble(&root, &platforms, &connections, &sightseeings))
    }
}

/// One relation's raw records grouped per root key (encounter order within
/// a key), plus the pages each key's records sit on — the reorganization's
/// working set, collected in one counted sequential scan.
#[derive(Default)]
struct GroupedRelation {
    recs: HashMap<Key, Vec<Vec<u8>>>,
    pages: HashMap<Key, Vec<PageId>>,
}

fn scan_grouped(pool: &mut impl PageCache, file: &HeapFile) -> Result<GroupedRelation> {
    let mut g = GroupedRelation::default();
    let mut err = None;
    file.scan(pool, |rid, bytes| {
        if err.is_some() {
            return;
        }
        match peek_int(bytes, 0) {
            Ok(k) => {
                g.recs.entry(k).or_default().push(bytes.to_vec());
                g.pages.entry(k).or_default().push(rid.page);
            }
            Err(e) => err = Some(e),
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(g),
    }
}

/// [`scan_grouped`] over all four relations, in schema order.
fn scan_all_grouped(pool: &mut impl PageCache, state: &NsmState) -> Result<[GroupedRelation; 4]> {
    let mut groups: [GroupedRelation; 4] = Default::default();
    for (g, f) in groups.iter_mut().zip(state.files()) {
        *g = scan_grouped(pool, f)?;
    }
    Ok(groups)
}

/// Current pages-per-tuple density of each relation — what one tuple costs
/// inside a packed region (`1/k` of a page for these page-sharing tuples).
fn densities(state: &NsmState) -> [f64; 4] {
    let files = state.files();
    std::array::from_fn(|i| match state.sizes[i].count {
        0 => 0.0,
        count => files[i].page_count() as f64 / count as f64,
    })
}

/// Per-object heat from the memory-resident index alone (NSM+index): no
/// I/O, the addresses already name every page each object touches.
fn object_heats_indexed(
    state: &NsmState,
    refs: &[ObjRef],
    heat: &HashMap<PageId, u64>,
) -> Vec<ObjectHeat> {
    let dens = densities(state);
    refs.iter()
        .enumerate()
        .map(|(ord, r)| {
            let rids = state.index.get(&r.key).cloned().unwrap_or_default();
            let mut pages: Vec<PageId> = Vec::new();
            pages.extend(rids.station.iter().map(|x| x.page));
            pages.extend(rids.platforms.iter().map(|x| x.page));
            pages.extend(rids.connections.iter().map(|x| x.page));
            pages.extend(rids.sightseeings.iter().map(|x| x.page));
            let packed = dens[0]
                + dens[1] * rids.platforms.len() as f64
                + dens[2] * rids.connections.len() as f64
                + dens[3] * rids.sightseeings.len() as f64;
            ObjectHeat::new(ord, pages, heat, packed)
        })
        .collect()
}

/// Per-object heat from grouped relation scans (pure NSM has no addresses,
/// so locating tuples costs the usual counted relation scans).
fn object_heats_grouped(
    state: &NsmState,
    groups: &[GroupedRelation; 4],
    refs: &[ObjRef],
    heat: &HashMap<PageId, u64>,
) -> Vec<ObjectHeat> {
    let dens = densities(state);
    refs.iter()
        .enumerate()
        .map(|(ord, r)| {
            let mut pages: Vec<PageId> = Vec::new();
            let mut packed = 0.0;
            for (g, d) in groups.iter().zip(dens) {
                if let Some(ps) = g.pages.get(&r.key) {
                    pages.extend(ps.iter().copied());
                }
                packed += d * g.recs.get(&r.key).map(Vec::len).unwrap_or(0) as f64;
            }
            ObjectHeat::new(ord, pages, heat, packed)
        })
        .collect()
}

impl Model for NsmModel {
    type Placement = NsmState;

    fn kind(&self) -> ModelKind {
        if self.indexed {
            ModelKind::NsmIndexed
        } else {
            ModelKind::Nsm
        }
    }

    fn load(&self, pool: &mut impl PageCache, stations: &[Station]) -> Result<NsmState> {
        let schemas = &self.schemas;
        let mut recs: [Vec<Vec<u8>>; 4] = Default::default();
        // Bookkeeping to map bulk-load RIDs back to objects.
        let mut owners: [Vec<Key>; 4] = Default::default();
        let mut emit = |rel: usize, key: Key, values: Vec<Value>| -> Result<()> {
            owners[rel].push(key);
            recs[rel].push(encode(&Tuple::new(values), &schemas[rel])?);
            Ok(())
        };
        for s in stations {
            let root_key = Value::Int(s.key);
            emit(
                0,
                s.key,
                vec![
                    root_key.clone(),
                    Value::Int(s.platforms.len() as i32),
                    Value::Int(s.sightseeings.len() as i32),
                    Value::Str(s.name.clone()),
                ],
            )?;
            for (pi, p) in s.platforms.iter().enumerate() {
                emit(
                    1,
                    s.key,
                    vec![
                        root_key.clone(),
                        Value::Int(pi as i32),
                        Value::Int(p.platform_nr),
                        Value::Int(p.no_line),
                        Value::Int(p.ticket_code),
                        Value::Str(p.information.clone()),
                    ],
                )?;
                for c in &p.connections {
                    emit(
                        2,
                        s.key,
                        vec![
                            root_key.clone(),
                            Value::Int(pi as i32),
                            Value::Int(c.line_nr),
                            Value::Int(c.key_connection),
                            Value::Link(c.oid_connection),
                            Value::Str(c.departure_times.clone()),
                        ],
                    )?;
                }
            }
            for g in &s.sightseeings {
                emit(
                    3,
                    s.key,
                    vec![
                        root_key.clone(),
                        Value::Int(g.seeing_nr),
                        Value::Str(g.description.clone()),
                        Value::Str(g.location.clone()),
                        Value::Str(g.history.clone()),
                        Value::Str(g.remarks.clone()),
                    ],
                )?;
            }
        }
        let sizes = std::array::from_fn(|i| RelationBytes {
            total_bytes: recs[i].iter().map(|r| r.len() as u64).sum(),
            count: recs[i].len() as u64,
        });
        let loaded = bulk_load_relations(pool, &recs)?;
        Ok(NsmState::new(
            self.indexed,
            loaded,
            owners.each_ref().map(Vec::as_slice),
            sizes,
        ))
    }

    fn get_by_oid(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        oid: Oid,
        proj: &Projection,
    ) -> Result<Tuple> {
        if !self.indexed {
            // "With NSM we have no identifiers, so query 1a is not relevant."
            return Err(CoreError::Unsupported {
                model: "NSM",
                op: "access by OID (query 1a)",
            });
        }
        let t = self.materialize(at, pool, key_of_oid(objects, oid)?, false)?;
        Ok(apply_station_proj(t, proj))
    }

    /// Value selection: the root relation is always scanned; the
    /// sub-relations are scanned (pure) or read by RID (indexed).
    fn get_by_key(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        key: Key,
        proj: &Projection,
    ) -> Result<Tuple> {
        let t = self.materialize(at, pool, key, true)?;
        Ok(apply_station_proj(t, proj))
    }

    /// One set-oriented pass over each of the four relations, objects
    /// reassembled in `objects` (OID) order.
    fn scan_all(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<()> {
        let keys: HashSet<Key> = objects.iter().map(|r| r.key).collect();
        let schemas = &self.schemas;
        let roots = scan_tuples(pool, &at.station, &schemas[STATION], &keys)?;
        let mut platforms = scan_tuples(pool, &at.platform, &schemas[PLATFORM], &keys)?;
        let mut connections = scan_tuples(pool, &at.connection, &schemas[CONNECTION], &keys)?;
        let mut sightseeings = scan_tuples(pool, &at.sightseeing, &schemas[SIGHTSEEING], &keys)?;
        for r in objects {
            let root = roots
                .get(&r.key)
                .and_then(|v| v.first())
                .ok_or_else(|| CoreError::no_such_key(r.key))?;
            let t = assemble(
                root,
                &platforms.remove(&r.key).unwrap_or_default(),
                &connections.remove(&r.key).unwrap_or_default(),
                &sightseeings.remove(&r.key).unwrap_or_default(),
            );
            f(&t);
        }
        Ok(())
    }

    fn children_of(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<ObjRef>> {
        let mut out = Vec::new();
        if self.indexed {
            for r in refs {
                let rids = at.index.get(&r.key).map(|x| x.connections.as_slice());
                for rid in rids.unwrap_or(&[]) {
                    out.push(at.connection.with_record(pool, *rid, connection_ref)??);
                }
            }
        } else {
            // One set-oriented scan of NSM-Connection for the whole ref set.
            let keys: HashSet<Key> = refs.iter().map(|r| r.key).collect();
            let by_key = scan_matching(pool, &at.connection, &keys, connection_ref)?;
            // Preserve per-ref order (and duplicate refs duplicate output).
            for r in refs {
                if let Some(children) = by_key.get(&r.key) {
                    out.extend_from_slice(children);
                }
            }
        }
        Ok(out)
    }

    fn root_records(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<Tuple>> {
        let schema = &self.schemas[STATION];
        if self.indexed {
            refs.iter()
                .map(|r| {
                    let rid = at
                        .index
                        .get(&r.key)
                        .and_then(|x| x.station)
                        .ok_or_else(|| CoreError::no_such_key(r.key))?;
                    let t = decode(&at.station.read(pool, rid)?, schema)?;
                    Ok(station_tuple(&t, vec![], vec![]))
                })
                .collect()
        } else {
            let keys: HashSet<Key> = refs.iter().map(|r| r.key).collect();
            let by_key = scan_tuples(pool, &at.station, schema, &keys)?;
            refs.iter()
                .map(|r| {
                    by_key
                        .get(&r.key)
                        .and_then(|v| v.first())
                        .map(|t| station_tuple(t, vec![], vec![]))
                        .ok_or_else(|| CoreError::no_such_key(r.key))
                })
                .collect()
        }
    }

    fn update_roots(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
        patch: &RootPatch,
    ) -> Result<()> {
        for r in refs {
            let rid = *at
                .station_rids
                .get(&r.key)
                .ok_or_else(|| CoreError::no_such_key(r.key))?;
            patch_root_name(&at.station, &self.schemas[STATION], pool, rid, patch)?;
        }
        Ok(())
    }

    fn relation_info(&self, at: &NsmState, objects: usize) -> Vec<RelationInfo> {
        (at.files().iter().zip(&at.sizes))
            .map(|(f, sz)| {
                let s_tuple =
                    avg(sz.total_bytes, sz.count) + starfish_pagestore::SLOT_ENTRY_SIZE as f64;
                RelationInfo {
                    name: f.name().trim_end_matches("-heap").to_string(),
                    tuples_per_object: per_object(sz.count, objects),
                    total_tuples: sz.count,
                    avg_tuple_bytes: s_tuple,
                    k: (sz.count > 0)
                        .then(|| (starfish_pagestore::EFFECTIVE_PAGE_SIZE as f64 / s_tuple) as u32),
                    p: None,
                    m: f.page_count(),
                }
            })
            .collect()
    }

    fn object_heats(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        heat: &HashMap<PageId, u64>,
    ) -> Result<Vec<ObjectHeat>> {
        Ok(if self.indexed {
            // The memory-resident index names every page: metadata only.
            object_heats_indexed(at, objects, heat)
        } else {
            // Pure NSM has no addresses: locating tuples costs the usual
            // counted relation scans.
            object_heats_grouped(at, &scan_all_grouped(pool, at)?, objects, heat)
        })
    }

    /// Scans all four relations (counted I/O), ranks objects by tracked
    /// heat, bulk-loads fresh extents with the hot set first, and rebuilds
    /// the address tables. Logically invisible — within an object every
    /// record keeps its encounter order, so grouped answers are bit-for-bit
    /// what they were; only the page placement changes. The old extents
    /// stay on disk, orphaned.
    fn rebuild(
        &self,
        at: &NsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
    ) -> Result<(NsmState, HeatRanking, u32)> {
        let heat = placement::heat_map(pool.page_heat());
        let groups = scan_all_grouped(pool, at)?;
        let ranking = placement::rank(&object_heats_grouped(at, &groups, objects, &heat));

        // Re-emit every relation with whole objects in heat order.
        let mut recs: [Vec<Vec<u8>>; 4] = Default::default();
        let mut owners: [Vec<Key>; 4] = Default::default();
        for &ord in &ranking.order {
            let key = objects[ord].key;
            for ((g, out), own) in groups.iter().zip(recs.iter_mut()).zip(owners.iter_mut()) {
                if let Some(rs) = g.recs.get(&key) {
                    out.extend(rs.iter().cloned());
                    own.extend(std::iter::repeat_n(key, rs.len()));
                }
            }
        }
        let loaded = bulk_load_relations(pool, &recs)?;

        let mut pages_after: HashMap<Key, Vec<PageId>> = HashMap::new();
        for (own, (_, rids)) in owners.iter().zip(&loaded) {
            for (k, rid) in own.iter().zip(rids) {
                pages_after.entry(*k).or_default().push(rid.page);
            }
        }
        let hot_pages_after = placement::distinct_pages(ranking.hot_ordinals().iter().map(|&o| {
            pages_after
                .get(&objects[o].key)
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }));
        let new = NsmState::new(
            self.indexed,
            loaded,
            owners.each_ref().map(Vec::as_slice),
            at.sizes,
        );
        Ok((new, ranking, hot_pages_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComplexObjectStore;
    use starfish_nf2::station::{attr, Connection, Platform, Sightseeing};

    fn station(key: i32, children: &[(Key, u32)]) -> Station {
        Station {
            key,
            name: format!("{key:0100}"),
            platforms: children
                .chunks(2)
                .enumerate()
                .map(|(i, chunk)| Platform {
                    platform_nr: i as i32,
                    no_line: 2,
                    ticket_code: 3,
                    information: "i".repeat(100),
                    connections: chunk
                        .iter()
                        .map(|&(k, o)| Connection {
                            line_nr: 7,
                            key_connection: k,
                            oid_connection: Oid(o),
                            departure_times: "t".repeat(100),
                        })
                        .collect(),
                })
                .collect(),
            sightseeings: (0..(key % 4))
                .map(|i| Sightseeing {
                    seeing_nr: i,
                    description: "d".repeat(100),
                    location: "l".repeat(100),
                    history: "h".repeat(100),
                    remarks: "r".repeat(100),
                })
                .collect(),
        }
    }

    fn db() -> Vec<Station> {
        vec![
            station(10, &[(11, 1), (12, 2), (13, 3)]),
            station(11, &[(12, 2)]),
            station(12, &[(10, 0), (13, 3)]),
            station(13, &[]),
        ]
    }

    fn make(indexed: bool) -> NsmStore {
        let mut s = NsmStore::new(indexed, StoreConfig::default());
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn pure_nsm_rejects_oid_access() {
        let mut s = make(false);
        assert!(matches!(
            s.get_by_oid(Oid(0), &Projection::All),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn get_by_key_reassembles_object() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let t = s.get_by_key(10, &Projection::All).unwrap();
            let back = Station::from_tuple(&t).unwrap();
            assert_eq!(back, db()[0], "indexed={indexed}");
        }
    }

    #[test]
    fn indexed_get_by_oid_reassembles() {
        let mut s = make(true);
        let t = s.get_by_oid(Oid(2), &Projection::All).unwrap();
        assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
    }

    #[test]
    fn scan_all_rebuilds_every_object_in_oid_order() {
        let mut s = make(false);
        let mut seen = Vec::new();
        s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db());
    }

    #[test]
    fn children_of_matches_object_structure() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let out = s
                .children_of(&[
                    ObjRef {
                        oid: Oid(0),
                        key: 10,
                    },
                    ObjRef {
                        oid: Oid(1),
                        key: 11,
                    },
                ])
                .unwrap();
            let expect: Vec<ObjRef> = db()[0]
                .child_refs()
                .into_iter()
                .chain(db()[1].child_refs())
                .map(|(key, oid)| ObjRef { oid, key })
                .collect();
            assert_eq!(out, expect, "indexed={indexed}");
        }
    }

    #[test]
    fn duplicate_refs_duplicate_children() {
        let mut s = make(false);
        let r = ObjRef {
            oid: Oid(1),
            key: 11,
        };
        let out = s.children_of(&[r, r]).unwrap();
        assert_eq!(out.len(), 2 * db()[1].child_refs().len());
    }

    #[test]
    fn pure_children_of_costs_one_relation_scan() {
        let mut s = make(false);
        s.clear_cache().unwrap();
        s.reset_stats();
        s.children_of(&[ObjRef {
            oid: Oid(0),
            key: 10,
        }])
        .unwrap();
        let m = s.placement().unwrap().connection.page_count() as u64;
        let snap = s.snapshot();
        assert_eq!(snap.pages_read, m, "whole connection relation scanned");
        assert_eq!(snap.fixes, m);
    }

    #[test]
    fn indexed_children_of_reads_only_needed_pages() {
        let mut s = make(true);
        s.clear_cache().unwrap();
        s.reset_stats();
        s.children_of(&[ObjRef {
            oid: Oid(0),
            key: 10,
        }])
        .unwrap();
        let m = s.placement().unwrap().connection.page_count() as u64;
        let snap = s.snapshot();
        assert!(snap.pages_read <= m);
        assert!(snap.pages_read >= 1);
        assert!(snap.fixes >= 3, "one fix per requested tuple");
    }

    #[test]
    fn root_records_and_update() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let refs = [ObjRef {
                oid: Oid(3),
                key: 13,
            }];
            let recs = s.root_records(&refs).unwrap();
            assert_eq!(recs[0].attr(attr::KEY).unwrap().as_int(), Some(13));
            let new_name = "Q".repeat(100);
            s.update_roots(
                &refs,
                &RootPatch {
                    new_name: new_name.clone(),
                },
            )
            .unwrap();
            s.clear_cache().unwrap();
            let t = s.get_by_key(13, &Projection::All).unwrap();
            assert_eq!(
                t.attr(attr::NAME).unwrap().as_str(),
                Some(new_name.as_str())
            );
        }
    }

    #[test]
    fn update_rejects_wrong_length() {
        let mut s = make(false);
        assert!(s
            .update_roots(
                &[ObjRef {
                    oid: Oid(0),
                    key: 10
                }],
                &RootPatch {
                    new_name: "tiny".into()
                }
            )
            .is_err());
    }

    #[test]
    fn relation_info_reports_four_relations() {
        let s = make(false);
        let info = s.relation_info();
        assert_eq!(info.len(), 4);
        assert_eq!(info[0].name, "NSM-Station");
        assert_eq!(info[0].total_tuples, 4);
        assert_eq!(info[2].name, "NSM-Connection");
        assert_eq!(info[2].total_tuples, 6);
        // Station tuple: 150 encoded + 4 slot = 154 ⇒ k = 13 (Table 2).
        assert_eq!(info[0].k, Some(13));
        assert!((info[0].avg_tuple_bytes - 154.0).abs() < 1e-9);
        // Connection tuple: 166 + 4 = 170 ⇒ k = 11 (Table 2, exact).
        assert_eq!(info[2].k, Some(11));
        assert!((info[2].avg_tuple_bytes - 170.0).abs() < 1e-9);
    }

    #[test]
    fn missing_key_errors() {
        let mut s = make(false);
        assert!(matches!(
            s.get_by_key(999, &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn reorganize_is_logically_invisible() {
        for indexed in [false, true] {
            let mut s = NsmStore::new(
                indexed,
                StoreConfig::default().heat(starfish_pagestore::HeatConfig::enabled()),
            );
            s.load(&db()).unwrap();
            // Skew the heat towards one object, then reorganize.
            for _ in 0..8 {
                s.get_by_key(12, &Projection::All).unwrap();
            }
            let stats = s.placement_stats().unwrap();
            assert!(stats.heat_total > 0, "indexed={indexed}: heat tracked");
            assert!(stats.hot_objects >= 1);
            let report = s.reorganize().unwrap();
            assert_eq!(report.objects, 4);
            assert!(report.pages_written > 0, "fresh extents were written");
            // Same answers, same OIDs, same keys, after the rewrite.
            let mut seen = Vec::new();
            s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
                .unwrap();
            assert_eq!(seen, db(), "indexed={indexed}");
            let t = s.get_by_key(12, &Projection::All).unwrap();
            assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
            if indexed {
                let t = s.get_by_oid(Oid(1), &Projection::All).unwrap();
                assert_eq!(Station::from_tuple(&t).unwrap(), db()[1]);
            }
        }
    }

    #[test]
    fn reorganize_without_heat_is_identity_rewrite() {
        let mut s = make(true);
        let report = s.reorganize().unwrap();
        assert_eq!(report.moved, 0, "no heat: placement order is unchanged");
        assert_eq!(report.heat_total, 0);
        assert_eq!(report.hot_objects, 0);
        let mut seen = Vec::new();
        s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db());
    }
}
