//! The **DASDBS-NSM** storage model (§3.4).
//!
//! The flat NSM relations are re-nested on the foreign keys (Figure 4), so
//! every object has **exactly one tuple per relation**:
//!
//! ```text
//! DASDBS-NSM-Station     [ Key | NoPlatform | NoSeeing | Name ]               (flat)
//! DASDBS-NSM-Platform    [ RootKey | {( OwnKey, PlatformNr, NoLine, TicketCode, Information )} ]
//! DASDBS-NSM-Connection  [ RootKey | {( ParentKey, {( LineNr, KeyConnection,
//!                                                     OidConnection, DepartureTimes )} )} ]
//! DASDBS-NSM-Sightseeing [ RootKey | {( SeeingNr, Description, Location, History, Remarks )} ]
//! ```
//!
//! Nesting removes the foreign-key replication and makes it "efficient to
//! keep an additional table (index) with a single entry per object and a
//! fixed and limited number of addresses": the **transformation table**,
//! kept memory-resident here exactly as the paper keeps it (its accesses are
//! not counted — §5.1 excludes the address tables from the I/O counts).

use crate::object_file::ObjectFile;
use crate::placement::{self, HeatRanking, ObjectHeat};
use crate::store::{patch_root_name, Model, Store};
use crate::traits::{
    apply_station_proj, avg, key_of_oid, peek_int, per_object, station_tuple, ObjRef, RelationInfo,
    RootPatch, CONNECTION, PLATFORM, SIGHTSEEING, STATION,
};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::Station;
use starfish_nf2::{
    decode, decode_projected_at, decode_tuple_at, encode, encode_with_layout, AttrDef, AttrType,
    Key, Oid, Projection, RelSchema, Tuple, Value,
};
use starfish_pagestore::{BufferPool, HeapFile, PageCache, PageId, Rid, SimDisk};
use std::collections::HashMap;

/// Schema of the flat `DASDBS-NSM-Station` relation.
pub fn dnsm_station_schema() -> RelSchema {
    RelSchema::new(
        "DASDBS-NSM-Station",
        vec![
            AttrDef::new("Key", AttrType::Int),
            AttrDef::new("NoPlatform", AttrType::Int),
            AttrDef::new("NoSeeing", AttrType::Int),
            AttrDef::new("Name", AttrType::Str),
        ],
    )
}

/// Schema of the nested `DASDBS-NSM-Platform` relation.
pub fn dnsm_platform_schema() -> RelSchema {
    RelSchema::new(
        "DASDBS-NSM-Platform",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new(
                "Platforms",
                AttrType::Rel(Box::new(RelSchema::new(
                    "PlatformsOfStation",
                    vec![
                        AttrDef::new("OwnKey", AttrType::Int),
                        AttrDef::new("PlatformNr", AttrType::Int),
                        AttrDef::new("NoLine", AttrType::Int),
                        AttrDef::new("TicketCode", AttrType::Int),
                        AttrDef::new("Information", AttrType::Str),
                    ],
                ))),
            ),
        ],
    )
}

/// Schema of the doubly-nested `DASDBS-NSM-Connection` relation.
pub fn dnsm_connection_schema() -> RelSchema {
    RelSchema::new(
        "DASDBS-NSM-Connection",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new(
                "ConnectionsOfStation",
                AttrType::Rel(Box::new(RelSchema::new(
                    "ConnectionsOfPlatform",
                    vec![
                        AttrDef::new("ParentKey", AttrType::Int),
                        AttrDef::new(
                            "Connections",
                            AttrType::Rel(Box::new(RelSchema::new(
                                "Connection",
                                vec![
                                    AttrDef::new("LineNr", AttrType::Int),
                                    AttrDef::new("KeyConnection", AttrType::Int),
                                    AttrDef::new("OidConnection", AttrType::Link),
                                    AttrDef::new("DepartureTimes", AttrType::Str),
                                ],
                            ))),
                        ),
                    ],
                ))),
            ),
        ],
    )
}

/// Schema of the nested `DASDBS-NSM-Sightseeing` relation.
pub fn dnsm_sightseeing_schema() -> RelSchema {
    RelSchema::new(
        "DASDBS-NSM-Sightseeing",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new(
                "Sightseeings",
                AttrType::Rel(Box::new(RelSchema::new(
                    "SightseeingsOfStation",
                    vec![
                        AttrDef::new("SeeingNr", AttrType::Int),
                        AttrDef::new("Description", AttrType::Str),
                        AttrDef::new("Location", AttrType::Str),
                        AttrDef::new("History", AttrType::Str),
                        AttrDef::new("Remarks", AttrType::Str),
                    ],
                ))),
            ),
        ],
    )
}

/// The DASDBS-NSM store, generic over the buffer pool it runs on (see
/// `Store` in `store.rs`).
pub type DasdbsNsmStore<P = BufferPool> = Store<DasdbsNsmModel, P>;

/// Layout and access paths of DASDBS-NSM.
pub struct DasdbsNsmModel {
    /// The schemas of the four relations in schema order (station,
    /// platform, connection, sightseeing), built once.
    schemas: [RelSchema; 4],
    /// What navigation needs of a nested connection tuple:
    /// `KeyConnection` and `OidConnection` of every connection.
    navigation: Projection,
}

impl DasdbsNsmStore {
    /// Creates an empty DASDBS-NSM store.
    pub fn new(config: StoreConfig) -> Self {
        let pool = config.buffer.build(SimDisk::new());
        Self::with_pool(&config, pool)
    }
}

impl<P: PageCache> DasdbsNsmStore<P> {
    /// Creates an empty DASDBS-NSM store over an externally built pool.
    pub fn with_pool(_config: &StoreConfig, pool: P) -> Self {
        let model = DasdbsNsmModel {
            schemas: [
                dnsm_station_schema(),
                dnsm_platform_schema(),
                dnsm_connection_schema(),
                dnsm_sightseeing_schema(),
            ],
            navigation: Projection::Attrs(vec![(
                1,
                Projection::Attrs(vec![(
                    1,
                    Projection::Attrs(vec![(1, Projection::All), (2, Projection::All)]),
                )]),
            )]),
        };
        Store::over(model, pool)
    }
}

/// The transformation-table entry: the addresses of the (up to) four tuples
/// that together store one object. Ordinals index the [`ObjectFile`]s.
#[derive(Clone, Copy, Debug)]
struct TransEntry {
    station: Rid,
    ordinal: usize,
}

/// Everything a reorganization replaces in one shot: the root heap, the
/// three nested object files and the transformation table that points into
/// them. The adaptive-placement pass builds a fresh copy off to the side
/// and the store swaps it in (the old extents stay on disk, merely
/// orphaned).
pub struct DnsmState {
    station: HeapFile,
    platform: ObjectFile,
    connection: ObjectFile,
    sightseeing: ObjectFile,
    /// The transformation table: `key → tuple addresses` (memory-resident,
    /// uncounted, exactly like the paper's).
    trans: HashMap<Key, TransEntry>,
    /// Encoded bytes of the root relation, fixed at load.
    station_bytes: u64,
}

impl DnsmState {
    fn entry(&self, key: Key) -> Result<TransEntry> {
        self.trans
            .get(&key)
            .copied()
            .ok_or_else(|| CoreError::no_such_key(key))
    }

    /// The three nested relations in schema order.
    fn nested(&self) -> [&ObjectFile; 3] {
        [&self.platform, &self.connection, &self.sightseeing]
    }
}

impl DasdbsNsmModel {
    /// Reads and reassembles one full object through the transformation
    /// table: four addressed tuple reads (the paper's query-1a path), each
    /// decoded where its pages are.
    fn materialize(&self, at: &DnsmState, pool: &mut impl PageCache, key: Key) -> Result<Tuple> {
        let e = at.entry(key)?;
        let schemas = &self.schemas;
        let root = at
            .station
            .with_record(pool, e.station, |b| decode(b, &schemas[STATION]))??;
        let mut nested = |rel: usize| {
            let file = at.nested()[rel - PLATFORM];
            file.visit_full(pool, e.ordinal, |b| decode_tuple_at(b, &schemas[rel], 0))
        };
        let platforms = nested(PLATFORM)??;
        let connections = nested(CONNECTION)??;
        let seeings = nested(SIGHTSEEING)??;
        Ok(assemble(&root, &platforms, &connections, &seeings))
    }
}

/// Builds the per-relation nested tuples for one station.
fn nested_tuples(s: &Station) -> (Tuple, Tuple, Tuple, Tuple) {
    let root = Tuple::new(vec![
        Value::Int(s.key),
        Value::Int(s.platforms.len() as i32),
        Value::Int(s.sightseeings.len() as i32),
        Value::Str(s.name.clone()),
    ]);
    let platforms = Tuple::new(vec![
        Value::Int(s.key),
        Value::Rel(
            s.platforms
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    Tuple::new(vec![
                        Value::Int(i as i32),
                        Value::Int(p.platform_nr),
                        Value::Int(p.no_line),
                        Value::Int(p.ticket_code),
                        Value::Str(p.information.clone()),
                    ])
                })
                .collect(),
        ),
    ]);
    let connections = Tuple::new(vec![
        Value::Int(s.key),
        Value::Rel(
            s.platforms
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    Tuple::new(vec![
                        Value::Int(i as i32),
                        Value::Rel(
                            p.connections
                                .iter()
                                .map(|c| {
                                    Tuple::new(vec![
                                        Value::Int(c.line_nr),
                                        Value::Int(c.key_connection),
                                        Value::Link(c.oid_connection),
                                        Value::Str(c.departure_times.clone()),
                                    ])
                                })
                                .collect(),
                        ),
                    ])
                })
                .collect(),
        ),
    ]);
    let sightseeings = Tuple::new(vec![
        Value::Int(s.key),
        Value::Rel(
            s.sightseeings
                .iter()
                .map(|g| {
                    Tuple::new(vec![
                        Value::Int(g.seeing_nr),
                        Value::Str(g.description.clone()),
                        Value::Str(g.location.clone()),
                        Value::Str(g.history.clone()),
                        Value::Str(g.remarks.clone()),
                    ])
                })
                .collect(),
        ),
    ]);
    (root, platforms, connections, sightseeings)
}

/// Reassembles the original nested `Station` tuple from the four relation
/// tuples (the join, executed in memory with the addresses from the
/// transformation table "to efficiently support the join execution").
fn assemble(root: &Tuple, platforms: &Tuple, connections: &Tuple, seeings: &Tuple) -> Tuple {
    let mut conns_by_parent: HashMap<i32, Vec<Tuple>> = HashMap::new();
    if let Some(Value::Rel(groups)) = connections.attr(1) {
        for g in groups {
            let parent = g.attr(0).and_then(Value::as_int).unwrap_or(0);
            if let Some(Value::Rel(cs)) = g.attr(1) {
                conns_by_parent
                    .entry(parent)
                    .or_default()
                    .extend(cs.iter().cloned());
            }
        }
    }
    let platform_tuples: Vec<Tuple> = platforms
        .attr(1)
        .and_then(Value::as_rel)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            let own = p.attr(0).and_then(Value::as_int).unwrap_or(0);
            let mut vals = p.values[1..].to_vec();
            vals.push(Value::Rel(conns_by_parent.remove(&own).unwrap_or_default()));
            Tuple::new(vals)
        })
        .collect();
    let seeing_tuples: Vec<Tuple> = seeings
        .attr(1)
        .and_then(Value::as_rel)
        .unwrap_or(&[])
        .to_vec();
    station_tuple(root, platform_tuples, seeing_tuples)
}

impl Model for DasdbsNsmModel {
    type Placement = DnsmState;

    fn kind(&self) -> ModelKind {
        ModelKind::DasdbsNsm
    }

    fn load(&self, pool: &mut impl PageCache, stations: &[Station]) -> Result<DnsmState> {
        let mut st_recs = Vec::with_capacity(stations.len());
        let mut pl_objs = Vec::with_capacity(stations.len());
        let mut co_objs = Vec::with_capacity(stations.len());
        let mut se_objs = Vec::with_capacity(stations.len());
        for s in stations {
            let (root, platforms, connections, seeings) = nested_tuples(s);
            st_recs.push(encode(&root, &self.schemas[STATION])?);
            pl_objs.push(encode_with_layout(&platforms, &self.schemas[PLATFORM])?);
            co_objs.push(encode_with_layout(&connections, &self.schemas[CONNECTION])?);
            se_objs.push(encode_with_layout(&seeings, &self.schemas[SIGHTSEEING])?);
        }
        let (station, st_rids) = HeapFile::bulk_load(pool, "DASDBS-NSM-Station", &st_recs)?;
        Ok(DnsmState {
            station,
            platform: ObjectFile::bulk_load(pool, "DASDBS-NSM-Platform", &pl_objs)?,
            connection: ObjectFile::bulk_load(pool, "DASDBS-NSM-Connection", &co_objs)?,
            sightseeing: ObjectFile::bulk_load(pool, "DASDBS-NSM-Sightseeing", &se_objs)?,
            trans: (stations.iter().zip(st_rids).enumerate())
                .map(|(ordinal, (s, station))| (s.key, TransEntry { station, ordinal }))
                .collect(),
            station_bytes: st_recs.iter().map(|r| r.len() as u64).sum(),
        })
    }

    fn get_by_oid(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        oid: Oid,
        proj: &Projection,
    ) -> Result<Tuple> {
        let t = self.materialize(at, pool, key_of_oid(objects, oid)?)?;
        Ok(apply_station_proj(t, proj))
    }

    /// "Only the root tuple of the object is selected based on a value
    /// selection, whereupon we use the addresses in the index table to
    /// retrieve all other data by address" (§4).
    fn get_by_key(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        key: Key,
        proj: &Projection,
    ) -> Result<Tuple> {
        let mut found = false;
        at.station.scan(pool, |_, bytes| {
            found |= peek_int(bytes, 0).is_ok_and(|k| k == key);
        })?;
        if !found {
            return Err(CoreError::no_such_key(key));
        }
        Ok(apply_station_proj(self.materialize(at, pool, key)?, proj))
    }

    /// Materializes every object through the transformation table in
    /// `objects` (OID) order.
    fn scan_all(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<()> {
        for r in objects {
            f(&self.materialize(at, pool, r.key)?);
        }
        Ok(())
    }

    /// One nested connection tuple per ref, of which only the child
    /// references are decoded.
    fn children_of(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<ObjRef>> {
        let mut out = Vec::new();
        for r in refs {
            let e = at.entry(r.key)?;
            let t = at.connection.visit_full(pool, e.ordinal, |b| {
                decode_projected_at(b, &self.schemas[CONNECTION], 0, &self.navigation)
            })??;
            if let Some(Value::Rel(groups)) = t.attr(1) {
                for g in groups {
                    if let Some(Value::Rel(cs)) = g.attr(1) {
                        for c in cs {
                            out.push(ObjRef {
                                key: c.attr(1).and_then(Value::as_int).unwrap_or(0),
                                oid: c.attr(2).and_then(Value::as_link).unwrap_or(Oid(0)),
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// One addressed root tuple per ref.
    fn root_records(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<Tuple>> {
        let schema = &self.schemas[STATION];
        refs.iter()
            .map(|r| {
                let rid = at.entry(r.key)?.station;
                let root = at.station.with_record(pool, rid, |b| decode(b, schema))??;
                Ok(station_tuple(&root, vec![], vec![]))
            })
            .collect()
    }

    /// The replace-tuple path on the root relation only: "with DASDBS-NSM
    /// only small root tuples in the DASDBS-NSM-Station relation are
    /// updated" (§5.3).
    fn update_roots(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
        patch: &RootPatch,
    ) -> Result<()> {
        for r in refs {
            let rid = at.entry(r.key)?.station;
            patch_root_name(&at.station, &self.schemas[STATION], pool, rid, patch)?;
        }
        Ok(())
    }

    fn relation_info(&self, at: &DnsmState, objects: usize) -> Vec<RelationInfo> {
        let s_tuple =
            avg(at.station_bytes, objects as u64) + starfish_pagestore::SLOT_ENTRY_SIZE as f64;
        let mut out = vec![RelationInfo {
            name: "DASDBS-NSM-Station".into(),
            tuples_per_object: 1.0,
            total_tuples: objects as u64,
            avg_tuple_bytes: s_tuple,
            k: Some((starfish_pagestore::EFFECTIVE_PAGE_SIZE as f64 / s_tuple) as u32),
            p: None,
            m: at.station.page_count(),
        }];
        out.extend(at.nested().map(|file| RelationInfo {
            name: file.name().to_string(),
            tuples_per_object: per_object(file.len() as u64, objects),
            total_tuples: file.len() as u64,
            avg_tuple_bytes: file.avg_stored_bytes(),
            k: file.tuples_per_page(),
            p: file.avg_spanned_pages(),
            m: file.total_pages(),
        }));
        out
    }

    /// From the memory-resident transformation table alone: no I/O, the
    /// addresses already name every page each object touches. Packed cost:
    /// page-sharing tuples at their relation's current density, spanned
    /// tuples keeping their extents.
    fn object_heats(
        &self,
        at: &DnsmState,
        _pool: &mut impl PageCache,
        objects: &[ObjRef],
        heat: &HashMap<PageId, u64>,
    ) -> Result<Vec<ObjectHeat>> {
        let st_density = if objects.is_empty() {
            0.0
        } else {
            f64::from(at.station.page_count()) / objects.len() as f64
        };
        let files = at.nested();
        let costs = files.map(ObjectFile::packed_costs);
        objects
            .iter()
            .enumerate()
            .map(|(ord, r)| {
                let e = at.entry(r.key)?;
                let mut pages = vec![e.station.page];
                let mut packed = st_density;
                for (f, cost) in files.iter().zip(&costs) {
                    pages.extend(f.latch_pages_of(e.ordinal)?);
                    packed += cost[e.ordinal];
                }
                Ok(ObjectHeat::new(ord, pages, heat, packed))
            })
            .collect()
    }

    /// Materializes every object's four tuples through the transformation
    /// table (counted reads), bulk-loads fresh extents with the hot set
    /// first, and rebuilds the table. The object files restore ordinal
    /// addressing afterwards, so old ordinals stay valid; the old extents
    /// stay on disk, orphaned.
    fn rebuild(
        &self,
        at: &DnsmState,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
    ) -> Result<(DnsmState, HeatRanking, u32)> {
        let heat = placement::heat_map(pool.page_heat());
        let ranking = placement::rank(&self.object_heats(at, pool, objects, &heat)?);
        let schemas = &self.schemas[PLATFORM..];
        let mut st_recs = Vec::with_capacity(objects.len());
        let mut nested: [Vec<_>; 3] = Default::default();
        for &ord in &ranking.order {
            let e = at.trans[&objects[ord].key];
            st_recs.push(at.station.read(pool, e.station)?);
            for ((file, schema), out) in at.nested().iter().zip(schemas).zip(&mut nested) {
                let bytes = file.read_full(pool, e.ordinal)?;
                out.push(encode_with_layout(&decode(&bytes, schema)?, schema)?);
            }
        }
        let (station, st_rids) = HeapFile::bulk_load(pool, "DASDBS-NSM-Station", &st_recs)?;
        let mut platform = ObjectFile::bulk_load(pool, "DASDBS-NSM-Platform", &nested[0])?;
        let mut connection = ObjectFile::bulk_load(pool, "DASDBS-NSM-Connection", &nested[1])?;
        let mut sightseeing = ObjectFile::bulk_load(pool, "DASDBS-NSM-Sightseeing", &nested[2])?;
        for file in [&mut platform, &mut connection, &mut sightseeing] {
            file.restore_input_order(&ranking.order);
        }
        // Position i of the bulk load holds the object of (old) ordinal
        // `order[i]`; the object files restored ordinal addressing above, so
        // every entry keeps its old ordinal and only the station RID changes.
        let trans = (ranking.order.iter().zip(st_rids))
            .map(|(&ordinal, station)| (objects[ordinal].key, TransEntry { station, ordinal }))
            .collect();
        let new = DnsmState {
            station,
            platform,
            connection,
            sightseeing,
            trans,
            station_bytes: at.station_bytes,
        };
        let mut hot_pages: Vec<Vec<PageId>> = Vec::new();
        for &ord in ranking.hot_ordinals() {
            let mut ps = vec![new.trans[&objects[ord].key].station.page];
            for file in new.nested() {
                ps.extend(file.latch_pages_of(ord)?);
            }
            hot_pages.push(ps);
        }
        let hot_pages_after = placement::distinct_pages(hot_pages.iter().map(Vec::as_slice));
        Ok((new, ranking, hot_pages_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComplexObjectStore;
    use starfish_nf2::station::{attr, Connection, Platform, Sightseeing};

    fn station(key: i32, n_seeing: usize, children: &[(Key, u32)]) -> Station {
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
            sightseeings: (0..n_seeing)
                .map(|i| Sightseeing {
                    seeing_nr: i as i32,
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
            station(20, 12, &[(21, 1), (22, 2), (23, 3)]), // sightseeing spans pages
            station(21, 0, &[(22, 2)]),
            station(22, 3, &[(20, 0), (23, 3)]),
            station(23, 1, &[]),
        ]
    }

    fn make() -> DasdbsNsmStore {
        let mut s = DasdbsNsmStore::new(StoreConfig::default());
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn get_by_oid_reassembles_exactly() {
        let mut s = make();
        for (i, expect) in db().iter().enumerate() {
            let t = s.get_by_oid(Oid(i as u32), &Projection::All).unwrap();
            assert_eq!(&Station::from_tuple(&t).unwrap(), expect);
        }
    }

    #[test]
    fn get_by_key_scans_root_then_uses_addresses() {
        let mut s = make();
        s.clear_cache().unwrap();
        s.reset_stats();
        let t = s.get_by_key(22, &Projection::All).unwrap();
        assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
        let snap = s.snapshot();
        let root_m = s.placement().unwrap().station.page_count() as u64;
        // Scan of the root relation + a handful of addressed reads.
        assert!(snap.pages_read >= root_m);
        assert!(snap.pages_read <= root_m + 8);
    }

    #[test]
    fn children_of_reads_connection_tuple_only() {
        let mut s = make();
        s.clear_cache().unwrap();
        s.reset_stats();
        let out = s
            .children_of(&[ObjRef {
                oid: Oid(0),
                key: 20,
            }])
            .unwrap();
        let expect: Vec<ObjRef> = db()[0]
            .child_refs()
            .into_iter()
            .map(|(key, oid)| ObjRef { oid, key })
            .collect();
        assert_eq!(out, expect);
        // One small nested tuple: a page or two, never a scan.
        assert!(s.snapshot().pages_read <= 3);
    }

    #[test]
    fn root_records_read_one_page_per_object() {
        let mut s = make();
        s.clear_cache().unwrap();
        s.reset_stats();
        let refs: Vec<ObjRef> = (db().iter().enumerate())
            .map(|(i, st)| ObjRef {
                oid: Oid(i as u32),
                key: st.key,
            })
            .collect();
        let recs = s.root_records(&refs).unwrap();
        assert_eq!(recs.len(), 4);
        // All 4 root tuples share the single station page here.
        assert_eq!(s.snapshot().pages_read, 1);
        assert_eq!(s.snapshot().fixes, 4);
    }

    #[test]
    fn update_roots_touches_only_station_relation() {
        let mut s = make();
        let refs = [ObjRef {
            oid: Oid(1),
            key: 21,
        }];
        s.root_records(&refs).unwrap();
        s.reset_stats();
        let new_name = "W".repeat(100);
        s.update_roots(
            &refs,
            &RootPatch {
                new_name: new_name.clone(),
            },
        )
        .unwrap();
        s.flush().unwrap();
        assert_eq!(s.snapshot().pages_written, 1, "one small root page");
        s.clear_cache().unwrap();
        let t = s.get_by_key(21, &Projection::All).unwrap();
        assert_eq!(
            t.attr(attr::NAME).unwrap().as_str(),
            Some(new_name.as_str())
        );
        // Structure untouched.
        assert_eq!(
            Station::from_tuple(&t).unwrap().platforms,
            db()[1].platforms
        );
    }

    #[test]
    fn scan_all_materializes_everything() {
        let mut s = make();
        let mut seen = Vec::new();
        s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db());
    }

    #[test]
    fn relation_info_has_four_relations_one_tuple_per_object() {
        let s = make();
        let info = s.relation_info();
        assert_eq!(info.len(), 4);
        for ri in &info {
            assert!((ri.tuples_per_object - 1.0).abs() < 1e-9, "{}", ri.name);
            assert_eq!(ri.total_tuples, 4);
        }
        // The big sightseeing tuple must be page-spanning.
        let se = &info[3];
        assert_eq!(se.name, "DASDBS-NSM-Sightseeing");
        assert!(se.p.is_some(), "spanned sightseeing tuples report p");
    }

    #[test]
    fn missing_key_and_oid_error() {
        let mut s = make();
        assert!(matches!(
            s.get_by_key(999, &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
        assert!(matches!(
            s.get_by_oid(Oid(44), &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn reorganize_is_logically_invisible() {
        let mut s = DasdbsNsmStore::new(
            StoreConfig::default().heat(starfish_pagestore::HeatConfig::enabled()),
        );
        s.load(&db()).unwrap();
        // Skew the heat, check the stats are metadata-only, reorganize.
        for _ in 0..8 {
            s.get_by_oid(Oid(2), &Projection::All).unwrap();
        }
        s.reset_stats();
        let stats = s.placement_stats().unwrap();
        assert_eq!(s.snapshot().fixes, 0, "stats come from the table alone");
        assert!(stats.heat_total > 0);
        assert!(stats.hot_objects >= 1);
        let report = s.reorganize().unwrap();
        assert_eq!(report.objects, 4);
        assert!(report.pages_written > 0, "fresh extents were written");
        // Same answers, same OIDs, same keys, after the rewrite.
        for (i, expect) in db().iter().enumerate() {
            let t = s.get_by_oid(Oid(i as u32), &Projection::All).unwrap();
            assert_eq!(&Station::from_tuple(&t).unwrap(), expect);
        }
        let t = s.get_by_key(22, &Projection::All).unwrap();
        assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
    }
}
