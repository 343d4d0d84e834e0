//! The direct storage models: **DSM** (§3.1) and **DASDBS-DSM** (§3.2).
//!
//! Both store each complex object as one contiguous unit: small objects
//! share slotted pages, large objects get a private extent of header
//! (structure) pages plus data pages. They differ only in the access path:
//!
//! * **DSM** always *reads* the whole object — every page of the extent is
//!   fixed no matter how little of the object a query needs (§3.1) — and
//!   updates replace the entire nested tuple (all pages dirtied).
//! * **DASDBS-DSM** first reads the object header, then fetches **only the
//!   data pages containing the projected attributes** ("from the set of
//!   pages that stores the object, only those pages are retrieved that are
//!   actually used in a query"). Its updates use the DASDBS
//!   `change attribute` operation, which patches the covering page(s) but
//!   also allocates a one-page *page pool* whose pages are written per
//!   operation — the write-amplification anomaly of §5.3.
//!
//! What is read and what is *decoded* are separate: from the bytes its
//! access path fetched, either model decodes only what the query projects
//! ([`decode_projected_at`] walks the encoding's own directory), so CPU and
//! allocation follow the answer while pages, calls and fixes follow the
//! paper.

use crate::object_file::ObjectFile;
use crate::placement::{self, HeatRanking, ObjectHeat};
use crate::store::{commit_or_abort, Model, Store};
use crate::traits::{overwrite_str, peek_int, ObjRef, RelationInfo, RootPatch};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::{attr, child_refs, proj_navigation, proj_root_record, Station};
use starfish_nf2::{
    decode, decode_projected_at, encode_with_layout, validate_at, Key, Oid, Projection, RelSchema,
    Tuple,
};
use starfish_pagestore::{BufferPool, LatchMode, PageCache, PageId, SimDisk};
use std::collections::HashMap;

/// The two direct storage models, generic over the buffer pool they run on
/// (see `Store` in `store.rs`).
pub type DirectStore<P = BufferPool> = Store<DirectModel, P>;

/// Layout and access paths of DSM and DASDBS-DSM.
pub struct DirectModel {
    /// `false` = DSM, `true` = DASDBS-DSM (header-guided partial reads).
    partial: bool,
    schema: RelSchema,
    /// Sub-tuple-aligned data pages (the wasteful DASDBS layout).
    aligned: bool,
    /// [`proj_navigation`] and [`proj_root_record`], built once.
    navigation: Projection,
    root_record: Projection,
}

/// The direct models' placement: the one object file, plus the scratch
/// extent DASDBS-DSM's `change attribute` page pool writes to.
pub struct DirectPlacement {
    file: ObjectFile,
    scratch: Option<PageId>,
}

impl DirectStore {
    /// Creates an empty direct store. `partial` selects DASDBS-DSM.
    pub fn new(partial: bool, config: StoreConfig) -> Self {
        let pool = config.buffer.build(SimDisk::new());
        Self::with_pool(partial, &config, pool)
    }
}

impl<P: PageCache> DirectStore<P> {
    /// Creates an empty direct store over an externally built pool.
    pub fn with_pool(partial: bool, config: &StoreConfig, pool: P) -> Self {
        let model = DirectModel {
            partial,
            schema: starfish_nf2::station::station_schema(),
            aligned: config.aligned_subtuples,
            navigation: proj_navigation(),
            root_record: proj_root_record(),
        };
        Store::over(model, pool)
    }
}

/// Ordinal of `oid` in `file`.
fn ord_of(file: &ObjectFile, oid: Oid) -> Result<usize> {
    let ord = oid.0 as usize;
    if ord < file.len() {
        Ok(ord)
    } else {
        Err(CoreError::no_such_object(oid))
    }
}

impl DirectModel {
    /// Reads the bytes of object `ord` that `proj` needs using the model's
    /// access path — the one read primitive every retrieval is built from.
    /// The buffer is full-length and valid at least where
    /// [`decode_projected_at`] reads under `proj`.
    ///
    /// No latch: each visit to the pool is one [`PageCache::read_runs`]
    /// call, and the pool hands its sink one consistent image of the pages
    /// it reads — a concurrent writer replacing the object, whose exclusive
    /// group covers the whole extent, is seen entirely or not at all.
    /// DSM's whole-object read is one visit. DASDBS-DSM's projected read
    /// visits the header, then each run of the data ranges it names, which
    /// is consistent because header pages never change after load and the
    /// name a writer changes is read in one visit
    /// ([`ObjectFile::read_projected`]). Heap residents are single-page and
    /// atomic under the pool's shard mutex.
    fn read_bytes(
        &self,
        file: &ObjectFile,
        pool: &mut impl PageCache,
        ord: usize,
        proj: &Projection,
    ) -> Result<Vec<u8>> {
        if self.partial && !proj.is_all() {
            file.read_projected(pool, ord, proj)
        } else {
            // DSM (or a full-projection read): every page of the object.
            file.read_full(pool, ord)
        }
    }

    /// Reads object `ord` under `proj`: [`read_bytes`](Self::read_bytes),
    /// then — on the private copy it returns — the directory walk that
    /// decodes the projection and nothing else.
    fn read_object(
        &self,
        file: &ObjectFile,
        pool: &mut impl PageCache,
        ord: usize,
        proj: &Projection,
    ) -> Result<Tuple> {
        let bytes = self.read_bytes(file, pool, ord, proj)?;
        Ok(decode_projected_at(&bytes, &self.schema, 0, proj)?)
    }

    /// DSM update path: replace the entire nested tuple, read-modify-write
    /// under one **exclusive group latch** over the object's pages so
    /// disjoint objects update in parallel while readers of this object
    /// wait. The read inside is a plain lock session, which passes the
    /// thread's own exclusive latch; only with the batched read engine on
    /// does the pool take a shared group for it, nested inside this one.
    ///
    /// §5.3's "the entire tuple is replaced" is a statement about I/O —
    /// every page of the object is read and every page is dirtied — and
    /// that is what happens. The bytes are not rebuilt: the whole object
    /// is validated as a full decode would check it, the name is patched
    /// where the object's directory says it is, and the same bytes go back.
    fn replace_tuple(
        &self,
        file: &ObjectFile,
        pool: &mut impl PageCache,
        ord: usize,
        patch: &RootPatch,
    ) -> Result<()> {
        let pages = file.latch_pages_of(ord)?;
        let res = pool.with_latched(&pages, LatchMode::Exclusive, |pool| {
            let mut bytes = self.read_bytes(file, pool, ord, &Projection::All)?;
            validate_at(&bytes, &self.schema, 0)?;
            overwrite_str(&mut bytes, attr::NAME, &patch.new_name)?;
            file.rewrite_full(pool, ord, &bytes)
        });
        commit_or_abort(pool, res)
    }

    /// DASDBS-DSM update path: `change attribute` on `Name` + page-pool
    /// write, under one exclusive group latch over the object's pages.
    /// "With DASDBS-DSM ... we cannot replace the entire tuple since for
    /// each tuple only those pages are retrieved that are actually needed.
    /// Therefore the update has been implemented as a 'change attribute'
    /// operation" (§5.3).
    fn change_attribute(
        &self,
        file: &ObjectFile,
        pool: &mut impl PageCache,
        scratch: PageId,
        ord: usize,
        patch: &RootPatch,
    ) -> Result<()> {
        let pages = file.latch_pages_of(ord)?;
        let res = pool.with_latched(&pages, LatchMode::Exclusive, |pool| {
            let name_proj = Projection::Attrs(vec![(attr::NAME, Projection::All)]);
            // Only the name's range was fetched: no whole-object validation.
            let mut bytes = file.read_projected(pool, ord, &name_proj)?;
            let name = overwrite_str(&mut bytes, attr::NAME, &patch.new_name)?;
            let range = name.start as u32..name.end as u32;
            file.patch_range(pool, ord, range, &bytes[name])?;
            // The page pool: every change-attribute operation allocates a pool
            // "of which all pages are written ... even though the page pool is
            // only a single page in size" (§5.3).
            pool.write_pool_pages(scratch, 1)?;
            Ok(())
        });
        commit_or_abort(pool, res)
    }
}

impl Model for DirectModel {
    type Placement = DirectPlacement;

    fn kind(&self) -> ModelKind {
        if self.partial {
            ModelKind::DasdbsDsm
        } else {
            ModelKind::Dsm
        }
    }

    fn load(&self, pool: &mut impl PageCache, stations: &[Station]) -> Result<DirectPlacement> {
        let payloads = stations
            .iter()
            .map(|s| Ok(encode_with_layout(&s.to_tuple(), &self.schema)?))
            .collect::<Result<Vec<_>>>()?;
        let name = if self.partial {
            "DASDBS-DSM-Station"
        } else {
            "DSM-Station"
        };
        Ok(DirectPlacement {
            file: ObjectFile::bulk_load_opts(pool, name, &payloads, self.aligned)?,
            scratch: self.partial.then(|| pool.alloc_extent(1)),
        })
    }

    fn get_by_oid(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        _objects: &[ObjRef],
        oid: Oid,
        proj: &Projection,
    ) -> Result<Tuple> {
        self.read_object(&at.file, pool, ord_of(&at.file, oid)?, proj)
    }

    /// Value selection without an index: set-oriented scan reading every
    /// object (Table 3: query 1b costs the whole relation), peeking each
    /// one's `Key` and materializing only the last match.
    fn get_by_key(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        key: Key,
        proj: &Projection,
    ) -> Result<Tuple> {
        let mut found = None;
        for ord in 0..at.file.len() {
            let bytes = self.read_bytes(&at.file, pool, ord, &Projection::All)?;
            if peek_int(&bytes, attr::KEY)? == key {
                found = Some(bytes);
            }
        }
        let bytes = found.ok_or_else(|| CoreError::no_such_key(key))?;
        Ok(decode_projected_at(&bytes, &self.schema, 0, proj)?)
    }

    fn scan_all(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        _objects: &[ObjRef],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<()> {
        for ord in 0..at.file.len() {
            f(&self.read_object(&at.file, pool, ord, &Projection::All)?);
        }
        Ok(())
    }

    fn children_of(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<ObjRef>> {
        let mut out = Vec::new();
        for r in refs {
            let ord = ord_of(&at.file, r.oid)?;
            let t = self.read_object(&at.file, pool, ord, &self.navigation)?;
            out.extend(
                child_refs(&t)
                    .into_iter()
                    .map(|(key, oid)| ObjRef { oid, key }),
            );
        }
        Ok(out)
    }

    fn root_records(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
    ) -> Result<Vec<Tuple>> {
        refs.iter()
            .map(|r| {
                let ord = ord_of(&at.file, r.oid)?;
                self.read_object(&at.file, pool, ord, &self.root_record)
            })
            .collect()
    }

    fn update_roots(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        refs: &[ObjRef],
        patch: &RootPatch,
    ) -> Result<()> {
        for r in refs {
            let ord = ord_of(&at.file, r.oid)?;
            match at.scratch {
                Some(scratch) => self.change_attribute(&at.file, pool, scratch, ord, patch)?,
                None => self.replace_tuple(&at.file, pool, ord, patch)?,
            }
        }
        Ok(())
    }

    fn relation_info(&self, at: &DirectPlacement, _objects: usize) -> Vec<RelationInfo> {
        let file = &at.file;
        let total = file.len() as u64;
        vec![RelationInfo {
            name: file.name().to_string(),
            tuples_per_object: 1.0,
            total_tuples: total,
            avg_tuple_bytes: file.avg_stored_bytes(),
            k: file.tuples_per_page(),
            p: file.avg_spanned_pages(),
            m: file.total_pages(),
        }]
    }

    /// Each object's extent (or shared heap page) plus its packed-cost
    /// estimate.
    fn object_heats(
        &self,
        at: &DirectPlacement,
        _pool: &mut impl PageCache,
        _objects: &[ObjRef],
        heat: &HashMap<PageId, u64>,
    ) -> Result<Vec<ObjectHeat>> {
        let file = &at.file;
        (file.packed_costs().into_iter().enumerate())
            .map(|(ord, packed)| {
                Ok(ObjectHeat::new(
                    ord,
                    file.latch_pages_of(ord)?,
                    heat,
                    packed,
                ))
            })
            .collect()
    }

    /// Materialize every object (counted reads), bulk-load a fresh file
    /// with objects in heat order (written by the caller's flush), and
    /// restore ordinal addressing so OIDs keep their meaning. The old
    /// extents are simply orphaned on disk.
    fn rebuild(
        &self,
        at: &DirectPlacement,
        pool: &mut impl PageCache,
        objects: &[ObjRef],
    ) -> Result<(DirectPlacement, HeatRanking, u32)> {
        let file = &at.file;
        let heat = placement::heat_map(pool.page_heat());
        let ranking = placement::rank(&self.object_heats(at, pool, objects, &heat)?);
        let mut payloads = Vec::with_capacity(file.len());
        for &ord in &ranking.order {
            let bytes = file.read_full(pool, ord)?;
            let t = decode(&bytes, &self.schema)?;
            payloads.push(encode_with_layout(&t, &self.schema)?);
        }
        let mut new_file =
            ObjectFile::bulk_load_opts(pool, file.name().to_string(), &payloads, self.aligned)?;
        new_file.restore_input_order(&ranking.order);
        let hot_pages: Vec<Vec<_>> = ranking
            .hot_ordinals()
            .iter()
            .map(|&ord| new_file.latch_pages_of(ord))
            .collect::<Result<_>>()?;
        let hot_pages_after = placement::distinct_pages(hot_pages.iter().map(Vec::as_slice));
        let new = DirectPlacement {
            file: new_file,
            scratch: at.scratch,
        };
        Ok((new, ranking, hot_pages_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComplexObjectStore;
    use starfish_nf2::station::{Connection, Platform, Sightseeing};

    fn station(key: i32, n_seeing: usize, children: &[(Key, u32)]) -> Station {
        Station {
            key,
            name: format!("{key:0100}"),
            platforms: if children.is_empty() {
                vec![]
            } else {
                vec![Platform {
                    platform_nr: 1,
                    no_line: 1,
                    ticket_code: 9,
                    information: "i".repeat(100),
                    connections: children
                        .iter()
                        .map(|&(k, o)| Connection {
                            line_nr: 1,
                            key_connection: k,
                            oid_connection: Oid(o),
                            departure_times: "t".repeat(100),
                        })
                        .collect(),
                }]
            },
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
            station(100, 10, &[(101, 1), (102, 2)]), // large
            station(101, 0, &[(102, 2)]),            // small
            station(102, 12, &[(100, 0)]),           // large
        ]
    }

    fn make(partial: bool) -> DirectStore {
        let mut s = DirectStore::new(partial, StoreConfig::default());
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn get_by_oid_roundtrips() {
        for partial in [false, true] {
            let mut s = make(partial);
            let t = s.get_by_oid(Oid(0), &Projection::All).unwrap();
            assert_eq!(Station::from_tuple(&t).unwrap(), db()[0]);
        }
    }

    #[test]
    fn get_by_key_scans_and_finds() {
        for partial in [false, true] {
            let mut s = make(partial);
            let t = s.get_by_key(102, &Projection::All).unwrap();
            assert_eq!(t.attr(attr::KEY).unwrap().as_int(), Some(102));
            assert!(matches!(
                s.get_by_key(999, &Projection::All),
                Err(CoreError::NotFound { .. })
            ));
        }
    }

    #[test]
    fn scan_all_visits_in_oid_order() {
        let mut s = make(false);
        let mut keys = Vec::new();
        s.scan_all(&mut |t| keys.push(t.attr(attr::KEY).unwrap().as_int().unwrap()))
            .unwrap();
        assert_eq!(keys, vec![100, 101, 102]);
    }

    #[test]
    fn children_of_returns_refs_in_order() {
        let mut s = make(true);
        let refs = s
            .children_of(&[ObjRef {
                oid: Oid(0),
                key: 100,
            }])
            .unwrap();
        assert_eq!(
            refs,
            vec![
                ObjRef {
                    oid: Oid(1),
                    key: 101
                },
                ObjRef {
                    oid: Oid(2),
                    key: 102
                }
            ]
        );
    }

    #[test]
    fn partial_navigation_reads_fewer_pages_than_full() {
        let mut dsm = make(false);
        let mut ddsm = make(true);
        let r = [ObjRef {
            oid: Oid(0),
            key: 100,
        }];
        dsm.clear_cache().unwrap();
        dsm.reset_stats();
        dsm.children_of(&r).unwrap();
        let dsm_pages = dsm.snapshot().pages_read;
        ddsm.clear_cache().unwrap();
        ddsm.reset_stats();
        ddsm.children_of(&r).unwrap();
        let ddsm_pages = ddsm.snapshot().pages_read;
        assert!(
            ddsm_pages < dsm_pages,
            "DASDBS-DSM ({ddsm_pages}) must beat DSM ({dsm_pages}) on navigation"
        );
    }

    #[test]
    fn root_records_project_atomics() {
        let mut s = make(true);
        let recs = s
            .root_records(&[ObjRef {
                oid: Oid(2),
                key: 102,
            }])
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].attr(attr::KEY).unwrap().as_int(), Some(102));
        assert!(recs[0]
            .attr(attr::PLATFORM)
            .unwrap()
            .as_rel()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn dsm_update_replaces_whole_tuple() {
        let mut s = make(false);
        let r = ObjRef {
            oid: Oid(0),
            key: 100,
        };
        let new_name = "X".repeat(100);
        s.update_roots(
            &[r],
            &RootPatch {
                new_name: new_name.clone(),
            },
        )
        .unwrap();
        s.clear_cache().unwrap();
        let t = s.get_by_oid(Oid(0), &Projection::All).unwrap();
        assert_eq!(
            t.attr(attr::NAME).unwrap().as_str(),
            Some(new_name.as_str())
        );
        // Structure untouched.
        assert_eq!(Station::from_tuple(&t).unwrap().sightseeings.len(), 10);
    }

    #[test]
    fn dasdbs_dsm_update_patches_and_writes_pool_page() {
        let mut s = make(true);
        let r = ObjRef {
            oid: Oid(0),
            key: 100,
        };
        s.root_records(&[r]).unwrap(); // object partly cached, as in query 3
        s.reset_stats();
        let new_name = "Y".repeat(100);
        s.update_roots(
            &[r],
            &RootPatch {
                new_name: new_name.clone(),
            },
        )
        .unwrap();
        let written_now = s.snapshot().pages_written;
        assert_eq!(written_now, 1, "page-pool page is written immediately");
        s.flush().unwrap();
        // The data page carrying Name is flushed too.
        assert!(s.snapshot().pages_written >= 2);
        s.clear_cache().unwrap();
        let t = s.get_by_oid(Oid(0), &Projection::All).unwrap();
        assert_eq!(
            t.attr(attr::NAME).unwrap().as_str(),
            Some(new_name.as_str())
        );
    }

    #[test]
    fn update_rejects_wrong_length() {
        for partial in [false, true] {
            let mut s = make(partial);
            let err = s
                .update_roots(
                    &[ObjRef {
                        oid: Oid(0),
                        key: 100,
                    }],
                    &RootPatch {
                        new_name: "short".into(),
                    },
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Store(_)), "{err}");
        }
    }

    #[test]
    fn dsm_writes_more_pages_on_update_than_dasdbs_dsm_reads_less() {
        // DSM replace-tuple dirties the whole extent; DASDBS-DSM patches one
        // page (plus its pool page).
        let r = ObjRef {
            oid: Oid(0),
            key: 100,
        };
        let patch = RootPatch {
            new_name: "Z".repeat(100),
        };

        let mut dsm = make(false);
        dsm.root_records(&[r]).unwrap();
        dsm.reset_stats();
        dsm.update_roots(&[r], &patch).unwrap();
        dsm.flush().unwrap();
        let dsm_written = dsm.snapshot().pages_written;

        let mut ddsm = make(true);
        ddsm.root_records(&[r]).unwrap();
        ddsm.reset_stats();
        ddsm.update_roots(&[r], &patch).unwrap();
        ddsm.flush().unwrap();
        let ddsm_written = ddsm.snapshot().pages_written;

        assert!(
            dsm_written > ddsm_written,
            "whole-tuple replace ({dsm_written}) must write more than \
             change-attribute ({ddsm_written}) for a large object"
        );
    }

    #[test]
    fn relation_info_reports_station_file() {
        let s = make(false);
        let info = s.relation_info();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "DSM-Station");
        assert_eq!(info[0].total_tuples, 3);
        assert!(info[0].p.unwrap() > 1.0);
        assert!(info[0].m > 3);
    }

    #[test]
    fn unsupported_and_missing() {
        let mut s = make(false);
        assert!(matches!(
            s.get_by_oid(Oid(99), &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }
}
