//! The in-place root update against the recipe it replaced.
//!
//! Every root update — DSM's replace-tuple, DASDBS-DSM's change attribute
//! and the root-record patch of NSM, NSM+index and DASDBS-NSM — reads the
//! object's bytes, overwrites `Name` where the encoding's own directory says
//! it is, and writes the same pages back. The oracle is the recipe those
//! paths used to run, kept here only: decode the stored object into a
//! `Station`, set the name, encode it again. The encode is a fresh load of
//! the renamed database (for the direct models literally
//! `encode_with_layout` per object, checked against the updated object's
//! data and header bytes too), so after the update and a flush every page
//! of the database must be byte-identical to the oracle's — each page of
//! the updated object, a spanned object's header pages included.
//!
//! A name of another length is refused with the sizes the recipe reported,
//! writes nothing, commits nothing, and the log it leaves behind recovers
//! to the recipe's disk.

use starfish::core::{
    ConcurrentObjectStore, CoreError, DasdbsNsmStore, DirectStore, FsyncMode, ModelKind, NsmStore,
    ObjAddr, ObjectFile, RootPatch, SharedPoolHandle, StoreConfig, WalConfig,
};
use starfish::nf2::station::{station_schema, Station};
use starfish::nf2::{encode_with_layout, Projection, Tuple, TupleLayout};
use starfish::pagestore::{BufferPool, PageId, SimDisk, SpannedStore, StoreError};
use starfish::prelude::DatasetParams;
use starfish::workload::generate;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: 24,
        seed: 20_261_015,
        ..Default::default()
    })
}

/// Every model, the direct ones in the packed and the sub-tuple-aligned
/// layout.
fn configs() -> Vec<(ModelKind, StoreConfig)> {
    let mut out = Vec::new();
    for kind in ModelKind::all() {
        out.push((kind, StoreConfig::default()));
        if matches!(kind, ModelKind::Dsm | ModelKind::DasdbsDsm) {
            out.push((kind, StoreConfig::default().aligned()));
        }
    }
    out
}

fn label(kind: ModelKind, config: &StoreConfig) -> String {
    let layout = if config.aligned_subtuples {
        " (aligned)"
    } else {
        ""
    };
    format!("{kind}{layout}")
}

/// An empty store of `kind` over a pool the caller keeps a handle to.
fn store(
    kind: ModelKind,
    config: &StoreConfig,
) -> (Box<dyn ConcurrentObjectStore>, SharedPoolHandle) {
    let pool = SharedPoolHandle::new(config.buffer, 1);
    let store: Box<dyn ConcurrentObjectStore> = match kind {
        ModelKind::Dsm => Box::new(DirectStore::with_pool(false, config, pool.clone())),
        ModelKind::DasdbsDsm => Box::new(DirectStore::with_pool(true, config, pool.clone())),
        ModelKind::Nsm => Box::new(NsmStore::with_pool(false, config, pool.clone())),
        ModelKind::NsmIndexed => Box::new(NsmStore::with_pool(true, config, pool.clone())),
        ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::with_pool(config, pool.clone())),
    };
    (store, pool)
}

/// Every page of the database, as the pool serves it.
fn pages(store: &dyn ConcurrentObjectStore, pool: &SharedPoolHandle) -> Vec<Vec<u8>> {
    (0..store.database_pages())
        .map(|i| pool.pool().with_page(PageId(i), |p| p.to_vec()).unwrap())
        .collect()
}

fn assert_same_pages(got: &[Vec<u8>], want: &[Vec<u8>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: database pages");
    if let Some(pid) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!("{what}: page {pid} differs from the recipe's");
    }
}

/// The first half of the recipe: the stored object, decoded, as a
/// `Station` with its name set.
fn renamed(stored: &Tuple, new_name: &str) -> Station {
    let mut s = Station::from_tuple(stored).unwrap();
    s.name = new_name.to_owned();
    s
}

/// The second half: the database as a fresh load encodes it with object
/// `ord` replaced by `station`.
fn oracle_pages(
    kind: ModelKind,
    config: &StoreConfig,
    db: &[Station],
    ord: usize,
    station: Station,
) -> Vec<Vec<u8>> {
    let mut db = db.to_vec();
    db[ord] = station;
    let (mut store, pool) = store(kind, config);
    store.load(&db).unwrap();
    pages(&*store, &pool)
}

/// The direct models' object file as their load lays it out, built on a
/// pool of its own: the same allocation order gives the same addresses, so
/// it can read any object's bytes out of the store's pool.
fn twin_file(db: &[Station], aligned: bool) -> ObjectFile {
    let schema = station_schema();
    let payloads: Vec<(Vec<u8>, TupleLayout)> = db
        .iter()
        .map(|s| encode_with_layout(&s.to_tuple(), &schema).unwrap())
        .collect();
    let mut pool = BufferPool::new(SimDisk::new(), 4096);
    ObjectFile::bulk_load_opts(&mut pool, "twin", &payloads, aligned).unwrap()
}

#[test]
fn every_root_update_writes_the_pages_the_recipe_wrote() {
    let db = dataset();
    let schema = station_schema();
    for (kind, config) in configs() {
        let what = label(kind, &config);
        let direct = matches!(kind, ModelKind::Dsm | ModelKind::DasdbsDsm);
        let twin = direct.then(|| twin_file(&db, config.aligned_subtuples));
        let (mut heap, mut spanned) = (0, 0);
        for ord in 0..db.len() {
            let (mut store, pool) = store(kind, &config);
            let refs = store.load(&db).unwrap();
            let stored = store.get_by_key(db[ord].key, &Projection::All).unwrap();
            let new_name = "Q".repeat(db[ord].name.len());
            store.reset_stats();
            let patch = RootPatch {
                new_name: new_name.clone(),
            };
            store.update_roots(&[refs[ord]], &patch).unwrap();
            store.flush().unwrap();
            let written = store.snapshot().pages_written;
            let station = renamed(&stored, &new_name);
            let what = format!("{what}, object {ord}");

            if let Some(twin) = &twin {
                // The recipe's encode, against the bytes the update left.
                let (bytes, layout) = encode_with_layout(&station.to_tuple(), &schema).unwrap();
                let mut pool = pool.clone();
                assert_eq!(twin.read_full(&mut pool, ord).unwrap(), bytes, "{what}");
                let addr = twin.addr(ord).unwrap();
                match addr {
                    ObjAddr::Heap(_) => heap += 1,
                    ObjAddr::Spanned(rec) => {
                        spanned += 1;
                        let header = SpannedStore::read_header(&mut pool, &rec).unwrap();
                        assert_eq!(header, layout.to_bytes(), "{what}: header");
                    }
                }
                if kind == ModelKind::Dsm {
                    // §5.3: the entire tuple is replaced — every page of the
                    // object is written back, header pages included.
                    assert_eq!(written, u64::from(addr.pages()), "{what}: pages written");
                }
            } else {
                assert_eq!(written, 1, "{what}: the root record's page");
            }
            assert_same_pages(
                &pages(&*store, &pool),
                &oracle_pages(kind, &config, &db, ord, station),
                &what,
            );
        }
        if direct {
            assert!(
                heap > 0 && spanned > 0,
                "{what}: {heap} heap / {spanned} spanned"
            );
        }
    }
}

#[test]
fn a_name_of_another_length_is_refused_and_leaves_no_trace() {
    let db = dataset();
    for (kind, config) in configs() {
        let config = config.wal(WalConfig::enabled(FsyncMode::PerCommit));
        let what = label(kind, &config);
        for ord in 0..db.len() {
            let what = format!("{what}, object {ord}");
            let (mut store, pool) = store(kind, &config);
            let refs = store.load(&db).unwrap();
            let stored = store.get_by_key(db[ord].key, &Projection::All).unwrap();
            let loaded = pages(&*store, &pool);
            let old = db[ord].name.len();
            let short = RootPatch {
                new_name: "Q".repeat(old - 1),
            };
            let err = store.update_roots(&[refs[ord]], &short).unwrap_err();
            let size_changed = StoreError::SizeChanged { old, new: old - 1 };
            assert_eq!(err, CoreError::Store(size_changed), "{what}");
            assert_eq!(store.snapshot().commits, 0, "{what}: nothing committed");
            store.flush().unwrap();
            assert_same_pages(&pages(&*store, &pool), &loaded, &format!("{what}, refused"));

            // The refused op's log images were dropped: the next update
            // commits alone, and the log recovers exactly its pages.
            let new_name = "Q".repeat(old);
            let patch = RootPatch {
                new_name: new_name.clone(),
            };
            store.update_roots(&[refs[ord]], &patch).unwrap();
            assert_eq!(store.snapshot().commits, 1, "{what}");
            store.simulate_crash();
            store.recover().unwrap();
            assert_same_pages(
                &pages(&*store, &pool),
                &oracle_pages(kind, &config, &db, ord, renamed(&stored, &new_name)),
                &format!("{what}, recovered"),
            );
        }
    }
}

/// Header pages never change after load: DASDBS-DSM's projected read visits
/// the header and the data ranges it names in two lock sessions with no
/// latch across them, which is consistent only because no update rewrites
/// a header. DSM's replace-tuple re-dirties every header page with its own
/// bytes and DASDBS-DSM's change attribute touches data pages only — on the
/// shared pool, with the write-ahead log off and on (and, with it on,
/// through a crash and recovery too).
#[test]
fn no_update_changes_a_header_page() {
    let db = dataset();
    for (kind, config) in configs() {
        if !matches!(kind, ModelKind::Dsm | ModelKind::DasdbsDsm) {
            continue;
        }
        let twin = twin_file(&db, config.aligned_subtuples);
        let headers: Vec<u32> = (0..db.len())
            .filter_map(|ord| match twin.addr(ord).unwrap() {
                ObjAddr::Spanned(rec) => Some((0..rec.header_pages).map(move |i| rec.first.0 + i)),
                ObjAddr::Heap(_) => None,
            })
            .flatten()
            .collect();
        assert!(
            !headers.is_empty(),
            "{}: spanned objects",
            label(kind, &config)
        );
        for wal in [false, true] {
            let config = if wal {
                config.clone().wal(WalConfig::enabled(FsyncMode::PerCommit))
            } else {
                config.clone()
            };
            let what = format!(
                "{}, WAL {}",
                label(kind, &config),
                if wal { "on" } else { "off" }
            );
            let (mut store, pool) = store(kind, &config);
            let refs = store.load(&db).unwrap();
            let loaded = pages(&*store, &pool);
            for (ord, r) in refs.iter().enumerate() {
                let patch = RootPatch {
                    new_name: "R".repeat(db[ord].name.len()),
                };
                store.update_roots(&[*r], &patch).unwrap();
            }
            if wal {
                assert_eq!(store.snapshot().commits, db.len() as u64, "{what}");
                store.simulate_crash();
                store.recover().unwrap();
            }
            store.flush().unwrap();
            let now = pages(&*store, &pool);
            assert_ne!(now, loaded, "{what}: the updates changed the names");
            for &pid in &headers {
                let pid = pid as usize;
                assert!(now[pid] == loaded[pid], "{what}: header page {pid} changed");
            }
        }
    }
}
