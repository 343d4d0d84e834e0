//! Writer-interleaving differential: concurrent updates through the
//! latched `&self` write surface must be **invisible in the outcome** —
//! only in the wall clock.
//!
//! Three batteries, run for every storage model:
//!
//! 1. **Disjoint-partition multi-writer ≡ serial**: query 3a with 1/2/4/8
//!    writer threads produces the same answers, the same total fixes and
//!    — the strongest form — byte-identical post-flush on-disk images
//!    (FNV fingerprints) as the serial `Executor::run`. With one thread
//!    and one shard, the whole `PlanRun` matches the serial run exactly
//!    (physical I/O included).
//! 2. **No torn tuples**: reader threads hammering root records while
//!    writer threads flip the same objects between two patch values only
//!    ever observe fully-old or fully-new names — never a byte mix. Writers
//!    hold an exclusive group latch over an object's pages; readers take
//!    none, because each visit to the pool hands them one consistent image
//!    (a lock session, or with the batched read engine on a shared group
//!    the pool takes itself). `Name` lies on one page, so a torn read
//!    across pages cannot show here: the pagestore's `read_atomicity`
//!    battery tests that at the pool.
//! 3. **Flush-then-cold-reread byte-exact**: after concurrent updates, a
//!    writer-quiescing flush plus cold restart rereads exactly the final
//!    applied values, and a second flush changes nothing on disk.

use starfish::core::{
    make_shared_store, make_store, ConcurrentObjectStore, ModelKind, PolicyKind, RootPatch,
    StoreConfig,
};
use starfish::nf2::station::Station;
use starfish::prelude::*;
use starfish::workload::generate;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const SEED: u64 = 19_930_420;
const N_OBJECTS: usize = 90;
/// Small enough that working sets overflow it and interleavings matter.
const BUFFER_PAGES: usize = 72;
const WRITER_THREADS: [usize; 4] = [1, 2, 4, 8];

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: SEED,
        ..Default::default()
    })
}

fn config() -> StoreConfig {
    StoreConfig::with_buffer_pages(BUFFER_PAGES).policy(PolicyKind::Lru)
}

fn shared_store(kind: ModelKind, shards: usize, db: &[Station]) -> Box<dyn ConcurrentObjectStore> {
    let mut store = make_shared_store(kind, config(), shards);
    store.load(db).expect("load");
    store
}

fn executor_for(db: &[Station]) -> Executor {
    let refs = db
        .iter()
        .enumerate()
        .map(|(i, s)| starfish::core::ObjRef {
            oid: Oid(i as u32),
            key: s.key,
        })
        .collect();
    Executor::new(refs, SEED)
}

fn scan_names(store: &mut dyn ConcurrentObjectStore) -> Vec<String> {
    store.clear_cache().unwrap();
    let mut names = Vec::new();
    store
        .scan_all(&mut |t| names.push(Station::from_tuple(t).unwrap().name))
        .unwrap();
    names
}

/// Battery 1: disjoint-partition multi-writer runs reproduce the serial
/// query-3a outcome byte for byte, for every model and writer count.
#[test]
fn multi_writer_q3a_matches_serial_byte_for_byte() {
    let db = dataset();
    for kind in ModelKind::all() {
        // The serial reference: exclusive store, &mut update path.
        let mut serial = make_store(kind, config());
        let refs = serial.load(&db).expect("load");
        let exec = Executor::new(refs, SEED);
        let want = exec.run(serial.as_mut(), &WorkloadSpec::q3a()).unwrap();
        let want_m = want.run().expect("3a supported everywhere");
        let want_disk = serial.disk_checksum();
        let mut want_scan: Vec<String> = Vec::new();
        serial
            .scan_all(&mut |t| want_scan.push(Station::from_tuple(t).unwrap().name))
            .unwrap();

        let mut baseline_answers = None;
        for &threads in &WRITER_THREADS {
            let mut store = shared_store(kind, threads, &db);
            let run = executor_for(&db)
                .run_concurrent(store.as_mut(), &WorkloadSpec::q3a(), threads)
                .unwrap();
            let m = run.outcome.run().expect("3a measured");
            // Fixes and the navigation footprint are access counts:
            // identical to the serial run whatever the writer count.
            assert_eq!(m.snapshot.fixes, want_m.snapshot.fixes, "{kind}/{threads}t");
            assert_eq!(m.units, want_m.units, "{kind}/{threads}t");
            assert_eq!(m.nav_hop(1), want_m.nav_hop(1), "{kind}/{threads}t");
            // The strongest invariant: the post-flush disk image equals the
            // serial run's, byte for byte.
            assert_eq!(
                store.disk_checksum(),
                want_disk,
                "{kind}/{threads} writers: on-disk bytes diverged from serial"
            );
            assert_eq!(scan_names(store.as_mut()), want_scan, "{kind}/{threads}t");
            // Answers are merged in plan order: identical across counts.
            match &baseline_answers {
                None => baseline_answers = Some(run.observations.clone()),
                Some(base) => assert_eq!(&run.observations, base, "{kind}/{threads}t"),
            }
            // 1 thread × 1 shard: the entire measurement, reads included.
            if threads == 1 {
                assert_eq!(run.outcome, want, "{kind}: 1×1 must equal serial");
            }
        }
    }
}

/// Battery 2: concurrent readers during updates never observe torn
/// tuples. Writers flip their disjoint object partitions between two
/// 100-byte patch values while readers re-read all targets; every observed
/// name must be exactly the original, all-'A' or all-'B' — a mix would be
/// a torn read.
#[test]
fn readers_never_observe_torn_tuples_during_updates() {
    let db = dataset();
    let name_a = "A".repeat(100);
    let name_b = "B".repeat(100);
    for kind in ModelKind::all() {
        let store = shared_store(kind, 4, &db);
        // Update targets: a slice of objects, partitioned between writers.
        let targets: Vec<starfish::core::ObjRef> = db
            .iter()
            .enumerate()
            .take(16)
            .map(|(i, s)| starfish::core::ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            })
            .collect();
        let originals: Vec<String> = db.iter().take(16).map(|s| s.name.clone()).collect();
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            // Two writers over disjoint halves, flipping A/B.
            for w in 0..2usize {
                let part: Vec<_> = targets.iter().copied().skip(w).step_by(2).collect();
                let (store, stop) = (&store, &stop);
                let (name_a, name_b) = (&name_a, &name_b);
                s.spawn(move || {
                    for round in 0..40 {
                        let patch = RootPatch {
                            new_name: if round % 2 == 0 {
                                name_a.clone()
                            } else {
                                name_b.clone()
                            },
                        };
                        store.shared_update_roots(&part, &patch).unwrap();
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            // Four readers hammering the same targets.
            for _ in 0..4 {
                let (store, stop) = (&store, &stop);
                let (targets, originals) = (&targets, &originals);
                let (name_a, name_b) = (&name_a, &name_b);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let records = store.shared_root_records(targets).unwrap();
                        for (i, rec) in records.iter().enumerate() {
                            let name = rec
                                .attr(starfish::nf2::station::attr::NAME)
                                .and_then(starfish::nf2::Value::as_str)
                                .unwrap()
                                .to_string();
                            assert!(
                                name == *name_a || name == *name_b || name == originals[i],
                                "{kind}: torn name observed: {name:?}"
                            );
                        }
                    }
                });
            }
        });
        // The write path really ran latched.
        assert!(
            store.snapshot().latch_exclusive > 0,
            "{kind}: updates did not take exclusive latches"
        );
    }
}

/// Battery 3: flush-then-cold-reread is byte-exact after concurrent
/// writers, and a second flush is a no-op on the disk image.
#[test]
fn flush_then_cold_reread_is_byte_exact() {
    let db = dataset();
    let patch = RootPatch {
        new_name: "Z".repeat(100),
    };
    for kind in ModelKind::all() {
        let mut store = shared_store(kind, 4, &db);
        let targets: Vec<starfish::core::ObjRef> = db
            .iter()
            .enumerate()
            .map(|(i, s)| starfish::core::ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            })
            .collect();
        // Four writers patch disjoint quarters of the whole database.
        thread::scope(|s| {
            for w in 0..4usize {
                let part: Vec<_> = targets.iter().copied().skip(w).step_by(4).collect();
                let (store, patch) = (&store, &patch);
                s.spawn(move || store.shared_update_roots(&part, patch).unwrap());
            }
        });
        store.shared_flush().unwrap();
        let disk_after_flush = store.disk_checksum();
        // Cold reread sees every patched name.
        let names = scan_names(store.as_mut());
        assert!(
            names.iter().all(|n| n == &patch.new_name),
            "{kind}: cold reread lost updates"
        );
        // Rereading and reflushing must not move the disk image.
        store.shared_flush().unwrap();
        assert_eq!(
            store.disk_checksum(),
            disk_after_flush,
            "{kind}: second flush changed the disk"
        );
    }
}
