//! Cross-policy differential test: query answers must never depend on the
//! buffer-replacement policy.
//!
//! The cache is transparent — it decides *when* pages travel to and from
//! the disk, never *what* the queries see. So for every storage model, all
//! five policies must return identical tuples for queries 1a–3b, converge
//! to the identical database after updates, and report **identical fix
//! counts** (fixes count page accesses, which the policy cannot change).
//! Only the physical read/write counters are allowed to differ — and at a
//! buffer well under the database size they actually must, somewhere in
//! the matrix, or the sweep would be measuring nothing.

use starfish::core::{
    make_store, ComplexObjectStore, ModelKind, ObjRef, PolicyKind, RootPatch, StoreConfig,
};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::nf2::{Oid, Projection};
use starfish::prelude::*;
use starfish::workload::generate;

const SEED: u64 = 19_930_419;
const N_OBJECTS: usize = 120;
/// Small enough that DSM's working set overflows it and policies separate.
const BUFFER_PAGES: usize = 96;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: SEED,
        ..Default::default()
    })
}

fn store_with(kind: ModelKind, policy: PolicyKind, db: &[Station]) -> Box<dyn ComplexObjectStore> {
    let mut store = make_store(
        kind,
        StoreConfig::with_buffer_pages(BUFFER_PAGES).policy(policy),
    );
    store.load(db).expect("load");
    store
}

/// Everything a query can observe, collected under one policy.
#[derive(PartialEq, Debug)]
struct ObservableResults {
    by_oid: Vec<Option<Station>>,
    by_key: Vec<Station>,
    scan: Vec<Station>,
    children: Vec<ObjRef>,
    grandchildren: Vec<ObjRef>,
    root_keys: Vec<i32>,
}

fn observe(store: &mut dyn ComplexObjectStore, db: &[Station]) -> ObservableResults {
    let by_oid = (0..db.len())
        .map(|i| {
            store
                .get_by_oid(Oid(i as u32), &Projection::All)
                .ok()
                .map(|t| Station::from_tuple(&t).unwrap())
        })
        .collect();
    let by_key = db
        .iter()
        .step_by(7)
        .map(|s| Station::from_tuple(&store.get_by_key(s.key, &Projection::All).unwrap()).unwrap())
        .collect();
    let mut scan = Vec::new();
    store
        .scan_all(&mut |t| scan.push(Station::from_tuple(t).unwrap()))
        .unwrap();
    let roots: Vec<ObjRef> = db
        .iter()
        .enumerate()
        .step_by(5)
        .map(|(i, s)| ObjRef {
            oid: Oid(i as u32),
            key: s.key,
        })
        .collect();
    let children = store.children_of(&roots).unwrap();
    let grandchildren = store.children_of(&children).unwrap();
    let root_keys = store
        .root_records(&grandchildren)
        .unwrap()
        .iter()
        .map(|t| t.attr(0).and_then(starfish::nf2::Value::as_int).unwrap())
        .collect();
    ObservableResults {
        by_oid,
        by_key,
        scan,
        children,
        grandchildren,
        root_keys,
    }
}

#[test]
fn query_answers_identical_under_every_policy() {
    let db = dataset();
    for kind in ModelKind::all() {
        let mut baseline: Option<ObservableResults> = None;
        for policy in PolicyKind::all() {
            let mut store = store_with(kind, policy, &db);
            let got = observe(store.as_mut(), &db);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    assert_eq!(want, &got, "{kind}: answers under {policy} differ from LRU")
                }
            }
        }
    }
}

#[test]
fn updates_converge_under_every_policy() {
    let db = dataset();
    let victims: Vec<ObjRef> = db
        .iter()
        .enumerate()
        .step_by(3)
        .map(|(i, s)| ObjRef {
            oid: Oid(i as u32),
            key: s.key,
        })
        .collect();
    let patch_name = |i: usize, len: usize| -> String {
        let mut n = format!("policy-patched-{i}-");
        while n.len() < len {
            n.push('x');
        }
        n.truncate(len);
        n
    };
    let mut expected = db.clone();
    for (i, v) in victims.iter().enumerate() {
        let pos = v.oid.0 as usize;
        expected[pos].name = patch_name(i, expected[pos].name.len());
    }
    for kind in ModelKind::all() {
        for policy in PolicyKind::all() {
            let mut store = store_with(kind, policy, &db);
            for (i, v) in victims.iter().enumerate() {
                let len = db[v.oid.0 as usize].name.len();
                store
                    .update_roots(
                        &[*v],
                        &RootPatch {
                            new_name: patch_name(i, len),
                        },
                    )
                    .unwrap();
            }
            store.clear_cache().unwrap(); // flush through a cold restart
            let mut seen = Vec::new();
            store
                .scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
                .unwrap();
            assert_eq!(seen, expected, "{kind}/{policy}: database diverged");
        }
    }
}

/// The measurement protocol under every policy: fix counts (and the
/// navigation footprint) must be identical to LRU's for every (model,
/// query); only reads/writes may move — and at this buffer size they do
/// move somewhere in the matrix.
#[test]
fn fix_counts_identical_only_physical_io_differs() {
    let db = dataset();
    let mut any_io_difference = false;
    for kind in ModelKind::all() {
        for q in QueryId::all() {
            let mut baseline: Option<(u64, u64, u64, u64)> = None; // fixes, units, children, gc
            let mut baseline_io: Option<(u64, u64)> = None; // pages_read, pages_written
            for policy in PolicyKind::all() {
                let mut store = store_with(kind, policy, &db);
                let refs: Vec<ObjRef> = db
                    .iter()
                    .enumerate()
                    .map(|(i, s)| ObjRef {
                        oid: Oid(i as u32),
                        key: s.key,
                    })
                    .collect();
                let exec = Executor::new(refs, SEED);
                let spec = WorkloadSpec::for_query(q);
                match exec.run(store.as_mut(), &spec).unwrap() {
                    PlanOutcome::Measured(m) => {
                        let fp = (m.snapshot.fixes, m.units, m.nav_hop(0), m.nav_hop(1));
                        let io = (m.snapshot.pages_read, m.snapshot.pages_written);
                        match baseline {
                            None => {
                                baseline = Some(fp);
                                baseline_io = Some(io);
                            }
                            Some(want) => {
                                assert_eq!(
                                    want, fp,
                                    "{kind}/{q}: fixes/footprint under {policy} differ from LRU"
                                );
                                if baseline_io != Some(io) {
                                    any_io_difference = true;
                                }
                            }
                        }
                    }
                    PlanOutcome::Unsupported => {
                        assert_eq!((kind, q), (ModelKind::Nsm, QueryId::Q1a));
                    }
                }
            }
        }
    }
    assert!(
        any_io_difference,
        "no (model, query) showed different physical I/O across policies — \
         the buffer is too large for the sweep to measure anything"
    );
}
