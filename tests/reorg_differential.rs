//! Reorg differential test: the adaptive-placement pass is logically
//! invisible.
//!
//! The reorganizer rewrites extents in heat order — a purely *physical*
//! act, run through `&mut` like the bulk load. Two guarantees pin that
//! down:
//!
//! * **Tape equivalence** (proptest): for every storage model, a random
//!   op tape (lookups, scans, navigation, root updates) interleaved with
//!   reorganization passes at random points must observe exactly what a
//!   never-reorganized oracle store observes, op for op, and leave
//!   identical logical content behind — on the exclusive pool and on a
//!   2-shard shared pool. OIDs and keys survive the rewrite.
//! * **Shared serving after a pass**: a 4-shard shared-pool store, heated
//!   through its `&self` surface and reorganized through `&mut` (heat
//!   merged over the shards, the flush through the writer gate), answers
//!   every key from concurrent `&self` readers.

use proptest::prelude::*;
use starfish::core::{
    make_shared_store, make_store, ComplexObjectStore, ConcurrentObjectStore, HeatConfig,
    ModelKind, ObjRef, PolicyKind, RootPatch, StoreConfig,
};
use starfish::nf2::station::Station;
use starfish::nf2::{Oid, Projection, Value};
use starfish::workload::{generate, DatasetParams};

const SEED: u64 = 19_930_819;
const N_OBJECTS: usize = 60;
/// Small enough that reorganization actually moves pages through the pool.
const BUFFER_PAGES: usize = 48;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: SEED,
        ..Default::default()
    })
}

fn config() -> StoreConfig {
    StoreConfig::with_buffer_pages(BUFFER_PAGES)
        .policy(PolicyKind::Lru)
        .heat(HeatConfig::enabled())
}

/// Same-length rename so updates stay in-place for every layout.
fn patch_name(original: &str, step: usize) -> String {
    let mut n = format!("reorged-{step}-");
    while n.len() < original.len() {
        n.push('y');
    }
    n.truncate(original.len());
    n
}

/// One op of the differential tape. `reorg_before` marks the random
/// reorganization point: the subject stores run their pass right before
/// the op, the oracle never does.
#[derive(Clone, Debug)]
struct TapeStep {
    op: TapeOp,
    reorg_before: bool,
}

#[derive(Clone, Debug)]
enum TapeOp {
    ByKey(usize),
    ByOid(usize),
    Scan,
    Navigate(usize),
    Update(usize),
}

fn step_strategy(n: usize) -> impl Strategy<Value = TapeStep> {
    let op = prop_oneof![
        (0..n).prop_map(TapeOp::ByKey),
        (0..n).prop_map(TapeOp::ByOid),
        Just(TapeOp::Scan),
        (0..n).prop_map(TapeOp::Navigate),
        (0..n).prop_map(TapeOp::Update),
    ];
    // ~1 op in 5 is preceded by a reorganization pass.
    (op, 0u8..5).prop_map(|(op, r)| TapeStep {
        op,
        reorg_before: r == 0,
    })
}

/// What one op observes — compared element-for-element between the
/// subject and the oracle.
#[derive(PartialEq, Debug)]
enum Observed {
    Tuple(Option<Station>),
    Stations(Vec<Station>),
    Navigation(Vec<ObjRef>, Vec<ObjRef>, Vec<i32>),
    Updated,
}

fn apply(
    store: &mut dyn ComplexObjectStore,
    db: &[Station],
    refs: &[ObjRef],
    step_no: usize,
    op: &TapeOp,
) -> Observed {
    match op {
        TapeOp::ByKey(i) => Observed::Tuple(
            store
                .get_by_key(db[*i].key, &Projection::All)
                .ok()
                .map(|t| Station::from_tuple(&t).unwrap()),
        ),
        // Pure NSM has no identifiers: both stores must agree on `None`.
        TapeOp::ByOid(i) => Observed::Tuple(
            store
                .get_by_oid(Oid(*i as u32), &Projection::All)
                .ok()
                .map(|t| Station::from_tuple(&t).unwrap()),
        ),
        TapeOp::Scan => {
            let mut seen = Vec::new();
            store
                .scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
                .unwrap();
            Observed::Stations(seen)
        }
        TapeOp::Navigate(i) => {
            let children = store.children_of(&refs[*i..*i + 1]).unwrap();
            let grandchildren = store.children_of(&children).unwrap();
            let root_keys = store
                .root_records(&grandchildren)
                .unwrap()
                .iter()
                .map(|t| t.attr(0).and_then(Value::as_int).unwrap())
                .collect();
            Observed::Navigation(children, grandchildren, root_keys)
        }
        TapeOp::Update(i) => {
            let name = patch_name(&current_name(store, db[*i].key), step_no);
            store
                .update_roots(&refs[*i..*i + 1], &RootPatch { new_name: name })
                .unwrap();
            Observed::Updated
        }
    }
}

/// The object's name as currently stored (updates may already have
/// renamed it) — read through the store so subject and oracle derive the
/// identical patch.
fn current_name(store: &mut dyn ComplexObjectStore, key: i32) -> String {
    let t = store.get_by_key(key, &Projection::All).unwrap();
    Station::from_tuple(&t).unwrap().name
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random tapes with reorganization at random points observe exactly
    /// what the never-reorganized oracle observes, for all five models and
    /// two subjects: an exclusive-pool store and a 2-shard shared-pool one.
    #[test]
    fn reorg_tape_matches_never_reorged_oracle(
        tape in proptest::collection::vec(step_strategy(N_OBJECTS), 8..20),
    ) {
        let db = dataset();
        for kind in ModelKind::all() {
            let mut subjects: [(&str, Box<dyn ComplexObjectStore>); 2] = [
                ("exclusive", make_store(kind, config())),
                ("2-shard shared", make_shared_store(kind, config(), 2)),
            ];
            let mut oracle = make_store(kind, config());
            let refs = oracle.load(&db).unwrap();
            for (name, subject) in &mut subjects {
                prop_assert_eq!(
                    &subject.load(&db).unwrap(), &refs,
                    "{} {}: load must hand out identical refs", kind, name
                );
            }

            let mut reorgs = 0usize;
            for (step_no, step) in tape.iter().enumerate() {
                if step.reorg_before {
                    for (_, subject) in &mut subjects {
                        let report = subject.reorganize().unwrap();
                        prop_assert_eq!(report.objects, N_OBJECTS);
                    }
                    reorgs += 1;
                }
                let want = apply(oracle.as_mut(), &db, &refs, step_no, &step.op);
                for (name, subject) in &mut subjects {
                    let got = apply(subject.as_mut(), &db, &refs, step_no, &step.op);
                    prop_assert_eq!(
                        &got, &want,
                        "{} {}: op {} ({:?}) diverged after {} reorgs",
                        kind, name, step_no, &step.op, reorgs
                    );
                }
            }

            // Final logical content: a full scan after a flush must agree.
            let collect = |s: &mut dyn ComplexObjectStore| {
                s.flush().unwrap();
                let mut seen = Vec::new();
                s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap())).unwrap();
                seen
            };
            let want = collect(oracle.as_mut());
            for (name, subject) in &mut subjects {
                prop_assert_eq!(
                    &collect(subject.as_mut()), &want,
                    "{} {}: final content diverged", kind, name
                );
            }
        }
    }
}

/// A shared-pool store heated through `&self` and reorganized through
/// `&mut` moves objects on every model, then serves every key from
/// concurrent `&self` readers and scans back exactly the dataset.
#[test]
fn shared_store_reorganized_through_mut_serves_concurrent_readers() {
    let db = dataset();
    for kind in ModelKind::all() {
        let mut store = make_shared_store(kind, config(), 4);
        let refs = store.load(&db).unwrap();

        // Heat up a skewed subset so the pass has a hot set to co-locate.
        for _ in 0..8 {
            for s in db.iter().take(N_OBJECTS / 8) {
                store.shared_get_by_key(s.key, &Projection::All).unwrap();
            }
        }
        let moved = store.reorganize().unwrap().moved;
        assert!(moved > 0, "{kind}: the pass moved nothing");

        let store: &dyn ConcurrentObjectStore = &*store;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (db, refs) = (&db, &refs);
                scope.spawn(move || {
                    for (i, s) in db.iter().enumerate() {
                        let t = store.shared_get_by_key(s.key, &Projection::All).unwrap();
                        assert_eq!(
                            &Station::from_tuple(&t).unwrap(),
                            s,
                            "{kind}: lookup diverged"
                        );
                        let children = store.shared_children_of(&refs[i..i + 1]).unwrap();
                        let roots = store.shared_root_records(&children).unwrap();
                        assert_eq!(children.len(), roots.len());
                    }
                });
            }
        });

        let mut seen = Vec::new();
        store
            .shared_scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db, "{kind}: content diverged after the pass");
    }
}
