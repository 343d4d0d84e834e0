//! Cross-model differential test: one seeded dataset loaded into all five
//! `ModelKind`s must answer every benchmark query (1a–3b) with *identical
//! tuples*, while the physical I/O counters stay strictly positive and
//! respect the orderings the paper predicts (e.g. DASDBS-NSM never reads
//! more pages than pure NSM).
//!
//! This is the workspace's sharpest regression net: a storage-model bug
//! either changes an answer (caught here against four other
//! implementations) or changes I/O accounting (caught by the counter
//! assertions).

use starfish::core::{
    make_store, ComplexObjectStore, CoreError, ModelKind, ObjRef, RootPatch, StoreConfig,
};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::nf2::{Oid, Projection};
use starfish::prelude::*;
use starfish::workload::generate;

const SEED: u64 = 20_260_727;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: 50,
        seed: SEED,
        ..Default::default()
    })
}

fn loaded_stores(db: &[Station]) -> Vec<Box<dyn ComplexObjectStore>> {
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            let mut store = make_store(kind, StoreConfig::default());
            store.load(db).expect("load");
            store
        })
        .collect()
}

#[test]
fn q1a_by_oid_identical_where_supported() {
    let db = dataset();
    let mut stores = loaded_stores(&db);
    for (i, expect) in db.iter().enumerate() {
        let mut answers: Vec<(ModelKind, Station)> = Vec::new();
        for store in &mut stores {
            match store.get_by_oid(Oid(i as u32), &Projection::All) {
                Ok(t) => answers.push((store.model(), Station::from_tuple(&t).unwrap())),
                Err(CoreError::Unsupported { .. }) => {
                    assert_eq!(
                        store.model(),
                        ModelKind::Nsm,
                        "only pure NSM lacks OID access"
                    );
                }
                Err(e) => panic!("{}: q1a failed: {e}", store.model()),
            }
        }
        assert_eq!(answers.len(), 4, "four models answer by OID");
        for (model, got) in &answers {
            assert_eq!(got, expect, "model {model} disagrees on object {i}");
        }
    }
}

#[test]
fn q1b_by_key_identical_across_all_five() {
    let db = dataset();
    let mut stores = loaded_stores(&db);
    for expect in &db {
        for store in &mut stores {
            let t = store
                .get_by_key(expect.key, &Projection::All)
                .unwrap_or_else(|e| panic!("{}: q1b failed: {e}", store.model()));
            assert_eq!(
                Station::from_tuple(&t).unwrap(),
                *expect,
                "model {} disagrees on key {}",
                store.model(),
                expect.key
            );
        }
    }
}

#[test]
fn q1c_scan_identical_across_all_five() {
    let db = dataset();
    let mut stores = loaded_stores(&db);
    for store in &mut stores {
        let mut seen = Vec::new();
        store
            .scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db, "model {} scan differs", store.model());
    }
}

#[test]
fn q2_navigation_identical_across_all_five() {
    let db = dataset();
    let mut stores = loaded_stores(&db);
    let roots: Vec<ObjRef> = db
        .iter()
        .enumerate()
        .map(|(i, s)| ObjRef {
            oid: Oid(i as u32),
            key: s.key,
        })
        .collect();
    // children → grandchildren → grandchildren's root records, the exact
    // shape of the paper's navigation loop.
    type NavTrace = (ModelKind, Vec<ObjRef>, Vec<ObjRef>, Vec<(i32, String)>);
    let mut per_model: Vec<NavTrace> = Vec::new();
    for store in &mut stores {
        let children = store.children_of(&roots).unwrap();
        let grandchildren = store.children_of(&children).unwrap();
        let root_records: Vec<(i32, String)> = store
            .root_records(&grandchildren)
            .unwrap()
            .iter()
            .map(|t| {
                let key = t.attr(0).and_then(starfish::nf2::Value::as_int).unwrap();
                let name = t
                    .attr(3)
                    .and_then(starfish::nf2::Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                (key, name)
            })
            .collect();
        per_model.push((store.model(), children, grandchildren, root_records));
    }
    for pair in per_model.windows(2) {
        let (ma, ca, ga, ra) = &pair[0];
        let (mb, cb, gb, rb) = &pair[1];
        assert_eq!(ca, cb, "{ma} vs {mb}: children differ");
        assert_eq!(ga, gb, "{ma} vs {mb}: grandchildren differ");
        assert_eq!(ra, rb, "{ma} vs {mb}: root records differ");
    }
    // Navigation actually went somewhere: fanout 2 × prob 0.8 on 50 objects
    // yields a nonempty child generation.
    assert!(!per_model[0].1.is_empty(), "no children navigated");
    assert!(!per_model[0].3.is_empty(), "no root records fetched");
}

#[test]
fn q3_updates_converge_across_all_five() {
    let db = dataset();
    let mut stores = loaded_stores(&db);
    // Update every 7th object's root record, then compare full databases.
    let victims: Vec<ObjRef> = db
        .iter()
        .enumerate()
        .step_by(7)
        .map(|(i, s)| ObjRef {
            oid: Oid(i as u32),
            key: s.key,
        })
        .collect();
    let mut expected = db.clone();
    for (i, victim) in victims.iter().enumerate() {
        let pos = victim.oid.0 as usize;
        let old_len = expected[pos].name.len();
        let mut new_name = format!("patched-{i}-");
        while new_name.len() < old_len {
            new_name.push('p');
        }
        new_name.truncate(old_len);
        expected[pos].name = new_name.clone();
        for store in &mut stores {
            store
                .update_roots(
                    &[*victim],
                    &RootPatch {
                        new_name: new_name.clone(),
                    },
                )
                .unwrap_or_else(|e| panic!("{}: update failed: {e}", store.model()));
        }
    }
    for store in &mut stores {
        store.clear_cache().unwrap();
        let mut seen = Vec::new();
        store
            .scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(
            seen,
            expected,
            "model {} diverged after updates",
            store.model()
        );
    }
}

/// Full benchmark pass: every measured query must touch pages (counters
/// strictly positive), and the measured page reads must respect the
/// orderings the paper's Tables 3/4 predict.
///
/// Runs at the harness's "fast" scale (300 objects, 240-page buffer — the
/// paper's DB:buffer ratio) rather than on the tiny differential dataset:
/// the predicted orderings assume the database exceeds the buffer, so NSM's
/// relation scans actually cost repeated physical reads.
#[test]
fn io_counters_positive_and_model_ordered() {
    let db = generate(&DatasetParams {
        n_objects: 300,
        seed: SEED,
        ..Default::default()
    });
    let mut reads: Vec<(ModelKind, QueryId, u64, u64)> = Vec::new();
    for kind in ModelKind::all() {
        let mut store = make_store(kind, StoreConfig::with_buffer_pages(240));
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, SEED);
        for q in QueryId::all() {
            let spec = WorkloadSpec::for_query(q);
            match exec.run(store.as_mut(), &spec).unwrap() {
                PlanOutcome::Measured(m) => {
                    assert!(m.snapshot.pages_read > 0, "{kind} q{q}: no pages read");
                    assert!(m.snapshot.read_calls > 0, "{kind} q{q}: no read calls");
                    assert!(m.snapshot.fixes > 0, "{kind} q{q}: no buffer fixes");
                    assert!(
                        m.snapshot.fixes == m.snapshot.hits + m.snapshot.misses,
                        "{kind} q{q}: fix accounting broken"
                    );
                    if matches!(q, QueryId::Q3a | QueryId::Q3b) {
                        assert!(
                            m.snapshot.pages_written > 0,
                            "{kind} q{q}: update queries must write"
                        );
                    }
                    reads.push((kind, q, m.snapshot.pages_read, m.snapshot.pages_io()));
                }
                PlanOutcome::Unsupported => {
                    assert_eq!(
                        (kind, q),
                        (ModelKind::Nsm, QueryId::Q1a),
                        "only NSM/q1a is unsupported"
                    );
                }
            }
        }
    }
    let pages_read = |kind: ModelKind, q: QueryId| -> u64 {
        reads
            .iter()
            .find(|(k, qq, _, _)| *k == kind && *qq == q)
            .map(|(_, _, r, _)| *r)
            .unwrap_or_else(|| panic!("missing cell {kind}/{q}"))
    };
    // Paper-predicted orderings (Tables 3/4): pure NSM scans relations for
    // value access and navigation, so every other normalized variant reads
    // no more pages than it does.
    for q in [QueryId::Q1b, QueryId::Q2a, QueryId::Q2b, QueryId::Q3b] {
        assert!(
            pages_read(ModelKind::DasdbsNsm, q) <= pages_read(ModelKind::Nsm, q),
            "q{q}: DASDBS-NSM must read no more pages than NSM ({} vs {})",
            pages_read(ModelKind::DasdbsNsm, q),
            pages_read(ModelKind::Nsm, q)
        );
        assert!(
            pages_read(ModelKind::NsmIndexed, q) <= pages_read(ModelKind::Nsm, q),
            "q{q}: NSM+index must read no more pages than NSM ({} vs {})",
            pages_read(ModelKind::NsmIndexed, q),
            pages_read(ModelKind::Nsm, q)
        );
    }
    // Navigation reads parts of objects: the DASDBS direct model's partial
    // reads can never exceed DSM's whole-object reads.
    for q in [QueryId::Q2a, QueryId::Q2b] {
        assert!(
            pages_read(ModelKind::DasdbsDsm, q) <= pages_read(ModelKind::Dsm, q),
            "q{q}: DASDBS-DSM partial reads must not exceed DSM ({} vs {})",
            pages_read(ModelKind::DasdbsDsm, q),
            pages_read(ModelKind::Dsm, q)
        );
    }
}
