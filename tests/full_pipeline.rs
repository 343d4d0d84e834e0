//! End-to-end integration: generate the benchmark database, load it into
//! every storage model, run all seven queries, and verify the paper's
//! headline claims hold on the measured numbers.

use starfish::core::{make_store, ComplexObjectStore, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::nf2::Projection;
use starfish::workload::{
    generate, DatasetParams, DatasetStats, Executor, PlanOutcome, PlanRun, WorkloadSpec,
};

const N: usize = 250;
const BUFFER: usize = 200; // keeps the paper's DB ≫ buffer regime

fn setup(kind: ModelKind) -> (Vec<Station>, Box<dyn ComplexObjectStore>, Executor) {
    let params = DatasetParams {
        n_objects: N,
        seed: 11,
        ..Default::default()
    };
    let db = generate(&params);
    let mut store = make_store(kind, StoreConfig::with_buffer_pages(BUFFER));
    let refs = store.load(&db).expect("load");
    (db, store, Executor::new(refs, 5))
}

fn measured(exec: &Executor, store: &mut dyn ComplexObjectStore, q: QueryId) -> PlanRun {
    let outcome = exec.run(store, &WorkloadSpec::for_query(q)).unwrap();
    outcome.run().cloned().expect("supported")
}

#[test]
fn every_model_answers_every_query() {
    for kind in ModelKind::all() {
        let (_, mut store, exec) = setup(kind);
        for q in QueryId::all() {
            let out = exec
                .run(store.as_mut(), &WorkloadSpec::for_query(q))
                .expect("query runs");
            match out {
                PlanOutcome::Measured(m) => {
                    assert!(
                        m.snapshot.pages_read > 0,
                        "{kind} {q}: must touch the disk from a cold cache"
                    );
                }
                PlanOutcome::Unsupported => {
                    assert_eq!(kind, ModelKind::Nsm);
                    assert_eq!(q, QueryId::Q1a);
                }
            }
        }
    }
}

#[test]
fn stored_objects_roundtrip_through_every_model() {
    for kind in ModelKind::all() {
        let (db, mut store, _) = setup(kind);
        for probe in [0usize, N / 2, N - 1] {
            let t = store
                .get_by_key(db[probe].key, &Projection::All)
                .expect("lookup");
            assert_eq!(
                Station::from_tuple(&t).expect("typed"),
                db[probe],
                "{kind}: object {probe} must round-trip bit-exactly"
            );
        }
    }
}

#[test]
fn navigation_is_identical_across_models_and_matches_the_data() {
    let params = DatasetParams {
        n_objects: N,
        seed: 11,
        ..Default::default()
    };
    let db = generate(&params);
    let mut first: Option<Vec<(i32, u32)>> = None;
    for kind in ModelKind::all() {
        let mut store = make_store(kind, StoreConfig::with_buffer_pages(BUFFER));
        let refs = store.load(&db).expect("load");
        let children = store.children_of(&refs[..3]).expect("children");
        let got: Vec<(i32, u32)> = children.iter().map(|r| (r.key, r.oid.0)).collect();
        // Ground truth from the generated data itself.
        let expect: Vec<(i32, u32)> = db[..3]
            .iter()
            .flat_map(|s| s.child_refs())
            .map(|(k, o)| (k, o.0))
            .collect();
        assert_eq!(got, expect, "{kind}");
        match &first {
            None => first = Some(got),
            Some(f) => assert_eq!(f, &got, "{kind} diverged"),
        }
    }
}

#[test]
fn paper_claim_direct_models_lose_to_dasdbs_nsm_on_navigation() {
    let mut per_model = Vec::new();
    for kind in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
        let (_, mut store, exec) = setup(kind);
        let m = measured(&exec, store.as_mut(), QueryId::Q2b);
        per_model.push((kind, m.pages_per_unit()));
    }
    let get = |k: ModelKind| per_model.iter().find(|(m, _)| *m == k).unwrap().1;
    assert!(get(ModelKind::Dsm) > get(ModelKind::DasdbsDsm));
    assert!(get(ModelKind::DasdbsDsm) > get(ModelKind::DasdbsNsm));
}

#[test]
fn paper_claim_updates_hurt_dasdbs_dsm_most_among_direct_models() {
    // §5.3: the change-attribute page pool makes DASDBS-DSM writes worse
    // than its reads would suggest; per loop it writes more than DASDBS-NSM
    // by a large factor.
    let mut writes = Vec::new();
    for kind in [ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
        let (_, mut store, exec) = setup(kind);
        let m = measured(&exec, store.as_mut(), QueryId::Q3b);
        writes.push(m.writes_per_unit());
    }
    assert!(
        writes[0] > 5.0 * writes[1],
        "DASDBS-DSM writes/loop ({}) must dwarf DASDBS-NSM's ({})",
        writes[0],
        writes[1]
    );
}

#[test]
fn paper_claim_value_selection_needs_the_whole_database_without_addresses() {
    let (_, mut dsm_store, dsm_exec) = setup(ModelKind::Dsm);
    let dsm = measured(&dsm_exec, dsm_store.as_mut(), QueryId::Q1b);
    // DSM's key lookup reads essentially the whole database.
    assert!(
        dsm.snapshot.pages_read as f64 >= 0.9 * dsm_store.database_pages() as f64 * 0.9,
        "DSM q1b reads {} of {} pages",
        dsm.snapshot.pages_read,
        dsm_store.database_pages()
    );
    // DASDBS-NSM reads only its root relation plus a few addressed tuples.
    let (_, mut dn_store, dn_exec) = setup(ModelKind::DasdbsNsm);
    let dn = measured(&dn_exec, dn_store.as_mut(), QueryId::Q1b);
    assert!(
        (dn.snapshot.pages_read as f64) < 0.2 * dn_store.database_pages() as f64,
        "DASDBS-NSM q1b reads {} of {} pages",
        dn.snapshot.pages_read,
        dn_store.database_pages()
    );
}

#[test]
fn updates_persist_across_cold_restarts_in_all_models() {
    for kind in ModelKind::all() {
        let (db, mut store, exec) = setup(kind);
        exec.run(store.as_mut(), &WorkloadSpec::for_query(QueryId::Q3b))
            .unwrap();
        // Re-read every object after a cold restart; names may have changed
        // but structure must be intact.
        store.clear_cache().unwrap();
        let mut count = 0;
        store
            .scan_all(&mut |t| {
                let s = Station::from_tuple(t).expect("valid object");
                assert_eq!(s.name.len(), 100);
                count += 1;
            })
            .unwrap();
        assert_eq!(count, db.len(), "{kind}");
    }
}

#[test]
fn dataset_statistics_match_paper_expectations() {
    let db = generate(&DatasetParams::default());
    let st = DatasetStats::compute(&db);
    assert_eq!(st.n_objects, 1500);
    assert!((st.avg_platforms - 1.6).abs() < 0.1);
    assert!((st.avg_connections - 4.1).abs() < 0.3);
    assert!((st.avg_sightseeings - 7.5).abs() < 0.4);
}
