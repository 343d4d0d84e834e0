//! Tests of the measurement protocol itself: determinism guarantees,
//! normalization, and the properties Tables 4–6 depend on.

use starfish_core::{make_store, ComplexObjectStore, ModelKind, StoreConfig};
use starfish_cost::QueryId;
use starfish_workload::{generate, DatasetParams, Executor, PlanRun, WorkloadSpec};

fn setup(kind: ModelKind, seed: u64) -> (Box<dyn ComplexObjectStore>, Executor) {
    let params = DatasetParams {
        n_objects: 100,
        seed: 31,
        ..Default::default()
    };
    let db = generate(&params);
    let mut store = make_store(kind, StoreConfig::with_buffer_pages(96));
    let refs = store.load(&db).unwrap();
    (store, Executor::new(refs, seed))
}

fn measured(exec: &Executor, store: &mut dyn ComplexObjectStore, q: QueryId) -> PlanRun {
    let outcome = exec.run(store, &WorkloadSpec::for_query(q)).unwrap();
    outcome.run().cloned().expect("supported")
}

#[test]
fn different_query_seeds_pick_different_objects() {
    let (mut store, e1) = setup(ModelKind::DasdbsNsm, 1);
    let (_, e2) = setup(ModelKind::DasdbsNsm, 2);
    let m1 = measured(&e1, store.as_mut(), QueryId::Q2b);
    let m2 = measured(&e2, store.as_mut(), QueryId::Q2b);
    // Navigation totals differ with overwhelming probability when the root
    // sequence differs.
    assert_ne!(
        m1.nav_seen, m2.nav_seen,
        "different seeds must give different access sequences"
    );
}

#[test]
fn q2a_and_q3a_share_their_navigation_sequence() {
    let (mut store, exec) = setup(ModelKind::Dsm, 9);
    let q2 = measured(&exec, store.as_mut(), QueryId::Q2a);
    let q3 = measured(&exec, store.as_mut(), QueryId::Q3a);
    assert_eq!(q2.nav_seen, q3.nav_seen);
    assert!(q3.snapshot.pages_written > q2.snapshot.pages_written);
}

#[test]
fn per_unit_metrics_are_totals_over_units() {
    let (mut store, exec) = setup(ModelKind::DasdbsDsm, 9);
    let m = measured(&exec, store.as_mut(), QueryId::Q2b);
    assert_eq!(m.units, 20); // 100 objects / 5
    let per = m.pages_per_unit();
    assert!((per * 20.0 - m.snapshot.pages_io() as f64).abs() < 1e-9);
    assert!((m.fixes_per_unit() * 20.0 - m.snapshot.fixes as f64).abs() < 1e-9);
}

#[test]
fn query1_never_writes_and_query3_always_does() {
    for kind in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
        let (mut store, exec) = setup(kind, 5);
        for q in [QueryId::Q1b, QueryId::Q1c, QueryId::Q2a, QueryId::Q2b] {
            let m = measured(&exec, store.as_mut(), q);
            assert_eq!(m.snapshot.pages_written, 0, "{kind} {q} must not write");
        }
        for q in [QueryId::Q3a, QueryId::Q3b] {
            let m = measured(&exec, store.as_mut(), q);
            assert!(m.snapshot.pages_written > 0, "{kind} {q} must write");
        }
    }
}

#[test]
fn back_to_back_runs_start_cold() {
    // The protocol clears the cache before each query: running the same
    // query twice measures the same thing twice.
    let (mut store, exec) = setup(ModelKind::Dsm, 3);
    let a = measured(&exec, store.as_mut(), QueryId::Q1c);
    let b = measured(&exec, store.as_mut(), QueryId::Q1c);
    assert_eq!(a, b);
}

#[test]
fn navigation_counts_match_dataset_expectations() {
    // Over 20 loops the average children per loop should be near the
    // dataset's 4.1 (within generous sampling noise).
    let (mut store, exec) = setup(ModelKind::DasdbsNsm, 77);
    let m = measured(&exec, store.as_mut(), QueryId::Q2b);
    let children_per_loop = m.nav_hop(0) as f64 / m.units as f64;
    assert!(
        (1.5..7.5).contains(&children_per_loop),
        "children/loop = {children_per_loop}"
    );
    let grand_per_child = m.nav_hop(1) as f64 / m.nav_hop(0).max(1) as f64;
    assert!(
        (1.5..7.5).contains(&grand_per_child),
        "grand/child = {grand_per_child}"
    );
}
