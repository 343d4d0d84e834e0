//! The paper's queries 1a–3b as built-in plans
//! ([`WorkloadSpec::for_query`]) under the serial measurement protocol.

use crate::executor::tests::serial_setup as small_setup;
use crate::plan::PatchSpec;
use crate::{Executor, PlanOutcome, PlanRun, WorkloadSpec};
use starfish_core::{ComplexObjectStore, ModelKind};
use starfish_cost::QueryId;

fn run(exec: &Executor, store: &mut dyn ComplexObjectStore, query: QueryId) -> PlanOutcome {
    exec.run(store, &WorkloadSpec::for_query(query)).unwrap()
}

fn measured(exec: &Executor, store: &mut dyn ComplexObjectStore, query: QueryId) -> PlanRun {
    run(exec, store, query).run().cloned().expect("measured")
}

#[test]
fn q1a_unsupported_only_for_pure_nsm() {
    for kind in ModelKind::all() {
        let (mut store, exec) = small_setup(kind);
        let out = run(&exec, store.as_mut(), QueryId::Q1a);
        if kind == ModelKind::Nsm {
            assert_eq!(out, PlanOutcome::Unsupported);
        } else {
            let m = out.run().expect("measured");
            assert!(m.pages_per_unit() > 0.0, "{kind}");
        }
    }
}

#[test]
fn identical_access_sequences_across_models() {
    let mut counts = Vec::new();
    for kind in ModelKind::all() {
        let (mut store, exec) = small_setup(kind);
        let m = measured(&exec, store.as_mut(), QueryId::Q2b);
        counts.push((m.nav_hop(0), m.nav_hop(1)));
    }
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1], "all models must navigate the same refs");
    }
}

#[test]
fn q2b_runs_n_over_5_loops() {
    let (mut store, exec) = small_setup(ModelKind::DasdbsNsm);
    let m = measured(&exec, store.as_mut(), QueryId::Q2b);
    assert_eq!(m.units, 12); // 60/5
    assert_eq!(WorkloadSpec::q2b().units(exec.refs().len()), 12);
}

#[test]
fn q3_shares_navigation_with_q2_and_adds_writes() {
    let (mut store, exec) = small_setup(ModelKind::Dsm);
    let q2 = measured(&exec, store.as_mut(), QueryId::Q2b);
    let q3 = measured(&exec, store.as_mut(), QueryId::Q3b);
    assert_eq!(q2.nav_hop(1), q3.nav_hop(1), "same sequence");
    assert_eq!(q2.snapshot.pages_written, 0, "query 2 never writes");
    assert!(q3.snapshot.pages_written > 0, "query 3 writes");
    assert!(q3.pages_per_unit() > q2.pages_per_unit());
}

#[test]
fn q1c_normalizes_per_object() {
    let (mut store, exec) = small_setup(ModelKind::DasdbsDsm);
    let m = measured(&exec, store.as_mut(), QueryId::Q1c);
    assert_eq!(m.units, 60);
    assert!(m.pages_per_unit() >= 1.0);
}

#[test]
fn measurements_are_reproducible() {
    let (mut store, exec) = small_setup(ModelKind::DasdbsNsm);
    let a = run(&exec, store.as_mut(), QueryId::Q2a);
    let b = run(&exec, store.as_mut(), QueryId::Q2a);
    assert_eq!(a, b, "same seed, same store, same measurement");
}

#[test]
fn update_name_is_100_bytes_and_unique() {
    let n = |l| PatchSpec::LoopName.materialize(l);
    assert_eq!(n(0).len(), 100);
    assert_eq!(n(12345).len(), 100);
    assert_ne!(n(1), n(2));
}
