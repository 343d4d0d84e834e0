//! Micro-benchmark of the plan executor's dispatch overhead.
//!
//! The AccessPlan redesign replaced three hard-coded query loops with one
//! streaming interpreter. The interpreter adds a `match` per op and a
//! selection `Vec` per step — this bench shows that cost is noise against
//! the work the ops do, even with every page buffered (the worst case for
//! relative overhead: no physical I/O to hide behind).
//!
//! * `plan/hardcoded_2b` — the pre-redesign query-2b measurement loop,
//!   hand-written against the store traits (protocol included).
//! * `plan/executor_2b` — the same protocol through `Executor::run`
//!   (spec-built and interpreter-driven). The two must be within
//!   measurement noise of each other.
//! * `plan/spec_build_2b` — constructing the spec value alone (the cost
//!   `WorkloadSpec::for_query` adds per run).

mod common;

use criterion::Criterion;
use starfish_core::{make_store, ComplexObjectStore, ModelKind, ObjRef, StoreConfig};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_workload::{generate, DatasetParams, Executor, WorkloadSpec};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_OBJECTS: usize = 60;
const SEED: u64 = 7;

fn setup() -> (Vec<Station>, Box<dyn ComplexObjectStore>, Vec<ObjRef>) {
    let db = generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: 99,
        ..Default::default()
    });
    // Default 1200-page buffer ≫ the 60-object database: after the first
    // pass everything is a hit and the interpreter itself is the cost.
    let mut store = make_store(ModelKind::DasdbsNsm, StoreConfig::default());
    let refs = store.load(&db).unwrap();
    (db, store, refs)
}

/// The pre-redesign query-2b loop, verbatim: protocol + navigation.
fn hardcoded_2b(store: &mut dyn ComplexObjectStore, refs: &[ObjRef]) -> u64 {
    let mut rng =
        StdRng::seed_from_u64(SEED.wrapping_add(5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    store.clear_cache().unwrap();
    store.reset_stats();
    let before = store.snapshot();
    let loops = QueryId::Q2b.loops(refs.len() as u64);
    let mut seen = 0u64;
    for _ in 0..loops {
        let root = refs[rng.random_range(0..refs.len())];
        let children = store.children_of(&[root]).unwrap();
        let grandchildren = store.children_of(&children).unwrap();
        let roots = store.root_records(&grandchildren).unwrap();
        seen += roots.len() as u64;
    }
    store.flush().unwrap();
    let snap = store.snapshot() - before;
    seen + snap.fixes
}

fn main() {
    let mut c: Criterion = common::criterion();

    c.bench_function("plan/hardcoded_2b", |b| {
        let (_db, mut store, refs) = setup();
        b.iter(|| black_box(hardcoded_2b(store.as_mut(), &refs)))
    });

    c.bench_function("plan/executor_2b", |b| {
        let (_db, mut store, refs) = setup();
        let exec = Executor::new(refs, SEED);
        b.iter(|| black_box(exec.run(store.as_mut(), &WorkloadSpec::q2b()).unwrap()))
    });

    c.bench_function("plan/spec_build_2b", |b| {
        b.iter(|| black_box(WorkloadSpec::for_query(QueryId::Q2b)))
    });

    c.final_summary();
}
