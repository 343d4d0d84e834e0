//! Golden equivalence for the AccessPlan redesign.
//!
//! The PR that introduced the declarative IR replaced the hard-coded
//! query loops with built-in plans (`WorkloadSpec::for_query`) run by the
//! plan executor. To prove the rewrite behaviour-preserving, `legacy_run`
//! below is a **verbatim replica of the pre-redesign hard-coded runner**
//! (the three-arm match over query ids, seed derivation and all; only the
//! type it reports in is local to this file). Every query × every model
//! must produce a byte-identical measurement — exact `IoSnapshot`
//! equality, physical reads and latch counters included — under both:
//!
//! * the serial protocol (`Executor::run` vs the legacy loop), and
//! * the 1-thread × 1-shard concurrent protocol
//!   (`Executor::run_concurrent` vs the legacy loop).
//!
//! The checked-in example spec files must also parse to exactly the
//! shipped constructors, so `--workload examples/workloads/…` and the
//! `ext-workload` sweep can never drift apart.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use starfish::core::{
    make_shared_store, make_store, ComplexObjectStore, CoreError, ModelKind, ObjRef, RootPatch,
    StoreConfig,
};
use starfish::cost::QueryId;
use starfish::nf2::Projection;
use starfish::pagestore::IoSnapshot;
use starfish::workload::{generate, DatasetParams, Executor, PlanOutcome, WorkloadSpec};

const Q1A_SAMPLE: usize = 25;

/// What the legacy runner measured, in its own vocabulary.
#[derive(Debug, PartialEq)]
struct LegacyRun {
    snapshot: IoSnapshot,
    units: u64,
    children_seen: u64,
    grandchildren_seen: u64,
}

/// The same four numbers out of a plan outcome (hop 0 = children, hop 1 =
/// grand-children); `None` is both sides' "not relevant" marker.
fn in_legacy_terms(outcome: &PlanOutcome) -> Option<LegacyRun> {
    outcome.run().map(|run| LegacyRun {
        snapshot: run.snapshot,
        units: run.units,
        children_seen: run.nav_hop(0),
        grandchildren_seen: run.nav_hop(1),
    })
}

/// The pre-redesign measurement loop, kept verbatim as the equivalence
/// oracle.
fn legacy_run(
    store: &mut dyn ComplexObjectStore,
    refs: &[ObjRef],
    seed: u64,
    query: QueryId,
) -> Option<LegacyRun> {
    let disc: u64 = match query {
        QueryId::Q1a => 1,
        QueryId::Q1b => 2,
        QueryId::Q1c => 3,
        QueryId::Q2a | QueryId::Q3a => 4,
        QueryId::Q2b | QueryId::Q3b => 5,
    };
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_add(disc.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let pick = |rng: &mut StdRng| refs[rng.random_range(0..refs.len())];
    let update_name = |loop_nr: u64| {
        let mut s = format!("updated-{loop_nr}-");
        while s.len() < 100 {
            s.push('u');
        }
        s.truncate(100);
        s
    };

    store.clear_cache().unwrap();
    store.reset_stats();
    let before = store.snapshot();

    let mut children_seen = 0u64;
    let mut grandchildren_seen = 0u64;
    let navigation_loop = |store: &mut dyn ComplexObjectStore,
                           root: ObjRef,
                           update: bool,
                           loop_nr: u64|
     -> (u64, u64) {
        let children = store.children_of(&[root]).unwrap();
        let grandchildren = store.children_of(&children).unwrap();
        let roots = store.root_records(&grandchildren).unwrap();
        assert_eq!(roots.len(), grandchildren.len());
        if update {
            let patch = RootPatch {
                new_name: update_name(loop_nr),
            };
            store.update_roots(&grandchildren, &patch).unwrap();
        }
        (children.len() as u64, grandchildren.len() as u64)
    };

    let units: u64 = match query {
        QueryId::Q1a => {
            let sample = Q1A_SAMPLE.min(refs.len()).max(1);
            for _ in 0..sample {
                let r = pick(&mut rng);
                match store.get_by_oid(r.oid, &Projection::All) {
                    Ok(_) => {}
                    Err(CoreError::Unsupported { .. }) => return None,
                    Err(e) => panic!("{e}"),
                }
                store.clear_cache().unwrap();
            }
            sample as u64
        }
        QueryId::Q1b => {
            let r = pick(&mut rng);
            store.get_by_key(r.key, &Projection::All).unwrap();
            1
        }
        QueryId::Q1c => {
            let mut n = 0u64;
            store.scan_all(&mut |_| n += 1).unwrap();
            n.max(1)
        }
        QueryId::Q2a | QueryId::Q3a => {
            let root = pick(&mut rng);
            let (c, g) = navigation_loop(store, root, query == QueryId::Q3a, 0);
            children_seen += c;
            grandchildren_seen += g;
            1
        }
        QueryId::Q2b | QueryId::Q3b => {
            let loops = QueryId::Q2b.loops(refs.len() as u64);
            for l in 0..loops {
                let root = pick(&mut rng);
                let (c, g) = navigation_loop(store, root, query == QueryId::Q3b, l);
                children_seen += c;
                grandchildren_seen += g;
            }
            loops
        }
    };

    store.flush().unwrap();
    let snapshot = store.snapshot() - before;
    Some(LegacyRun {
        snapshot,
        units,
        children_seen,
        grandchildren_seen,
    })
}

/// Fast scale: 300 objects / 240-page buffer, the harness's ratio.
const N_OBJECTS: usize = 300;
const BUFFER_PAGES: usize = 240;
const DATASET_SEED: u64 = 4242;
const QUERY_SEED: u64 = 1993;

fn db() -> Vec<starfish::nf2::station::Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: DATASET_SEED,
        ..Default::default()
    })
}

#[test]
fn plan_built_queries_match_the_legacy_runner_exactly() {
    let db = db();
    for kind in ModelKind::all() {
        for query in QueryId::all() {
            let mut store = make_store(kind, StoreConfig::with_buffer_pages(BUFFER_PAGES));
            let refs = store.load(&db).unwrap();
            let want = legacy_run(store.as_mut(), &refs, QUERY_SEED, query);

            let mut store = make_store(kind, StoreConfig::with_buffer_pages(BUFFER_PAGES));
            let refs = store.load(&db).unwrap();
            let exec = Executor::new(refs, QUERY_SEED);
            let got = exec
                .run(store.as_mut(), &WorkloadSpec::for_query(query))
                .unwrap();

            assert_eq!(
                in_legacy_terms(&got),
                want,
                "{kind}/{query}: plan executor diverged from the legacy hard-coded runner"
            );
        }
    }
}

#[test]
fn one_thread_concurrent_plans_match_the_legacy_runner_exactly() {
    let db = db();
    for kind in ModelKind::all() {
        for query in [
            QueryId::Q1a,
            QueryId::Q1b,
            QueryId::Q1c,
            QueryId::Q2a,
            QueryId::Q2b,
            QueryId::Q3a,
        ] {
            let mut store = make_store(kind, StoreConfig::with_buffer_pages(BUFFER_PAGES));
            let refs = store.load(&db).unwrap();
            let want = legacy_run(store.as_mut(), &refs, QUERY_SEED, query);

            let mut store =
                make_shared_store(kind, StoreConfig::with_buffer_pages(BUFFER_PAGES), 1);
            let refs = store.load(&db).unwrap();
            let exec = Executor::new(refs, QUERY_SEED);
            let got = exec
                .run_concurrent(store.as_mut(), &WorkloadSpec::for_query(query), 1)
                .unwrap();

            assert_eq!(
                in_legacy_terms(&got.outcome),
                want,
                "{kind}/{query}: 1-thread concurrent plan diverged from the legacy runner"
            );
        }
    }
}

#[test]
fn checked_in_spec_files_match_the_shipped_constructors() {
    for (path, want) in [
        ("examples/workloads/deep_nav.json", WorkloadSpec::deep_nav()),
        ("examples/workloads/hot_set.json", WorkloadSpec::hot_set()),
        (
            "examples/workloads/scan_then_update.json",
            WorkloadSpec::scan_then_update(),
        ),
        (
            "examples/workloads/drift_gradual.json",
            WorkloadSpec::drift_gradual(),
        ),
        (
            "examples/workloads/drift_sudden.json",
            WorkloadSpec::drift_sudden(),
        ),
        (
            "examples/workloads/drift_cycle.json",
            WorkloadSpec::drift_cycle(),
        ),
    ] {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let parsed = WorkloadSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(parsed, want, "{path} drifted from the shipped constructor");
        // And the constructor's own serialization round-trips.
        assert_eq!(
            WorkloadSpec::from_json(&want.to_json()).unwrap(),
            want,
            "{path}: to_json/from_json round trip"
        );
    }
}
