//! Concurrent differential test: serving N clients from one shared buffer
//! pool must never change what queries *answer* — only when pages
//! physically travel.
//!
//! For every storage model, queries 1a/2a/2b/3a run with 1, 2, 4 and 8
//! client threads over one `SharedBufferPool` (shard count = thread count)
//! and the runs must agree on:
//!
//! * the **merged answer sequence** (stronger than the multiset: answers
//!   are merged back in serial plan order, so they are compared
//!   element-for-element) — identical to the serial run's observations;
//! * the **total buffer fixes** and the navigation footprint — fixes count
//!   page accesses, which scheduling cannot change.
//!
//! Only the physical read/write counters may differ across thread counts
//! (threads race on cache residency) — the same invariant shape as
//! `tests/cross_policy_differential.rs`.
//!
//! With **one thread and one shard** the bar is higher, and it is set for
//! all seven queries (1a–3b): the entire `PlanRun` (physical reads
//! included; 3b's deferred updates excepted, see the test) must equal the
//! serial `Executor::run` counter for counter — the acceptance gate for the
//! shared pool reproducing the paper's serial numbers, which
//! `tests/golden_lru.rs` pins to the digit. One thread over 2 and 4 shards
//! must still make every access the serial run makes: which shard owns a
//! page (an object's whole extent, or a hashed heap page) moves residency,
//! never a fix.

use starfish::core::{
    make_shared_store, make_store, ConcurrentObjectStore, ModelKind, PolicyKind, StoreConfig,
};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::prelude::*;
use starfish::workload::{generate, UnitObservation};

const SEED: u64 = 19_930_419;
const N_OBJECTS: usize = 120;
/// Small enough that working sets overflow it and interleavings matter.
const BUFFER_PAGES: usize = 96;
const QUERIES: [QueryId; 4] = [QueryId::Q1a, QueryId::Q2a, QueryId::Q2b, QueryId::Q3a];
const THREADS: [usize; 4] = [1, 2, 4, 8];

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

/// One thread over one shard reproduces the serial measurement exactly —
/// same seed ⇒ identical `PlanRun` values, physical I/O included, for every
/// query of the paper. Query 3b is the one qualified row: the concurrent
/// protocol defers a plan's updates behind its read phase, which for 3b's
/// many loops moves *when* pages travel (for 3a's single loop the update is
/// the tail either way) — so there the physical counters are masked and
/// everything scheduling cannot move must still agree. Over 2 and 4 shards
/// each shard runs its own LRU over its slice, so residency differs from
/// the serial pool's and the comparison is of the access counts alone.
#[test]
fn one_client_reproduces_serial_measurements_exactly() {
    let db = dataset();
    for kind in ModelKind::all() {
        let mut serial = make_store(kind, config());
        let refs = serial.load(&db).expect("load");
        let exec = Executor::new(refs, SEED);
        for q in QueryId::all() {
            let want = exec
                .run(serial.as_mut(), &WorkloadSpec::for_query(q))
                .unwrap();
            for shards in [1, 2, 4] {
                let mut store = shared_store(kind, shards, &db);
                let got = exec
                    .run_concurrent(store.as_mut(), &WorkloadSpec::for_query(q), 1)
                    .unwrap();
                let (got, want) = if shards == 1 && q != QueryId::Q3b {
                    (got.outcome, want.clone())
                } else {
                    (access_counts(got.outcome), access_counts(want.clone()))
                };
                assert_eq!(
                    got, want,
                    "{kind}/{q}: shared pool at 1 thread × {shards} shards diverged from serial"
                );
            }
        }
    }
}

/// `outcome` with the residency-dependent counters zeroed: what is left —
/// fixes, latch groups, units, navigation footprint, updates applied —
/// counts accesses, not page transfers.
fn access_counts(mut outcome: PlanOutcome) -> PlanOutcome {
    if let PlanOutcome::Measured(run) = &mut outcome {
        let s = &mut run.snapshot;
        (s.read_calls, s.pages_read, s.write_calls, s.pages_written) = (0, 0, 0, 0);
        (s.hits, s.misses) = (0, 0);
    }
    outcome
}

/// 2/4/8 clients: merged answers identical to the 1-client run, fixes and
/// footprint identical; only physical reads/writes may move.
#[test]
fn answers_and_fixes_survive_any_thread_count() {
    let db = dataset();
    for kind in ModelKind::all() {
        for q in QUERIES {
            let mut baseline: Option<(Vec<UnitObservation>, u64, u64, Vec<u64>)> = None;
            for &threads in &THREADS {
                let mut store = shared_store(kind, threads, &db);
                let run = executor_for(&db)
                    .run_concurrent(store.as_mut(), &WorkloadSpec::for_query(q), threads)
                    .unwrap();
                match run.outcome {
                    PlanOutcome::Measured(m) => {
                        let fp = (run.observations, m.snapshot.fixes, m.units, m.nav_seen);
                        match &baseline {
                            None => baseline = Some(fp),
                            Some(want) => {
                                assert_eq!(
                                    want.0, fp.0,
                                    "{kind}/{q}/{threads}t: merged answers diverged"
                                );
                                assert_eq!(
                                    (want.1, want.2, &want.3),
                                    (fp.1, fp.2, &fp.3),
                                    "{kind}/{q}/{threads}t: fixes/footprint diverged"
                                );
                            }
                        }
                    }
                    PlanOutcome::Unsupported => {
                        assert_eq!(
                            (kind, q),
                            (ModelKind::Nsm, QueryId::Q1a),
                            "only NSM/1a may be unsupported"
                        );
                    }
                }
            }
        }
    }
}

/// Query 3a's single-writer update tail converges to the same database
/// whatever the client count: a full scan after the run sees the patched
/// names everywhere.
#[test]
fn updates_converge_across_thread_counts() {
    let db = dataset();
    for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
        let mut scans: Vec<Vec<Station>> = Vec::new();
        for &threads in &[1usize, 4] {
            let mut store = shared_store(kind, threads, &db);
            executor_for(&db)
                .run_concurrent(store.as_mut(), &WorkloadSpec::q3a(), threads)
                .unwrap();
            store.clear_cache().unwrap();
            let mut seen = Vec::new();
            store
                .scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
                .unwrap();
            scans.push(seen);
        }
        assert_eq!(scans[0], scans[1], "{kind}: database diverged");
        assert_ne!(
            scans[0], db,
            "{kind}: query 3a must actually update something"
        );
    }
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
