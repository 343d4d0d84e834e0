//! Cluster differential: routed concurrent serving of a partitioned store
//! must never change what the cluster *answers* or what lands on its
//! disks — only when requests execute.
//!
//! For a bracket of storage models and cluster shapes, the same workload
//! runs two ways:
//!
//! * a **serially-driven** `PartitionedStore` (the §5.5 oracle): one
//!   client, the paper's measurement protocol, updates inline;
//! * the **routed cluster**: N client threads dealing units through
//!   `with_cluster_router`, M queue workers per node, updates deferred
//!   in plan order.
//!
//! The two must agree on the answers (per-unit observations), the
//! navigation footprint, the per-node buffer-fix counts and — after the
//! disconnect flush — the per-node `disk_checksum` fingerprints, at every
//! swept (nodes × workers × clients) shape. With 1 node × 1 worker × 1
//! client the bar is the established one: the entire read-only
//! `PlanRun` equals the serial run counter for counter.
//!
//! A drift-spec run closes the loop with PR 6: the drifting hot set served
//! by a cluster produces the identical answer sequence on every storage
//! model (the access sequence is a function of (spec, seed, database)
//! only — the model never changes it), pinned here across models on a
//! routed 3-node cluster.

use starfish::core::{ComplexObjectStore, ModelKind, PartitionedStore, Placement, StoreConfig};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::workload::{generate, DatasetParams, Executor, PlanOutcome, WorkloadSpec};

const SEED: u64 = 19_930_527;
const N_OBJECTS: usize = 120;
/// Per-node buffer: small enough that navigation misses, big enough that
/// every node's working set survives a unit.
const BUFFER_PAGES: usize = 96;
const MODELS: [ModelKind; 3] = [ModelKind::Dsm, ModelKind::DasdbsNsm, ModelKind::NsmIndexed];

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: SEED,
        ..Default::default()
    })
}

fn config() -> StoreConfig {
    StoreConfig::with_buffer_pages(BUFFER_PAGES)
}

fn serial_cluster(kind: ModelKind, nodes: usize, db: &[Station]) -> (PartitionedStore, Executor) {
    let mut c = PartitionedStore::new(kind, nodes, Placement::RoundRobin, config());
    let refs = c.load(db).expect("load");
    let exec = Executor::new(refs, SEED);
    (c, exec)
}

fn routed_cluster(
    kind: ModelKind,
    nodes: usize,
    shards: usize,
    db: &[Station],
) -> (PartitionedStore, Executor) {
    let mut c = PartitionedStore::with_shards(kind, nodes, Placement::RoundRobin, config(), shards);
    let refs = c.load(db).expect("load");
    let exec = Executor::new(refs, SEED);
    (c, exec)
}

/// N nodes × M workers × K clients ≡ the serially-driven partitioned run:
/// answers, navigation footprint, per-node fix counts and per-node disk
/// fingerprints — for a workload *with* root updates, so the checksums
/// actually prove the write path routed correctly.
#[test]
fn routed_cluster_matches_serial_partitioned_oracle() {
    let db = dataset();
    let spec = WorkloadSpec::for_query(QueryId::Q3a);
    for kind in MODELS {
        for nodes in [1usize, 3] {
            // The oracle: inline updates, one client, serial surface.
            let (mut serial, exec) = serial_cluster(kind, nodes, &db);
            let want = match exec.run(&mut serial, &spec).unwrap() {
                PlanOutcome::Measured(r) => r,
                PlanOutcome::Unsupported => panic!("{kind}: Q3a must be supported"),
            };
            let want_fixes: Vec<u64> = serial.node_snapshots().iter().map(|s| s.fixes).collect();
            let want_disks = serial.node_checksums();

            let mut baseline_obs = None;
            for (clients, workers) in [(1usize, 1usize), (8, 4)] {
                let (mut routed, exec) = routed_cluster(kind, nodes, workers, &db);
                let got = exec
                    .run_cluster(&mut routed, &spec, clients, workers)
                    .unwrap();
                let run = got.run.outcome.run().expect("measured");
                let shape = format!("{kind}/{nodes}n/{workers}w/{clients}c");
                assert_eq!(
                    run.snapshot.fixes, want.snapshot.fixes,
                    "{shape}: total fixes diverged from the serial oracle"
                );
                assert_eq!(run.units, want.units, "{shape}: units");
                assert_eq!(run.nav_seen, want.nav_seen, "{shape}: navigation footprint");
                assert_eq!(
                    run.updates_applied, want.updates_applied,
                    "{shape}: update count"
                );
                let got_fixes: Vec<u64> = routed.node_snapshots().iter().map(|s| s.fixes).collect();
                assert_eq!(got_fixes, want_fixes, "{shape}: per-node fix counts");
                assert_eq!(
                    routed.node_checksums(),
                    want_disks,
                    "{shape}: per-node disks diverged from the serial oracle"
                );
                assert_eq!(got.queue_high_water.len(), nodes, "{shape}: hw vector");
                // Answers are invariant across (clients × workers) too.
                match &baseline_obs {
                    None => baseline_obs = Some(got.run.observations),
                    Some(want_obs) => assert_eq!(
                        want_obs, &got.run.observations,
                        "{shape}: observations diverged across serving shapes"
                    ),
                }
            }
        }
    }
}

/// The acceptance anchor: 1 node × 1 worker × 1 client over a read-only
/// plan replays the serial `PlanRun` counter for counter — physical
/// reads, latch counters, everything. Asking for zero workers serves with
/// one per node, and the run reports what actually ran.
#[test]
fn one_node_one_worker_replays_serial_measurement_exactly() {
    let db = dataset();
    let spec = WorkloadSpec::for_query(QueryId::Q2b);
    for kind in MODELS {
        let (mut serial, exec) = serial_cluster(kind, 1, &db);
        let want = match exec.run(&mut serial, &spec).unwrap() {
            PlanOutcome::Measured(r) => r,
            PlanOutcome::Unsupported => panic!("{kind}: Q2b must be supported"),
        };
        let (mut routed, exec) = routed_cluster(kind, 1, 1, &db);
        for (clients, workers) in [(1usize, 1usize), (0, 0)] {
            let got = exec
                .run_cluster(&mut routed, &spec, clients, workers)
                .unwrap();
            assert_eq!((got.run.threads, got.workers_per_node), (1, 1), "{kind}");
            let run = got.run.outcome.run().expect("measured");
            assert_eq!(
                run, &want,
                "{kind}: routed 1×1×1 diverged from the serial measurement"
            );
            assert_eq!(routed.node_checksums(), serial.node_checksums(), "{kind}");
        }
    }
}

/// A drifting hot set served by a routed 3-node cluster answers
/// identically on every storage model — the PR 6 determinism contract
/// survives the routing layer.
#[test]
fn drift_spec_cluster_answers_are_model_invariant() {
    let db = dataset();
    let spec = WorkloadSpec::drift_gradual();
    let mut baseline = None;
    for kind in MODELS {
        let (mut routed, exec) = routed_cluster(kind, 3, 2, &db);
        let got = exec.run_cluster(&mut routed, &spec, 4, 2).unwrap();
        let run = got
            .run
            .outcome
            .run()
            .expect("drift specs run on every model");
        assert!(run.units > 0);
        match &baseline {
            None => baseline = Some((got.run.observations, run.nav_seen.clone())),
            Some((want_obs, want_nav)) => {
                assert_eq!(
                    want_obs, &got.run.observations,
                    "{kind}: drift answer sequence diverged across models"
                );
                assert_eq!(want_nav, &run.nav_seen, "{kind}: drift footprint");
            }
        }
    }
}
