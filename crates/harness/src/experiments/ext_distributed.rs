//! Extension experiment: whole-object placement on a shared-nothing
//! cluster — testing the paper's closing §5.5 hypothesis, then *serving*
//! that cluster concurrently.
//!
//! > "with data skew the disk I/Os are likely to be less equally
//! > distributed over the nodes if we store a single object on a single
//! > node."
//!
//! **Part 1 — the §5.5 distribution study** (the original experiment):
//! query 2b on an 8-node cluster (each node with a proportional share of
//! the buffer) under the default and skewed generators, reporting the
//! per-node page-I/O distribution: with skew, a few large objects
//! concentrate work on their owner nodes.
//!
//! **Part 2 — the scale-out serving sweep** (new with the routed
//! dispatch front-end): query 3b served through `Executor::run_cluster`
//! — every node a sharded `ConcurrentObjectStore` behind its own job queue,
//! ops routed to their owning node, updates and the disconnect flush
//! fanned out deterministically — across models × replacement policies ×
//! node counts × queue workers per node, under 64 and 256 simulated
//! clients. Reported per cell: queries/s and the speedup over the first
//! worker count (wall-clock, hardware-dependent), the per-node
//! buffer-fix imbalance (the part-1 §5.5 metrics applied to the serving
//! cluster), the routers' job-queue high-water mark (per-node batches:
//! one job per node per plan step and client), the batched
//! I/O engine's coalescing counters, and a `disks` verdict: per-node
//! `disk_checksum` fingerprints and fix counts compared against a
//! serially-driven oracle cluster of the same shape. Concurrency may move
//! physical reads and wall-clock — never the answers, the fix counts or
//! the bytes on any node's disk.
//!
//! **The identity anchor**: 1 node × 1 worker × 1 client over read-only
//! query 2b replays the serial cluster measurement counter for counter
//! (checked per model; the result lands in the notes).
//!
//! [`cluster_baseline`] (`--only ext-cluster-baseline`) emits the
//! deterministic subset of the sweep — units, fixes, update counts,
//! navigation footprint, per-node fixes and per-node disk fingerprints
//! across a nodes × workers grid — for byte-exact CI diffing against
//! `BENCH_cluster.json` (the `BENCH_drift.json` pattern): the diff
//! passing *is* the scheduling-independence proof on the CI machine.

use crate::experiments::speedup_over_first;
use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{store_config_for, HarnessConfig};
use crate::Result;
use starfish_core::{
    ComplexObjectStore, IoEngineConfig, ModelKind, PartitionedStore, Placement, PolicyKind,
};
use starfish_cost::QueryId;
use starfish_workload::{generate, DatasetParams, Executor, PlanOutcome, PlanRun, WorkloadSpec};

/// Cluster size of the part-1 distribution study.
pub const NODES: usize = 8;

/// Models compared in part 1 (as in Figure 5 / Table 7).
pub const MODELS: [ModelKind; 3] = [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm];

/// Models the serving sweep and the baseline grid run (one direct, one
/// normalized — the two ends of the paper's layout spectrum).
pub const SWEEP_MODELS: [ModelKind; 2] = [ModelKind::Dsm, ModelKind::DasdbsNsm];

/// Node counts the serving sweep crosses with workers-per-node.
pub const SWEEP_NODES: [usize; 2] = [2, 4];

/// Simulated client loads of the serving sweep.
pub const CLIENT_LOADS: [usize; 2] = [64, 256];

/// Default workers-per-node list (`--threads N` narrows it to `[N]`).
pub const DEFAULT_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Per-node imbalance of a load vector: max/mean (1.0 = perfectly even).
pub(crate) fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    loads.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Coefficient of variation (σ/μ) of a load vector.
pub(crate) fn cv(loads: &[u64]) -> f64 {
    let n = loads.len() as f64;
    let mean = loads.iter().sum::<u64>() as f64 / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Builds a serving cluster: `nodes` nodes, each a shared store with
/// `shards_per_node` lock-striped shards, a proportional buffer share and
/// the batched I/O engine enabled (so the sweep's coalescing columns are
/// live).
fn cluster_store(
    kind: ModelKind,
    nodes: usize,
    policy: PolicyKind,
    config: &HarnessConfig,
    shards_per_node: usize,
) -> PartitionedStore {
    PartitionedStore::with_shards(
        kind,
        nodes,
        Placement::RoundRobin,
        store_config_for(policy, config.node_buffer_pages(nodes))
            .io_engine(IoEngineConfig::enabled()),
        shards_per_node,
    )
}

/// What a serving cell must reproduce: the serially-driven cluster's
/// measurement, per-node fix counts and per-node disk fingerprints.
struct Oracle {
    run: PlanRun,
    fixes: Vec<u64>,
    disks: Vec<u64>,
}

/// Drives the same cluster shape serially (one client, no router) — the
/// determinism oracle for every (clients × workers) cell of that shape.
fn serial_oracle(
    kind: ModelKind,
    nodes: usize,
    policy: PolicyKind,
    config: &HarnessConfig,
    db: &[starfish_nf2::station::Station],
    spec: &WorkloadSpec,
) -> Result<Oracle> {
    let mut cluster = cluster_store(kind, nodes, policy, config, 1);
    let refs = cluster.load(db)?;
    let exec = Executor::new(refs, config.query_seed);
    let run = match exec.run(&mut cluster, spec)? {
        PlanOutcome::Measured(run) => run,
        PlanOutcome::Unsupported => unreachable!("sweep spec supported on swept models"),
    };
    let fixes = cluster.node_snapshots().iter().map(|s| s.fixes).collect();
    Ok(Oracle {
        run,
        fixes,
        disks: cluster.node_checksums(),
    })
}

/// Runs query 2b serially on the part-1 cluster and returns (pages/loop,
/// per-node pages).
fn run_clustered(
    kind: ModelKind,
    params: &DatasetParams,
    config: &HarnessConfig,
) -> Result<(f64, Vec<u64>)> {
    let db = generate(params);
    // `--policy` is not applied to the §5.5 study: LRU always.
    let mut store = PartitionedStore::new(
        kind,
        NODES,
        Placement::RoundRobin,
        store_config_for(PolicyKind::Lru, config.node_buffer_pages(NODES)),
    );
    let refs = store.load(&db)?;
    let exec = Executor::new(refs, config.query_seed);
    let PlanOutcome::Measured(m) = exec.run(&mut store, &WorkloadSpec::q2b())? else {
        unreachable!("query 2b is supported everywhere");
    };
    let per_node: Vec<u64> = store
        .node_snapshots()
        .iter()
        .map(|s| s.pages_read + s.pages_written)
        .collect();
    Ok((m.pages_per_unit(), per_node))
}

/// Replacement policies the serving sweep crosses with the cluster
/// shapes: LRU (the paper's buffer), LRU-2 (the scan-resistant contrast)
/// and — when `--policy` selected something else — that one too.
fn sweep_policies(config: &HarnessConfig) -> Vec<PolicyKind> {
    let mut policies = vec![PolicyKind::Lru, PolicyKind::Lru2];
    if !policies.contains(&config.policy) {
        policies.push(config.policy);
    }
    policies
}

/// Runs parts 1 + 2 with the default workers-per-node list.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    run_with(config, &DEFAULT_WORKERS)
}

/// Runs the distribution study and the serving sweep; `threads` is the
/// workers-per-node list (`starfish_repro --threads N` passes `[N]`).
pub fn run_with(config: &HarnessConfig, threads: &[usize]) -> Result<ExperimentReport> {
    let mut table = Table::new(vec![
        "MODEL",
        "POLICY",
        "PART",
        "NODES",
        "wrk/node",
        "CLIENTS",
        "units",
        "pages/u",
        "queries/s",
        "speedup",
        "node max/mean",
        "node cv",
        "queue hw",
        "batch/coalesced",
        "disks",
    ]);

    // ---- Part 1: the §5.5 skew study (serial, 8 nodes) ------------------
    let default_params = config.dataset();
    let skew_params = DatasetParams {
        n_objects: config.n_objects,
        seed: config.dataset_seed,
        ..DatasetParams::skewed()
    };
    let mut imbalances = Vec::new();
    for &kind in &MODELS {
        for (label, params) in [("5.5 default", &default_params), ("5.5 skew", &skew_params)] {
            let (pages, per_node) = run_clustered(kind, params, config)?;
            let imb = imbalance(&per_node);
            table.push_row(vec![
                kind.paper_name().to_string(),
                PolicyKind::Lru.name().to_string(),
                label.to_string(),
                NODES.to_string(),
                "-".to_string(),
                "1".to_string(),
                "-".to_string(),
                fmt_pages(pages),
                "-".to_string(),
                "-".to_string(),
                format!("{imb:.2}"),
                format!("{:.3}", cv(&per_node)),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            imbalances.push((kind, label, imb, cv(&per_node)));
        }
    }

    // ---- Part 2: the routed serving sweep -------------------------------
    let db = generate(&default_params);
    let spec = WorkloadSpec::for_query(QueryId::Q3b);
    let policies = sweep_policies(config);
    let mut disks_diverged: Vec<String> = Vec::new();
    let mut best_speedup: Option<(ModelKind, usize, usize, f64)> = None;
    for &kind in &SWEEP_MODELS {
        for &policy in &policies {
            for &nodes in &SWEEP_NODES {
                let oracle = serial_oracle(kind, nodes, policy, config, &db, &spec)?;
                for &clients in &CLIENT_LOADS {
                    let mut base_qps: Option<f64> = None;
                    for &workers in threads {
                        let workers = workers.max(1);
                        let mut store = cluster_store(kind, nodes, policy, config, workers);
                        let refs = store.load(&db)?;
                        let exec = Executor::new(refs, config.query_seed);
                        let got = exec.run_cluster(&mut store, &spec, clients, workers)?;
                        let run = match &got.run.outcome {
                            PlanOutcome::Measured(run) => run.clone(),
                            PlanOutcome::Unsupported => {
                                unreachable!("sweep spec supported on swept models")
                            }
                        };
                        let node_fixes: Vec<u64> =
                            store.node_snapshots().iter().map(|s| s.fixes).collect();
                        let disks_ok = store.node_checksums() == oracle.disks
                            && node_fixes == oracle.fixes
                            && run.units == oracle.run.units
                            && run.snapshot.fixes == oracle.run.snapshot.fixes
                            && run.nav_seen == oracle.run.nav_seen
                            && run.updates_applied == oracle.run.updates_applied;
                        if !disks_ok {
                            disks_diverged
                                .push(format!("{kind}/{policy}/{nodes}n/{workers}w/{clients}c"));
                        }
                        let qps = got.units_per_sec();
                        let speedup = speedup_over_first(&mut base_qps, qps);
                        if workers >= 4 && best_speedup.is_none_or(|(.., s)| speedup > s) {
                            best_speedup = Some((kind, nodes, workers, speedup));
                        }
                        let hw = got.queue_high_water.iter().copied().max().unwrap_or(0);
                        table.push_row(vec![
                            kind.paper_name().to_string(),
                            policy.name().to_string(),
                            "serve 3b".to_string(),
                            nodes.to_string(),
                            workers.to_string(),
                            clients.to_string(),
                            run.units.to_string(),
                            fmt_pages(run.snapshot.pages_io() as f64 / run.units.max(1) as f64),
                            fmt_pages(qps),
                            format!("{speedup:.2}x"),
                            format!("{:.2}", imbalance(&node_fixes)),
                            format!("{:.3}", cv(&node_fixes)),
                            hw.to_string(),
                            format!(
                                "{}/{}",
                                run.snapshot.batched_read_calls, run.snapshot.coalesced_pages
                            ),
                            if disks_ok { "ok" } else { "DIVERGED" }.to_string(),
                        ]);
                    }
                }
            }
        }
    }

    // ---- The identity anchor: 1 node × 1 worker × 1 client --------------
    let spec_2b = WorkloadSpec::for_query(QueryId::Q2b);
    let mut anchor_bad: Vec<String> = Vec::new();
    for &kind in &SWEEP_MODELS {
        let mut serial = cluster_store(kind, 1, PolicyKind::Lru, config, 1);
        let refs = serial.load(&db)?;
        let exec = Executor::new(refs, config.query_seed);
        let want = match exec.run(&mut serial, &spec_2b)? {
            PlanOutcome::Measured(run) => run,
            PlanOutcome::Unsupported => unreachable!("2b supported"),
        };
        let mut routed = cluster_store(kind, 1, PolicyKind::Lru, config, 1);
        let refs = routed.load(&db)?;
        let exec = Executor::new(refs, config.query_seed);
        let got = exec.run_cluster(&mut routed, &spec_2b, 1, 1)?;
        let identical = matches!(&got.run.outcome, PlanOutcome::Measured(run) if *run == want)
            && routed.node_checksums() == serial.node_checksums();
        if !identical {
            anchor_bad.push(kind.to_string());
        }
    }

    let mut notes = vec![format!(
        "part 1 (5.5 rows): {NODES}-node cluster, whole-object round-robin \
         placement, per-node buffer = {}/{} pages, serial query 2b; loads \
         are per-node pages read+written over the whole run",
        config.buffer_pages, NODES
    )];
    for &kind in &MODELS {
        let d = imbalances
            .iter()
            .find(|(k, l, ..)| *k == kind && *l == "5.5 default");
        let s = imbalances
            .iter()
            .find(|(k, l, ..)| *k == kind && *l == "5.5 skew");
        if let (Some((.., d_imb, d_cv)), Some((.., s_imb, s_cv))) = (d, s) {
            notes.push(format!(
                "{}: node-load cv {:.3} (default) → {:.3} (skew), max/mean {:.2} → {:.2}{}",
                kind.paper_name(),
                d_cv,
                s_cv,
                d_imb,
                s_imb,
                if s_cv > d_cv {
                    " — skew concentrates the I/O, as §5.5 predicted"
                } else {
                    ""
                }
            ));
        }
    }
    notes.push(format!(
        "serve-3b rows: query 3b dealt by {CLIENT_LOADS:?} client threads \
         through the routed dispatch front-end — each node a sharded \
         ConcurrentObjectStore behind its own job queue with (wrk/node) \
         worker threads, each plan step one job per owning node, the \
         deferred updates and the disconnect flush one job per node, \
         waited in ascending node order; swept \
         policies {:?} × nodes {SWEEP_NODES:?} × workers {threads:?}",
        policies.iter().map(|p| p.name()).collect::<Vec<_>>()
    ));
    notes.push(
        "disks column: per-node disk_checksum fingerprints, per-node fix \
         counts and the measurement's units/fixes/nav/update counts \
         compared against a serially-driven oracle cluster of the same \
         shape — 'ok' means concurrent serving moved nothing but timing"
            .to_string(),
    );
    notes.push(
        "queries/s and speedup (vs the first wrk/node cell of the same \
         shape) are wall-clock and hardware-dependent — on a single core \
         expect ≈1.0x, where the sweep measures routing overhead instead; \
         queue hw is the per-node job-queue high-water mark (max over \
         nodes) and counts per-node batches — a client queues one job \
         per node per plan step, so it is at most the clients serving at \
         once —, batch/coalesced the I/O engine's multi-page reads"
            .to_string(),
    );
    notes.push(match best_speedup {
        Some((kind, nodes, workers, s)) => format!(
            "best serving throughput at >= 4 workers/node: {s:.2}x over the \
             first worker count ({kind}, {nodes} nodes, {workers} \
             workers/node) — wall-clock, hardware-dependent"
        ),
        None => "no >= 4 workers/node cell in this sweep (run with \
                 --threads 4 or the default list to measure scale-out)"
            .to_string(),
    });
    notes.push(if anchor_bad.is_empty() {
        "identity anchor held: 1 node × 1 worker × 1 client replays the \
         serial cluster's read-only 2b measurement counter for counter, \
         disks byte-identical"
            .to_string()
    } else {
        format!(
            "WARNING: 1×1×1 diverged from the serial measurement at {} — \
             the routing layer is not behaviour-preserving",
            anchor_bad.join(", ")
        )
    });
    notes.push(if disks_diverged.is_empty() {
        "every serving cell matched its serial oracle: answers, fix \
         partitions and per-node disks are (clients × workers)-invariant"
            .to_string()
    } else {
        format!(
            "WARNING: serving cells diverged from the serial oracle at {} — \
             scheduling leaked into the answers or the disks",
            disks_diverged.join(", ")
        )
    });
    notes.push(
        "total pages/loop of part 1 match the single-node Table 7 values — \
         partitioning redistributes the same I/Os, it does not change \
         their count"
            .into(),
    );

    Ok(ExperimentReport {
        id: "ext-distributed".into(),
        title: "Extension — shared-nothing cluster: §5.5 I/O distribution and routed \
                concurrent serving"
            .into(),
        table,
        notes,
    })
}

/// Baseline grid clients (fixed: the baseline pins determinism, not load).
const BASELINE_CLIENTS: usize = 8;

/// Node counts of the baseline grid.
const BASELINE_NODES: [usize; 2] = [1, 3];
/// Workers-per-node of the baseline grid.
const BASELINE_WORKERS: [usize; 2] = [1, 4];

/// The deterministic cluster fingerprint behind `BENCH_cluster.json`:
/// query 3b served at `BASELINE_CLIENTS` clients across a nodes ×
/// workers grid, emitting only scheduling-independent columns — units,
/// total fixes, update count, navigation footprint, per-node fixes and
/// per-node disk checksums. Rows of the same (model, nodes) must be
/// identical across worker counts; CI diffs the JSON byte-for-byte.
pub fn cluster_baseline(config: &HarnessConfig) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let spec = WorkloadSpec::for_query(QueryId::Q3b);
    let mut table = Table::new(vec![
        "MODEL",
        "NODES",
        "wrk/node",
        "CLIENTS",
        "units",
        "fixes",
        "updates",
        "nav",
        "node fixes",
        "node disks",
    ]);
    for &kind in &SWEEP_MODELS {
        for &nodes in &BASELINE_NODES {
            for &workers in &BASELINE_WORKERS {
                let mut store = cluster_store(kind, nodes, config.policy, config, workers);
                let refs = store.load(&db)?;
                let exec = Executor::new(refs, config.query_seed);
                let got = exec.run_cluster(&mut store, &spec, BASELINE_CLIENTS, workers)?;
                let run = match &got.run.outcome {
                    PlanOutcome::Measured(run) => run.clone(),
                    PlanOutcome::Unsupported => unreachable!("3b supported on baseline models"),
                };
                let join = |v: &[u64]| {
                    v.iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join("/")
                };
                let disks = store
                    .node_checksums()
                    .iter()
                    .map(|c| format!("{c:016x}"))
                    .collect::<Vec<_>>()
                    .join("/");
                let node_fixes: Vec<u64> = store.node_snapshots().iter().map(|s| s.fixes).collect();
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    nodes.to_string(),
                    workers.to_string(),
                    BASELINE_CLIENTS.to_string(),
                    run.units.to_string(),
                    run.snapshot.fixes.to_string(),
                    run.updates_applied.to_string(),
                    join(&run.nav_seen),
                    join(&node_fixes),
                    disks,
                ]);
            }
        }
    }
    Ok(ExperimentReport {
        id: "ext-cluster-baseline".into(),
        title: "Extension — deterministic cluster serving fingerprint (BENCH_cluster.json)".into(),
        table,
        notes: vec![
            format!(
                "query 3b served at {BASELINE_CLIENTS} clients through the routed \
                 front-end, nodes {BASELINE_NODES:?} × workers/node \
                 {BASELINE_WORKERS:?}; every column is scheduling-independent \
                 (answers, fixes, per-node fix partitions, post-flush disk \
                 fingerprints) — wall-clock is deliberately absent"
            ),
            "rows of the same (MODEL, NODES) must be identical across worker \
             counts; a CI diff against the checked-in BENCH_cluster.json \
             failing means scheduling leaked into the answers or the disks"
                .to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_metrics() {
        assert!((imbalance(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[40, 0, 0, 0]) - 4.0).abs() < 1e-12);
        assert_eq!(cv(&[5, 5, 5, 5]), 0.0);
        assert!(cv(&[10, 0, 10, 0]) > 0.9);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn cluster_totals_match_single_node_counts() {
        let config = HarnessConfig::fast();
        let (pages, per_node) =
            run_clustered(ModelKind::DasdbsNsm, &config.dataset(), &config).unwrap();
        assert!(pages > 0.0);
        assert_eq!(per_node.len(), NODES);
        assert!(per_node.iter().filter(|&&l| l > 0).count() >= NODES / 2);
    }

    #[test]
    fn report_covers_skew_study_and_serving_sweep() {
        let config = HarnessConfig::fast();
        let report = run_with(&config, &[2]).unwrap();
        let part1 = MODELS.len() * 2;
        let part2 = SWEEP_MODELS.len()
            * sweep_policies(&config).len()
            * SWEEP_NODES.len()
            * CLIENT_LOADS.len();
        assert_eq!(report.table.rows.len(), part1 + part2);
        assert!(report.render().contains("5.5 skew"));
        // Every serving cell matched its serial oracle and the 1×1×1
        // anchor held — no WARNING notes.
        assert!(
            !report.notes.iter().any(|n| n.contains("WARNING")),
            "determinism failed: {:?}",
            report.notes
        );
        for row in report.table.rows.iter().filter(|r| r[2] == "serve 3b") {
            assert_eq!(row[14], "ok", "disks diverged: {row:?}");
            assert!(CLIENT_LOADS.map(|c| c.to_string()).contains(&row[5]));
        }
    }

    #[test]
    fn baseline_grid_is_worker_count_invariant() {
        let report = cluster_baseline(&HarnessConfig::fast()).unwrap();
        let rows = &report.table.rows;
        assert_eq!(
            rows.len(),
            SWEEP_MODELS.len() * BASELINE_NODES.len() * BASELINE_WORKERS.len()
        );
        // The deterministic columns (everything from `units` on) must be
        // identical across worker counts of the same (model, nodes) —
        // the property the CI diff pins.
        for pair in rows.chunks(BASELINE_WORKERS.len()) {
            assert_eq!(pair[0][0], pair[1][0]);
            assert_eq!(pair[0][1], pair[1][1]);
            assert_eq!(pair[0][4..], pair[1][4..], "worker count leaked: {pair:?}");
        }
    }
}
