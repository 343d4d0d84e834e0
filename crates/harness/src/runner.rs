//! Shared measurement machinery: the harness configuration, the model ×
//! query grid that Tables 4–6 render
//! ([`measure_grid`]), and the one measured run of a declarative spec
//! under a chosen serving ([`measure`]).

use crate::Result;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, FsyncMode, IoEngineConfig, ModelKind,
    PartitionedStore, Placement, PolicyKind, StoreConfig,
};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_pagestore::{BufferStats, IoSnapshot};
use starfish_workload::{generate, DatasetParams, Executor, PlanOutcome, PlanRun, WorkloadSpec};
use std::time::Duration;

/// The query-sequence seed every measured run draws its picks from.
pub const QUERY_SEED: u64 = 1993;

/// Configuration for the experiment harness.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Objects in the default dataset (paper: 1500).
    pub n_objects: usize,
    /// Buffer capacity in pages (paper: 1200).
    pub buffer_pages: usize,
    /// Buffer-replacement policy (paper: LRU).
    pub policy: PolicyKind,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// WAL fsync mode restriction for the durability experiment: `None`
    /// sweeps both per-commit and group commit, `Some(mode)` measures only
    /// that mode (the CLI's `--fsync`). Every other experiment runs with
    /// the WAL off and ignores this.
    pub fsync: Option<FsyncMode>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            n_objects: 1500,
            buffer_pages: 1200,
            policy: PolicyKind::Lru,
            dataset_seed: 4242,
            fsync: None,
        }
    }
}

impl HarnessConfig {
    /// A scaled-down configuration for quick runs and tests (same buffer /
    /// database *ratio* as the paper, so cache-overflow behaviour is
    /// preserved qualitatively).
    pub fn fast() -> Self {
        HarnessConfig {
            n_objects: 300,
            buffer_pages: 240,
            ..Default::default()
        }
    }

    /// Dataset parameters at this scale.
    pub fn dataset(&self) -> DatasetParams {
        DatasetParams {
            n_objects: self.n_objects,
            seed: self.dataset_seed,
            ..Default::default()
        }
    }

    /// The store configuration every measurement starts from: this
    /// buffer under this policy.
    pub(crate) fn store_config(&self) -> StoreConfig {
        store_config_for(self.policy, self.buffer_pages)
    }

    /// The buffer of one of `nodes` cluster nodes: a proportional share,
    /// never below 16 pages.
    pub(crate) fn node_buffer_pages(&self, nodes: usize) -> usize {
        (self.buffer_pages / nodes).max(16)
    }
}

/// A buffer of `buffer_pages` under `policy`, everything opt-in (WAL,
/// engine, heat) off.
pub(crate) fn store_config_for(policy: PolicyKind, buffer_pages: usize) -> StoreConfig {
    StoreConfig::with_buffer_pages(buffer_pages).policy(policy)
}

/// Checks a `--threads` count against the buffer it is split over: each
/// client of the shared surface, and each queue worker of a cluster node,
/// gets a lock-striped shard of at least one page. So the count may not
/// exceed the pages of the smallest buffer the run shards: the whole
/// buffer, or one node's share when `nodes` is the largest cluster the
/// count is applied to, as the pool's constructor requires.
pub(crate) fn check_threads(
    threads: Option<usize>,
    config: &HarnessConfig,
    nodes: Option<usize>,
) -> std::result::Result<(), String> {
    let (pages, whose) = match nodes {
        Some(n) => (
            config.node_buffer_pages(n),
            format!(" of each of {n} nodes"),
        ),
        None => (config.buffer_pages, String::new()),
    };
    match threads {
        Some(n) if n > pages => Err(format!(
            "--threads {n} exceeds the {pages}-page buffer{whose}: each client \
             needs a shard of at least one page, so at most --threads {pages}"
        )),
        _ => Ok(()),
    }
}

/// The measured model × query grid behind Tables 4–6.
#[derive(Clone, Debug)]
pub struct MeasuredGrid {
    /// Configuration used.
    pub config: HarnessConfig,
    /// Rows: one per model, cells in [`QueryId::all`] order — the run,
    /// or `None` where the model does not support the query.
    pub rows: Vec<(ModelKind, [Option<PlanRun>; 7])>,
}

impl MeasuredGrid {
    /// The cell for `(model, query)`, if present. Its `*_per_unit` methods
    /// are the numbers Tables 4–6 print.
    pub fn cell(&self, model: ModelKind, query: QueryId) -> Option<&PlanRun> {
        let qi = QueryId::all().iter().position(|q| *q == query)?;
        self.rows
            .iter()
            .find(|(m, _)| *m == model)
            .and_then(|(_, cells)| cells[qi].as_ref())
    }
}

/// Builds a store of `kind`, loads `db`, and returns it with the executor
/// over its objects.
pub fn load_store(
    kind: ModelKind,
    db: &[Station],
    config: &HarnessConfig,
) -> Result<(Box<dyn ComplexObjectStore>, Executor)> {
    let mut store = make_store(kind, config.store_config());
    let refs = store.load(db)?;
    Ok((store, Executor::new(refs, QUERY_SEED)))
}

/// Runs every query of the benchmark against every model in `models` on the
/// dataset `config` describes.
pub fn measure_grid(config: &HarnessConfig, models: &[ModelKind]) -> Result<MeasuredGrid> {
    let db = generate(&config.dataset());
    let mut rows = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, exec) = load_store(kind, &db, config)?;
        let mut cells: [Option<PlanRun>; 7] = Default::default();
        for (i, q) in QueryId::all().into_iter().enumerate() {
            if let PlanOutcome::Measured(run) =
                exec.run(store.as_mut(), &WorkloadSpec::for_query(q))?
            {
                cells[i] = Some(run);
            }
        }
        rows.push((kind, cells));
    }
    Ok(MeasuredGrid {
        config: *config,
        rows,
    })
}

/// How a measured run is served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// One client on the exclusive pool — the paper's protocol.
    Serial,
    /// `clients` client threads sharing a pool of `clients` lock-striped
    /// shards ([`Executor::run_concurrent`]).
    Shared {
        /// Client threads (= shards).
        clients: usize,
    },
    /// The spec served as a mixed read/write request stream by `clients`
    /// client threads over a pool of `clients` shards
    /// ([`Executor::run_stream`]): updates run inline, requests race by
    /// design, and the run's units are the requests served.
    Stream {
        /// Client threads (= shards).
        clients: usize,
    },
    /// A cluster of `nodes` nodes, one shard each, driven serially through
    /// its [`ComplexObjectStore`] surface — no router. What a routed
    /// cluster of the same node count must reproduce.
    SerialCluster {
        /// Cluster nodes.
        nodes: usize,
    },
    /// A routed cluster ([`Executor::run_cluster`]): `nodes` nodes under
    /// round-robin whole-object placement, a proportional buffer share and
    /// `workers` lock-striped shards per node, served by `workers` queue
    /// workers per node and `clients` client threads.
    Cluster {
        /// Cluster nodes.
        nodes: usize,
        /// Client threads.
        clients: usize,
        /// Queue workers (= shards) per node.
        workers: usize,
    },
}

impl Serving {
    /// The serial serving this one must reproduce, if any: one client on
    /// the shared surface replays the serial run, a routed cluster the
    /// serially-driven cluster of its node count.
    pub(crate) fn oracle(self) -> Option<Serving> {
        match self {
            Serving::Shared { clients: 1 } => Some(Serving::Serial),
            Serving::Cluster { nodes, .. } => Some(Serving::SerialCluster { nodes }),
            _ => None,
        }
    }

    /// Client threads, nodes and queue workers per node (0 without a
    /// router).
    pub(crate) fn counts(self) -> (usize, usize, usize) {
        match self {
            Serving::Serial => (1, 1, 0),
            Serving::Shared { clients } | Serving::Stream { clients } => (clients, 1, 0),
            Serving::SerialCluster { nodes } => (1, nodes, 0),
            Serving::Cluster {
                nodes,
                clients,
                workers,
            } => (clients, nodes, workers),
        }
    }
}

/// What one measured run leaves behind.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The run — [`PlanOutcome::Unsupported`] where the model cannot run an
    /// op of the plan.
    pub outcome: PlanOutcome,
    /// The buffer's counters over the run, summed over shards and nodes.
    pub buffer: BufferStats,
    /// Per-shard buffer counters (the shared surface only).
    pub shards: Vec<BufferStats>,
    /// Per-node I/O counters, ascending node order (clusters only).
    pub nodes: Vec<IoSnapshot>,
    /// Per-node disk fingerprints after the disconnect flush (clusters
    /// only).
    pub disks: Vec<u64>,
    /// Wall-clock of the serving phase (served runs only).
    pub elapsed: Option<Duration>,
    /// Deepest any node's job queue grew (routed clusters only).
    pub queue_high_water: Option<u64>,
}

impl Measurement {
    /// A run with only the summed buffer counters.
    fn of(outcome: PlanOutcome, buffer: BufferStats) -> Measurement {
        Measurement {
            outcome,
            buffer,
            shards: Vec::new(),
            nodes: Vec::new(),
            disks: Vec::new(),
            elapsed: None,
            queue_high_water: None,
        }
    }

    /// Units served per second of the serving phase.
    pub(crate) fn units_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed?.as_secs_f64();
        let units = self.outcome.run().map_or(0, |r| r.units);
        Some(if secs > 0.0 { units as f64 / secs } else { 0.0 })
    }
}

/// The one measured run: loads `db` into a fresh store of `kind` shaped for
/// `serving`, with the batched I/O `engine` as given, runs the declarative
/// `spec` under the usual protocol (cold start, disconnect flush, per-unit
/// normalization) and returns what the run left behind.
///
/// Answers and units do not depend on `serving`, and fix counts do not
/// depend on the client or worker count (the executor's contract). At one
/// client, one node and one worker every counter reproduces the serial
/// run, with one exception: the router hands a node one object at a time,
/// so pure NSM on a cluster re-scans its relations per object where the
/// set-oriented serial step scans once (more fixes, all of them hits). A
/// plan shape the concurrent executor rejects (a loop body consuming the
/// previous iteration's selection) surfaces as `Err`, and so does a
/// request stream of an op the model cannot run.
pub fn measure(
    db: &[Station],
    config: &HarnessConfig,
    kind: ModelKind,
    spec: &WorkloadSpec,
    serving: Serving,
    engine: IoEngineConfig,
) -> Result<Measurement> {
    let seed = QUERY_SEED;
    match serving {
        Serving::Serial => {
            let mut store = make_store(kind, config.store_config().io_engine(engine));
            let outcome = Executor::new(store.load(db)?, seed).run(store.as_mut(), spec)?;
            Ok(Measurement::of(outcome, store.buffer_stats()))
        }
        Serving::Shared { clients } | Serving::Stream { clients } => {
            let clients = clients.max(1);
            let store_config = config.store_config().io_engine(engine);
            let mut store = make_shared_store(kind, store_config, clients);
            let exec = Executor::new(store.load(db)?, seed);
            let (outcome, elapsed) = if matches!(serving, Serving::Stream { .. }) {
                let run = exec.run_stream(store.as_mut(), spec, clients)?;
                let run_of_requests = PlanRun {
                    snapshot: run.snapshot,
                    units: run.requests,
                    nav_seen: Vec::new(),
                    scanned: 0,
                    updates_applied: run.updates,
                };
                (PlanOutcome::Measured(run_of_requests), run.elapsed)
            } else {
                let run = exec.run_concurrent(store.as_mut(), spec, clients)?;
                (run.outcome, run.elapsed)
            };
            let shards = store.shard_stats();
            let mut buffer = BufferStats::default();
            shards.iter().for_each(|s| buffer.accumulate(s));
            Ok(Measurement {
                shards,
                elapsed: Some(elapsed),
                ..Measurement::of(outcome, buffer)
            })
        }
        Serving::SerialCluster { .. } | Serving::Cluster { .. } => {
            let (clients, nodes, workers) = serving.counts();
            let node_config = store_config_for(config.policy, config.node_buffer_pages(nodes));
            let mut cluster = PartitionedStore::with_shards(
                kind,
                nodes.max(1),
                Placement::RoundRobin,
                node_config.io_engine(engine),
                workers.max(1),
            );
            let exec = Executor::new(cluster.load(db)?, seed);
            let mut measured = if workers == 0 {
                Measurement::of(exec.run(&mut cluster, spec)?, cluster.buffer_stats())
            } else {
                let served = exec.run_cluster(&mut cluster, spec, clients, workers)?;
                Measurement {
                    elapsed: Some(served.run.elapsed),
                    queue_high_water: served.queue_high_water.iter().copied().max(),
                    ..Measurement::of(served.run.outcome, cluster.buffer_stats())
                }
            };
            measured.nodes = cluster.node_snapshots();
            measured.disks = cluster.node_checksums();
            Ok(measured)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_grid_measures_all_models() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config, &ModelKind::measured_models()).unwrap();
        assert_eq!(grid.rows.len(), 4);
        // NSM has no q1a; everything else is measured.
        let missing: usize = grid
            .rows
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .filter(|c| c.is_none())
            .count();
        assert_eq!(missing, 1);
        // DSM must read more pages than DASDBS-NSM on navigation (2a).
        let dsm = grid.cell(ModelKind::Dsm, QueryId::Q2a).unwrap();
        let dnsm = grid.cell(ModelKind::DasdbsNsm, QueryId::Q2a).unwrap();
        let (dsm, dnsm) = (dsm.pages_per_unit(), dnsm.pages_per_unit());
        assert!(dsm > dnsm, "{dsm} vs {dnsm}");
    }

    #[test]
    fn check_threads_caps_clients_at_the_sharded_buffer() {
        let fast = HarnessConfig::fast();
        assert_eq!(check_threads(None, &fast, None), Ok(()));
        assert_eq!(check_threads(Some(240), &fast, None), Ok(()));
        let err = check_threads(Some(241), &fast, None).unwrap_err();
        assert!(
            err.contains("240-page") && err.contains("at most --threads 240"),
            "{err}"
        );
        // A node of a 4-node cluster gets a quarter of the buffer.
        assert_eq!(check_threads(Some(60), &fast, Some(4)), Ok(()));
        let err = check_threads(Some(61), &fast, Some(4)).unwrap_err();
        assert!(err.contains("60-page buffer of each of 4 nodes"), "{err}");
        assert_eq!(
            check_threads(Some(300), &HarnessConfig::default(), None),
            Ok(())
        );
    }

    /// The `starfish_repro` command line `line`, parsed.
    fn cli(line: &str) -> std::result::Result<crate::cli::Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        crate::cli::Cli::parse(&args)
    }

    #[test]
    fn check_args_names_a_misspelt_flag_or_stray_argument() {
        let err = cli("--fast --only table3 --thread 4").unwrap_err();
        assert_eq!(err, "'--thread' is not a flag (see --help)");
        let err = cli("--fast --sweeep").unwrap_err();
        assert!(
            err.contains("'--sweeep'") && err.contains("--help"),
            "{err}"
        );
        let err = cli("--fast table3").unwrap_err();
        assert!(err.contains("'table3'") && err.contains("--help"), "{err}");
        // A value that looks like a flag is the missing value of the flag
        // before it, not a flag of its own.
        let err = cli("--seed -1 --threads").unwrap_err();
        assert!(err.starts_with("--seed needs a value"), "{err}");
    }

    #[test]
    fn check_args_rejects_two_output_formats() {
        let err = cli("--fast --json --markdown").unwrap_err();
        assert!(
            err.contains("--json") && err.contains("--markdown"),
            "{err}"
        );
        assert!(cli("--markdown --only table3").unwrap().markdown);
        assert!(cli("--json --only table3").unwrap().json);
    }

    #[test]
    fn parse_threads_accepts_positive_counts_only() {
        assert_eq!(cli("--fast").unwrap().threads, None);
        assert_eq!(cli("--threads 4").unwrap().threads, Some(4));
        assert_eq!(cli("--fast --threads 1").unwrap().threads, Some(1));
        // Zero clients is a clean CLI error, not a downstream panic.
        let err = cli("--threads 0").unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(cli("--threads").is_err());
        assert!(cli("--threads many").is_err());
        assert!(cli("--threads -2").is_err());
    }

    #[test]
    fn parse_seed_accepts_any_u64_and_rejects_the_rest() {
        let seed = |line: &str| cli(line).map(|c| c.config.dataset_seed);
        assert_eq!(seed("--fast"), Ok(HarnessConfig::default().dataset_seed));
        assert_eq!(seed("--seed 7"), Ok(7));
        assert_eq!(seed("--seed 0"), Ok(0), "0 is valid");
        assert_eq!(seed(&format!("--seed {}", u64::MAX)), Ok(u64::MAX));
        let err = seed("--seed abc").unwrap_err();
        assert!(err.contains("--seed abc"), "{err}");
        assert!(seed("--fast --seed").is_err());
        assert!(seed("--seed -1").is_err());
    }

    #[test]
    fn parse_only_needs_a_value() {
        let ids = |line: &str| {
            let experiments = cli(line).unwrap().experiments;
            experiments.iter().map(|e| e.id).collect::<Vec<_>>()
        };
        assert_eq!(ids("--fast").len(), crate::experiments::REGISTRY.len());
        let spaced = ["--only".to_string(), "table4, table5".to_string()];
        let experiments = crate::cli::Cli::parse(&spaced).unwrap().experiments;
        let spaced: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        assert_eq!(spaced, ["table4", "table5"]);
        assert_eq!(ids("--only table5,table4"), ["table5", "table4"]);
        let err = cli("--fast --only").unwrap_err();
        assert!(err.starts_with("--only needs a value"), "{err}");
    }

    #[test]
    fn parse_nodes_accepts_positive_counts_only() {
        let sweep = "--workload hot-set --sweep";
        let nodes = |n: &str| cli(&format!("{sweep} --nodes {n}")).map(|c| c.nodes);
        assert_eq!(cli(sweep).unwrap().nodes, None);
        assert_eq!(nodes("3"), Ok(Some(3)));
        assert_eq!(nodes("1"), Ok(Some(1)));
        let err = nodes("0").unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(nodes("").is_err());
        assert!(nodes("all").is_err());
        assert!(nodes("-3").is_err());
    }

    #[test]
    fn parse_fsync_accepts_known_modes_only() {
        let fsync = |line: &str| cli(line).map(|c| c.config.fsync);
        assert_eq!(fsync("--fast"), Ok(None));
        assert_eq!(fsync("--fsync per"), Ok(Some(FsyncMode::PerCommit)));
        assert_eq!(fsync("--fast --fsync group"), Ok(Some(FsyncMode::Group)));
        let err = fsync("--fsync always").unwrap_err();
        assert!(err.contains("fsync mode"), "{err}");
        assert!(fsync("--fsync").is_err());
    }

    #[test]
    fn measure_query_single() {
        let config = HarnessConfig::fast();
        let db = generate(&config.dataset());
        let spec = WorkloadSpec::for_query(QueryId::Q2b);
        let off = IoEngineConfig::default();
        let m = measure(
            &db,
            &config,
            ModelKind::DasdbsNsm,
            &spec,
            Serving::Serial,
            off,
        )
        .unwrap();
        assert!(m.outcome.run().unwrap().pages_per_unit() > 0.0);
    }

    #[test]
    fn measure_is_serving_invariant_at_one_client() {
        let config = HarnessConfig::fast();
        let db = generate(&config.dataset());
        let spec = WorkloadSpec::for_query(QueryId::Q2b);
        let run = |kind, serving| {
            let m = measure(
                &db,
                &config,
                kind,
                &spec,
                serving,
                IoEngineConfig::default(),
            );
            m.unwrap().outcome
        };
        for kind in ModelKind::all() {
            let serial = run(kind, Serving::Serial);
            assert!(serial.run().is_some(), "{kind} runs 2b");
            let shared = Serving::Shared { clients: 1 };
            let cluster = Serving::Cluster {
                nodes: 1,
                clients: 1,
                workers: 1,
            };
            assert_eq!(run(kind, shared), serial, "{kind} on the shared surface");
            let mut got = run(kind, cluster);
            if kind == ModelKind::Nsm {
                // One object per routed request: pure NSM scans per object,
                // not per set. The extra fixes are hits; nothing else moves.
                let (PlanOutcome::Measured(got), Some(serial)) = (&mut got, serial.run()) else {
                    panic!("NSM runs 2b on a cluster");
                };
                let extra = got.snapshot.fixes - serial.snapshot.fixes;
                assert!(extra > 0, "per-object scans cost fixes");
                assert_eq!(got.snapshot.hits - serial.snapshot.hits, extra);
                got.snapshot.fixes -= extra;
                got.snapshot.hits -= extra;
            }
            assert_eq!(got, serial, "{kind} on a 1-node cluster");
        }
    }
}
