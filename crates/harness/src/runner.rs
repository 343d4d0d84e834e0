//! Shared measurement machinery: the harness configuration and its CLI
//! parsers, the model × query grid that Tables 4–6 render
//! ([`measure_grid`]), and the one measured run of a declarative spec
//! under a chosen serving ([`measure`]).

use crate::Result;
use serde::Serialize;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, FsyncMode, ModelKind, PartitionedStore,
    Placement, PolicyKind, StoreConfig,
};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_pagestore::BufferStats;
use starfish_workload::{
    generate, DatasetParams, DatasetStats, Executor, PlanOutcome, PlanRun, WorkloadSpec,
};

/// Configuration for the experiment harness.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HarnessConfig {
    /// Objects in the default dataset (paper: 1500).
    pub n_objects: usize,
    /// Buffer capacity in pages (paper: 1200).
    pub buffer_pages: usize,
    /// Buffer-replacement policy (paper: LRU).
    pub policy: PolicyKind,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// Query-sequence seed.
    pub query_seed: u64,
    /// WAL fsync mode restriction for the durability experiment: `None`
    /// sweeps both per-commit and group commit, `Some(mode)` measures only
    /// that mode (the CLI's `--fsync`). Every other experiment runs with
    /// the WAL off and ignores this.
    pub fsync: Option<FsyncMode>,
    /// Cap on the queue depths the concurrency experiment's batched-I/O
    /// sweep drives (`None` = the default cap of 8; the CLI's
    /// `--queue-depth`). Every other experiment runs with the engine off
    /// and ignores this.
    pub queue_depth: Option<usize>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            n_objects: 1500,
            buffer_pages: 1200,
            policy: PolicyKind::Lru,
            dataset_seed: 4242,
            query_seed: 1993,
            fsync: None,
            queue_depth: None,
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

/// Parses the positive-integer value of `flag` out of a CLI argument list:
/// `Ok(None)` when the flag is absent, `Ok(Some(n))` for a valid
/// `<flag> n`, and `Err` with a user-facing message (`what` names the
/// value) when it is missing, non-numeric or **zero**.
fn parse_positive(
    args: &[String],
    flag: &str,
    what: &str,
) -> std::result::Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let needs = format!("{flag} needs {what} >= 1");
    match args.get(i + 1).map(|s| s.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Ok(Some(n)),
        Some(Ok(_)) => Err(format!("{needs} (got 0)")),
        Some(Err(_)) => Err(format!("{needs} (got '{}')", args[i + 1])),
        None => Err(needs),
    }
}

/// Parses `--threads n` (absent: callers sweep the default client counts).
/// Zero is a clean CLI error: zero clients cannot serve anything, and
/// letting it through used to reach `SharedBufferPool::new(_, _, 0)`'s
/// "need at least one shard" panic deep in the stack.
pub fn parse_threads(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_positive(args, "--threads", "a client count")
}

/// Parses `--nodes n` (absent: workload runs use the single-store
/// surfaces). A zero-node cluster can own no object.
pub fn parse_nodes(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_positive(args, "--nodes", "a node count")
}

/// Parses `--queue-depth n` (absent: the concurrency experiment sweeps up
/// to its default depth cap). A zero-depth queue can hold no request.
pub fn parse_queue_depth(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_positive(args, "--queue-depth", "a depth")
}

/// Parses `--seed n` (absent: the configuration's default dataset seed).
/// Any `u64` is a valid seed, 0 included; a malformed or missing value used
/// to run silently with the default seed.
pub fn parse_seed(args: &[String]) -> std::result::Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == "--seed") else {
        return Ok(None);
    };
    match args.get(i + 1).map(|s| s.parse::<u64>()) {
        Some(Ok(seed)) => Ok(Some(seed)),
        Some(Err(_)) => Err(format!(
            "--seed needs an unsigned integer (got '{}')",
            args[i + 1]
        )),
        None => Err("--seed needs an unsigned integer".into()),
    }
}

/// Parses `--only id[,id…]` (absent: the whole suite). A trailing `--only`
/// used to run the whole suite silently.
pub fn parse_only(args: &[String]) -> std::result::Result<Option<Vec<String>>, String> {
    let Some(i) = args.iter().position(|a| a == "--only") else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(ids) => Ok(Some(
            ids.split(',').map(|id| id.trim().to_string()).collect(),
        )),
        None => Err("--only needs a comma-separated list of experiment ids (see --list)".into()),
    }
}

/// Parses the `--fsync` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (the durability experiment
/// sweeps both modes), `Ok(Some(mode))` for a valid `--fsync per|group`,
/// and `Err` with a user-facing message otherwise.
pub fn parse_fsync(args: &[String]) -> std::result::Result<Option<FsyncMode>, String> {
    let Some(i) = args.iter().position(|a| a == "--fsync") else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(s) => s.parse::<FsyncMode>().map(Some),
        None => Err("--fsync needs a mode: per or group".into()),
    }
}

/// The measured model × query grid behind Tables 4–6.
#[derive(Clone, Debug)]
pub struct MeasuredGrid {
    /// Configuration used.
    pub config: HarnessConfig,
    /// Observed dataset statistics.
    pub stats: DatasetStats,
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
    Ok((store, Executor::new(refs, config.query_seed)))
}

/// Runs every query of the benchmark against every model in `models` on the
/// dataset described by `params`.
pub fn measure_grid(
    params: &DatasetParams,
    config: &HarnessConfig,
    models: &[ModelKind],
) -> Result<MeasuredGrid> {
    measure_grid_on(&generate(params), config, models)
}

/// [`measure_grid`] over an already-generated dataset — use this when
/// measuring the same database under several configurations (e.g. the
/// policy sweep) to avoid regenerating it per run.
pub fn measure_grid_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
) -> Result<MeasuredGrid> {
    let stats = DatasetStats::compute(db);
    let mut rows = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, exec) = load_store(kind, db, config)?;
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
        stats,
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

/// The one measured run: loads `db` into a fresh store of `kind` shaped for
/// `serving`, runs the declarative `spec` under the usual protocol (cold
/// start, disconnect flush, per-unit normalization) and returns the
/// outcome — [`PlanOutcome::Unsupported`] where the model cannot run an op
/// of the plan — with the buffer's counters over the run (summed over
/// shards and nodes).
///
/// Answers and units do not depend on `serving`, and fix counts do not
/// depend on the client or worker count (the executor's contract). At one
/// client, one node and one worker every counter reproduces the serial
/// run, with one exception: the router hands a node one object at a time,
/// so pure NSM on a cluster re-scans its relations per object where the
/// set-oriented serial step scans once (more fixes, all of them hits). A
/// plan shape the concurrent executor rejects (a loop body consuming the
/// previous iteration's selection) surfaces as `Err`.
pub fn measure(
    db: &[Station],
    config: &HarnessConfig,
    kind: ModelKind,
    spec: &WorkloadSpec,
    serving: Serving,
) -> Result<(PlanOutcome, BufferStats)> {
    match serving {
        Serving::Serial => {
            let (mut store, exec) = load_store(kind, db, config)?;
            let outcome = exec.run(store.as_mut(), spec)?;
            Ok((outcome, store.buffer_stats()))
        }
        Serving::Shared { clients } => {
            let clients = clients.max(1);
            let mut store = make_shared_store(kind, config.store_config(), clients);
            let exec = Executor::new(store.load(db)?, config.query_seed);
            let outcome = exec.run_concurrent(store.as_mut(), spec, clients)?.outcome;
            let shards = store.shard_stats().into_iter();
            Ok((
                outcome,
                shards.fold(BufferStats::default(), |mut sum, s| {
                    sum.accumulate(&s);
                    sum
                }),
            ))
        }
        Serving::Cluster {
            nodes,
            clients,
            workers,
        } => {
            let nodes = nodes.max(1);
            let mut cluster = PartitionedStore::with_shards(
                kind,
                nodes,
                Placement::RoundRobin,
                store_config_for(config.policy, config.node_buffer_pages(nodes)),
                workers.max(1),
            );
            let exec = Executor::new(cluster.load(db)?, config.query_seed);
            let served = exec.run_cluster(&mut cluster, spec, clients, workers)?;
            Ok((served.run.outcome, cluster.buffer_stats()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_grid_measures_all_models() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &ModelKind::measured_models()).unwrap();
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
    fn parse_threads_accepts_positive_counts_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_threads(&args(&["--threads", "4"])), Ok(Some(4)));
        assert_eq!(
            parse_threads(&args(&["--fast", "--threads", "1"])),
            Ok(Some(1))
        );
        // Zero clients is a clean CLI error, not a downstream panic.
        let err = parse_threads(&args(&["--threads", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_threads(&args(&["--threads"])).is_err());
        assert!(parse_threads(&args(&["--threads", "many"])).is_err());
        assert!(parse_threads(&args(&["--threads", "-2"])).is_err());
    }

    #[test]
    fn parse_seed_accepts_any_u64_and_rejects_the_rest() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_seed(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_seed(&args(&["--seed", "7"])), Ok(Some(7)));
        assert_eq!(
            parse_seed(&args(&["--seed", "0"])),
            Ok(Some(0)),
            "0 is valid"
        );
        let err = parse_seed(&args(&["--seed", "abc"])).unwrap_err();
        assert!(err.contains("'abc'"), "{err}");
        assert!(parse_seed(&args(&["--fast", "--seed"])).is_err());
        assert!(parse_seed(&args(&["--seed", "-1"])).is_err());
    }

    #[test]
    fn parse_only_needs_a_value() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_only(&args(&["--fast"])), Ok(None));
        assert_eq!(
            parse_only(&args(&["--only", "table4, table5"])),
            Ok(Some(vec!["table4".to_string(), "table5".to_string()]))
        );
        let err = parse_only(&args(&["--fast", "--only"])).unwrap_err();
        assert!(err.contains("--list"), "{err}");
    }

    #[test]
    fn parse_nodes_accepts_positive_counts_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_nodes(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_nodes(&args(&["--nodes", "3"])), Ok(Some(3)));
        assert_eq!(parse_nodes(&args(&["--fast", "--nodes", "1"])), Ok(Some(1)));
        let err = parse_nodes(&args(&["--nodes", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_nodes(&args(&["--nodes"])).is_err());
        assert!(parse_nodes(&args(&["--nodes", "all"])).is_err());
        assert!(parse_nodes(&args(&["--nodes", "-3"])).is_err());
    }

    #[test]
    fn parse_queue_depth_accepts_positive_depths_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_queue_depth(&args(&["--fast"])), Ok(None));
        assert_eq!(
            parse_queue_depth(&args(&["--queue-depth", "8"])),
            Ok(Some(8))
        );
        assert_eq!(
            parse_queue_depth(&args(&["--fast", "--queue-depth", "1"])),
            Ok(Some(1))
        );
        let err = parse_queue_depth(&args(&["--queue-depth", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_queue_depth(&args(&["--queue-depth"])).is_err());
        assert!(parse_queue_depth(&args(&["--queue-depth", "deep"])).is_err());
        assert!(parse_queue_depth(&args(&["--queue-depth", "-4"])).is_err());
    }

    #[test]
    fn parse_fsync_accepts_known_modes_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_fsync(&args(&["--fast"])), Ok(None));
        assert_eq!(
            parse_fsync(&args(&["--fsync", "per"])),
            Ok(Some(FsyncMode::PerCommit))
        );
        assert_eq!(
            parse_fsync(&args(&["--fast", "--fsync", "group"])),
            Ok(Some(FsyncMode::Group))
        );
        let err = parse_fsync(&args(&["--fsync", "always"])).unwrap_err();
        assert!(err.contains("fsync mode"), "{err}");
        assert!(parse_fsync(&args(&["--fsync"])).is_err());
    }

    #[test]
    fn measure_query_single() {
        let config = HarnessConfig::fast();
        let db = generate(&config.dataset());
        let spec = WorkloadSpec::for_query(QueryId::Q2b);
        let (out, _) = measure(&db, &config, ModelKind::DasdbsNsm, &spec, Serving::Serial).unwrap();
        assert!(out.run().unwrap().pages_per_unit() > 0.0);
    }

    #[test]
    fn measure_is_serving_invariant_at_one_client() {
        let config = HarnessConfig::fast();
        let db = generate(&config.dataset());
        let spec = WorkloadSpec::for_query(QueryId::Q2b);
        for kind in ModelKind::all() {
            let (serial, _) = measure(&db, &config, kind, &spec, Serving::Serial).unwrap();
            assert!(serial.run().is_some(), "{kind} runs 2b");
            let shared = Serving::Shared { clients: 1 };
            let cluster = Serving::Cluster {
                nodes: 1,
                clients: 1,
                workers: 1,
            };
            let (got, _) = measure(&db, &config, kind, &spec, shared).unwrap();
            assert_eq!(got, serial, "{kind} on the shared surface");
            let (mut got, _) = measure(&db, &config, kind, &spec, cluster).unwrap();
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
