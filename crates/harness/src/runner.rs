//! Shared measurement machinery: build a dataset, load it into the stores,
//! run all queries, collect the grid that Tables 4–6 render.

use crate::Result;
use serde::Serialize;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, FsyncMode, ModelKind, PartitionedStore,
    Placement, PolicyKind, StoreConfig,
};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_workload::{
    generate, DatasetParams, DatasetStats, Executor, PlanOutcome, WorkloadSpec,
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

/// One measured cell: per-unit pages/calls/fixes, or `None` where the model
/// does not support the query.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MeasuredCell {
    /// Pages read per unit.
    pub reads: f64,
    /// Pages written per unit.
    pub writes: f64,
    /// Pages read+written per unit (Table 4).
    pub pages: f64,
    /// I/O calls per unit (Table 5).
    pub calls: f64,
    /// Buffer fixes per unit (Table 6).
    pub fixes: f64,
}

impl MeasuredCell {
    /// The cell of a plan outcome — its run's per-unit ratios
    /// ([`starfish_workload::PlanRun`] is the one place counter deltas are
    /// divided by units), `None` where the model does not support an op of
    /// the plan. Shared by the query grid, the single-query sweeps and the
    /// workload measurements.
    pub fn of(outcome: &PlanOutcome) -> Option<MeasuredCell> {
        outcome.run().map(|run| MeasuredCell {
            reads: run.reads_per_unit(),
            writes: run.writes_per_unit(),
            pages: run.pages_per_unit(),
            calls: run.calls_per_unit(),
            fixes: run.fixes_per_unit(),
        })
    }
}

/// The measured model × query grid behind Tables 4–6.
#[derive(Clone, Debug)]
pub struct MeasuredGrid {
    /// Configuration used.
    pub config: HarnessConfig,
    /// Observed dataset statistics.
    pub stats: DatasetStats,
    /// Rows: one per model, cells in [`QueryId::all`] order.
    pub rows: Vec<(ModelKind, [Option<MeasuredCell>; 7])>,
}

impl MeasuredGrid {
    /// The cell for `(model, query)`, if present.
    pub fn cell(&self, model: ModelKind, query: QueryId) -> Option<MeasuredCell> {
        let qi = QueryId::all().iter().position(|q| *q == query)?;
        self.rows
            .iter()
            .find(|(m, _)| *m == model)
            .and_then(|(_, cells)| cells[qi])
    }
}

/// Builds a store of `kind`, loads `db`, and returns it with the executor
/// over its objects.
pub fn load_store(
    kind: ModelKind,
    db: &[Station],
    config: &HarnessConfig,
) -> Result<(Box<dyn ComplexObjectStore>, Executor)> {
    let mut store = make_store(
        kind,
        StoreConfig::with_buffer_pages(config.buffer_pages).policy(config.policy),
    );
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
        let mut cells: [Option<MeasuredCell>; 7] = Default::default();
        for (i, q) in QueryId::all().into_iter().enumerate() {
            let outcome = exec.run(store.as_mut(), &WorkloadSpec::for_query(q))?;
            cells[i] = MeasuredCell::of(&outcome);
        }
        rows.push((kind, cells));
    }
    Ok(MeasuredGrid {
        config: *config,
        stats,
        rows,
    })
}

/// Runs a single query for a set of models (used by the sweeps of Figures
/// 5/6 and Table 7). Returns per-unit cells in `models` order.
pub fn measure_query(
    params: &DatasetParams,
    config: &HarnessConfig,
    models: &[ModelKind],
    query: QueryId,
) -> Result<Vec<(ModelKind, Option<MeasuredCell>)>> {
    let rows = measure_workload_on(
        &generate(params),
        config,
        models,
        &WorkloadSpec::for_query(query),
    )?;
    Ok(rows.into_iter().map(|r| (r.model, r.cell)).collect())
}

/// One model's measurement of a declarative workload spec: the per-unit
/// I/O cell plus the model-invariant observation counts (units, per-hop
/// navigation cardinalities, scanned objects) that every model must agree
/// on — the spec-level analogue of the paper's "shared database" guarantee.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// The storage model measured.
    pub model: ModelKind,
    /// Per-unit counters (`None` where the model does not support an op of
    /// the plan — e.g. OID access under pure NSM).
    pub cell: Option<MeasuredCell>,
    /// Normalization denominator the cell was divided by.
    pub units: u64,
    /// Objects seen per navigation hop, summed over units.
    pub nav_seen: Vec<u64>,
    /// Objects materialized by scans.
    pub scanned: u64,
    /// Update ops that actually ran (after mix gating).
    pub updates: u64,
}

impl WorkloadRow {
    /// The row of `model`'s `outcome` — the one place a plan outcome
    /// becomes a report row, whichever surface ran the plan.
    fn new(model: ModelKind, outcome: PlanOutcome) -> WorkloadRow {
        let cell = MeasuredCell::of(&outcome);
        match outcome {
            PlanOutcome::Measured(run) => WorkloadRow {
                model,
                cell,
                units: run.units,
                nav_seen: run.nav_seen,
                scanned: run.scanned,
                updates: run.updates_applied,
            },
            PlanOutcome::Unsupported => WorkloadRow {
                model,
                cell,
                units: 0,
                nav_seen: Vec::new(),
                scanned: 0,
                updates: 0,
            },
        }
    }
}

/// Runs a declarative [`WorkloadSpec`] serially against every model in
/// `models` over an already-generated dataset, under the usual measurement
/// protocol (cold start, disconnect flush, per-unit normalization).
pub fn measure_workload_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
) -> Result<Vec<WorkloadRow>> {
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, exec) = load_store(kind, db, config)?;
        out.push(WorkloadRow::new(kind, exec.run(store.as_mut(), spec)?));
    }
    Ok(out)
}

/// [`measure_workload_on`] over the concurrent surface: every model runs
/// the plan with `threads` client threads sharing a pool of `threads`
/// lock-striped shards. Answers and fix counts are thread-count invariant
/// (the executor's contract); with 1 thread the counters reproduce the
/// serial measurement exactly. A plan shape the concurrent executor
/// rejects (a loop body consuming the previous iteration's selection)
/// surfaces as `Err`.
pub fn measure_workload_concurrent_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
    threads: usize,
) -> Result<Vec<WorkloadRow>> {
    let threads = threads.max(1);
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let mut store = make_shared_store(
            kind,
            StoreConfig::with_buffer_pages(config.buffer_pages).policy(config.policy),
            threads,
        );
        let refs = store.load(db)?;
        let exec = Executor::new(refs, config.query_seed);
        let run = exec.run_concurrent(store.as_mut(), spec, threads)?;
        out.push(WorkloadRow::new(kind, run.outcome));
    }
    Ok(out)
}

/// [`measure_workload_on`] over a routed cluster: every model runs the
/// plan on a [`PartitionedStore`] of `nodes` nodes (round-robin
/// whole-object placement, a proportional buffer share per node,
/// `workers_per_node` lock-striped shards each) served by
/// `workers_per_node` queue workers per node and `clients` client
/// threads ([`Executor::run_cluster`]). Answers, fix counts and per-node
/// disk bytes are (clients × workers)-invariant — the routed analogue of
/// the shared surface's thread-count invariance.
pub fn measure_workload_cluster_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
    nodes: usize,
    clients: usize,
    workers_per_node: usize,
) -> Result<Vec<WorkloadRow>> {
    let nodes = nodes.max(1);
    let per_node_buffer = (config.buffer_pages / nodes).max(16);
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let mut cluster = PartitionedStore::with_shards(
            kind,
            nodes,
            Placement::RoundRobin,
            StoreConfig::with_buffer_pages(per_node_buffer).policy(config.policy),
            workers_per_node.max(1),
        );
        let refs = cluster.load(db)?;
        let exec = Executor::new(refs, config.query_seed);
        let run = exec.run_cluster(&mut cluster, spec, clients, workers_per_node)?;
        out.push(WorkloadRow::new(kind, run.run.outcome));
    }
    Ok(out)
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
        assert!(dsm.pages > dnsm.pages, "{} vs {}", dsm.pages, dnsm.pages);
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
        let out = measure_query(
            &config.dataset(),
            &config,
            &[ModelKind::DasdbsNsm],
            QueryId::Q2b,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.unwrap().pages > 0.0);
    }
}
