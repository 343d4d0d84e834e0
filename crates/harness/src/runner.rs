//! Shared measurement machinery: the harness configuration and its CLI
//! parsers, the model × query grid that Tables 4–6 render
//! ([`measure_grid`]), and the one measured run of a declarative spec
//! under a chosen serving ([`measure`]).

use crate::Result;
use serde::Serialize;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, FsyncMode, IoEngineConfig, ModelKind,
    PartitionedStore, Placement, PolicyKind, StoreConfig,
};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_pagestore::{BufferStats, IoSnapshot};
use starfish_workload::{
    generate, DatasetParams, DatasetStats, Executor, PlanOutcome, PlanRun, WorkloadSpec,
};
use std::time::Duration;

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
    /// `--queue-depth`). Every other experiment ignores this.
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

/// The `starfish_repro` flags, each with whether it takes a value.
const FLAGS: [(&str, bool); 15] = [
    ("--fast", false),
    ("--only", true),
    ("--markdown", false),
    ("--json", false),
    ("--seed", true),
    ("--policy", true),
    ("--threads", true),
    ("--fsync", true),
    ("--queue-depth", true),
    ("--workload", true),
    ("--sweep", false),
    ("--nodes", true),
    ("--list", false),
    ("--help", false),
    ("-h", false),
];

/// Checks that every argument is a known flag or the value of one. A
/// misspelt flag, a stray positional, or both output formats at once is an
/// error naming it; a flag's value is its own parser's to judge.
pub fn check_args(args: &[String]) -> std::result::Result<(), String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--json") && has("--markdown") {
        return Err("--json and --markdown are two output formats: pick one".into());
    }
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match FLAGS.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => _ = args.next(),
            Some((_, false)) => {}
            None if arg.starts_with('-') => {
                return Err(format!("unknown flag '{arg}' (see --help)"))
            }
            None => return Err(format!("unexpected argument '{arg}' (see --help)")),
        }
    }
    Ok(())
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

/// Checks a `--threads` count against the buffer it is split over: each
/// client of the shared surface, and each queue worker of a cluster node,
/// gets a lock-striped shard of at least one page. So the count may not
/// exceed the pages of the smallest buffer the run shards: the whole
/// buffer, or one node's share when `nodes` is the largest cluster the
/// count is applied to, as the pool's constructor requires.
pub fn check_threads(
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
    let seed = config.query_seed;
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

    /// The bracketed groups of `text`, each split into words: the synopsis
    /// `[--seed N] [--only <id>[,<id>…]]` gives `--seed N` and
    /// `--only <id>[,<id>…]`.
    fn bracketed(text: &str) -> Vec<Vec<String>> {
        let (mut groups, mut group, mut depth) = (Vec::new(), String::new(), 0);
        for c in text.chars() {
            match c {
                '[' if depth == 0 => depth = 1,
                ']' if depth == 1 => {
                    groups.push(group.split_whitespace().map(String::from).collect());
                    (group, depth) = (String::new(), 0);
                }
                _ if depth > 0 => {
                    depth += usize::from(c == '[');
                    depth -= usize::from(c == ']');
                    group.push(c);
                }
                _ => {}
            }
        }
        groups
    }

    #[test]
    fn check_args_accepts_every_documented_flag_and_ci_command() {
        let header: Vec<&str> = include_str!("bin/starfish_repro.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect();
        let synopsis = bracketed(&header.join("\n"));
        assert!(synopsis.len() >= 12, "{synopsis:?}");
        for group in &synopsis {
            assert_eq!(check_args(group), Ok(()), "documented: {group:?}");
        }
        // Every flag the header mentions is one the check knows.
        let words = header.iter().flat_map(|l| l.split_whitespace());
        for word in words.filter(|w| w.starts_with("--")) {
            let flag = word.trim_end_matches(|c: char| !c.is_ascii_alphabetic());
            assert!(FLAGS.iter().any(|(f, _)| *f == flag), "{word}");
        }
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let runs: Vec<&str> = (ci.lines())
            .filter_map(|l| l.split_once("starfish_repro -- ").map(|(_, rest)| rest))
            .collect();
        assert!(runs.len() >= 20, "{runs:?}");
        for run in runs {
            let command = run.split(['|', '>']).next().unwrap();
            let args: Vec<String> = command.split_whitespace().map(String::from).collect();
            assert_eq!(check_args(&args), Ok(()), "ci.yml: {run}");
        }
    }

    #[test]
    fn check_args_names_a_misspelt_flag_or_stray_argument() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let err = check_args(&args(&["--fast", "--only", "table3", "--thread", "4"]));
        assert_eq!(err, Err("unknown flag '--thread' (see --help)".into()));
        let err = check_args(&args(&["--fast", "--sweeep"])).unwrap_err();
        assert!(
            err.contains("'--sweeep'") && err.contains("--help"),
            "{err}"
        );
        let err = check_args(&args(&["--fast", "table3"])).unwrap_err();
        assert!(err.contains("'table3'") && err.contains("--help"), "{err}");
        // A value that looks like a flag is the flag's own parser's business.
        assert_eq!(check_args(&args(&["--seed", "-1", "--threads"])), Ok(()));
    }

    #[test]
    fn check_args_rejects_two_output_formats() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let err = check_args(&args(&["--fast", "--json", "--markdown"])).unwrap_err();
        assert!(
            err.contains("--json") && err.contains("--markdown"),
            "{err}"
        );
        assert_eq!(
            check_args(&args(&["--markdown", "--only", "table3"])),
            Ok(())
        );
        assert_eq!(check_args(&args(&["--json", "--only", "table3"])), Ok(()));
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
