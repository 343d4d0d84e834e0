//! The seven workloads: set-up, the timed cells, the traced cells and the
//! answer checks. Nothing here names a type of the program under test —
//! every call goes through `adapter`.

use crate::adapter::{
    self, addressable_models, all_models, model_label, ordinal, Cluster, Counts, Dataset,
    ModelKind, ObjRef, RunResult, SerialStore, SharedStore, Spec, Wal,
};
use crate::calib::{self, Reference};
use crate::stats::SplitMix64;
use crate::trace::{now_ns, OpTimer, PoolTimers, Span, SpanLog};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Objects in the database: the paper's 1500.
pub const N_OBJECTS: usize = 1500;
/// Client threads of the closed loops (and of `cluster-route`).
pub const CLIENTS: usize = 2;
/// Client 0 of `update-durable` checkpoints after this many of its
/// requests. The flush policy — group commit, checkpoint every 256
/// requests — is part of the workload and never changes between compared
/// commits.
const CHECKPOINT_EVERY: u64 = 256;
/// Spans kept per closed-loop client: those of its last requests.
const KEPT_SPANS: usize = 2048;

/// `nav-resident`'s plan: 800 hot-set loops, the 16-object hot window moving
/// on every 100 loops (8 windows a repetition).
///
/// A repetition with one hot window is 16 draws from a heavy-tailed fan-out
/// distribution (an object's closure is 1 to 100+ objects): over 40
/// generated databases its pages, calls and device time per unit varied by
/// 9 % (standard deviation), which a ten-seed inter-quartile spread reads
/// as 13 % and one time in a hundred as 23 % of a 25 % bound. Eight windows
/// of 100 loops and the 80 cold picks between them average that to 3.3 %
/// (spread 5.5 %, 7.5 % at the 90th percentile) while every window still
/// gets its hundred loops: 98 % of the fixes hit, as with one window.
pub fn nav_resident_spec() -> Spec {
    Spec::hot_set(800, 100)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One thread, whole `Executor::run` repetitions.
    Serial,
    /// Two closed-loop clients over the shared surface.
    ClosedLoop,
    /// `Executor::run_cluster` repetitions over a routed 2-node cluster.
    Cluster,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NavResident,
    NavCold,
    ScanSelect,
    NavUpdate,
    ServeRead,
    UpdateDurable,
    ClusterRoute,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::NavResident,
        Workload::NavCold,
        Workload::ScanSelect,
        Workload::NavUpdate,
        Workload::ServeRead,
        Workload::UpdateDurable,
        Workload::ClusterRoute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NavResident => "nav-resident",
            Workload::NavCold => "nav-cold",
            Workload::ScanSelect => "scan-select",
            Workload::NavUpdate => "nav-update",
            Workload::ServeRead => "serve-read",
            Workload::UpdateDurable => "update-durable",
            Workload::ClusterRoute => "cluster-route",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NavResident => {
                "serial hot-set navigation (16-object hot window, moving every 100 loops) in a 1200-page buffer: 98% of fixes hit, so the pool hit path, in-page decode and executor overhead are all that is left"
            }
            Workload::NavCold => {
                "the same navigation with uniform roots in a 150-page buffer (database 25-35x the buffer): the miss path, eviction and read-run grouping do the work"
            }
            Workload::ScanSelect => {
                "full scan (1c) plus value selection (1b): every object is materialised, so nf2 decode and the sequential readers dominate"
            }
            Workload::NavUpdate => {
                "the paper's query 3b: deferred writes, page-pool writes and the grouped disconnect flush, WAL and latches idle; anchors to table 4"
            }
            Workload::ServeRead => {
                "2 closed-loop clients navigating over the shared surface (300 pages, 2 shards): shard mutexes, shared latches, concurrent misses"
            }
            Workload::UpdateDurable => {
                "2 closed-loop clients, 3 of 4 requests update, WAL with group commit and checkpoints, then crash and recovery: the durability check"
            }
            Workload::ClusterRoute => {
                "query 3b through the routed 2-node cluster (2 clients, 1 worker per node): router hop, ticket queues, shared-mode planning and merging"
            }
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::NavResident
            | Workload::NavCold
            | Workload::ScanSelect
            | Workload::NavUpdate => Shape::Serial,
            Workload::ServeRead | Workload::UpdateDurable => Shape::ClosedLoop,
            Workload::ClusterRoute => Shape::Cluster,
        }
    }

    /// Serial workloads run all five models; the others the four with an
    /// address path (nobody would serve from pure NSM's relation scans, and
    /// `nav-cold`/`scan-select` already time them).
    pub fn models(self) -> Vec<ModelKind> {
        match self.shape() {
            Shape::Serial => all_models(),
            _ => addressable_models(),
        }
    }

    /// Buffer pages (per node for the cluster).
    pub fn buffer_pages(self) -> usize {
        match self {
            Workload::NavCold => 150,
            Workload::ServeRead | Workload::UpdateDurable => 300,
            Workload::ClusterRoute => 600,
            _ => 1200,
        }
    }

    /// The plans one repetition runs, in order.
    fn specs(self) -> Vec<Spec> {
        match self {
            Workload::NavResident => vec![nav_resident_spec()],
            Workload::NavCold => vec![Spec::q2b(100)],
            Workload::ScanSelect => vec![Spec::q1c(), Spec::q1b()],
            Workload::NavUpdate | Workload::ClusterRoute => vec![Spec::q3b()],
            Workload::ServeRead | Workload::UpdateDurable => vec![],
        }
    }
}

/// One pass over the cells of a workload — the timed one or the traced one:
/// its budget, and where its readings and findings go.
pub struct Pass<'a> {
    /// Wall-clock budget of one cell.
    pub cell: Duration,
    /// Interleaving rounds over the models (closed loops run five short
    /// streams per round).
    pub rounds: usize,
    /// Repetitions a serial or cluster cell runs at least, spread over the
    /// rounds.
    pub min_reps: usize,
    /// Record spans (closed loops and the cluster; serial cells record when
    /// their stores carry the decorators).
    pub traced: bool,
    pub speed: Speed<'a>,
    pub checks: &'a mut Checks,
}

impl Pass<'_> {
    /// The share of `min_reps` that falls to `round`.
    fn min_reps_in(&self, round: usize) -> usize {
        let rounds = self.rounds.max(1);
        self.min_reps / rounds + usize::from(round < self.min_reps % rounds)
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

pub enum Stores {
    Serial(Vec<SerialStore>),
    Shared(Vec<SharedStore>),
    Cluster(Vec<Cluster>),
}

/// Builds and loads every store the workload uses.
pub fn build_stores(w: Workload, data: &Dataset) -> adapter::Result<Stores> {
    let pages = w.buffer_pages();
    Ok(match w.shape() {
        Shape::Serial => {
            let mut stores = Vec::new();
            for kind in w.models() {
                let mut s = SerialStore::build(kind, pages, false);
                s.load(data)?;
                stores.push(s);
            }
            Stores::Serial(stores)
        }
        Shape::ClosedLoop => {
            let wal = if w == Workload::UpdateDurable {
                Wal::Group
            } else {
                Wal::Off
            };
            let mut stores = Vec::new();
            for kind in w.models() {
                let mut s = SharedStore::build(kind, pages, CLIENTS, wal, false);
                s.load(data)?;
                stores.push(s);
            }
            Stores::Shared(stores)
        }
        Shape::Cluster => {
            let mut stores = Vec::new();
            for kind in w.models() {
                let mut c = Cluster::build(kind, 2, pages, 1);
                c.load(data)?;
                stores.push(c);
            }
            Stores::Cluster(stores)
        }
    })
}

/// One fresh set-up and what it took.
pub struct SetUp {
    pub data: Dataset,
    pub stores: Stores,
    /// Generate the dataset, build and load every store.
    pub seconds: f64,
    /// The `generate` part of it.
    pub generate_seconds: f64,
}

pub fn set_up(w: Workload, seed: u64) -> adapter::Result<SetUp> {
    let t0 = Instant::now();
    let data = Dataset::generate(seed, N_OBJECTS);
    let generate_seconds = t0.elapsed().as_secs_f64();
    let stores = build_stores(w, &data)?;
    Ok(SetUp {
        data,
        stores,
        seconds: t0.elapsed().as_secs_f64(),
        generate_seconds,
    })
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// What one (workload, model) cell measured.
#[derive(Clone, Debug)]
pub struct Cell {
    pub model: ModelKind,
    /// Wall µs per unit as the clock read it: one sample per repetition
    /// (serial, cluster) or per stream pass (closed loop).
    pub unit_us: Vec<f64>,
    /// Units of work completed over all samples (see [`work_units`]).
    pub units: u64,
    /// Loop iterations, requests or passes completed over all samples.
    pub loops: u64,
    /// Counters summed over all samples.
    pub counts: Counts,
    /// Closed loop: every read / update request's latency and size.
    pub lat_read: Vec<Latency>,
    pub lat_update: Vec<Latency>,
    /// Operations attempted / failed (errors, refusals, wrong answers).
    pub attempted: u64,
    pub failed: u64,
    /// Database bytes on the data device plus log bytes held at the end.
    pub stored_bytes: u64,
    /// The first repetition's plan outcome (serial, cluster).
    pub first: Option<RunResult>,
    /// `update-durable`: checkpoint times (ms), recovery, bytes patched.
    pub checkpoint_ms: Vec<f64>,
    pub recover_ms: f64,
    pub pages_replayed: u64,
    pub patched_bytes: u64,
    /// `cluster-route`: the largest queue high-water mark seen.
    pub queue_high_water: u64,
    /// Max ÷ mean of fixes over pool shards (closed loop) or nodes.
    pub fix_imbalance: f64,
    /// The traced side (traced cells only).
    pub traced: Option<Traced>,
}

/// One timed request: send → reply, and the objects it visited.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub ns: u32,
    pub visits: u16,
}

/// The unit of work every per-unit metric divides by.
///
/// A navigation loop (or request) visits its root, the root's children and
/// their children: `1 + children + grand-children` objects, ≈ 21 on
/// average but anywhere from 1 to over 100, and the average over a run's
/// loops differs by 10–25 % from one generated database to the next. Per
/// loop, every rate would carry that spread from seed to seed; per **object
/// visit** it does not, so one unit = one object visit. On `scan-select`
/// one unit = one pass (a scan of all 1500 objects plus one selection),
/// which is the same work at every seed.
pub fn work_units(w: Workload, r: &RunResult) -> u64 {
    match w {
        Workload::ScanSelect => 1,
        _ => r.units + r.nav_seen.iter().sum::<u64>(),
    }
}

/// What the decorators recorded over a traced cell.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Σ root-span time (repetition or request walls), ns.
    pub root_ns: u64,
    /// Store-call totals, indexed like `trace::STORE_OPS`.
    pub ops: [OpTimer; 8],
    /// Pool aggregates (serial cells only).
    pub pool: Option<PoolTimers>,
    /// Spans of the last repetition / last requests.
    pub spans: Vec<Span>,
}

impl Cell {
    fn new(model: ModelKind) -> Cell {
        Cell {
            model,
            unit_us: Vec::new(),
            units: 0,
            loops: 0,
            counts: Counts::default(),
            lat_read: Vec::new(),
            lat_update: Vec::new(),
            attempted: 0,
            failed: 0,
            stored_bytes: 0,
            first: None,
            checkpoint_ms: Vec::new(),
            recover_ms: 0.0,
            pages_replayed: 0,
            patched_bytes: 0,
            queue_high_water: 0,
            fix_imbalance: 0.0,
            traced: None,
        }
    }
}

/// The reference kernel and its readings over one pass of a workload, taken
/// between the timed slices (before every stream of a closed loop; see
/// `calib`). One factor per pass comes out of them: single
/// readings are as noisy as single repetitions, their median over a pass
/// follows the machine.
pub struct Speed<'a> {
    reference: &'a Reference,
    /// `calib::SHARE_SERIAL` or `calib::SHARE_TWO_THREADS`.
    share: f64,
    readings: Vec<f64>,
}

impl<'a> Speed<'a> {
    pub fn new(reference: &'a Reference, share: f64) -> Self {
        Speed {
            reference,
            share,
            readings: Vec::new(),
        }
    }

    /// Two readings, on the calling (main) thread: threads spawned for a
    /// reading get whatever allocator arena the last workers left behind,
    /// and their readings showed it.
    fn read(&mut self) {
        for _ in 0..2 {
            self.readings.push(self.reference.read());
        }
    }

    /// What to multiply the pass's times by.
    pub fn factor(&self) -> f64 {
        calib::factor(&self.readings, self.share)
    }
}

/// Checks that span cells (cells count their own operations), plus what
/// went wrong anywhere, for the report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records why something failed (the first few are enough to debug).
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 32 {
            self.notes.push(why);
        }
    }

    /// Adds what another pass found.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.notes.into_iter().for_each(|n| self.note(n));
    }

    /// Counts one check; a failed one also leaves its reason.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }
}

fn imbalance(parts: &[u64]) -> f64 {
    let total: u64 = parts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / parts.len() as f64;
    parts.iter().copied().max().unwrap_or(0) as f64 / mean
}

// ---- serial ---------------------------------------------------------------

/// One repetition: every plan of the workload through `Executor::run`,
/// timed around the whole calls (cold start and disconnect flush
/// included), counters summed.
fn serial_repetition(
    w: Workload,
    store: &mut SerialStore,
    specs: &[Spec],
) -> adapter::Result<(u64, RunResult)> {
    let trace = store.trace.clone();
    let t0 = now_ns();
    if let Some(t) = &trace {
        let mut log = t.spans.borrow_mut();
        log.spans.clear();
        log.open_root("repetition", t0);
    }
    let mut total: Option<RunResult> = None;
    for spec in specs {
        let r = store.run(spec)?;
        total = Some(match total {
            None => r,
            Some(mut acc) => {
                acc.counts.add(&r.counts);
                acc.scanned += r.scanned;
                acc.updates_applied += r.updates_applied;
                acc
            }
        });
    }
    let t1 = now_ns();
    if let Some(t) = &trace {
        t.spans.borrow_mut().close_root(t1);
    }
    let mut result = total.ok_or("workload has no plan")?;
    if w == Workload::ScanSelect {
        // The scan and the selection together are one pass.
        result.units = 1;
    }
    Ok((t1 - t0, result))
}

/// Runs the cells of a serial workload: `rounds` interleaved rounds, each
/// giving every model `cell / rounds` of wall time (and its share of
/// `min_reps`), so a noisy-neighbour burst is spread over all models and
/// removed by the median.
///
/// Handed traced stores (`build_traced_serial`) this is the traced pass:
/// the decorators record, the cells carry a [`Traced`].
pub fn run_serial(w: Workload, stores: &mut [SerialStore], pass: &mut Pass<'_>) -> Vec<Cell> {
    let specs = w.specs();
    let mut cells: Vec<Cell> = w
        .models()
        .into_iter()
        .zip(stores.iter())
        .map(|(m, store)| {
            let mut c = Cell::new(m);
            c.traced = store.trace.as_ref().map(|_| Traced::default());
            c
        })
        .collect();
    let slice = pass.cell / pass.rounds as u32;
    for round in 0..pass.rounds {
        for (store, c) in stores.iter_mut().zip(cells.iter_mut()) {
            pass.speed.read();
            let end = Instant::now() + slice;
            let mut reps = 0;
            while reps < pass.min_reps_in(round) || Instant::now() < end {
                reps += 1;
                match serial_repetition(w, store, &specs) {
                    Ok((wall_ns, r)) => {
                        c.attempted += r.units;
                        // Counters must repeat exactly on a serial cell.
                        match &c.first {
                            None => c.first = Some(r.clone()),
                            Some(first) if *first != r => {
                                c.failed += r.units;
                                pass.checks.note(format!(
                                    "{}/{}: repetition differs from the first: {:?} vs {:?}",
                                    w.name(),
                                    model_label(c.model),
                                    r,
                                    first
                                ));
                            }
                            Some(_) => {}
                        }
                        let work = work_units(w, &r);
                        c.unit_us.push(wall_ns as f64 / 1e3 / work as f64);
                        c.units += work;
                        c.loops += r.units;
                        c.counts.add(&r.counts);
                        if let Some(t) = c.traced.as_mut() {
                            t.root_ns += wall_ns;
                        }
                    }
                    Err(e) => {
                        c.attempted += 1;
                        c.failed += 1;
                        pass.checks
                            .note(format!("{}/{}: {e}", w.name(), model_label(c.model)));
                        break;
                    }
                }
            }
            pass.speed.read();
        }
    }
    for (store, c) in stores.iter().zip(cells.iter_mut()) {
        c.stored_bytes = store.database_pages() * adapter::PAGE_BYTES;
        if let (Some(t), Some(traced)) = (&store.trace, c.traced.as_mut()) {
            let log = t.spans.borrow();
            traced.ops = log.ops.clone();
            traced.spans = log.spans.clone();
            traced.pool = Some(t.pool.borrow().clone());
        }
    }
    check_same_plan_outcome(w, &cells, pass.checks);
    cells
}

/// `nav_seen`, `scanned` and `updates_applied` are functions of (plan,
/// seed, database) only: every model must report the same.
fn check_same_plan_outcome(w: Workload, cells: &[Cell], checks: &mut Checks) {
    let Some(reference) = cells.first().and_then(|c| c.first.as_ref()) else {
        return;
    };
    let key = |r: &RunResult| (r.units, r.nav_seen.clone(), r.scanned, r.updates_applied);
    for c in cells.iter().skip(1) {
        if let Some(r) = &c.first {
            checks.check(key(r) == key(reference), || {
                format!(
                    "{}: {} and {} disagree on the plan outcome: {:?} vs {:?}",
                    w.name(),
                    model_label(cells[0].model),
                    model_label(c.model),
                    key(reference),
                    key(r)
                )
            });
        }
    }
}

/// Traced stores for a serial workload (both decorators on), loaded.
pub fn build_traced_serial(w: Workload, data: &Dataset) -> adapter::Result<Vec<SerialStore>> {
    let mut stores = Vec::new();
    for kind in w.models() {
        let mut s = SerialStore::build_traced(kind, w.buffer_pages(), w.name());
        s.load(data)?;
        stores.push(s);
    }
    Ok(stores)
}

// ---- closed loops ---------------------------------------------------------

/// A closed-loop client: it sends its next request when the previous one
/// returned. Lives across the streams of a cell (and across the timed and
/// traced runs), because `update-durable` numbers its patches and
/// remembers what was acknowledged.
pub struct Client {
    id: usize,
    rng: SplitMix64,
    next_request: u64,
    /// `update-durable`: per object this client owns, 1 + the request
    /// number of its last acknowledged patch (0 = never patched).
    last_ack: Vec<u64>,
    /// Log pages written when this client last checkpointed, and how many
    /// the log held just before each of its checkpoints.
    log_pages_at_checkpoint: u64,
    log_pages_held: Vec<f64>,
    lat_read: Vec<Latency>,
    lat_update: Vec<Latency>,
    visits: u64,
    attempted: u64,
    failed: u64,
    checkpoint_ms: Vec<f64>,
    patched_bytes: u64,
    log: Option<SpanLog>,
    root_ns: u64,
    notes: Vec<String>,
}

/// The clients of each of `n_models` cells of a closed-loop workload.
pub fn new_clients(n_models: usize, seed: u64) -> Vec<Vec<Client>> {
    (0..n_models)
        .map(|m| {
            (0..CLIENTS)
                .map(|id| Client {
                    id,
                    // One stream per (seed, model, client).
                    rng: SplitMix64(seed ^ ((m as u64) << 32) ^ ((id as u64 + 1) << 48)),
                    next_request: 0,
                    last_ack: vec![0; N_OBJECTS],
                    log_pages_at_checkpoint: 0,
                    log_pages_held: Vec::new(),
                    lat_read: Vec::new(),
                    lat_update: Vec::new(),
                    visits: 0,
                    attempted: 0,
                    failed: 0,
                    checkpoint_ms: Vec::new(),
                    patched_bytes: 0,
                    log: None,
                    root_ns: 0,
                    notes: Vec::new(),
                })
                .collect()
        })
        .collect()
}

/// What the clients of one cell share.
struct LoopCtx<'a> {
    w: Workload,
    store: &'a SharedStore,
    data: &'a Dataset,
    /// `serve-read`: digest of the answer for every root.
    oracle: &'a [u64],
}

/// The 100-byte patch naming (client, request).
fn patch_name(client: usize, request: u64, len: usize) -> String {
    let mut s = format!("c{client}-i{request:012}-");
    while s.len() < len {
        s.push('u');
    }
    s
}

/// `(client, request)` if `name` is a complete patch.
fn parse_patch(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix('c')?;
    let (client, rest) = rest.split_once("-i")?;
    let (request, pad) = rest.split_once('-')?;
    if request.len() != 12 || !pad.bytes().all(|b| b == b'u') {
        return None;
    }
    Some((client.parse().ok()?, request.parse().ok()?))
}

impl Client {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 4 {
            self.notes.push(what);
        }
    }

    /// One store call, recorded as a span when tracing.
    fn call<T>(&mut self, op: usize, f: impl FnOnce() -> T) -> T {
        match self.log.as_mut() {
            None => f(),
            Some(log) => {
                let t0 = now_ns();
                let r = f();
                log.record_op(op, t0, now_ns());
                r
            }
        }
    }

    /// Root → children → grand-children; also the objects visited (the
    /// root, its children, their children).
    fn navigate(&mut self, ctx: &LoopCtx<'_>, root: ObjRef) -> adapter::Result<(u64, Vec<ObjRef>)> {
        let children = self.call(0, || ctx.store.children_of(&[root]))?;
        let grand = self.call(0, || ctx.store.children_of(&children))?;
        Ok(((1 + children.len() + grand.len()) as u64, grand))
    }

    /// A read request: navigate from a uniform root and fetch the
    /// grand-children's root records; then (clock stopped) check them.
    /// Returns the latency and the objects visited.
    fn read_request(&mut self, ctx: &LoopCtx<'_>) -> adapter::Result<(u64, u64)> {
        let root = ctx.store.refs()[self.rng.below(ctx.data.len())];
        let t0 = now_ns();
        let (visits, grand) = self.navigate(ctx, root)?;
        let records = self.call(1, || ctx.store.root_records(&grand))?;
        let t1 = now_ns();
        if ctx.w == Workload::ServeRead {
            if records.digest() != ctx.oracle[ordinal(root)] {
                self.fail(format!("wrong answer for root {}", ordinal(root)));
            }
        } else {
            // Names change under the readers: each must be the original or
            // a complete patch by the object's owner, never a torn mix.
            for (r, name) in grand.iter().zip(records.names()) {
                let ord = ordinal(*r);
                let ok = name == ctx.data.original_name(ord)
                    || parse_patch(name).is_some_and(|(c, _)| c == ord % CLIENTS);
                if !ok {
                    self.fail(format!("object {ord} read as {name:?}"));
                    break;
                }
            }
        }
        if records.len() != grand.len() {
            self.fail(format!(
                "{} records for {} refs",
                records.len(),
                grand.len()
            ));
        }
        Ok((t1 - t0, visits))
    }

    /// An update request: navigate from a root this client owns and patch
    /// the grand-children it owns.
    fn update_request(&mut self, ctx: &LoopCtx<'_>) -> adapter::Result<(u64, u64)> {
        let n = ctx.data.len();
        let root = ctx.store.refs()[self.rng.below(n / CLIENTS) * CLIENTS + self.id];
        let request = self.next_request;
        let name = patch_name(self.id, request, ctx.data.original_name(0).len());
        let t0 = now_ns();
        let (visits, grand) = self.navigate(ctx, root)?;
        let mine: Vec<ObjRef> = grand
            .into_iter()
            .filter(|r| ordinal(*r) % CLIENTS == self.id)
            .collect();
        self.call(5, || ctx.store.update_roots(&mine, &name))?;
        let t1 = now_ns();
        // The call returned: the patch is acknowledged, so it must survive.
        for r in &mine {
            self.last_ack[ordinal(*r)] = request + 1;
        }
        self.patched_bytes += (mine.len() * name.len()) as u64;
        Ok((t1 - t0, visits))
    }

    /// Serves requests until `deadline`; returns how many.
    fn serve(&mut self, ctx: &LoopCtx<'_>, deadline: Instant) -> u64 {
        let mut served = 0;
        while Instant::now() < deadline {
            let request = self.next_request;
            let update = ctx.w == Workload::UpdateDurable && !request.is_multiple_of(4);
            let t_root = now_ns();
            if let Some(log) = self.log.as_mut() {
                if log.spans.len() > KEPT_SPANS {
                    log.spans.drain(..KEPT_SPANS / 2);
                }
                log.open_root(if update { "update" } else { "read" }, t_root);
            }
            self.attempted += 1;
            let outcome = if update {
                self.update_request(ctx)
            } else {
                self.read_request(ctx)
            };
            if let Some(log) = self.log.as_mut() {
                log.close_root(now_ns());
            }
            match outcome {
                Ok((ns, visits)) => {
                    self.root_ns += ns;
                    self.visits += visits;
                    let sink = if update {
                        &mut self.lat_update
                    } else {
                        &mut self.lat_read
                    };
                    sink.push(Latency {
                        ns: ns.min(u32::MAX as u64) as u32,
                        visits: visits.min(u16::MAX as u64) as u16,
                    });
                }
                Err(e) => self.fail(e),
            }
            self.next_request += 1;
            served += 1;
            if ctx.w == Workload::UpdateDurable
                && self.id == 0
                && self.next_request.is_multiple_of(CHECKPOINT_EVERY)
            {
                let written = ctx.store.counts().log_pages_written();
                self.log_pages_held
                    .push(written.saturating_sub(self.log_pages_at_checkpoint) as f64);
                let t0 = Instant::now();
                match ctx.store.flush() {
                    Ok(()) => {
                        self.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        self.log_pages_at_checkpoint = ctx.store.counts().log_pages_written();
                    }
                    Err(e) => self.fail(format!("checkpoint: {e}")),
                }
            }
        }
        served
    }
}

/// What one stream did.
struct Stream {
    served: u64,
    visits: u64,
    /// First client start to last client end, seconds.
    wall_s: f64,
}

/// One stream: every client serves for `slice`, started together.
fn stream_pass(ctx: &LoopCtx<'_>, clients: &mut [Client], slice: Duration) -> Stream {
    let visits_before: u64 = clients.iter().map(|c| c.visits).sum();
    let barrier = Barrier::new(clients.len());
    let runs: Vec<(u64, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let served = client.serve(ctx, start + slice);
                    (served, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let served = runs.iter().map(|r| r.0).sum();
    let start = runs.iter().map(|r| r.1).min().expect("at least one client");
    let end = runs.iter().map(|r| r.2).max().expect("at least one client");
    Stream {
        served,
        visits: clients.iter().map(|c| c.visits).sum::<u64>() - visits_before,
        wall_s: (end - start).as_secs_f64(),
    }
}

/// `serve-read`'s oracle: the digest of every root's answer, computed
/// serially before any stream runs.
pub fn read_oracle(store: &SharedStore) -> adapter::Result<Vec<u64>> {
    store
        .refs()
        .iter()
        .map(|root| {
            let children = store.children_of(&[*root])?;
            let grand = store.children_of(&children)?;
            Ok(store.root_records(&grand)?.digest())
        })
        .collect()
}

/// After a crash and recovery, every object's name must be its owner's
/// last acknowledged patch, or the original if it was never patched.
fn verify_recovered(
    store: &SharedStore,
    data: &Dataset,
    clients: &[Client],
) -> adapter::Result<(u64, Vec<String>)> {
    let mut wrong = 0;
    let mut notes = Vec::new();
    let len = data.original_name(0).len();
    for chunk in store.refs().chunks(64) {
        let records = store.root_records(chunk)?;
        for (r, name) in chunk.iter().zip(records.names()) {
            let ord = ordinal(*r);
            let owner = &clients[ord % CLIENTS];
            let expected = match owner.last_ack[ord] {
                0 => data.original_name(ord).to_string(),
                ack => patch_name(owner.id, ack - 1, len),
            };
            if name != expected {
                wrong += 1;
                if notes.len() < 4 {
                    notes.push(format!(
                        "object {ord} recovered as {name:?}, expected {expected:?}"
                    ));
                }
            }
        }
    }
    Ok((wrong, notes))
}

/// Runs the cells of a closed-loop workload: `5 × rounds` short streams per
/// model, interleaved. In a traced pass the client loops record a span per
/// store call and per request.
pub fn run_closed_loop(
    w: Workload,
    models: &[ModelKind],
    stores: &[SharedStore],
    data: &Dataset,
    oracles: &[Vec<u64>],
    clients: &mut [Vec<Client>],
    pass: &mut Pass<'_>,
) -> Vec<Cell> {
    let traced = pass.traced;
    // Two busy threads on two vCPUs are noisy: many short streams and
    // their median, not few long ones.
    let streams = pass.rounds * 5;
    let mut cells: Vec<Cell> = models.iter().map(|m| Cell::new(*m)).collect();
    for (m, cs) in clients.iter_mut().enumerate() {
        for c in cs.iter_mut() {
            c.log = traced.then(|| SpanLog::new(w.name(), model_label(models[m]), c.id as u32));
            c.root_ns = 0;
        }
    }
    let slice = pass.cell / streams as u32;
    for _stream in 0..streams {
        for (m, store) in stores.iter().enumerate() {
            let ctx = LoopCtx {
                w,
                store,
                data,
                oracle: oracles.get(m).map_or(&[], |o| o.as_slice()),
            };
            pass.speed.read();
            let before = store.counts();
            let stream = stream_pass(&ctx, &mut clients[m], slice);
            let c = &mut cells[m];
            c.counts.add(&store.counts().since(&before));
            c.loops += stream.served;
            c.units += stream.visits;
            if stream.visits > 0 {
                c.unit_us.push(stream.wall_s * 1e6 / stream.visits as f64);
            }
        }
    }
    for (m, store) in stores.iter().enumerate() {
        let c = &mut cells[m];
        let mut held_log_pages = 0;
        if w == Workload::UpdateDurable {
            // The log a checkpoint finds (median over the checkpoints): what
            // the store holds beside its data pages. Where the run happens
            // to end between two checkpoints would only add noise.
            let held = std::mem::take(&mut clients[m][0].log_pages_held);
            held_log_pages = if held.is_empty() {
                store
                    .counts()
                    .log_pages_written()
                    .saturating_sub(clients[m][0].log_pages_at_checkpoint)
            } else {
                crate::stats::median(&held) as u64
            };
            // No flush: whatever was acknowledged must come back from the
            // durable log alone.
            let before = store.counts();
            store.simulate_crash();
            let t0 = Instant::now();
            match store.recover() {
                Ok(pages) => {
                    c.recover_ms = t0.elapsed().as_secs_f64() * 1e3;
                    c.pages_replayed = pages as u64;
                }
                Err(e) => {
                    c.failed += 1;
                    pass.checks.note(format!(
                        "{}/{}: recover: {e}",
                        w.name(),
                        model_label(c.model)
                    ));
                }
            }
            c.counts.add(&store.counts().since(&before));
            c.attempted += N_OBJECTS as u64;
            match verify_recovered(store, data, &clients[m]) {
                Ok((wrong, why)) => {
                    c.failed += wrong;
                    why.into_iter().for_each(|n| pass.checks.note(n));
                }
                Err(e) => {
                    c.failed += N_OBJECTS as u64;
                    pass.checks.note(format!(
                        "{}/{}: verify: {e}",
                        w.name(),
                        model_label(c.model)
                    ));
                }
            }
            // Recovery checkpointed: the log starts empty again.
            clients[m][0].log_pages_at_checkpoint = store.counts().log_pages_written();
        }
        c.stored_bytes = (store.database_pages() + held_log_pages) * adapter::PAGE_BYTES;
        c.fix_imbalance = imbalance(&store.shard_fixes());
        let mut traced_cell = traced.then(Traced::default);
        for client in clients[m].iter_mut() {
            c.lat_read.append(&mut client.lat_read);
            c.lat_update.append(&mut client.lat_update);
            c.attempted += std::mem::take(&mut client.attempted);
            c.failed += std::mem::take(&mut client.failed);
            c.checkpoint_ms.append(&mut client.checkpoint_ms);
            c.patched_bytes += std::mem::take(&mut client.patched_bytes);
            for note in client.notes.drain(..) {
                pass.checks
                    .note(format!("{}/{}: {note}", w.name(), model_label(c.model)));
            }
            if let (Some(t), Some(log)) = (traced_cell.as_mut(), client.log.take()) {
                t.root_ns += client.root_ns;
                for (a, b) in t.ops.iter_mut().zip(log.ops.iter()) {
                    a.add(b);
                }
                t.spans.extend(log.spans);
            }
        }
        c.traced = traced_cell;
    }
    cells
}

// ---- the routed cluster ---------------------------------------------------

/// Per model, the node checksums a serially driven cluster ends with.
pub fn cluster_oracles(w: Workload, data: &Dataset) -> adapter::Result<Vec<Vec<u64>>> {
    let spec = Spec::q3b();
    w.models()
        .into_iter()
        .map(|kind| {
            let mut oracle = Cluster::build(kind, 2, w.buffer_pages(), 1);
            oracle.load(data)?;
            oracle.run_serial(&spec)?;
            Ok(oracle.node_checksums())
        })
        .collect()
}

/// Runs the cells of `cluster-route`: whole `Executor::run_cluster` calls
/// (2 clients, 1 worker per node), interleaved like the serial cells. The
/// routed calls happen inside the executor, so a `traced` pass can only
/// record the repetitions themselves as (root) spans.
pub fn run_cluster(
    w: Workload,
    clusters: &mut [Cluster],
    oracles: &[Vec<u64>],
    pass: &mut Pass<'_>,
) -> Vec<Cell> {
    let traced = pass.traced;
    let spec = Spec::q3b();
    let mut cells: Vec<Cell> = w.models().into_iter().map(Cell::new).collect();
    for c in cells.iter_mut() {
        c.traced = traced.then(Traced::default);
    }
    let slice = pass.cell / pass.rounds as u32;
    for round in 0..pass.rounds {
        for (m, cluster) in clusters.iter_mut().enumerate() {
            let c = &mut cells[m];
            pass.speed.read();
            let end = Instant::now() + slice;
            let mut reps = 0;
            while reps < pass.min_reps_in(round) || Instant::now() < end {
                reps += 1;
                let t0 = now_ns();
                let run = cluster.run_routed(&spec, CLIENTS, 1);
                let wall_ns = now_ns() - t0;
                match run {
                    Ok((r, high_water)) => {
                        c.attempted += r.units;
                        if cluster.node_checksums() != oracles[m] {
                            c.failed += r.units;
                            pass.checks.note(format!(
                                "{}/{}: node disks differ from the serial oracle's",
                                w.name(),
                                model_label(c.model)
                            ));
                        }
                        let work = work_units(w, &r);
                        c.unit_us.push(wall_ns as f64 / 1e3 / work as f64);
                        c.units += work;
                        c.loops += r.units;
                        c.counts.add(&r.counts);
                        c.queue_high_water = c.queue_high_water.max(high_water);
                        c.first.get_or_insert(r);
                        if let Some(t) = c.traced.as_mut() {
                            t.root_ns += wall_ns;
                            let mut log = SpanLog::new(w.name(), model_label(c.model), 0);
                            log.open_root("repetition", t0);
                            log.close_root(t0 + wall_ns);
                            t.spans = log.spans;
                        }
                    }
                    Err(e) => {
                        c.attempted += 1;
                        c.failed += 1;
                        pass.checks
                            .note(format!("{}/{}: {e}", w.name(), model_label(c.model)));
                        break;
                    }
                }
            }
            pass.speed.read();
        }
    }
    for (cluster, c) in clusters.iter().zip(cells.iter_mut()) {
        c.stored_bytes = cluster.database_pages() * adapter::PAGE_BYTES;
        c.fix_imbalance = imbalance(&cluster.node_fixes());
    }
    check_same_plan_outcome(w, &cells, pass.checks);
    cells
}
