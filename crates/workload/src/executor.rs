//! The streaming plan executor: one interpreter behind every run mode.
//!
//! [`Executor`] interprets a [`WorkloadSpec`] against a store. The same op
//! semantics (one `match` in [`exec_linear`]) and the same measurement
//! frame ([`measured`]: cold start — buffer emptied, prior dirty pages
//! flushed *before* the counters reset —, run, "database disconnect" flush
//! — counted, as in the paper's write numbers —, counter delta, per-unit
//! normalization) back four entry points:
//!
//! * [`Executor::run`] — the serial measurement protocol of the paper
//!   (§5.1): the ops stream against the `&mut` surface, updates inline.
//! * [`Executor::run_concurrent`] — the multi-client measurement protocol:
//!   a planning pass walks the plan with the spec's RNG and pre-draws every
//!   pick onto per-unit tapes (the *identical* selections the serial run
//!   makes — same stream, same order), top-level loop iterations are dealt
//!   whole — scans, key lookups and nested loops included — round-robin to
//!   N threads over the `&self` [`ConcurrentObjectStore`] surface, the op
//!   runs between loops execute on the coordinator with carried state,
//!   per-unit observations are merged back in plan order, and
//!   `update_roots` ops are **deferred**: applied after the read phase as
//!   one list in plan order, split by object across N writer threads
//!   spawned once (so writers never race on an object and every object
//!   sees its updates in plan order). With one thread over one shard
//!   the whole [`PlanRun`] — physical reads included — equals the serial
//!   run's (`tests/concurrent_differential.rs`,
//!   `tests/concurrent_writer_differential.rs`).
//! * [`Executor::run_cluster`] — the same protocol over a
//!   [`PartitionedStore`]: the surface hands each plan step to a worker
//!   of every owning node — one job per node per step, the deferred list
//!   included (`RoutedSurface`) —, nothing else differs
//!   (`tests/cluster_differential.rs`).
//! * [`Executor::run_stream`] — the mixed read/write throughput protocol:
//!   same dealing, but updates run **inline** in the serving threads
//!   (requests race by design; per-page latches keep every observation
//!   untorn), and nothing is recorded beyond the counters.
//!
//! Determinism contract (pinned by the golden-counter tests and
//! `tests/concurrent_differential.rs`): a plan's *access sequence* — the picks, the
//! navigation hops, the per-hop cardinalities, the update gating — is a
//! function of (spec, seed, database) only. Storage models and replacement
//! policies change physical I/O, never the sequence; thread counts change
//! interleaving (and therefore physical I/O and latch waits), never the
//! answers or the fix totals.

use crate::plan::{Drift, NormUnit, Op, PatchSpec, WorkloadSpec, STREAM_STRIDE};
use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use starfish_core::{
    with_cluster_router, ClusterRouter, ComplexObjectStore, ConcurrentObjectStore, CoreError,
    ObjRef, PartitionedStore, Pending, RootPatch,
};
use starfish_nf2::{Oid, Tuple};
use starfish_pagestore::IoSnapshot;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A unit's deferred updates: the selection at each `update_roots` op, its
/// patch recipe and the top-level loop number the op ran at (which feeds
/// [`PatchSpec::materialize`]), applied after the concurrent read phase.
type DeferredUpdates = Vec<(Vec<ObjRef>, PatchSpec, u64)>;

/// One deferred update, ready to apply: the selection and its materialized
/// patch.
type Update<'a> = (&'a [ObjRef], RootPatch);

/// One way's share of a deferred-update list ([`split_updates`]): per
/// entry, the refs this way owns and the entry's patch, in plan order.
type UpdatePart = Vec<(Vec<ObjRef>, RootPatch)>;

/// The measured result of one plan run.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRun {
    /// Counter deltas for the whole run, disconnect flush included.
    pub snapshot: IoSnapshot,
    /// Normalization denominator per the spec's [`crate::NormUnit`].
    pub units: u64,
    /// Objects seen per navigation hop (index 0 = first hop = "children",
    /// index 1 = "grand-children", …), summed over all units.
    pub nav_seen: Vec<u64>,
    /// Objects materialized by `scan_all` ops.
    pub scanned: u64,
    /// `update_roots` executions that actually ran (after mix gating).
    pub updates_applied: u64,
}

impl PlanRun {
    /// Objects seen at navigation hop `d` (0 where the plan never got
    /// that deep): hop 0 is the paper's "children", hop 1 its
    /// "grand-children".
    pub fn nav_hop(&self, d: usize) -> u64 {
        self.nav_seen.get(d).copied().unwrap_or(0)
    }

    fn per_unit(&self, total: u64) -> f64 {
        total as f64 / self.units.max(1) as f64
    }

    /// Pages read+written per unit (the paper's headline `X_IO_pages`).
    pub fn pages_per_unit(&self) -> f64 {
        self.per_unit(self.snapshot.pages_io())
    }

    /// Pages read per unit.
    pub fn reads_per_unit(&self) -> f64 {
        self.per_unit(self.snapshot.pages_read)
    }

    /// Pages written per unit.
    pub fn writes_per_unit(&self) -> f64 {
        self.per_unit(self.snapshot.pages_written)
    }

    /// I/O calls per unit (Table 5).
    pub fn calls_per_unit(&self) -> f64 {
        self.per_unit(self.snapshot.io_calls())
    }

    /// Buffer fixes per unit (Table 6).
    pub fn fixes_per_unit(&self) -> f64 {
        self.per_unit(self.snapshot.fixes)
    }
}

/// A plan run, or the paper's "not relevant" marker (an op the storage
/// model cannot execute — query 1a's OID access under pure NSM).
#[derive(Clone, Debug, PartialEq)]
// `Measured` dwarfs the unit variant, but outcomes are created once per
// plan run and immediately destructured — never stored in bulk — so the
// indirection a `Box` buys is pure overhead here.
#[allow(clippy::large_enum_variant)]
pub enum PlanOutcome {
    /// The plan ran and was measured.
    Measured(PlanRun),
    /// The storage model does not support an op of the plan.
    Unsupported,
}

impl PlanOutcome {
    /// The run, if the plan executed.
    pub fn run(&self) -> Option<&PlanRun> {
        match self {
            PlanOutcome::Measured(r) => Some(r),
            PlanOutcome::Unsupported => None,
        }
    }
}

/// What one concurrent unit (a top-level loop iteration) observed — the
/// raw material for answer-equivalence differentials across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitObservation {
    /// The unit's root pick.
    pub root: ObjRef,
    /// Tuples materialized by `get_by_oid` ops, in op order.
    pub retrieved: Vec<Tuple>,
    /// Selection after each navigation hop, in hop order.
    pub hops: Vec<Vec<ObjRef>>,
    /// Root records fetched by `fetch_roots` ops, concatenated.
    pub records: Vec<Tuple>,
}

/// The result of a concurrent plan run.
#[derive(Clone, Debug)]
pub struct ConcurrentPlanRun {
    /// Counters and normalization, exactly like the serial protocol's.
    pub outcome: PlanOutcome,
    /// Per-unit observations in plan order (empty when unsupported).
    pub observations: Vec<UnitObservation>,
    /// Wall-clock of the concurrent read phase (excludes the update tail
    /// and the disconnect flush).
    pub elapsed: Duration,
    /// Client threads that executed the plan.
    pub threads: usize,
}

/// The result of one routed cluster serving run ([`Executor::run_cluster`]):
/// the usual concurrent measurement plus the router-level serving metrics.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Counters, observations and read-phase wall-clock — exactly the
    /// [`Executor::run_concurrent`] shape (`threads` is the client count).
    pub run: ConcurrentPlanRun,
    /// Worker threads that served each node's job queue.
    pub workers_per_node: usize,
    /// Per-node job-queue high-water marks, ascending node order. A
    /// client has one job per node in flight (its step's batch for that
    /// node), so a mark counts clients waiting on the node at once and
    /// never exceeds the client count.
    pub queue_high_water: Vec<u64>,
}

/// The result of one mixed read/write serving run ([`Executor::run_stream`]).
#[derive(Clone, Debug)]
pub struct MixedRun {
    /// Requests served (top-level plan units).
    pub requests: u64,
    /// Requests that applied an update (after mix gating).
    pub updates: u64,
    /// Wall-clock of the serving phase (excludes the final disconnect
    /// flush).
    pub elapsed: Duration,
    /// Client threads.
    pub threads: usize,
    /// Counter deltas for the whole run, disconnect flush included — the
    /// `latch_*` fields surface the contention the mix produced.
    pub snapshot: IoSnapshot,
}

/// Interprets workload specs against stores: the object universe (`refs`
/// as returned by [`ComplexObjectStore::load`]) plus the measurement seed.
#[derive(Clone, Debug)]
pub struct Executor {
    refs: Vec<ObjRef>,
    seed: u64,
}

// ---- the op interpreter -----------------------------------------------------

/// The storage surface a plan streams over — the serial `&mut` trait and
/// the concurrent `&self` trait behind one vocabulary, so the interpreter
/// cannot drift between modes.
trait Surface {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple>;
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple>;
    fn scan_count(&mut self) -> Result<u64>;
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>>;
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>>;
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()>;
    fn clear_cache(&mut self) -> Result<()>;
    /// Database disconnect: deferred writes reach the disk and count.
    fn flush(&mut self) -> Result<()>;
    /// The whole deferred-update list in plan order, applied after the
    /// concurrent read phase while its `threads` clients are idle.
    fn apply_deferred(&mut self, updates: &[Update<'_>], _threads: usize) -> Result<()> {
        updates
            .iter()
            .try_for_each(|(refs, patch)| self.update_roots(refs, patch))
    }
}

fn proj_of(op: &Op) -> starfish_nf2::Projection {
    match op {
        Op::GetByOid { proj } | Op::GetByKey { proj } => proj.to_projection(),
        _ => unreachable!("proj_of is only called for retrieval ops"),
    }
}

struct SerialSurface<'a>(&'a mut dyn ComplexObjectStore);

impl Surface for SerialSurface<'_> {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.0.get_by_oid(r.oid, &proj_of(proj))
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.0.get_by_key(r.key, &proj_of(proj))
    }
    fn scan_count(&mut self) -> Result<u64> {
        let mut n = 0u64;
        self.0.scan_all(&mut |_| n += 1)?;
        Ok(n)
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.0.children_of(refs)
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        self.0.root_records(refs)
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        self.0.update_roots(refs, patch)
    }
    fn clear_cache(&mut self) -> Result<()> {
        self.0.clear_cache()
    }
    fn flush(&mut self) -> Result<()> {
        self.0.flush()
    }
}

/// The shared [`Surface`]: direct `&self` calls into one
/// [`ConcurrentObjectStore`] (the single-pool protocol). `Copy`, like
/// [`RoutedSurface`], so every dealt unit streams over its own handle.
#[derive(Clone, Copy)]
struct SharedSurface<'a>(&'a dyn ConcurrentObjectStore);

impl Surface for SharedSurface<'_> {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.0.shared_get_by_oid(r.oid, &proj_of(proj))
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.0.shared_get_by_key(r.key, &proj_of(proj))
    }
    fn scan_count(&mut self) -> Result<u64> {
        shared_scan_count(self.0)
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.0.shared_children_of(refs)
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        self.0.shared_root_records(refs)
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        self.0.shared_update_roots(refs, patch)
    }
    fn clear_cache(&mut self) -> Result<()> {
        self.0.shared_clear_cache()
    }
    /// The shared flush quiesces writers through the pool's gate.
    fn flush(&mut self) -> Result<()> {
        self.0.shared_flush()
    }
    /// `threads` writers, spawned once, each walking its share of the list
    /// ([`split_by_object`]) in plan order through the latched `&self`
    /// write surface; one writer is the serial update path call for call.
    fn apply_deferred(&mut self, updates: &[Update<'_>], threads: usize) -> Result<()> {
        let store = self.0;
        let parts = split_by_object(updates, threads)?;
        if let [only] = parts.as_slice() {
            return apply_part(store, only);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .filter(|part| !part.is_empty())
                .map(|part| s.spawn(move || apply_part(store, part)))
                .collect();
            for h in handles {
                h.join().expect("writer thread panicked")?;
            }
            Ok(())
        })
    }
}

fn shared_scan_count(store: &dyn ConcurrentObjectStore) -> Result<u64> {
    let mut n = 0u64;
    store.shared_scan_all(&mut |_| n += 1)?;
    Ok(n)
}

/// The routed [`Surface`]: every op is the `shared_*` call it is on one
/// store, made on a worker of the owning node ([`ClusterRouter::on_node`]).
/// A plan step is **one job per owning node** — the node's slice of the
/// step's refs, or the node's share of the deferred-update list —, every
/// job of a step queued before the first wait, so a step pays one hand-off
/// per node however many objects it touches and the nodes still overlap.
/// Waiting in ascending node order and dealing the per-ref answers back
/// into input order rebuilds the serial answer, so dealt units stream over
/// a cluster exactly like they stream over one shared store. What this
/// gives up: one client's fan-out no longer spreads over a node's several
/// workers — those serve several clients.
#[derive(Clone, Copy)]
struct RoutedSurface<'r, 'a>(&'r ClusterRouter<'a>);

impl RoutedSurface<'_, '_> {
    /// One job per involved node over that node's slice of `refs` — every
    /// owner is resolved first, so a bad ref queues nothing. The job still
    /// makes the `shared_*` call once per ref, so fixes, latch groups and
    /// read calls are what per-ref dispatch made them. Waited in ascending
    /// node order, then the per-ref answers are dealt back into input
    /// order (navigation answers are global refs, so the next hop routes
    /// directly).
    fn per_ref<T: Send + 'static>(
        &self,
        refs: &[ObjRef],
        op: fn(&dyn ConcurrentObjectStore, &[ObjRef]) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let mut nodes = Vec::with_capacity(refs.len());
        let mut locals = vec![Vec::new(); self.0.node_count()];
        for r in refs {
            let (node, local) = self.0.owner(*r)?;
            nodes.push(node);
            locals[node].push(local);
        }
        let pending: Vec<(usize, Pending<Vec<Vec<T>>>)> = locals
            .into_iter()
            .enumerate()
            .filter(|(_, locals)| !locals.is_empty())
            .map(|(node, locals)| {
                let batch = self.0.on_node(node, move |s| {
                    locals
                        .iter()
                        .map(|l| op(s, std::slice::from_ref(l)))
                        .collect()
                });
                (node, batch)
            })
            .collect();
        let mut answers: Vec<_> = (0..self.0.node_count())
            .map(|_| Vec::new().into_iter())
            .collect();
        for (node, batch) in pending {
            answers[node] = batch.wait()?.into_iter();
        }
        let mut out = Vec::new();
        for node in nodes {
            out.extend(answers[node].next().expect("one answer per routed ref"));
        }
        Ok(out)
    }

    /// One job on every node, waited in ascending node order — the
    /// deterministic cross-node merge.
    fn per_node<T: Send + 'static>(
        &self,
        op: fn(&dyn ConcurrentObjectStore) -> Result<T>,
    ) -> Result<Vec<T>> {
        let pending: Vec<Pending<T>> = (0..self.0.node_count())
            .map(|node| self.0.on_node(node, op))
            .collect();
        pending.into_iter().map(Pending::wait).collect()
    }
}

impl Surface for RoutedSurface<'_, '_> {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        let (node, local) = self.0.owner(r)?;
        let proj = proj_of(proj);
        let job = self
            .0
            .on_node(node, move |s| s.shared_get_by_oid(local.oid, &proj));
        job.wait()
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        let node = self.0.owner_of_key(r.key)?;
        let proj = proj_of(proj);
        let job = self
            .0
            .on_node(node, move |s| s.shared_get_by_key(r.key, &proj));
        job.wait()
    }
    fn scan_count(&mut self) -> Result<u64> {
        Ok(self.per_node(shared_scan_count)?.iter().sum())
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.per_ref(refs, |s, r| s.shared_children_of(r))
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        self.per_ref(refs, |s, r| s.shared_root_records(r))
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        self.apply_deferred(&[(refs, patch.clone())], 1)
    }
    /// One job per involved node carrying that node's share of the list in
    /// plan order, so the nodes apply their shares in parallel and the
    /// tail is one hand-off per node, not one per entry. Same-object
    /// updates always share a node (and the job runs on one worker), so
    /// they stay in plan order and every node's final bytes are the
    /// serial cluster's. Every owner is resolved before anything is
    /// queued.
    fn apply_deferred(&mut self, updates: &[Update<'_>], _threads: usize) -> Result<()> {
        let parts = split_updates(updates, self.0.node_count(), |r| self.0.owner(r))?;
        let pending: Vec<Pending<()>> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(node, part)| self.0.on_node(node, move |s| apply_part(s, &part)))
            .collect();
        pending.into_iter().try_for_each(Pending::wait)
    }
    fn clear_cache(&mut self) -> Result<()> {
        self.0.clear_cache_all()
    }
    /// Database disconnect through every node's queue.
    fn flush(&mut self) -> Result<()> {
        self.per_node(|s| s.shared_flush()).map(drop)
    }
}

/// Mutable interpreter state: the selection the ops stream over plus the
/// observation counters.
#[derive(Default)]
struct Ctx {
    /// The working set of object references.
    sel: Vec<ObjRef>,
    /// Objects seen per navigation hop, summed over units.
    nav_seen: Vec<u64>,
    /// Navigation hop index within the current unit.
    iter_depth: usize,
    /// Objects materialized by scans.
    scanned: u64,
    /// Updates that actually ran.
    updates: u64,
    /// Top-level loop iterations executed.
    top_iters: u64,
    /// Current top-level loop iteration (feeds patches and mix gating).
    loop_nr: u64,
    /// Loop nesting depth.
    depth: u32,
}

impl Ctx {
    fn record_hop(&mut self, seen: usize) {
        if self.iter_depth >= self.nav_seen.len() {
            self.nav_seen.resize(self.iter_depth + 1, 0);
        }
        self.nav_seen[self.iter_depth] += seen as u64;
        self.iter_depth += 1;
    }
}

/// What happens at `update_roots` ops and what gets recorded.
enum Mode<'a> {
    /// Updates run inline through the surface (serial and mixed-stream
    /// execution); nothing recorded beyond the counters.
    Inline,
    /// Concurrent read phase: record what each unit observed, defer
    /// updates (selection + patch) for the post-merge write phase.
    Record {
        obs: &'a mut UnitObservation,
        deferred: &'a mut DeferredUpdates,
    },
}

/// Where a unit's random picks come from: a live RNG (serial execution and
/// the concurrent planning pass) or a pre-drawn tape (concurrent unit
/// execution — the planner already consumed the RNG in serial order, so
/// units replay their picks and thread counts cannot move the sequence).
enum PickSource<'a> {
    /// Draw live from the spec's RNG stream.
    Rng(&'a mut StdRng),
    /// Replay pre-drawn selections, in plan order.
    Tape(&'a mut VecDeque<Vec<ObjRef>>),
}

impl PickSource<'_> {
    fn draw(&mut self, refs: &[ObjRef], op: &Op, loop_nr: u64) -> Result<Vec<ObjRef>> {
        match self {
            PickSource::Rng(rng) => draw_for_op(refs, rng, op, loop_nr),
            PickSource::Tape(tape) => tape.pop_front().ok_or_else(|| CoreError::NotFound {
                what: "a pre-drawn pick (planner/executor traversal mismatch)".into(),
            }),
        }
    }
}

/// Draws the selection a pick-like op (`pick_random`, `pick_skewed`,
/// `phase`) produces at top-level iteration `loop_nr`. The one place pick
/// semantics live — the serial interpreter and the concurrent planner both
/// call it, so they cannot disagree on RNG consumption.
fn draw_for_op(refs: &[ObjRef], rng: &mut StdRng, op: &Op, loop_nr: u64) -> Result<Vec<ObjRef>> {
    match op {
        Op::PickRandom { n } => (0..*n).map(|_| pick_uniform(refs, rng)).collect(),
        Op::PickSkewed {
            hot,
            pct_hot,
            drift,
        } => Ok(vec![pick_skewed(
            refs, rng, *hot, *pct_hot, *drift, loop_nr,
        )?]),
        // `ops` is a public field and only `from_json` validates, so a
        // hand-built phase can be empty or hold a non-pick op.
        Op::Phase { every, picks } if !picks.is_empty() => {
            let active = &picks[((loop_nr / (*every).max(1)) as usize) % picks.len()];
            draw_for_op(refs, rng, active, loop_nr)
        }
        other => Err(CoreError::NotFound {
            what: format!(
                "a pick to draw (pick_random / pick_skewed / a non-empty phase) in {other:?}"
            ),
        }),
    }
}

/// Streams `ops` over `surf`. The single place op semantics live.
fn exec_linear<S: Surface>(
    refs: &[ObjRef],
    spec: &WorkloadSpec,
    surf: &mut S,
    picks: &mut PickSource<'_>,
    ctx: &mut Ctx,
    mode: &mut Mode<'_>,
    ops: &[Op],
) -> Result<()> {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                ctx.sel = picks.draw(refs, op, ctx.loop_nr)?;
            }
            Op::ScanAll => {
                ctx.scanned += surf.scan_count()?;
            }
            Op::GetByOid { .. } => {
                for r in ctx.sel.clone() {
                    let t = surf.get_by_oid(r, op)?;
                    if let Mode::Record { obs, .. } = mode {
                        obs.retrieved.push(t);
                    }
                }
            }
            Op::GetByKey { .. } => {
                for r in ctx.sel.clone() {
                    let t = surf.get_by_key(r, op)?;
                    if let Mode::Record { obs, .. } = mode {
                        obs.retrieved.push(t);
                    }
                }
            }
            Op::NavigateChildren { depth } => {
                for _ in 0..*depth {
                    ctx.sel = surf.children_of(&ctx.sel)?;
                    ctx.record_hop(ctx.sel.len());
                    if let Mode::Record { obs, .. } = mode {
                        obs.hops.push(ctx.sel.clone());
                    }
                }
            }
            Op::FetchRoots => {
                let records = surf.root_records(&ctx.sel)?;
                debug_assert_eq!(records.len(), ctx.sel.len());
                if let Mode::Record { obs, .. } = mode {
                    obs.records.extend(records);
                }
            }
            Op::UpdateRoots { patch } => {
                if spec.updates_at(ctx.loop_nr as usize) {
                    ctx.updates += 1;
                    match mode {
                        Mode::Inline => {
                            let patch = RootPatch {
                                new_name: patch.materialize(ctx.loop_nr),
                            };
                            surf.update_roots(&ctx.sel, &patch)?;
                        }
                        Mode::Record { deferred, .. } => {
                            deferred.push((ctx.sel.clone(), patch.clone(), ctx.loop_nr));
                        }
                    }
                }
            }
            Op::ColdRestart => {
                surf.clear_cache()?;
            }
            Op::Loop { count, body } => {
                let n = count.resolve(refs.len());
                ctx.depth += 1;
                for i in 0..n {
                    if ctx.depth == 1 {
                        ctx.loop_nr = i;
                        ctx.iter_depth = 0;
                        ctx.top_iters += 1;
                    }
                    exec_linear(refs, spec, surf, picks, ctx, mode, body)?;
                }
                ctx.depth -= 1;
            }
        }
    }
    Ok(())
}

fn pick_uniform(refs: &[ObjRef], rng: &mut StdRng) -> Result<ObjRef> {
    if refs.is_empty() {
        return Err(CoreError::NotFound {
            what: "objects to pick from (empty database)".into(),
        });
    }
    Ok(refs[rng.random_range(0..refs.len())])
}

fn pick_skewed(
    refs: &[ObjRef],
    rng: &mut StdRng,
    hot: u64,
    pct_hot: u8,
    drift: Option<Drift>,
    loop_nr: u64,
) -> Result<ObjRef> {
    if refs.is_empty() {
        return Err(CoreError::NotFound {
            what: "objects to pick from (empty database)".into(),
        });
    }
    // Two draws per pick, in a fixed order, so the sequence is identical
    // wherever the plan runs — drift only remaps hot draws onto a sliding
    // window, it never adds or removes a draw (offset 0 ≡ no drift,
    // byte for byte).
    let in_hot = rng.random_range(0u8..100) < pct_hot;
    let bound = if in_hot {
        (hot as usize).clamp(1, refs.len())
    } else {
        refs.len()
    };
    let idx = rng.random_range(0..bound);
    if in_hot {
        let offset = drift.map(|d| d.offset(loop_nr, refs.len())).unwrap_or(0);
        Ok(refs[(offset + idx) % refs.len()])
    } else {
        Ok(refs[idx])
    }
}

// ---- shared concurrent helpers ---------------------------------------------

/// Splits a deferred-update list `ways` ways: `assign` names the way each
/// ref goes (and the ref it is there). Every part keeps plan order; an
/// entry with nothing for a way is skipped there. The first ref `assign`
/// rejects fails the whole split.
fn split_updates(
    updates: &[Update<'_>],
    ways: usize,
    mut assign: impl FnMut(ObjRef) -> Result<(usize, ObjRef)>,
) -> Result<Vec<UpdatePart>> {
    let mut parts = vec![UpdatePart::new(); ways];
    for (refs, patch) in updates {
        let mut shares = vec![Vec::new(); ways];
        for r in *refs {
            let (way, local) = assign(*r)?;
            shares[way].push(local);
        }
        for (part, share) in parts.iter_mut().zip(shares) {
            if !share.is_empty() {
                part.push((share, patch.clone()));
            }
        }
    }
    Ok(parts)
}

/// Splits a deferred-update list across `threads` writers **by object**:
/// every occurrence of an object (duplicates included), in every entry,
/// goes to the writer that owns the object, objects dealt round-robin in
/// first-seen order over the whole list. No two writers ever hold the same
/// object, so they never race on an object-level read-modify-write and
/// same-object updates of successive units stay in plan order. Total
/// occurrences are preserved, which is what keeps fix totals
/// thread-count-invariant.
fn split_by_object(updates: &[Update<'_>], threads: usize) -> Result<Vec<UpdatePart>> {
    let mut rank: HashMap<Oid, usize> = HashMap::new();
    split_updates(updates, threads, |r| {
        let next = rank.len();
        Ok((*rank.entry(r.oid).or_insert(next) % threads, r))
    })
}

/// Applies one part of a split deferred-update list, in plan order.
fn apply_part(store: &dyn ConcurrentObjectStore, part: &UpdatePart) -> Result<()> {
    part.iter()
        .try_for_each(|(refs, patch)| store.shared_update_roots(refs, patch))
}

/// How a run of ops first touches the selection — the shareability test
/// for dealing loop iterations to threads whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SelUse {
    /// A pick-like op establishes the selection before anything reads it.
    Establishes,
    /// A retrieval/navigation/update op reads the selection first — the
    /// iteration depends on state left by the *previous* iteration, so it
    /// cannot run on another thread.
    Consumes,
    /// Nothing in the run touches the selection.
    Neither,
}

fn first_sel_use(ops: &[Op]) -> SelUse {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                return SelUse::Establishes
            }
            Op::GetByOid { .. }
            | Op::GetByKey { .. }
            | Op::NavigateChildren { .. }
            | Op::FetchRoots
            | Op::UpdateRoots { .. } => return SelUse::Consumes,
            Op::ScanAll | Op::ColdRestart => {}
            Op::Loop { body, .. } => match first_sel_use(body) {
                SelUse::Neither => {}
                u => return u,
            },
        }
    }
    SelUse::Neither
}

/// A top-level slice of the plan, for concurrent execution: every
/// top-level `loop` becomes a [`Segment::Units`] whose iterations are
/// dealt to threads whole; the (possibly empty) runs of non-loop ops
/// between them are [`Segment::Serial`] and run on the coordinator; a plan
/// with no top-level loop at all is one [`Segment::Whole`] unit.
enum Segment<'s> {
    /// Coordinator-run ops between top-level loops.
    Serial(&'s [Op]),
    /// One top-level loop: `n` units of `body`, dealt round-robin.
    Units {
        /// One iteration of the loop.
        body: &'s [Op],
        /// Resolved iteration count.
        n: u64,
    },
    /// The entire (loop-free) plan as a single unit.
    Whole(&'s [Op]),
}

/// Splits `spec.ops` into segments and checks every dealt body establishes
/// its selection before consuming it (else iterations would depend on the
/// previous iteration's selection and could not move to another thread).
fn segments_of<'s>(spec: &'s WorkloadSpec, n_objects: usize) -> Result<Vec<Segment<'s>>> {
    let ops = spec.ops.as_slice();
    if !ops.iter().any(|op| matches!(op, Op::Loop { .. })) {
        return Ok(vec![Segment::Whole(ops)]);
    }
    let mut out = Vec::new();
    let mut run_start = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if let Op::Loop { count, body } = op {
            if run_start < i {
                out.push(Segment::Serial(&ops[run_start..i]));
            }
            run_start = i + 1;
            if first_sel_use(body) == SelUse::Consumes {
                return Err(CoreError::Unsupported {
                    model: "plan executor",
                    op: "concurrent execution of a loop whose body consumes the selection \
                         before establishing it",
                });
            }
            out.push(Segment::Units {
                body,
                n: count.resolve(n_objects),
            });
        }
    }
    if run_start < ops.len() {
        out.push(Segment::Serial(&ops[run_start..]));
    }
    Ok(out)
}

/// The picks of one dealt unit (or one serial segment), pre-drawn by the
/// planning pass in serial order.
struct UnitPlan {
    /// The unit's top-level loop number (feeds patches, mix gating and
    /// drift offsets).
    loop_nr: u64,
    /// Pre-drawn selections, in traversal order.
    tape: VecDeque<Vec<ObjRef>>,
}

/// Mirrors [`exec_linear`]'s traversal, drawing only the pick-like ops —
/// the RNG consumes exactly what the serial interpreter would, so the
/// tapes replay the identical access sequence.
fn plan_picks(
    refs: &[ObjRef],
    rng: &mut StdRng,
    loop_nr: &mut u64,
    depth: u32,
    ops: &[Op],
    out: &mut VecDeque<Vec<ObjRef>>,
) -> Result<()> {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                out.push_back(draw_for_op(refs, rng, op, *loop_nr)?);
            }
            Op::Loop { count, body } => {
                let n = count.resolve(refs.len());
                for i in 0..n {
                    if depth == 0 {
                        *loop_nr = i;
                    }
                    plan_picks(refs, rng, loop_nr, depth + 1, body, out)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// One segment with its pre-drawn pick tapes.
struct PlannedSegment<'s> {
    seg: Segment<'s>,
    /// One plan per dealt unit ([`Segment::Units`]/[`Segment::Whole`]), or
    /// exactly one for the coordinator ([`Segment::Serial`]).
    units: Vec<UnitPlan>,
}

/// The concurrent execution plan: segments with tapes, drawn by one serial
/// RNG walk — a pure function of (spec, seed, database), independent of
/// thread count.
struct ConcurrentPlan<'s> {
    segments: Vec<PlannedSegment<'s>>,
    /// Total dealt units (requests) across all segments.
    requests: u64,
    /// Total top-level loop iterations (the `loops` normalization count).
    top_iters: u64,
}

fn plan_concurrent<'s>(
    refs: &[ObjRef],
    spec: &'s WorkloadSpec,
    rng: &mut StdRng,
) -> Result<ConcurrentPlan<'s>> {
    let segs = segments_of(spec, refs.len())?;
    let mut planned = Vec::with_capacity(segs.len());
    let mut loop_nr = 0u64;
    let mut requests = 0u64;
    let mut top_iters = 0u64;
    for seg in segs {
        let units = match &seg {
            Segment::Serial(ops) => {
                let mut tape = VecDeque::new();
                plan_picks(refs, rng, &mut loop_nr, 0, ops, &mut tape)?;
                vec![UnitPlan { loop_nr, tape }]
            }
            Segment::Units { body, n } => {
                requests += n;
                top_iters += n;
                let mut units = Vec::with_capacity(*n as usize);
                for i in 0..*n {
                    loop_nr = i;
                    let mut tape = VecDeque::new();
                    plan_picks(refs, rng, &mut loop_nr, 1, body, &mut tape)?;
                    units.push(UnitPlan { loop_nr: i, tape });
                }
                units
            }
            Segment::Whole(ops) => {
                requests += 1;
                let mut tape = VecDeque::new();
                plan_picks(refs, rng, &mut loop_nr, 0, ops, &mut tape)?;
                vec![UnitPlan { loop_nr: 0, tape }]
            }
        };
        planned.push(PlannedSegment { seg, units });
    }
    Ok(ConcurrentPlan {
        segments: planned,
        requests,
        top_iters,
    })
}

/// Interpreter state carried across segments on the coordinator, so the
/// concurrent walk replicates the serial `Ctx` persistence exactly (the
/// selection and navigation hop index a serial run would have after the
/// same prefix of the plan).
#[derive(Default)]
struct Carried {
    sel: Vec<ObjRef>,
    iter_depth: usize,
}

/// What one dealt unit produced, beyond its public observation.
struct UnitOutcome {
    obs: UnitObservation,
    deferred: DeferredUpdates,
    nav_seen: Vec<u64>,
    scanned: u64,
    updates: u64,
    final_sel: Vec<ObjRef>,
    final_iter_depth: usize,
}

/// The sentinel root for units whose plan draws no picks (a pure scan
/// unit): a fixed reference so observations stay comparable across thread
/// counts.
fn root_of_tape(tape: &VecDeque<Vec<ObjRef>>) -> ObjRef {
    tape.front()
        .and_then(|sel| sel.first())
        .copied()
        .unwrap_or(ObjRef {
            oid: Oid(0),
            key: 0,
        })
}

/// One unit of work for [`run_unit`]: the ops to execute, its pre-drawn
/// pick tape, and the interpreter state it starts from. `record` selects
/// the concurrent measurement protocol (observations + deferred updates)
/// vs the mixed-stream protocol (inline updates, nothing recorded).
struct UnitRun<'a> {
    body: &'a [Op],
    unit: &'a UnitPlan,
    depth: u32,
    init: Carried,
    record: bool,
}

/// Runs one dealt unit over a shareable surface (direct shared store or
/// routed cluster dispatch).
fn run_unit<S: Surface>(
    mut surf: S,
    refs: &[ObjRef],
    spec: &WorkloadSpec,
    run: UnitRun<'_>,
) -> Result<UnitOutcome> {
    let UnitRun {
        body,
        unit,
        depth,
        init,
        record,
    } = run;
    let mut tape = unit.tape.clone();
    let mut obs = UnitObservation {
        root: root_of_tape(&tape),
        retrieved: Vec::new(),
        hops: Vec::new(),
        records: Vec::new(),
    };
    let mut deferred = Vec::new();
    let mut ctx = Ctx {
        sel: init.sel,
        iter_depth: init.iter_depth,
        loop_nr: unit.loop_nr,
        depth,
        ..Ctx::default()
    };
    let mut picks = PickSource::Tape(&mut tape);
    let mut mode = if record {
        Mode::Record {
            obs: &mut obs,
            deferred: &mut deferred,
        }
    } else {
        Mode::Inline
    };
    exec_linear(refs, spec, &mut surf, &mut picks, &mut ctx, &mut mode, body)?;
    Ok(UnitOutcome {
        obs,
        deferred,
        nav_seen: ctx.nav_seen,
        scanned: ctx.scanned,
        updates: ctx.updates,
        final_sel: ctx.sel,
        final_iter_depth: ctx.iter_depth,
    })
}

/// Aggregate of one full shared-surface walk of a plan's segments.
struct SharedExec {
    observations: Vec<UnitObservation>,
    deferred: DeferredUpdates,
    nav_seen: Vec<u64>,
    scanned: u64,
    updates: u64,
    top_iters: u64,
    requests: u64,
    elapsed: Duration,
}

// ---- the executor -----------------------------------------------------------

impl Executor {
    /// Creates an executor over the loaded objects (`refs` as returned by
    /// [`ComplexObjectStore::load`]) with a measurement seed.
    pub fn new(refs: Vec<ObjRef>, seed: u64) -> Executor {
        Executor { refs, seed }
    }

    /// Number of loaded objects.
    pub fn n_objects(&self) -> usize {
        self.refs.len()
    }

    /// The loaded object references, in load (OID) order.
    pub fn refs(&self) -> &[ObjRef] {
        &self.refs
    }

    /// The measurement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec's deterministic RNG: seed + stream·stride, so every
    /// storage model (and every run mode) draws the identical sequence.
    fn spec_rng(&self, spec: &WorkloadSpec) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_add(spec.stream.wrapping_mul(STREAM_STRIDE)),
        )
    }

    /// Runs `spec` serially under the paper's measurement protocol: cold
    /// start, stream the ops, count the disconnect flush, normalize per
    /// the spec's unit.
    pub fn run(
        &self,
        store: &mut dyn ComplexObjectStore,
        spec: &WorkloadSpec,
    ) -> Result<PlanOutcome> {
        let mut rng = self.spec_rng(spec);
        let (ctx, snapshot) = measured(store, |store| {
            let mut ctx = Ctx::default();
            let mut surf = SerialSurface(store);
            let mut picks = PickSource::Rng(&mut rng);
            let streamed = exec_linear(
                &self.refs,
                spec,
                &mut surf,
                &mut picks,
                &mut ctx,
                &mut Mode::Inline,
                &spec.ops,
            );
            match streamed {
                Ok(()) => surf.flush().map(|()| Some(ctx)),
                Err(CoreError::Unsupported { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        })?;
        Ok(match ctx {
            Some(ctx) => PlanOutcome::Measured(PlanRun {
                snapshot,
                units: spec.unit.resolve(ctx.top_iters, ctx.scanned),
                nav_seen: ctx.nav_seen,
                scanned: ctx.scanned,
                updates_applied: ctx.updates,
            }),
            None => PlanOutcome::Unsupported,
        })
    }

    /// The multi-client protocol between cold start and snapshot. Read
    /// phase: walks the plan's segments over the shared surface — serial
    /// segments and the planning pass on the coordinator, dealt units
    /// round-robin across `threads`, outcomes merged back in plan order.
    /// Then the deferred updates as one list in plan order
    /// ([`Surface::apply_deferred`]; empty when `record` is off — the
    /// stream applied them inline), then the disconnect flush. `Ok(None)`
    /// is the paper's "not relevant" marker (an op the model cannot
    /// execute).
    ///
    /// A failing update fails the run, and the surfaces that spread the
    /// list (writer threads, node jobs) do not stop each other: the
    /// failing share stops at its failing entry while the other shares may
    /// have applied entries that come later in plan order, and nothing is
    /// flushed. The store is then mid-run, as after any `Err`.
    fn serve<S: Surface + Copy + Sync>(
        &self,
        mut surf: S,
        spec: &WorkloadSpec,
        threads: usize,
        record: bool,
    ) -> Result<Option<SharedExec>> {
        let mut rng = self.spec_rng(spec);
        let plan = plan_concurrent(&self.refs, spec, &mut rng)?;

        let mut agg = SharedExec {
            observations: Vec::new(),
            deferred: Vec::new(),
            nav_seen: Vec::new(),
            scanned: 0,
            updates: 0,
            top_iters: plan.top_iters,
            requests: plan.requests,
            elapsed: Duration::ZERO,
        };
        let mut carried = Carried::default();

        let t0 = Instant::now();
        for ps in &plan.segments {
            let outcomes: Vec<UnitOutcome> = match &ps.seg {
                // Coordinator-run: inherits the selection / hop index the
                // serial interpreter would carry into these ops.
                Segment::Serial(ops) | Segment::Whole(ops) => {
                    let init = std::mem::take(&mut carried);
                    let unit = UnitRun {
                        body: ops,
                        unit: &ps.units[0],
                        depth: 0,
                        init,
                        record,
                    };
                    match run_unit(surf, &self.refs, spec, unit) {
                        Ok(o) => vec![o],
                        Err(CoreError::Unsupported { .. }) => return Ok(None),
                        Err(e) => return Err(e),
                    }
                }
                // Dealt units: each iteration establishes (or never reads)
                // its selection, so it starts from a fresh context.
                Segment::Units { body, .. } => {
                    let units = &ps.units;
                    let exec_one = |i: usize| {
                        run_unit(
                            surf,
                            &self.refs,
                            spec,
                            UnitRun {
                                body,
                                unit: &units[i],
                                depth: 1,
                                init: Carried::default(),
                                record,
                            },
                        )
                    };
                    type Batch = Result<Vec<(usize, UnitOutcome)>>;
                    let batches: Vec<Batch> = if threads == 1 {
                        vec![(0..units.len()).map(|i| Ok((i, exec_one(i)?))).collect()]
                    } else {
                        std::thread::scope(|s| {
                            let handles: Vec<_> = (0..threads)
                                .map(|t| {
                                    let exec_one = &exec_one;
                                    s.spawn(move || -> Batch {
                                        let mut out = Vec::new();
                                        for i in (t..units.len()).step_by(threads) {
                                            out.push((i, exec_one(i)?));
                                        }
                                        Ok(out)
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("client thread panicked"))
                                .collect()
                        })
                    };
                    let mut slots: Vec<Option<UnitOutcome>> =
                        (0..units.len()).map(|_| None).collect();
                    for b in batches {
                        match b {
                            Ok(items) => {
                                for (i, o) in items {
                                    slots[i] = Some(o);
                                }
                            }
                            Err(CoreError::Unsupported { .. }) => return Ok(None),
                            Err(e) => return Err(e),
                        }
                    }
                    slots
                        .into_iter()
                        .map(|s| s.expect("every unit executed"))
                        .collect()
                }
            };
            // Merge in plan order; the last unit's interpreter state is
            // what a serial run would carry into the next segment.
            for out in outcomes {
                for (d, n) in out.nav_seen.iter().enumerate() {
                    if d >= agg.nav_seen.len() {
                        agg.nav_seen.resize(d + 1, 0);
                    }
                    agg.nav_seen[d] += n;
                }
                agg.scanned += out.scanned;
                agg.updates += out.updates;
                agg.deferred.extend(out.deferred);
                carried = Carried {
                    sel: out.final_sel,
                    iter_depth: out.final_iter_depth,
                };
                agg.observations.push(out.obs);
            }
        }
        agg.elapsed = t0.elapsed();

        let updates: Vec<Update<'_>> = agg
            .deferred
            .iter()
            .map(|(sel, patch, loop_nr)| {
                let new_name = patch.materialize(*loop_nr);
                (sel.as_slice(), RootPatch { new_name })
            })
            .collect();
        surf.apply_deferred(&updates, threads)?;
        surf.flush()?;
        Ok(Some(agg))
    }

    /// Runs `spec` with `threads` client threads sharing `store` under the
    /// measurement protocol. See the `executor` module docs for the execution
    /// model. Top-level loop iterations are dealt to threads whole — scans,
    /// key selections and nested loops included; the only rejected shape is
    /// a loop whose body consumes the previous iteration's selection before
    /// establishing its own ([`CoreError::Unsupported`]).
    pub fn run_concurrent(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        spec: &WorkloadSpec,
        threads: usize,
    ) -> Result<ConcurrentPlanRun> {
        let threads = threads.max(1);
        let (exec, snapshot) = measured(store, |store| {
            self.serve(SharedSurface(&*store), spec, threads, true)
        })?;
        Ok(ConcurrentPlanRun::new(spec, exec, snapshot, threads))
    }

    /// Runs `spec` against a [`PartitionedStore`] through the routed
    /// dispatch front-end: `clients` client threads deal units exactly like
    /// [`run_concurrent`](Self::run_concurrent), but every plan step runs
    /// as one job on each owning node's queue, served by
    /// `workers_per_node` worker threads per node (at least one;
    /// [`with_cluster_router`]). The
    /// measurement protocol is the same code (cold start, read phase,
    /// deferred updates in plan order, disconnect flush), so:
    ///
    /// * answers, fix totals and per-node disk bytes are invariant across
    ///   `clients` × `workers_per_node`, and equal to a serially-driven
    ///   cluster's;
    /// * with 1 node × 1 worker × 1 client the whole [`PlanRun`] replays
    ///   the serial run counter for counter (read-only plans; plans with
    ///   updates defer them like `run_concurrent`, which can move physical
    ///   write timing but never the final bytes).
    pub fn run_cluster(
        &self,
        cluster: &mut PartitionedStore,
        spec: &WorkloadSpec,
        clients: usize,
        workers_per_node: usize,
    ) -> Result<ClusterRun> {
        let clients = clients.max(1);
        let workers_per_node = workers_per_node.max(1);
        let ((exec, queue_high_water), snapshot) = measured(cluster, |cluster| {
            with_cluster_router(cluster, workers_per_node, |router| {
                let exec = self.serve(RoutedSurface(router), spec, clients, true)?;
                Ok((exec, router.queue_high_water()))
            })
        })?;
        Ok(ClusterRun {
            run: ConcurrentPlanRun::new(spec, exec, snapshot, clients),
            workers_per_node,
            queue_high_water,
        })
    }

    /// Serves `spec` as a mixed read/write request stream from `threads`
    /// clients over `store`: same unit dealing as
    /// [`run_concurrent`](Self::run_concurrent), but updates run **inline**
    /// in the serving threads and nothing is recorded beyond the counters.
    ///
    /// This is a **throughput harness**, not a differential: requests race
    /// by design (a read may observe either side of a concurrent update),
    /// but per-page latches guarantee every observation is a consistent,
    /// untorn object, and updates to the same object serialize. The final
    /// flush runs through the writer-quiescing shared surface.
    pub fn run_stream(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        spec: &WorkloadSpec,
        threads: usize,
    ) -> Result<MixedRun> {
        let threads = threads.max(1);
        let (exec, snapshot) = measured(store, |store| {
            self.serve(SharedSurface(&*store), spec, threads, false)
        })?;
        let exec = exec.ok_or(CoreError::Unsupported {
            model: "plan executor",
            op: "mixed-stream execution of an op the storage model rejects",
        })?;
        Ok(MixedRun {
            requests: exec.requests,
            updates: exec.updates,
            elapsed: exec.elapsed,
            threads,
            snapshot,
        })
    }
}

/// The frame every run mode measures in: cold start (buffer emptied, prior
/// dirty pages flushed *before* the counters reset), `body` — which ends
/// with its own disconnect flush —, counter delta.
fn measured<C: ComplexObjectStore + ?Sized, T>(
    store: &mut C,
    body: impl FnOnce(&mut C) -> Result<T>,
) -> Result<(T, IoSnapshot)> {
    store.clear_cache()?;
    store.reset_stats();
    let before = store.snapshot();
    let out = body(store)?;
    Ok((out, store.snapshot() - before))
}

impl ConcurrentPlanRun {
    /// The multi-client result shape; `None` is the paper's "not relevant"
    /// marker (the model does not support an op of the plan — query 1a
    /// under pure NSM).
    fn new(
        spec: &WorkloadSpec,
        exec: Option<SharedExec>,
        snapshot: IoSnapshot,
        threads: usize,
    ) -> ConcurrentPlanRun {
        let Some(exec) = exec else {
            return ConcurrentPlanRun {
                outcome: PlanOutcome::Unsupported,
                observations: Vec::new(),
                elapsed: Duration::ZERO,
                threads,
            };
        };
        ConcurrentPlanRun {
            outcome: PlanOutcome::Measured(PlanRun {
                snapshot,
                units: spec.unit.resolve(exec.top_iters, exec.scanned),
                nav_seen: exec.nav_seen,
                scanned: exec.scanned,
                updates_applied: exec.updates,
            }),
            observations: exec.observations,
            elapsed: exec.elapsed,
            threads,
        }
    }
}

impl NormUnit {
    /// The normalization denominator of a run that executed `top_iters`
    /// top-level loop iterations and scanned `scanned` objects.
    fn resolve(self, top_iters: u64, scanned: u64) -> u64 {
        match self {
            NormUnit::Loops => top_iters.max(1),
            NormUnit::ScannedObjects => scanned.max(1),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{Count, MixKind, ProjSpec};
    use crate::{generate, DatasetParams};
    use starfish_core::{make_shared_store, make_store, ModelKind, StoreConfig};
    use starfish_nf2::Key;
    use starfish_pagestore::StoreError;

    /// The fixture every unit test of this crate runs on: 60 objects.
    pub(crate) fn small_db() -> Vec<starfish_nf2::station::Station> {
        generate(&DatasetParams {
            n_objects: 60,
            seed: 99,
            ..Default::default()
        })
    }

    pub(crate) fn serial_setup(kind: ModelKind) -> (Box<dyn ComplexObjectStore>, Executor) {
        let db = small_db();
        let mut store = make_store(kind, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        (store, Executor::new(refs, 7))
    }

    fn small_cluster(kind: ModelKind, nodes: usize) -> (PartitionedStore, Executor) {
        let placement = starfish_core::Placement::RoundRobin;
        let mut cluster = PartitionedStore::new(kind, nodes, placement, StoreConfig::default());
        let refs = cluster.load(&small_db()).unwrap();
        (cluster, Executor::new(refs, 7))
    }

    /// [`serial_setup`] over a shared pool of `shards` shards.
    pub(crate) fn shared_setup(
        kind: ModelKind,
        shards: usize,
    ) -> (Box<dyn ConcurrentObjectStore>, Executor) {
        let mut store = make_shared_store(kind, StoreConfig::default(), shards);
        let refs = store.load(&small_db()).unwrap();
        (store, Executor::new(refs, 7))
    }

    #[test]
    fn split_by_object_is_disjoint_stable_and_occurrence_preserving() {
        let r = |o: u32| ObjRef {
            oid: Oid(o),
            key: o as Key,
        };
        let patch = |name: &str| RootPatch {
            new_name: name.into(),
        };
        // Object 1 appears three times in the first entry and again in
        // both later ones; object 5 is new in the last.
        let entries = [
            vec![r(1), r(2), r(1), r(3), r(4), r(1)],
            vec![r(3), r(1)],
            vec![r(5), r(1), r(2)],
        ];
        let updates: Vec<Update<'_>> = entries
            .iter()
            .zip(["a", "b", "c"])
            .map(|(refs, name)| (refs.as_slice(), patch(name)))
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let parts = split_by_object(&updates, threads).unwrap();
            assert_eq!(parts.len(), threads);
            let total: usize = parts.iter().flatten().map(|(refs, _)| refs.len()).sum();
            assert_eq!(total, 11, "occurrences preserved");
            // Disjointness across the whole list: one writer per object,
            // which sees the object's patches in plan order.
            for oid in 1u32..=5 {
                let holders: Vec<&UpdatePart> = parts
                    .iter()
                    .filter(|p| p.iter().any(|(refs, _)| refs.contains(&r(oid))))
                    .collect();
                assert_eq!(holders.len(), 1, "oid {oid} split across {threads} threads");
                let seen: Vec<&str> = holders[0]
                    .iter()
                    .filter(|(refs, _)| refs.contains(&r(oid)))
                    .map(|(_, patch)| patch.new_name.as_str())
                    .collect();
                assert!(seen.is_sorted(), "oid {oid}: {seen:?}");
            }
        }
        // One writer keeps the serial list exactly.
        let serial = &split_by_object(&updates, 1).unwrap()[0];
        assert_eq!(serial.len(), 3);
        for ((refs, patch), (want, want_patch)) in serial.iter().zip(&updates) {
            assert_eq!((refs.as_slice(), patch), (*want, want_patch));
        }
    }

    #[test]
    fn deep_nav_records_every_hop() {
        let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
        let spec = WorkloadSpec::deep_nav();
        let run = exec
            .run(store.as_mut(), &spec)
            .unwrap()
            .run()
            .cloned()
            .unwrap();
        assert_eq!(run.units, 6, "60/10 loops");
        assert_eq!(run.nav_seen.len(), 4, "4 hops recorded");
        assert!(run.nav_seen[0] > 0);
        assert!(run.snapshot.fixes > 0);
    }

    #[test]
    fn access_sequence_is_model_invariant() {
        // Same spec + same seed ⇒ identical units / hop counts / scans on
        // every model, whatever the physical layout does.
        for spec in [
            WorkloadSpec::deep_nav(),
            WorkloadSpec::hot_set(),
            WorkloadSpec::scan_then_update(),
        ] {
            let mut shapes = Vec::new();
            for kind in ModelKind::all() {
                let (mut store, exec) = serial_setup(kind);
                let run = exec
                    .run(store.as_mut(), &spec)
                    .unwrap()
                    .run()
                    .cloned()
                    .unwrap();
                shapes.push((
                    run.units,
                    run.nav_seen.clone(),
                    run.scanned,
                    run.updates_applied,
                ));
            }
            for w in shapes.windows(2) {
                assert_eq!(
                    w[0], w[1],
                    "{}: access sequence moved across models",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn hot_set_concentrates_picks() {
        let db = small_db();
        let mut store = make_store(ModelKind::Dsm, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs.clone(), 7);
        // Draw the hot-set pick through the shared pick interpreter and
        // check the skew is real.
        let spec = WorkloadSpec::hot_set();
        let pick = Op::PickSkewed {
            hot: 16,
            pct_hot: 90,
            drift: None,
        };
        let mut rng = exec.spec_rng(&spec);
        let roots: Vec<ObjRef> = (0..2400u64)
            .map(|l| draw_for_op(&refs, &mut rng, &pick, l).unwrap()[0])
            .collect();
        let hot_hits = roots.iter().filter(|r| (r.oid.0 as u64) < 16).count();
        assert!(
            hot_hits * 10 > roots.len() * 7,
            "expected ≥70% hot picks, got {hot_hits}/{}",
            roots.len()
        );
    }

    #[test]
    fn drift_slides_the_hot_window() {
        // With drift, late iterations concentrate on a *shifted* window;
        // without, the window never moves. Same stream, same draws.
        let db = small_db();
        let mut store = make_store(ModelKind::Dsm, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        let n = refs.len();
        let drifting = Op::PickSkewed {
            hot: 8,
            pct_hot: 100,
            drift: Some(Drift {
                shift: 10,
                period: 1,
            }),
        };
        let mut rng = StdRng::seed_from_u64(5);
        for t in [0u64, 3] {
            let offset = (t as usize * 10) % n;
            for _ in 0..40 {
                let r = draw_for_op(&refs, &mut rng, &drifting, t).unwrap()[0];
                let pos = refs.iter().position(|x| x == &r).unwrap();
                let rel = (pos + n - offset) % n;
                assert!(
                    rel < 8,
                    "t={t}: pick at {pos} outside window of offset {offset}"
                );
            }
        }
    }

    #[test]
    fn units_of_agrees_with_the_interpreter() {
        // The pre-computed denominator must equal what run() reports, also
        // for loop-free and multi-op plans (loop preceded by a scan).
        for spec in [
            WorkloadSpec::q1b(),
            WorkloadSpec::q2b(),
            WorkloadSpec::deep_nav(),
            WorkloadSpec::scan_then_update(),
        ] {
            let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
            let run = exec
                .run(store.as_mut(), &spec)
                .unwrap()
                .run()
                .cloned()
                .unwrap();
            assert_eq!(spec.units(exec.refs().len()), run.units, "{}", spec.name);
        }
    }

    #[test]
    fn scan_then_update_writes_and_counts() {
        let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
        let spec = WorkloadSpec::scan_then_update();
        let run = exec
            .run(store.as_mut(), &spec)
            .unwrap()
            .run()
            .cloned()
            .unwrap();
        assert_eq!(run.units, 24);
        assert_eq!(run.scanned, 60);
        assert_eq!(run.updates_applied, 24);
        assert!(run.snapshot.pages_written > 0, "updates must write");
    }

    #[test]
    fn mix_gating_controls_stream_updates() {
        let db = small_db();
        for mix in MixKind::all() {
            let mut store = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
            let refs = store.load(&db).unwrap();
            let exec = Executor::new(refs, 7);
            let spec = WorkloadSpec::mixed(mix);
            let run = exec.run_stream(store.as_mut(), &spec, 2).unwrap();
            assert_eq!(run.requests, 12);
            let want = (0..12).filter(|&i| mix.is_update(i)).count() as u64;
            assert_eq!(run.updates, want, "{}", mix.name());
            if mix == MixKind::ReadOnly {
                assert_eq!(run.snapshot.pages_written, 0);
            } else {
                assert!(run.snapshot.pages_written > 0);
            }
        }
    }

    #[test]
    fn concurrent_accepts_scan_key_and_nested_loop_plans() {
        // The shapes the pre-drift executor rejected: key selection, full
        // scans and nested loops all deal to threads now, with serial-equal
        // answers at any thread count (read-only, so exact equality holds).
        let nested = WorkloadSpec {
            name: "nested".into(),
            description: String::new(),
            stream: 91,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(5),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::Loop {
                        count: Count::Fixed(2),
                        body: vec![
                            Op::PickRandom { n: 2 },
                            Op::GetByOid {
                                proj: ProjSpec::All,
                            },
                        ],
                    },
                ],
            }],
        };
        let db = small_db();
        for spec in [WorkloadSpec::q1b(), WorkloadSpec::q1c(), nested] {
            let mut serial = make_store(ModelKind::Dsm, StoreConfig::default());
            let refs = serial.load(&db).unwrap();
            let want = Executor::new(refs, 7).run(serial.as_mut(), &spec).unwrap();

            let mut base: Option<Vec<UnitObservation>> = None;
            for threads in [1usize, 4] {
                let mut shared = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
                let refs = shared.load(&db).unwrap();
                let got = Executor::new(refs, 7)
                    .run_concurrent(shared.as_mut(), &spec, threads)
                    .unwrap();
                assert_eq!(got.outcome, want, "{}@{threads}", spec.name);
                match &base {
                    None => base = Some(got.observations),
                    Some(w) => assert_eq!(&got.observations, w, "{}@{threads}", spec.name),
                }
            }
        }
    }

    #[test]
    fn concurrent_rejects_consume_before_establish_loops() {
        // A loop body that reads the selection before establishing one
        // depends on the previous iteration — the one undealable shape.
        let spec = WorkloadSpec {
            name: "carry".into(),
            description: String::new(),
            stream: 92,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![
                Op::PickRandom { n: 1 },
                Op::Loop {
                    count: Count::Fixed(3),
                    body: vec![Op::NavigateChildren { depth: 1 }],
                },
            ],
        };
        let db = small_db();
        let mut store = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 7);
        assert!(matches!(
            exec.run_concurrent(store.as_mut(), &spec, 2),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn concurrent_matches_serial_for_custom_plans() {
        // A non-paper plan measured concurrently at 1 thread × 1 shard must
        // equal its serial measurement, exactly like the paper queries.
        let spec = WorkloadSpec {
            name: "custom".into(),
            description: String::new(),
            stream: 77,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(9),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::GetByOid {
                        proj: ProjSpec::All,
                    },
                    Op::NavigateChildren { depth: 3 },
                    Op::FetchRoots,
                ],
            }],
        };
        let db = small_db();
        for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
            let mut serial = make_store(kind, StoreConfig::default());
            let refs = serial.load(&db).unwrap();
            let want = Executor::new(refs, 7).run(serial.as_mut(), &spec).unwrap();

            let mut shared = make_shared_store(kind, StoreConfig::default(), 1);
            let refs = shared.load(&db).unwrap();
            let got = Executor::new(refs, 7)
                .run_concurrent(shared.as_mut(), &spec, 1)
                .unwrap();
            assert_eq!(got.outcome, want, "{kind}");
            assert_eq!(got.observations.len(), 9);
        }
    }

    #[test]
    fn concurrent_observations_are_thread_count_invariant() {
        let spec = WorkloadSpec::deep_nav();
        let db = small_db();
        let mut base: Option<Vec<UnitObservation>> = None;
        for threads in [1usize, 3] {
            let mut store =
                make_shared_store(ModelKind::NsmIndexed, StoreConfig::default(), threads);
            let refs = store.load(&db).unwrap();
            let got = Executor::new(refs, 7)
                .run_concurrent(store.as_mut(), &spec, threads)
                .unwrap();
            match &base {
                None => base = Some(got.observations),
                Some(want) => assert_eq!(&got.observations, want, "{threads} threads"),
            }
        }
    }

    #[test]
    fn malformed_phases_are_typed_errors_in_every_run_mode() {
        // `WorkloadSpec.ops` is public and only `from_json` validates, so a
        // hand-built phase can be empty or hold a non-pick op, and a
        // hand-built update prefix can be longer than 40 bytes: every entry
        // point must answer with an error, not an index, `unreachable!` or
        // `String::truncate` panic.
        let looped = |body: Vec<Op>| WorkloadSpec {
            name: "bad-spec".into(),
            description: String::new(),
            stream: 93,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(2),
                body,
            }],
        };
        let phase = |picks: Vec<Op>| {
            looped(vec![
                Op::Phase { every: 1, picks },
                Op::NavigateChildren { depth: 1 },
            ])
        };
        let prefixed = |prefix: String| {
            looped(vec![
                Op::PickRandom { n: 1 },
                Op::UpdateRoots {
                    patch: PatchSpec::Prefixed(prefix),
                },
            ])
        };
        fn not_found(e: &CoreError) -> bool {
            matches!(e, CoreError::NotFound { .. })
        }
        fn size_changed(e: &CoreError) -> bool {
            matches!(
                e,
                CoreError::Store(StoreError::SizeChanged { old: 100, .. })
            )
        }
        let cases = [
            (phase(vec![]), not_found as fn(&CoreError) -> bool),
            (phase(vec![Op::ScanAll]), not_found),
            // Byte 100 falls inside a multi-byte character.
            (prefixed("€".repeat(40)), size_changed),
            // Cutting at 100 bytes would drop the loop number.
            (prefixed("p".repeat(98)), size_changed),
        ];
        for (spec, expected) in cases {
            let (mut serial, exec) = serial_setup(ModelKind::Dsm);
            let (mut shared, _) = shared_setup(ModelKind::Dsm, 2);
            let mut cluster = small_cluster(ModelKind::Dsm, 2).0;
            let outcomes = [
                ("run", exec.run(serial.as_mut(), &spec).err()),
                (
                    "run_concurrent",
                    exec.run_concurrent(shared.as_mut(), &spec, 2).err(),
                ),
                (
                    "run_stream",
                    exec.run_stream(shared.as_mut(), &spec, 2).err(),
                ),
                (
                    "run_cluster",
                    exec.run_cluster(&mut cluster, &spec, 2, 1).err(),
                ),
            ];
            for (mode, err) in outcomes {
                assert!(
                    err.as_ref().is_some_and(expected),
                    "{mode} on {:?}: {err:?}",
                    spec.ops
                );
            }
        }
    }

    #[test]
    fn routed_step_is_one_job_per_node() {
        // A client has at most one job per node in flight — a navigation
        // or fetch-roots step is one batch per owning node, the deferred
        // tail one job per node — so no queue is ever deeper than the
        // client count, and every node is handed at least its flush.
        for spec in [WorkloadSpec::q2b(), WorkloadSpec::q3b()] {
            for clients in [1usize, 2] {
                let (mut cluster, exec) = small_cluster(ModelKind::DasdbsNsm, 2);
                let served = exec.run_cluster(&mut cluster, &spec, clients, 1).unwrap();
                let run = served.run.outcome.run().unwrap();
                assert!(run.nav_hop(1) >= 2, "needs a fan-out >= 2");
                for hw in served.queue_high_water {
                    assert!(
                        (1..=clients as u64).contains(&hw),
                        "{}@{clients}: queue high water {hw}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn routed_batches_answer_in_input_order() {
        // Refs interleaved across 3 nodes, duplicates included, and the
        // empty step: the per-node batches are dealt back element for
        // element into what the cluster's own routing answers.
        let (mut cluster, exec) = small_cluster(ModelKind::DasdbsNsm, 3);
        let r = exec.refs();
        let interleaved = [r[4], r[0], r[5], r[4], r[2], r[1], r[0], r[9], r[4]];
        let steps = [&interleaved[..], &[]];
        let want: Vec<_> = steps
            .iter()
            .map(|refs| {
                let children = cluster.children_of(refs).unwrap();
                (children, cluster.root_records(refs).unwrap())
            })
            .collect();
        with_cluster_router(&cluster, 2, |router| {
            let mut surf = RoutedSurface(router);
            for (refs, (children, roots)) in steps.iter().zip(&want) {
                assert_eq!(&surf.children_of(refs).unwrap(), children);
                assert_eq!(&surf.root_records(refs).unwrap(), roots);
            }
        });
    }

    #[test]
    fn routed_step_with_an_unknown_ref_queues_nothing() {
        let (cluster, exec) = small_cluster(ModelKind::DasdbsNsm, 2);
        let unknown = ObjRef {
            oid: Oid(9999),
            key: 0,
        };
        let refs = [exec.refs()[0], exec.refs()[1], unknown];
        let patch = RootPatch {
            new_name: "N".repeat(100),
        };
        with_cluster_router(&cluster, 1, |router| {
            let mut surf = RoutedSurface(router);
            let not_found = |e: Option<CoreError>| matches!(e, Some(CoreError::NotFound { .. }));
            assert!(not_found(surf.children_of(&refs).err()));
            assert!(not_found(surf.root_records(&refs).err()));
            assert!(not_found(surf.update_roots(&refs, &patch).err()));
            let good = (&refs[..2], patch.clone());
            let bad = (&refs[..], patch.clone());
            assert!(not_found(surf.apply_deferred(&[good, bad], 1).err()));
            assert_eq!(router.queue_high_water(), vec![0, 0]);
        });
    }

    #[test]
    fn routed_update_tail_keeps_plan_order_at_any_worker_count() {
        // The tail is one job per node, so it runs on one worker however
        // many the node has: same-object updates of successive units land
        // in plan order and every node's disk is the serial cluster's.
        let spec = WorkloadSpec::q3b();
        let (mut serial, exec) = small_cluster(ModelKind::DasdbsNsm, 2);
        exec.run(&mut serial, &spec).unwrap();
        for workers in [1usize, 4] {
            let (mut cluster, exec) = small_cluster(ModelKind::DasdbsNsm, 2);
            let served = exec.run_cluster(&mut cluster, &spec, 2, workers).unwrap();
            assert!(served.run.outcome.run().unwrap().updates_applied > 1);
            assert_eq!(
                cluster.node_checksums(),
                serial.node_checksums(),
                "{workers} workers/node"
            );
        }
    }
}
