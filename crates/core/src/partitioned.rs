//! Multi-node partitioning: the paper's closing hypothesis, §5.5.
//!
//! > "Notice, however, that in a distributed system the data skew might
//! > cause more effects, which could possibly be distinguishing for the
//! > storage models as well. For, with data skew the disk I/Os are likely
//! > to be less equally distributed over the nodes if we store a single
//! > object on a single node."
//!
//! [`PartitionedStore`] implements exactly that setup: a shared-nothing
//! cluster of `n` nodes, each running its own store of the same model over
//! its own disk and buffer, with **every object placed whole on one node**.
//! Navigation routes each object access to its owner; per-node I/O counters
//! expose the load distribution the paper speculates about (see the
//! harness's `ext-distributed` report).
//!
//! # Concurrent serving
//!
//! Every node is a [`ConcurrentObjectStore`] over its own sharded
//! [`SharedBufferPool`](starfish_pagestore::SharedBufferPool) (optionally
//! with a per-node WAL and batched I/O engine — whatever the
//! [`StoreConfig`] carries applies to each node). The cluster itself
//! implements both surfaces:
//!
//! * the serial [`ComplexObjectStore`] methods route each op to its owner
//!   and run it to completion — with one shard per node this replays the
//!   paper's serial measurements counter for counter;
//! * the `&self` [`ConcurrentObjectStore`] methods do the same routing but
//!   are callable from N client threads at once; cross-node ops (scans,
//!   flushes) fan out and merge in ascending node order, so answers are
//!   deterministic.
//!
//! [`with_cluster_router`] adds the serving topology on top: one job
//! queue and one pool of scoped worker threads **per node**. The whole
//! protocol is [`ClusterRouter::on_node`] — run this closure against node
//! *n*'s store on one of its workers and hand back its typed result
//! ([`Pending`]) — so a routed op is the `shared_*` call it is on a single
//! store, made on the owner's worker; [`ClusterRouter::owner`] names that
//! node. Lock order is unchanged (gate → shards ascending → disk → log,
//! per node); the queue and result-slot mutexes are client-side and are
//! never held across a store call (a worker pops a job, releases the
//! queue, then runs it), so they sit outside (above) the per-node order
//! and cannot participate in a cycle.

use crate::concurrent::{make_shared_store, ConcurrentObjectStore};
use crate::traits::{ComplexObjectStore, ObjRef, RelationInfo, RootPatch};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::Station;
use starfish_nf2::{Key, Oid, Projection, Tuple};
use starfish_pagestore::{BufferStats, IoSnapshot};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Object-to-node placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Object `i` goes to node `i mod n` (the balanced baseline).
    RoundRobin,
}

/// A shared-nothing cluster of single-model stores with whole-object
/// placement. Each node serves concurrently from its own sharded pool; see
/// the `partitioned` module docs.
pub struct PartitionedStore {
    kind: ModelKind,
    nodes: Vec<Box<dyn ConcurrentObjectStore>>,
    /// Global ordinal → (node, node-local ref).
    locate: Vec<(usize, ObjRef)>,
    key_to_global: HashMap<Key, usize>,
    refs: Vec<ObjRef>,
}

impl PartitionedStore {
    /// Builds an empty cluster of `n_nodes` stores of `kind`, one pool
    /// shard per node — the configuration that replays serial measurements
    /// counter for counter. Each node gets its own buffer of
    /// `config.buffer.pages` pages — pass a per-node budget (e.g. total/n)
    /// for memory-fair comparisons against a single node.
    pub fn new(kind: ModelKind, n_nodes: usize, placement: Placement, config: StoreConfig) -> Self {
        Self::with_shards(kind, n_nodes, placement, config, 1)
    }

    /// Builds an empty cluster whose nodes each run `shards_per_node`
    /// lock-striped pool shards — the concurrent-serving configuration.
    /// Whatever `config` enables (WAL, batched I/O engine) applies to
    /// every node independently.
    pub fn with_shards(
        kind: ModelKind,
        n_nodes: usize,
        placement: Placement,
        config: StoreConfig,
        shards_per_node: usize,
    ) -> Self {
        assert!(n_nodes > 0, "need at least one node");
        let Placement::RoundRobin = placement;
        PartitionedStore {
            kind,
            nodes: (0..n_nodes)
                .map(|_| make_shared_store(kind, config.clone(), shards_per_node.max(1)))
                .collect(),
            locate: Vec::new(),
            key_to_global: HashMap::new(),
            refs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Which node owns global object `oid`.
    pub fn node_of(&self, oid: Oid) -> Result<usize> {
        self.locate
            .get(oid.0 as usize)
            .map(|(n, _)| *n)
            .ok_or_else(|| self.unknown_object(oid))
    }

    /// Per-node I/O snapshots — the load-distribution view of §5.5.
    pub fn node_snapshots(&self) -> Vec<IoSnapshot> {
        self.nodes.iter().map(|n| n.snapshot()).collect()
    }

    /// Per-node on-disk fingerprints, for byte-identity checks against a
    /// serially-driven oracle cluster (node order is placement order, so
    /// two equally-configured clusters compare element for element).
    pub fn node_checksums(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.disk_checksum()).collect()
    }

    /// The out-of-range error for `oid`, naming the cluster shape so a
    /// mis-routed request is debuggable from the message alone.
    fn unknown_object(&self, oid: Oid) -> CoreError {
        CoreError::NotFound {
            what: format!(
                "object {oid}: cluster of {} nodes holds {} objects (#0..#{})",
                self.nodes.len(),
                self.locate.len(),
                self.locate.len().saturating_sub(1),
            ),
        }
    }

    /// A global catalog (uncounted, like the paper's address tables)
    /// routes a value selection to the owning node; the node still pays
    /// its model's local lookup cost.
    fn node_of_key(&self, key: Key) -> Result<usize> {
        let global = self.key_to_global.get(&key);
        Ok(self.locate[*global.ok_or_else(|| CoreError::no_such_key(key))?].0)
    }

    fn local(&self, r: &ObjRef) -> Result<(usize, ObjRef)> {
        self.locate
            .get(r.oid.0 as usize)
            .copied()
            .ok_or_else(|| self.unknown_object(r.oid))
    }
}

impl ComplexObjectStore for PartitionedStore {
    fn model(&self) -> ModelKind {
        self.kind
    }

    fn load(&mut self, stations: &[Station]) -> Result<Vec<ObjRef>> {
        let n = self.nodes.len();
        let mut per_node: Vec<Vec<Station>> = vec![Vec::new(); n];
        let mut node_and_local_ordinal = Vec::with_capacity(stations.len());
        self.key_to_global.clear();
        self.refs.clear();
        for (i, s) in stations.iter().enumerate() {
            let node = i % n;
            node_and_local_ordinal.push((node, per_node[node].len()));
            per_node[node].push(s.clone());
            self.key_to_global.insert(s.key, i);
            self.refs.push(ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            });
        }
        let mut local_refs: Vec<Vec<ObjRef>> = Vec::with_capacity(n);
        for (node, store) in self.nodes.iter_mut().enumerate() {
            local_refs.push(store.load(&per_node[node])?);
        }
        self.locate = node_and_local_ordinal
            .iter()
            .map(|&(node, ord)| (node, local_refs[node][ord]))
            .collect();
        Ok(self.refs.clone())
    }

    fn object_count(&self) -> usize {
        self.refs.len()
    }

    // The serial surface routes exactly like the shared one — one code
    // path, so serial runs and 1-client routed runs are the same ops in
    // the same order.

    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        self.shared_get_by_oid(oid, proj)
    }

    fn get_by_key(&mut self, key: Key, proj: &Projection) -> Result<Tuple> {
        self.shared_get_by_key(key, proj)
    }

    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        self.shared_scan_all(f)
    }

    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.shared_children_of(refs)
    }

    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        self.shared_root_records(refs)
    }

    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        self.shared_update_roots(refs, patch)
    }

    fn flush(&mut self) -> Result<()> {
        self.shared_flush()
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.shared_clear_cache()
    }

    fn reset_stats(&mut self) {
        for n in self.nodes.iter_mut() {
            n.reset_stats();
        }
    }

    fn snapshot(&self) -> IoSnapshot {
        // Every counter folds (WAL and engine counters included); the
        // queue-depth high-water keeps the max across nodes.
        self.nodes
            .iter()
            .map(|n| n.snapshot())
            .fold(IoSnapshot::default(), |mut acc, s| {
                acc.accumulate(&s);
                acc
            })
    }

    fn buffer_stats(&self) -> BufferStats {
        self.nodes
            .iter()
            .map(|n| n.buffer_stats())
            .fold(BufferStats::default(), |mut acc, s| {
                acc.accumulate(&s);
                acc
            })
    }

    fn relation_info(&self) -> Vec<RelationInfo> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| {
                n.relation_info().into_iter().map(move |mut ri| {
                    ri.name = format!("node{i}/{}", ri.name);
                    ri
                })
            })
            .collect()
    }

    fn database_pages(&self) -> u32 {
        self.nodes.iter().map(|n| n.database_pages()).sum()
    }

    fn disk_checksum(&self) -> u64 {
        // Order-sensitive combination of the per-node fingerprints.
        self.nodes
            .iter()
            .fold(0u64, |acc, n| acc.rotate_left(1) ^ n.disk_checksum())
    }
}

impl ConcurrentObjectStore for PartitionedStore {
    fn shared_get_by_oid(&self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        let (node, local) = self.local(&ObjRef { oid, key: 0 })?;
        self.nodes[node].shared_get_by_oid(local.oid, proj)
    }

    fn shared_get_by_key(&self, key: Key, proj: &Projection) -> Result<Tuple> {
        self.nodes[self.node_of_key(key)?].shared_get_by_key(key, proj)
    }

    fn shared_scan_all(&self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        // Fan out (each node scans once, ascending node order), then emit
        // in global object order — the deterministic cross-node merge.
        let n = self.nodes.len();
        let mut per_node: Vec<Vec<Tuple>> = Vec::with_capacity(n);
        for store in &self.nodes {
            let mut acc = Vec::new();
            store.shared_scan_all(&mut |t| acc.push(t.clone()))?;
            per_node.push(acc);
        }
        let mut cursors = vec![0usize; n];
        for &(node, _) in &self.locate {
            let t = &per_node[node][cursors[node]];
            cursors[node] += 1;
            f(t);
        }
        Ok(())
    }

    fn shared_children_of(&self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        // Route each object to its owner, preserving input order — in a
        // shared-nothing cluster every object access is a per-node request.
        let mut out = Vec::new();
        for r in refs {
            let (node, local) = self.local(r)?;
            out.extend(self.nodes[node].shared_children_of(&[local])?);
        }
        Ok(out)
    }

    fn shared_root_records(&self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        refs.iter()
            .map(|r| {
                let (node, local) = self.local(r)?;
                let mut rec = self.nodes[node].shared_root_records(&[local])?;
                rec.pop().ok_or_else(|| self.unknown_object(r.oid))
            })
            .collect()
    }

    fn shared_update_roots(&self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        for r in refs {
            let (node, local) = self.local(r)?;
            self.nodes[node].shared_update_roots(&[local], patch)?;
        }
        Ok(())
    }

    fn shared_flush(&self) -> Result<()> {
        for n in &self.nodes {
            n.shared_flush()?;
        }
        Ok(())
    }

    fn shared_clear_cache(&self) -> Result<()> {
        for n in &self.nodes {
            n.shared_clear_cache()?;
        }
        Ok(())
    }

    fn shard_stats(&self) -> Vec<BufferStats> {
        // Ascending node order, each node's shards in shard order.
        self.nodes.iter().flat_map(|n| n.shard_stats()).collect()
    }

    fn simulate_crash(&self) {
        for n in &self.nodes {
            n.simulate_crash();
        }
    }

    fn recover(&self) -> Result<usize> {
        let mut replayed = 0;
        for n in &self.nodes {
            replayed += n.recover()?;
        }
        Ok(replayed)
    }

    fn damage_log_tail(&self, bytes: u32) {
        for n in &self.nodes {
            n.damage_log_tail(bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// The cluster router: per-node job queues served by scoped worker threads
// ---------------------------------------------------------------------------

/// One unit of work queued on a node: it runs against that node's store on
/// one of the node's workers and deposits its own typed result.
type Job<'a> = Box<dyn FnOnce(&dyn ConcurrentObjectStore) + Send + 'a>;

/// How often a waiter (a client on its result slot, an idle worker on its
/// queue) yields the processor and looks again before it parks on the
/// condvar. A routed job runs for microseconds, and with clients + workers
/// outnumbering the processors a sleep and its wake-up cost more than the
/// job that is waited for. An uncontended `yield_now` is ≈ 0.25 µs and a
/// condvar sleep + wake ≈ 3–6 µs where this was sized, so the budget adds
/// up to about one park: a waiter spends at most about twice what parking
/// at once would have cost (competitive spinning), and when other threads
/// are runnable each yield runs them instead. A client yields only for a
/// job that was next in line when it was queued ([`NodeQueue::push`]):
/// behind a backlog the answer is not microseconds away, and hundreds of
/// clients yielding at once only keep the workers off the processors. The
/// condvar protocol underneath is unchanged, which is why this is not a
/// setting.
const YIELDS_BEFORE_PARK: u32 = 32;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct QueueState<'a> {
    jobs: VecDeque<Job<'a>>,
    /// High-water mark of queued (not yet executing) jobs — the
    /// client-side analogue of the I/O engine's `max_queue_depth`.
    max_depth: u64,
    shutdown: bool,
}

/// One node's submission queue and the store its workers serve.
struct NodeQueue<'a> {
    store: &'a dyn ConcurrentObjectStore,
    state: Mutex<QueueState<'a>>,
    /// Workers park here for new jobs (or shutdown).
    work_cond: Condvar,
    /// Worker threads serving this queue.
    workers: usize,
}

impl<'a> NodeQueue<'a> {
    fn new(store: &'a dyn ConcurrentObjectStore, workers: usize) -> Self {
        NodeQueue {
            store,
            workers,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                max_depth: 0,
                shutdown: false,
            }),
            work_cond: Condvar::new(),
        }
    }

    /// Queues `job` and says whether it is next in line — at most one
    /// queued job per worker ahead of it —, which is when its result is
    /// worth yielding for instead of parking at once.
    fn push(&self, job: Job<'a>) -> bool {
        let mut st = lock(&self.state);
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        st.max_depth = st.max_depth.max(depth as u64);
        drop(st);
        self.work_cond.notify_one();
        depth <= self.workers + 1
    }

    /// Worker loop: drain jobs until shutdown *and* an empty queue — work
    /// queued before shutdown always runs. The queue mutex is released
    /// before the job touches the store. An idle worker re-checks the
    /// queue [`YIELDS_BEFORE_PARK`] times before it parks; the check that
    /// precedes the park is made under the queue mutex `push` takes, so a
    /// job pushed while the worker was yielding is seen, never slept on.
    fn worker(&self) {
        let mut idle_yields = 0;
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break Some(job);
                    }
                    if st.shutdown {
                        return;
                    }
                    if idle_yields < YIELDS_BEFORE_PARK {
                        break None;
                    }
                    st = self.work_cond.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            match job {
                Some(job) => {
                    idle_yields = 0;
                    job(self.store);
                }
                None => {
                    idle_yields += 1;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Signals shutdown on every queue even if the client closure panics, so
/// scoped workers never park forever on the work condvar.
struct ShutdownGuard<'r, 'a>(&'r [NodeQueue<'a>]);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        for q in self.0 {
            lock(&q.state).shutdown = true;
            q.work_cond.notify_all();
        }
    }
}

struct Slot<T> {
    result: Mutex<Option<Result<T>>>,
    ready: Condvar,
}

/// The typed result of a job handed to [`ClusterRouter::on_node`], redeemed
/// by [`wait`](Pending::wait). Dropping it abandons the result; the job
/// still runs.
#[must_use = "a queued job's result (and its error) is only seen by waiting on it"]
pub struct Pending<T> {
    slot: Arc<Slot<T>>,
    /// The job was next in line when queued ([`NodeQueue::push`]).
    soon: bool,
}

impl<T> Pending<T> {
    /// Blocks until the job has run on one of its node's workers and
    /// returns what it returned — or [`CoreError::WorkerPanicked`] if it
    /// panicked (the worker survives and keeps serving its queue). For a
    /// job that was next in line it looks a bounded number of times,
    /// yielding in between, before it parks; the result is published under
    /// the slot's mutex and the check that precedes the park takes that
    /// mutex, so a result that arrives while the waiter was yielding is
    /// seen, never slept on.
    pub fn wait(self) -> Result<T> {
        let yields = if self.soon { YIELDS_BEFORE_PARK } else { 0 };
        for _ in 0..yields {
            if let Some(r) = lock(&self.slot.result).take() {
                return r;
            }
            std::thread::yield_now();
        }
        let mut result = lock(&self.slot.result);
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            result = self
                .slot
                .ready
                .wait(result)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The routed dispatch front-end over a [`PartitionedStore`]: one job
/// queue (with its own worker pool) per node. [`on_node`](Self::on_node)
/// is the whole protocol — a closure runs against a node's store on one of
/// that node's workers; [`owner`](Self::owner) and
/// [`owner_of_key`](Self::owner_of_key) say which node that is. A hand-off
/// costs about as much as a buffered object read, so callers batch: one
/// job per involved node carrying that node's share of the step, every job
/// queued before the first wait; waiting in ascending node order merges
/// the results deterministically. A waiter whose job is next in line
/// yields a bounded number of times before it parks, so a job that runs
/// for microseconds is usually answered without a sleep; behind a backlog
/// it parks at once.
///
/// Built by [`with_cluster_router`], which owns the worker lifetimes.
pub struct ClusterRouter<'a> {
    cluster: &'a PartitionedStore,
    queues: Vec<NodeQueue<'a>>,
}

impl<'a> ClusterRouter<'a> {
    /// Number of nodes (= job queues).
    pub fn node_count(&self) -> usize {
        self.queues.len()
    }

    /// The node owning `r` and `r`'s node-local ref there. Navigation
    /// answers are **global** refs (connection OIDs live in the global
    /// space), so each hop's output routes through here again.
    pub fn owner(&self, r: ObjRef) -> Result<(usize, ObjRef)> {
        self.cluster.local(&r)
    }

    /// The node owning the object with root key `key` (the global catalog
    /// lookup of [`PartitionedStore::get_by_key`]; keys are not translated).
    pub fn owner_of_key(&self, key: Key) -> Result<usize> {
        self.cluster.node_of_key(key)
    }

    /// Queues `job` on `node` (`< node_count()`) and returns at once: one
    /// of the node's workers runs it against the node's store, and the
    /// returned [`Pending`] hands its result to whoever waits. A job must
    /// own what it captures — it may outlive the caller's stack frame.
    pub fn on_node<T: Send + 'a>(
        &self,
        node: usize,
        job: impl FnOnce(&dyn ConcurrentObjectStore) -> Result<T> + Send + 'a,
    ) -> Pending<T> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let done = Arc::clone(&slot);
        let soon = self.queues[node].push(Box::new(move |store| {
            let result = catch_unwind(AssertUnwindSafe(|| job(store)))
                .unwrap_or(Err(CoreError::WorkerPanicked { node }));
            *lock(&done.result) = Some(result);
            done.ready.notify_one();
        }));
        Pending { slot, soon }
    }

    /// Cold restart across the cluster, bypassing the queues: each node's
    /// pool quiesces its own writers, so this is safe while jobs are in
    /// flight — they just go cold.
    pub fn clear_cache_all(&self) -> Result<()> {
        self.cluster.shared_clear_cache()
    }

    /// Per-node queue high-water marks (ascending node order) — how many
    /// jobs were ever waiting for each node's worker pool at once. With
    /// callers that queue one batch per node per step that is at most the
    /// number of clients. Scheduling-dependent under contention, like the
    /// engine's `max_queue_depth`.
    pub fn queue_high_water(&self) -> Vec<u64> {
        self.queues
            .iter()
            .map(|q| lock(&q.state).max_depth)
            .collect()
    }
}

/// Runs `f` against a [`ClusterRouter`] serving `cluster` with
/// `workers_per_node` worker threads **per node** (at least one each).
/// Jobs still queued when `f` returns are run before teardown; results
/// nobody waited for are dropped.
///
/// ```
/// use starfish_core::{
///     with_cluster_router, ComplexObjectStore, ModelKind, PartitionedStore, Placement,
///     StoreConfig,
/// };
/// use starfish_nf2::{station::Station, Projection};
///
/// let mut cluster = PartitionedStore::new(
///     ModelKind::DasdbsNsm, 2, Placement::RoundRobin, StoreConfig::default(),
/// );
/// let db: Vec<Station> = (0..4)
///     .map(|k| Station { key: k, name: format!("S{k}"), platforms: vec![], sightseeings: vec![] })
///     .collect();
/// let refs = cluster.load(&db)?;
/// let answer = with_cluster_router(&cluster, 2, |router| {
///     let (node, local) = router.owner(refs[3])?;
///     router
///         .on_node(node, move |store| store.shared_get_by_oid(local.oid, &Projection::All))
///         .wait()
/// })?;
/// assert_eq!(Station::from_tuple(&answer).unwrap(), db[3]);
/// # Ok::<(), starfish_core::CoreError>(())
/// ```
pub fn with_cluster_router<R>(
    cluster: &PartitionedStore,
    workers_per_node: usize,
    f: impl FnOnce(&ClusterRouter<'_>) -> R,
) -> R {
    let router = ClusterRouter {
        cluster,
        queues: cluster
            .nodes
            .iter()
            .map(|n| NodeQueue::new(n.as_ref(), workers_per_node.max(1)))
            .collect(),
    };
    std::thread::scope(|s| {
        for q in &router.queues {
            for _ in 0..q.workers {
                s.spawn(move || q.worker());
            }
        }
        let _shutdown = ShutdownGuard(&router.queues);
        f(&router)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_store;
    use starfish_nf2::station::{Connection, Platform};

    fn station(key: Key, children: &[u32]) -> Station {
        Station {
            key,
            name: format!("{key:0100}"),
            platforms: vec![Platform {
                platform_nr: 1,
                no_line: 1,
                ticket_code: 0,
                information: "i".repeat(100),
                connections: children
                    .iter()
                    .map(|&c| Connection {
                        line_nr: 1,
                        key_connection: 100 + c as i32,
                        oid_connection: Oid(c),
                        departure_times: "t".repeat(100),
                    })
                    .collect(),
            }],
            sightseeings: vec![],
        }
    }

    fn db() -> Vec<Station> {
        (0..10)
            .map(|i| station(100 + i, &[(i as u32 + 1) % 10, (i as u32 + 5) % 10]))
            .collect()
    }

    fn cluster(kind: ModelKind, nodes: usize) -> PartitionedStore {
        let mut s = PartitionedStore::new(
            kind,
            nodes,
            Placement::RoundRobin,
            StoreConfig::with_buffer_pages(256),
        );
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn round_robin_places_evenly() {
        let s = cluster(ModelKind::DasdbsNsm, 3);
        let mut counts = [0usize; 3];
        for i in 0..10 {
            counts[s.node_of(Oid(i)).unwrap()] += 1;
        }
        assert_eq!(counts, [4, 3, 3]);
    }

    #[test]
    fn behaves_like_a_single_store_logically() {
        for kind in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
            let mut part = cluster(kind, 3);
            let mut single = make_store(kind, StoreConfig::with_buffer_pages(256));
            let refs = single.load(&db()).unwrap();
            // Same objects by OID and by key.
            for r in &refs {
                let a = part.get_by_oid(r.oid, &Projection::All).unwrap();
                let b = single.get_by_oid(r.oid, &Projection::All).unwrap();
                assert_eq!(a, b, "{kind} oid {}", r.oid);
                let a = part.get_by_key(r.key, &Projection::All).unwrap();
                assert_eq!(a, b, "{kind} key {}", r.key);
            }
            // Same navigation.
            let a = part.children_of(&refs).unwrap();
            let b = single.children_of(&refs).unwrap();
            assert_eq!(a, b, "{kind}");
            // Same root records.
            let a = part.root_records(&refs[..4]).unwrap();
            let b = single.root_records(&refs[..4]).unwrap();
            assert_eq!(a, b, "{kind}");
            // Same scan order.
            let mut sa = Vec::new();
            part.scan_all(&mut |t| sa.push(t.clone())).unwrap();
            let mut sb = Vec::new();
            single.scan_all(&mut |t| sb.push(t.clone())).unwrap();
            assert_eq!(sa, sb, "{kind}");
        }
    }

    #[test]
    fn updates_route_to_owners_and_persist() {
        let mut part = cluster(ModelKind::DasdbsNsm, 4);
        let refs = part.refs.clone();
        let new_name = "Z".repeat(100);
        part.update_roots(
            &refs[..5],
            &RootPatch {
                new_name: new_name.clone(),
            },
        )
        .unwrap();
        part.clear_cache().unwrap();
        for r in &refs[..5] {
            let t = part.get_by_oid(r.oid, &Projection::All).unwrap();
            assert_eq!(
                Station::from_tuple(&t).unwrap().name,
                new_name,
                "object {}",
                r.oid
            );
        }
    }

    #[test]
    fn per_node_counters_sum_to_the_aggregate() {
        let mut part = cluster(ModelKind::Dsm, 3);
        let refs = part.refs.clone();
        part.clear_cache().unwrap();
        part.reset_stats();
        part.children_of(&refs).unwrap();
        let per_node = part.node_snapshots();
        let total = part.snapshot();
        assert_eq!(
            per_node.iter().map(|s| s.pages_read).sum::<u64>(),
            total.pages_read
        );
        assert_eq!(per_node.iter().map(|s| s.fixes).sum::<u64>(), total.fixes);
        assert!(per_node.iter().filter(|s| s.pages_read > 0).count() >= 2);
    }

    #[test]
    fn single_node_cluster_degenerates_cleanly() {
        let mut part = cluster(ModelKind::DasdbsDsm, 1);
        assert_eq!(part.node_count(), 1);
        let refs = part.refs.clone();
        assert_eq!(part.children_of(&refs[..1]).unwrap().len(), 2);
        assert!(part.database_pages() > 0);
    }

    #[test]
    fn missing_objects_error() {
        let mut part = cluster(ModelKind::DasdbsNsm, 2);
        assert!(matches!(
            part.get_by_oid(Oid(99), &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
        assert!(matches!(
            part.get_by_key(9999, &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }

    /// The out-of-range message names the offending OID *and* the cluster
    /// shape, so a mis-routed request is debuggable from the error alone.
    #[test]
    fn node_of_error_names_oid_and_cluster_shape() {
        let part = cluster(ModelKind::DasdbsNsm, 3);
        let msg = part.node_of(Oid(99)).unwrap_err().to_string();
        assert!(msg.contains("object #99"), "missing oid: {msg}");
        assert!(msg.contains("3 nodes"), "missing node count: {msg}");
        assert!(msg.contains("10 objects"), "missing object count: {msg}");
    }

    /// The shared surface answers exactly like the serial one, from plain
    /// `&self` (as N client threads would call it).
    #[test]
    fn shared_surface_matches_serial_routing() {
        let mut part = cluster(ModelKind::DasdbsNsm, 3);
        let refs = part.refs.clone();
        let serial_children = part.children_of(&refs).unwrap();
        let serial_roots = part.root_records(&refs).unwrap();
        let shared = &part;
        assert_eq!(shared.shared_children_of(&refs).unwrap(), serial_children);
        assert_eq!(shared.shared_root_records(&refs).unwrap(), serial_roots);
        let mut n = 0usize;
        shared.shared_scan_all(&mut |_| n += 1).unwrap();
        assert_eq!(n, 10);
    }

    /// Routed dispatch: answers come back from the owning nodes whatever
    /// order they are waited in, global refs stay valid across hops,
    /// fan-outs merge deterministically, and the per-node queue high-water
    /// is populated.
    #[test]
    fn router_matches_serial_cluster() {
        let mut part = cluster(ModelKind::DasdbsNsm, 3);
        let refs = part.refs.clone();
        let want_children = part.children_of(&refs).unwrap();
        let want_tuples: Vec<Tuple> = refs
            .iter()
            .map(|r| part.get_by_oid(r.oid, &Projection::All).unwrap())
            .collect();
        with_cluster_router(&part, 2, |router| {
            assert_eq!(router.node_count(), 3);
            // Retrieval by OID, many in flight at once, redeemed out of
            // submission order.
            let pending: Vec<Pending<Tuple>> = refs
                .iter()
                .map(|r| {
                    let (node, local) = router.owner(*r).unwrap();
                    assert_eq!(node, part.node_of(r.oid).unwrap());
                    router.on_node(node, move |s| {
                        s.shared_get_by_oid(local.oid, &Projection::All)
                    })
                })
                .collect();
            for (p, want) in pending.into_iter().zip(&want_tuples).rev() {
                assert_eq!(&p.wait().unwrap(), want);
            }
            // By key: the catalog names the owner, the key is not translated.
            let node = router.owner_of_key(refs[4].key).unwrap();
            let key = refs[4].key;
            let by_key = router.on_node(node, move |s| s.shared_get_by_key(key, &Projection::All));
            assert_eq!(by_key.wait().unwrap(), want_tuples[4]);
            // Navigation: per-ref jobs waited in input order rebuild the
            // serial answer; the refs that come back are global.
            let hops: Vec<Pending<Vec<ObjRef>>> = refs
                .iter()
                .map(|r| {
                    let (node, local) = router.owner(*r).unwrap();
                    router.on_node(node, move |s| s.shared_children_of(&[local]))
                })
                .collect();
            let mut got = Vec::new();
            for p in hops {
                got.extend(p.wait().unwrap());
            }
            assert_eq!(got, want_children);
            // Cross-node scan fan-out sums to the cluster count.
            let scans: Vec<Pending<usize>> = (0..router.node_count())
                .map(|node| {
                    router.on_node(node, |s| {
                        let mut n = 0usize;
                        s.shared_scan_all(&mut |_| n += 1)?;
                        Ok(n)
                    })
                })
                .collect();
            let scanned: usize = scans.into_iter().map(|p| p.wait().unwrap()).sum();
            assert_eq!(scanned, 10);
            let hw = router.queue_high_water();
            assert_eq!(hw.len(), 3);
            assert!(hw.iter().any(|&d| d >= 1));
        });
    }

    /// Routed updates persist and survive a flush; a failing job completes
    /// its waiter with the error and the queue keeps serving; an
    /// out-of-range ref fails fast with the shaped error.
    #[test]
    fn router_updates_and_errors() {
        let mut part = cluster(ModelKind::DasdbsNsm, 4);
        let refs = part.refs.clone();
        let patch = RootPatch {
            new_name: "Y".repeat(100),
        };
        with_cluster_router(&part, 1, |router| {
            // Group by owning node, one update job per involved node.
            let mut per_node = vec![Vec::new(); router.node_count()];
            for r in &refs[..6] {
                let (node, local) = router.owner(*r).unwrap();
                per_node[node].push(local);
            }
            assert!(
                per_node.iter().filter(|l| !l.is_empty()).count() >= 2,
                "6 round-robin refs span >= 2 nodes"
            );
            let updates: Vec<Pending<()>> = per_node
                .into_iter()
                .enumerate()
                .map(|(node, locals)| {
                    let patch = patch.clone();
                    router.on_node(node, move |s| s.shared_update_roots(&locals, &patch))
                })
                .collect();
            for p in updates {
                p.wait().unwrap();
            }
            for node in 0..router.node_count() {
                router.on_node(node, |s| s.shared_flush()).wait().unwrap();
            }
            // Errors surface through the waiter, and the node keeps serving.
            let bad = router.on_node(0, |s| s.shared_get_by_key(9999, &Projection::All));
            assert!(matches!(bad.wait(), Err(CoreError::NotFound { .. })));
            let (node, local) = router.owner(refs[0]).unwrap();
            let good = router.on_node(node, move |s| s.shared_root_records(&[local]));
            assert_eq!(good.wait().unwrap().len(), 1);
            let unknown = ObjRef {
                oid: Oid(99),
                key: 0,
            };
            let msg = router.owner(unknown).unwrap_err().to_string();
            assert!(
                msg.contains("object #99") && msg.contains("4 nodes"),
                "{msg}"
            );
            assert!(router.owner_of_key(9999).is_err());
        });
        part.clear_cache().unwrap();
        for r in &refs[..6] {
            let t = part.get_by_oid(r.oid, &Projection::All).unwrap();
            assert_eq!(Station::from_tuple(&t).unwrap().name, patch.new_name);
        }
    }

    /// A job that panics completes its waiter with an error instead of
    /// hanging it, and the (only) worker of that node survives to serve the
    /// next job.
    #[test]
    fn panicking_job_errs_its_waiter_and_spares_the_worker() {
        let part = cluster(ModelKind::DasdbsNsm, 2);
        with_cluster_router(&part, 1, |router| {
            let boom: Pending<()> = router.on_node(1, |_| panic!("job panics on purpose"));
            let after = router.on_node(1, |s| Ok(s.object_count()));
            assert_eq!(boom.wait(), Err(CoreError::WorkerPanicked { node: 1 }));
            assert_eq!(after.wait(), Ok(5));
        });
    }

    /// Jobs still queued when the client closure returns run before
    /// teardown, even though nobody waits for them.
    #[test]
    fn queued_jobs_are_drained_before_teardown() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let part = cluster(ModelKind::DasdbsNsm, 2);
        let ran = Arc::new(AtomicUsize::new(0));
        with_cluster_router(&part, 1, |router| {
            for i in 0..40 {
                let ran = Arc::clone(&ran);
                let _abandoned = router.on_node(i % 2, move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 40);
    }

    /// A panicking client closure still shuts every worker down: the scope
    /// joins instead of parking forever, and the panic reaches the caller.
    #[test]
    fn panicking_client_still_shuts_the_workers_down() {
        let part = cluster(ModelKind::DasdbsNsm, 3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_cluster_router(&part, 2, |router| {
                router.on_node(0, |s| s.shared_flush()).wait().unwrap();
                panic!("client panics on purpose");
            })
        }));
        assert!(caught.is_err());
    }

    /// Routed serving queues a whole fan-out before the first wait: with
    /// the node's only worker held busy, every job of a 3-parent step is
    /// in the queue at once.
    #[test]
    fn fan_out_is_queued_before_the_first_wait() {
        use std::sync::mpsc;
        let part = cluster(ModelKind::DasdbsNsm, 1);
        let refs = part.refs.clone();
        with_cluster_router(&part, 1, |router| {
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let gate = router.on_node(0, move |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok(())
            });
            started_rx.recv().unwrap();
            let hops: Vec<_> = refs[..3]
                .iter()
                .map(|r| {
                    let (node, local) = router.owner(*r).unwrap();
                    router.on_node(node, move |s| s.shared_children_of(&[local]))
                })
                .collect();
            assert_eq!(router.queue_high_water(), vec![3]);
            release_tx.send(()).unwrap();
            gate.wait().unwrap();
            for p in hops {
                assert_eq!(p.wait().unwrap().len(), 2);
            }
        });
    }

    /// Only a job that is next in line is worth yielding for: with the
    /// node's one worker held busy, the first queued job has nothing ahead
    /// of it, the second has one job (one per worker), the third a backlog.
    #[test]
    fn job_behind_a_backlog_parks_at_once() {
        use std::sync::mpsc;
        let part = cluster(ModelKind::DasdbsNsm, 1);
        with_cluster_router(&part, 1, |router| {
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let gate = router.on_node(0, move |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok(())
            });
            started_rx.recv().unwrap();
            let queued: Vec<Pending<usize>> = (0..3)
                .map(|_| router.on_node(0, |s| Ok(s.object_count())))
                .collect();
            let soon: Vec<bool> = queued.iter().map(|p| p.soon).collect();
            assert_eq!(soon, [true, true, false]);
            release_tx.send(()).unwrap();
            gate.wait().unwrap();
            for p in queued {
                assert_eq!(p.wait(), Ok(10));
            }
        });
    }

    /// Past the yield budget both sides park and the condvars still hand
    /// over: a worker idle for 5 ms picks up the next job, and a job that
    /// runs for 5 ms delivers its result, once, to the parked waiter.
    #[test]
    fn job_outlasting_the_yield_budget_delivers_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let part = cluster(ModelKind::DasdbsNsm, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        with_cluster_router(&part, 1, |router| {
            std::thread::sleep(Duration::from_millis(5));
            let counted = Arc::clone(&ran);
            let slow = router.on_node(0, move |s| {
                std::thread::sleep(Duration::from_millis(5));
                counted.fetch_add(1, Ordering::SeqCst);
                Ok(s.object_count())
            });
            assert_eq!(slow.wait(), Ok(10));
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    /// A concurrently-served cluster (N shards per node) leaves every node
    /// disk byte-identical to the serially-driven single-shard cluster.
    #[test]
    fn sharded_nodes_leave_disks_byte_identical() {
        let config = StoreConfig::with_buffer_pages(256);
        let mut serial = PartitionedStore::new(
            ModelKind::DasdbsNsm,
            3,
            Placement::RoundRobin,
            config.clone(),
        );
        serial.load(&db()).unwrap();
        let mut sharded = PartitionedStore::with_shards(
            ModelKind::DasdbsNsm,
            3,
            Placement::RoundRobin,
            config,
            4,
        );
        sharded.load(&db()).unwrap();
        let refs = serial.refs.clone();
        let patch = RootPatch {
            new_name: "W".repeat(100),
        };
        serial.update_roots(&refs[..7], &patch).unwrap();
        serial.flush().unwrap();
        sharded.update_roots(&refs[..7], &patch).unwrap();
        sharded.flush().unwrap();
        assert_eq!(serial.node_checksums(), sharded.node_checksums());
        assert_eq!(serial.node_checksums().len(), 3);
    }
}
