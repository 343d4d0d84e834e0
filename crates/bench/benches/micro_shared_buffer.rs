//! Micro-benchmarks of the sharded, thread-safe buffer pool.
//!
//! Three questions, each against the exclusive `BufferPool` baseline:
//!
//! * `hit` vs **shard count** — what one uncontended fix costs through a
//!   shard mutex (one lock/unlock + the usual hash probe and policy
//!   bookkeeping), and whether more shards change the single-client cost
//!   (they should not: a fix touches exactly one shard whatever K is).
//! * `hit_batch` vs **thread count** — a fixed batch of hot-set fixes
//!   split across N client threads (shards = N). On multi-core hardware
//!   the batch wall-clock should shrink with N; on one core it measures
//!   pure locking/scheduling overhead.
//! * `churn` — the cyclic-sweep miss path (eviction + reload through the
//!   shared disk's RwLock) with 1 vs 8 shards.
//! * `latch_group4` — `latch_pages` + `unlatch_pages` of a 4-page shared
//!   group with nobody else on the pool: the price of the group itself
//!   (it used to include two `futex_wake`s to no waiter). Only a spanned
//!   read with the batched read engine on pays it; engine off, a spanned
//!   read is one lock session and takes no latch.
//!
//! And one table on stderr, timed by hand because it runs threads for a
//! fixed wall time: **the scaling triple** — the `benchmark/` crate's
//! `serve-read` navigation request (root → children → grand-children →
//! their root records) on that workload's store (300 pages, 2 shards,
//! 1 500 objects) for the four addressable models, as object visits per
//! second with **1 client**, **2 clients on one store** and **2 clients on
//! two private stores**. The third is what two processors can do; the
//! ratio of the second to the first is what sharing the pool costs. Read
//! it from alternated runs of two binaries: on a shared 2-vCPU machine one
//! run's two-client rows move by ±10 %. The store is built as the storage
//! models build it, so each large object's extent belongs to one shard and
//! a DSM visit locks one shard mutex; the `hit`, `churn` and latch rows use
//! a plain extent whose pages hash across the shards.

mod common;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use starfish_core::{make_shared_store, ConcurrentObjectStore, ModelKind, ObjRef, StoreConfig};
use starfish_pagestore::{
    BufferConfig, BufferPool, LatchMode, PageCache, PageId, SharedPoolHandle, SimDisk,
};
use starfish_workload::{generate, DatasetParams};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CAPACITY: usize = 1200; // the paper's buffer
const DB_PAGES: u32 = 2 * CAPACITY as u32;
const HOT_SET: u32 = 64;
const BATCH: u32 = 1024;

fn shared(shards: usize) -> (SharedPoolHandle, PageId) {
    let h = SharedPoolHandle::new(BufferConfig::with_pages(CAPACITY), shards);
    let first = h.pool().alloc_extent(DB_PAGES);
    (h, first)
}

// The `serve-read` store of `benchmark/`.
const SERVE_PAGES: usize = 300;
const SERVE_SHARDS: usize = 2;
const SERVE_OBJECTS: usize = 1500;
const SERVE_SLICE: Duration = Duration::from_millis(500);
const SERVE_ROUNDS: usize = 7;

type ServeStore = (Box<dyn ConcurrentObjectStore>, Vec<ObjRef>);

fn serve_store(kind: ModelKind, db: &[starfish_nf2::station::Station]) -> ServeStore {
    let config = StoreConfig::with_buffer_pages(SERVE_PAGES);
    let mut store = make_shared_store(kind, config, SERVE_SHARDS);
    let refs = store.load(db).expect("load");
    (store, refs)
}

/// Navigation requests from uniform roots until `SERVE_SLICE` has passed;
/// returns the objects visited.
fn serve((store, refs): &ServeStore, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let deadline = Instant::now() + SERVE_SLICE;
    let mut visits = 0;
    while Instant::now() < deadline {
        let root = refs[rng.random_range(0..refs.len())];
        let children = store.shared_children_of(&[root]).expect("children");
        let grand = store.shared_children_of(&children).expect("grand-children");
        black_box(store.shared_root_records(&grand).expect("records"));
        visits += (1 + children.len() + grand.len()) as u64;
    }
    visits
}

/// Object visits per second of `clients` closed-loop clients, client `i` on
/// `stores[i % stores.len()]`: the median of `SERVE_ROUNDS` slices.
fn visits_per_s(stores: &[ServeStore], clients: usize) -> f64 {
    let mut rates: Vec<f64> = (0..SERVE_ROUNDS)
        .map(|round| {
            let start = Barrier::new(clients);
            let t0 = Instant::now();
            let visits: u64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|i| {
                        let (store, start) = (&stores[i % stores.len()], &start);
                        s.spawn(move || {
                            start.wait();
                            serve(store, (round * clients + i) as u64)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client")).sum()
            });
            visits as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The scaling triple, per addressable model, on stderr.
fn scaling_triple() {
    let db = generate(&DatasetParams {
        n_objects: SERVE_OBJECTS,
        seed: 7 + 2249, // `benchmark/ --seed 7`
        ..Default::default()
    });
    eprintln!(
        "\nshared_buffer/serve_read: object visits/s, {SERVE_PAGES} pages, {SERVE_SHARDS} shards, \
         {SERVE_OBJECTS} objects, nproc {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!(
        "{:<12} {:>12} {:>16} {:>18} {:>8}",
        "model", "1 client", "2 on one store", "2 on two stores", "2:1"
    );
    for kind in ModelKind::all() {
        if kind == ModelKind::Nsm {
            continue; // answers by relation scans; nobody serves from it
        }
        let stores = [serve_store(kind, &db), serve_store(kind, &db)];
        let one = visits_per_s(&stores[..1], 1);
        let shared = visits_per_s(&stores[..1], 2);
        let private = visits_per_s(&stores, 2);
        eprintln!(
            "{:<12} {one:>12.0} {shared:>16.0} {private:>18.0} {:>7.2}x",
            kind.paper_name(),
            shared / one
        );
    }
}

fn main() {
    let mut c: Criterion = common::criterion();

    // Baseline: the exclusive pool's hit path (no locks at all).
    c.bench_function("shared_buffer/exclusive/hit", |b| {
        let mut disk = SimDisk::new();
        let first = disk.alloc_extent(DB_PAGES);
        let mut pool = BufferPool::new(disk, CAPACITY);
        pool.with_page(first, |_| {}).unwrap();
        b.iter(|| pool.with_page(first, |p| black_box(p[0])).unwrap())
    });

    for shards in [1usize, 4, 16] {
        c.bench_function(&format!("shared_buffer/shards{shards}/hit"), |b| {
            let (h, first) = shared(shards);
            h.pool().with_page(first, |_| {}).unwrap();
            b.iter(|| h.pool().with_page(first, |p| black_box(p[0])).unwrap())
        });
    }

    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("shared_buffer/threads{threads}/hit_batch"), |b| {
            let (h, first) = shared(threads);
            for i in 0..HOT_SET {
                h.pool().with_page(first.offset(i), |_| {}).unwrap();
            }
            let per_thread = BATCH / threads as u32;
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads as u32 {
                        let h = h.clone();
                        s.spawn(move || {
                            for r in 0..per_thread {
                                let i = (t * 17 + r) % HOT_SET;
                                h.pool()
                                    .with_page(first.offset(i), |p| black_box(p[0]))
                                    .unwrap();
                            }
                        });
                    }
                });
            })
        });
    }

    for shards in [1usize, 8] {
        c.bench_function(&format!("shared_buffer/shards{shards}/churn"), |b| {
            let (h, first) = shared(shards);
            let mut next = 0u32;
            b.iter(|| {
                let r = h
                    .pool()
                    .with_page(first.offset(next), |p| black_box(p[0]))
                    .unwrap();
                next = (next + 1) % DB_PAGES;
                r
            })
        });
    }

    // An uncontended shared group over four pages: what a spanned read
    // with the batched read engine on pays for its latch before and after
    // it touches a frame (engine off, it takes none).
    for shards in [1usize, 2] {
        c.bench_function(&format!("shared_buffer/shards{shards}/latch_group4"), |b| {
            let (h, first) = shared(shards);
            let pages: Vec<PageId> = (0..4).map(|i| first.offset(i)).collect();
            b.iter(|| {
                h.pool().latch_pages(&pages, LatchMode::Shared).unwrap();
                h.pool().unlatch_pages(black_box(&pages), LatchMode::Shared);
            })
        });
    }

    scaling_triple();

    c.final_summary();
}
