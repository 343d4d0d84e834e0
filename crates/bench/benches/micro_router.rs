//! Micro-benchmarks of the routed cluster's hand-off.
//!
//! A routed op is a closure handed to a node's worker and a wait for its
//! result, so what a routed plan costs above the same plan driven serially
//! is the number of hand-offs times the price of one — and that price
//! depends on how long the job runs and on whether the waiter got to
//! sleep before the result came. Three questions:
//!
//! * `round_trip/jobNus` — one `on_node(..).wait()` for a job that
//!   busy-waits N µs (0 / 5 / 20): the hand-off alone, then under jobs the
//!   length of a buffered and of a decoding `shared_*` call.
//! * `two_node_step/jobNus` — the shape of a navigation step on a 2-node
//!   cluster: queue one job on each node, then wait for both in node
//!   order. With the jobs overlapping it costs one job plus one hand-off;
//!   when client and workers outnumber the processors and every wait
//!   parks, it costs far more than both jobs run back to back.
//! * `q3b/serial`, `q3b/routed_Cx1` — the whole query-3b measurement on
//!   the same 2-node NSM+index cluster: `Executor::run` on the `&mut`
//!   surface against `run_cluster` with C clients and one worker per node
//!   (worker and client spawns included, as in the `cluster-route`
//!   workload of `benchmark/`).

mod common;

use criterion::Criterion;
use starfish_core::{
    with_cluster_router, ClusterRouter, ComplexObjectStore, ModelKind, PartitionedStore, Pending,
    Placement, StoreConfig,
};
use starfish_workload::{generate, DatasetParams, Executor, WorkloadSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

const NODES: usize = 2;
const SEED: u64 = 7;

/// Queues a job on `node` that keeps its worker busy for `us` µs.
fn busy_job(router: &ClusterRouter<'_>, node: usize, us: u64) -> Pending<()> {
    router.on_node(node, move |_| {
        let end = Instant::now() + Duration::from_micros(us);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
        Ok(())
    })
}

fn main() {
    let mut c: Criterion = common::criterion();

    let db = generate(&DatasetParams::default());
    let mut cluster = PartitionedStore::new(
        ModelKind::NsmIndexed,
        NODES,
        Placement::RoundRobin,
        StoreConfig::default(),
    );
    let refs = cluster.load(&db).expect("load");

    with_cluster_router(&cluster, 1, |router| {
        for us in [0u64, 5, 20] {
            c.bench_function(&format!("router/round_trip/job{us}us"), |b| {
                b.iter(|| busy_job(router, 0, us).wait().unwrap())
            });
            c.bench_function(&format!("router/two_node_step/job{us}us"), |b| {
                b.iter(|| {
                    let step: Vec<Pending<()>> =
                        (0..NODES).map(|node| busy_job(router, node, us)).collect();
                    for job in step {
                        job.wait().unwrap();
                    }
                })
            });
        }
    });

    let exec = Executor::new(refs, SEED);
    let spec = WorkloadSpec::q3b();
    c.bench_function("router/q3b/serial", |b| {
        b.iter(|| black_box(exec.run(&mut cluster, &spec).unwrap()))
    });
    for clients in [1usize, 2] {
        c.bench_function(&format!("router/q3b/routed_{clients}x1"), |b| {
            b.iter(|| black_box(exec.run_cluster(&mut cluster, &spec, clients, 1).unwrap()))
        });
    }

    c.final_summary();
}
