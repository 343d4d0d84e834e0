//! Figure 6 bench: regenerates the caching sweep and times query 2b at the
//! smallest and largest database sizes (no-overflow vs overflow regimes).

mod common;

use criterion::Criterion;
use starfish_core::ModelKind;
use starfish_harness::experiments::fig6;
use starfish_workload::WorkloadSpec;
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    common::show(&fig6::run(&config).expect("fig6"));

    let mut c: Criterion = common::criterion();
    let sizes = fig6::sweep_sizes(&config);
    let endpoints = [sizes[0], *sizes.last().expect("nonempty")];
    for n in endpoints {
        let params = config.dataset().with_objects(n);
        for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
            let (mut store, exec) = common::loaded_with(kind, &params);
            c.bench_function(&format!("fig6/{kind}/{n}_objects/q2b"), |b| {
                b.iter(|| black_box(exec.run(store.as_mut(), &WorkloadSpec::q2b()).unwrap()))
            });
        }
    }
    c.final_summary();
}
