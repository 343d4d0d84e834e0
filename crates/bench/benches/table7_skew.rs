//! Table 7 bench: regenerates the data-skew comparison and times query 2b
//! under the default and skewed generators.

mod common;

use criterion::Criterion;
use starfish_harness::experiments::table7;
use starfish_workload::{DatasetParams, WorkloadSpec};
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    common::show(&table7::run(&config).expect("table7"));

    let mut c: Criterion = common::criterion();
    let default_params = config.dataset();
    let skew_params = DatasetParams {
        n_objects: config.n_objects,
        seed: config.dataset_seed,
        ..DatasetParams::skewed()
    };
    for (label, params) in [("default", &default_params), ("skew", &skew_params)] {
        for kind in table7::TABLE7_MODELS {
            let (mut store, exec) = common::loaded_with(kind, params);
            c.bench_function(&format!("table7/{kind}/{label}/q2b"), |b| {
                b.iter(|| black_box(exec.run(store.as_mut(), &WorkloadSpec::q2b()).unwrap()))
            });
        }
    }
    c.final_summary();
}
