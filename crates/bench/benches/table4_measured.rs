//! Table 4 bench: regenerates the measured page-I/O grid and times each
//! model executing the benchmark queries.

mod common;

use criterion::Criterion;
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_harness::experiments::{grid_models, table4};
use starfish_harness::runner::measure_grid;
use starfish_workload::WorkloadSpec;
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    let grid = measure_grid(&config.dataset(), &config, &grid_models()).expect("grid");
    common::show(&table4::run(&grid));

    let mut c: Criterion = common::criterion();
    for kind in ModelKind::measured_models() {
        let (mut store, exec) = common::loaded(kind);
        for q in [QueryId::Q1a, QueryId::Q2a, QueryId::Q2b] {
            if kind == ModelKind::Nsm && q == QueryId::Q1a {
                continue;
            }
            c.bench_function(&format!("table4/{kind}/q{q}"), |b| {
                b.iter(|| {
                    black_box(
                        exec.run(store.as_mut(), &WorkloadSpec::for_query(q))
                            .unwrap(),
                    )
                })
            });
        }
    }
    c.final_summary();
}
