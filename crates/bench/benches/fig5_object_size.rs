//! Figure 5 bench: regenerates the object-size sweep (max sightseeings
//! 0/15/30) and times query 2b under each size for the direct models.

mod common;

use criterion::Criterion;
use starfish_core::ModelKind;
use starfish_harness::experiments::fig5;
use starfish_workload::WorkloadSpec;
use std::hint::black_box;

fn main() {
    let config = common::bench_config();
    common::show(&fig5::run(&config).expect("fig5"));

    let mut c: Criterion = common::criterion();
    for max_s in fig5::SIGHTSEEING_MAXIMA {
        let params = config.dataset().with_max_sightseeing(max_s);
        for kind in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
            let (mut store, exec) = common::loaded_with(kind, &params);
            c.bench_function(&format!("fig5/{kind}/maxSee={max_s}/q2b"), |b| {
                b.iter(|| black_box(exec.run(store.as_mut(), &WorkloadSpec::q2b()).unwrap()))
            });
        }
    }
    c.final_summary();
}
