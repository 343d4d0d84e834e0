#![allow(dead_code)] // each bench target compiles this module separately

//! Shared bench helpers: every bench regenerates its paper artifact once
//! (printing it to stderr so `cargo bench` output doubles as the
//! reproduction record) and then times the operations that produce it.

use criterion::Criterion;
use starfish_core::{make_store, ComplexObjectStore, ModelKind, StoreConfig};
use starfish_harness::runner::HarnessConfig;
use starfish_workload::{generate, DatasetParams, Executor};

/// Bench scale: large enough to preserve the paper's DB ≫ buffer regime,
/// small enough that a full `cargo bench` stays in minutes.
pub fn bench_config() -> HarnessConfig {
    HarnessConfig::fast()
}

/// Criterion tuned for workload-level benches.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .configure_from_args()
}

/// Builds a loaded store + executor at bench scale.
pub fn loaded(kind: ModelKind) -> (Box<dyn ComplexObjectStore>, Executor) {
    let config = bench_config();
    let db = generate(&config.dataset());
    let mut store = make_store(kind, StoreConfig::with_buffer_pages(config.buffer_pages));
    let refs = store.load(&db).expect("load");
    (store, Executor::new(refs, config.query_seed))
}

/// Builds a loaded store + executor for explicit dataset parameters.
pub fn loaded_with(
    kind: ModelKind,
    params: &DatasetParams,
) -> (Box<dyn ComplexObjectStore>, Executor) {
    let config = bench_config();
    let db = generate(params);
    let mut store = make_store(kind, StoreConfig::with_buffer_pages(config.buffer_pages));
    let refs = store.load(&db).expect("load");
    (store, Executor::new(refs, config.query_seed))
}

/// Prints a regenerated report to stderr, once, before timing starts.
pub fn show(report: &starfish_harness::ExperimentReport) {
    eprintln!("\n{}", report.render());
}
