//! Shared bench helper: the Criterion settings every micro target uses.

use criterion::Criterion;

/// Criterion tuned for workload-level benches.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .configure_from_args()
}
