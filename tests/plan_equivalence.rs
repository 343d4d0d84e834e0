//! The checked-in example spec files must parse to exactly the shipped
//! constructors, so `--workload examples/workloads/…` and the `ext-workload`
//! sweep can never drift apart.
//!
//! (What the built-in plans *measure* is pinned elsewhere: serial counters
//! for 1a–3b × five models exactly, at two scales, by `tests/golden_lru.rs`;
//! 1-thread × 1-shard ≡ serial by `tests/concurrent_differential.rs`.)

use starfish::workload::WorkloadSpec;

#[test]
fn checked_in_spec_files_match_the_shipped_constructors() {
    for (path, want) in [
        ("examples/workloads/deep_nav.json", WorkloadSpec::deep_nav()),
        ("examples/workloads/hot_set.json", WorkloadSpec::hot_set()),
        (
            "examples/workloads/scan_then_update.json",
            WorkloadSpec::scan_then_update(),
        ),
        (
            "examples/workloads/drift_gradual.json",
            WorkloadSpec::drift_gradual(),
        ),
        (
            "examples/workloads/drift_sudden.json",
            WorkloadSpec::drift_sudden(),
        ),
        (
            "examples/workloads/drift_cycle.json",
            WorkloadSpec::drift_cycle(),
        ),
    ] {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let parsed = WorkloadSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(parsed, want, "{path} drifted from the shipped constructor");
        // And the constructor's own serialization round-trips.
        assert_eq!(
            WorkloadSpec::from_json(&want.to_json()).unwrap(),
            want,
            "{path}: to_json/from_json round trip"
        );
    }
}
