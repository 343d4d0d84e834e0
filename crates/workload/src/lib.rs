//! # starfish-workload — the benchmark generator, plans and executor
//!
//! Implements §2 of the ICDE 1993 paper — and generalizes it. The access
//! patterns the paper hard-codes are **data** here:
//!
//! * [`DatasetParams`]/[`generate`] build the `Station` database (1500
//!   objects by default, ≤2 platforms @80%, ≤4 connections @64%, ≤15
//!   sightseeings uniform, random inter-object references);
//! * [`WorkloadSpec`] is the declarative AccessPlan IR — a small op
//!   vocabulary ([`Op`]: picks, scans, retrievals, navigation hops, root
//!   updates, cold restarts, loops) plus the measurement knobs (RNG
//!   stream, normalization unit, read/write [`MixKind`]). The paper's
//!   queries 1a–3b are built-in specs ([`WorkloadSpec::for_query`]);
//!   [`WorkloadSpec::shipped`] adds non-paper scenarios, and
//!   [`WorkloadSpec::from_json`]/[`WorkloadSpec::to_json`] make ad-hoc
//!   scenarios a file format (`starfish_repro --workload spec.json`);
//! * [`Executor`] is the one streaming interpreter behind every run mode,
//!   and the only way to run a plan: serial ([`Executor::run`], the
//!   paper's measurement protocol), concurrent
//!   ([`Executor::run_concurrent`], N client threads over a
//!   [`starfish_core::ConcurrentObjectStore`] with answer merging and
//!   object-partitioned updates), routed ([`Executor::run_cluster`], the
//!   same protocol over a [`starfish_core::PartitionedStore`]'s per-node
//!   worker pools) and mixed streams ([`Executor::run_stream`], racing
//!   read/write request serving). A paper query is run like any other
//!   spec — `exec.run(store, &WorkloadSpec::for_query(q))` — and reports
//!   in the same vocabulary: [`PlanOutcome`] / [`PlanRun`] (counter
//!   deltas, units, per-hop navigation counts, the per-unit ratios of
//!   Tables 4–6) and, for the multi-client modes, one [`UnitObservation`]
//!   per unit in plan order;
//! * [`estimate_plan`] is the plan-walker: it prices a spec's expected
//!   page I/Os from the Table 3 estimators of `starfish-cost`, op by op,
//!   with a hot-span miss model for skewed picks (the `pred pg/u` column
//!   of the workload reports and the reclustering trigger).
//!
//! Randomness is fully deterministic: the dataset comes from
//! [`DatasetParams::seed`], and each spec's random object sequence comes
//! from its RNG stream — so **every storage model sees the identical
//! access sequence**, as on the paper's shared DASDBS database.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod executor;
mod generator;
mod plan;
mod stats;

pub use estimate::{estimate_plan, PlanContext, PlanEstimate};
pub use executor::{
    ClusterRun, ConcurrentPlanRun, Executor, MixedRun, PlanOutcome, PlanRun, UnitObservation,
};
pub use generator::{generate, DatasetParams};
pub use plan::{
    Count, Drift, MixKind, NormUnit, Op, PatchSpec, ProjSpec, WorkloadSpec, Q1A_SAMPLE,
};
pub use stats::DatasetStats;

// The paper's queries 1a–3b driven through the executor, as test-only
// modules: serial protocol in `queries/tests.rs`, multi-client protocols
// in `concurrent/tests.rs`.
#[cfg(test)]
mod concurrent {
    mod tests;
}
#[cfg(test)]
mod queries {
    mod tests;
}

/// Result alias (errors come from the storage models).
pub type Result<T> = std::result::Result<T, starfish_core::CoreError>;
