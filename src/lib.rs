//! # starfish — facade crate
//!
//! Re-exports the full starfish stack. See the README for the architecture
//! overview; the individual crates are:
//!
//! * [`nf2`] — the NF² complex-object model (values, schemas, encoding,
//!   projections, the benchmark `Station` schema);
//! * [`pagestore`] — the page-based storage substrate: simulated disk,
//!   slotted pages, spanned records, the exclusive `BufferPool` with
//!   pluggable replacement policies (O(1) LRU, Clock, MRU, FIFO, LRU-2)
//!   and the lock-striped `SharedBufferPool` beside it (per-page latches,
//!   an opt-in write-ahead log with group commit, an opt-in batched read
//!   engine, opt-in heat tracking), all under one I/O accounting;
//! * [`core`] — the paper's storage models (DSM, DASDBS-DSM, NSM(+index),
//!   DASDBS-NSM) as one `Store` behind [`core::ComplexObjectStore`] and,
//!   for multi-client serving, [`core::ConcurrentObjectStore`]; the
//!   shared-nothing [`core::PartitionedStore`] with its per-node job
//!   queues; heat-driven re-placement;
//! * [`cost`] — the analytical disk-I/O cost model (Equations 1–8) and the
//!   plan-walker that prices declarative plans with it;
//! * [`workload`] — the benchmark generator and the declarative workload
//!   layer: the `WorkloadSpec` AccessPlan IR (queries 1a–3b are built-in
//!   specs) and the `Executor`, the one way to run a plan — `run`
//!   (serial, the paper's protocol), `run_concurrent` (client threads over
//!   the shared surface), `run_cluster` (the routed cluster) and
//!   `run_stream` (a racing read/write request mix);
//! * [`harness`] — experiment drivers regenerating every table and figure of
//!   the paper's evaluation plus the extension experiments, and
//!   `harness::runner::measure`, one measured run of a spec under a chosen
//!   serving.

pub use starfish_core as core;
pub use starfish_cost as cost;
pub use starfish_harness as harness;
pub use starfish_nf2 as nf2;
pub use starfish_pagestore as pagestore;
pub use starfish_workload as workload;

/// Commonly used items, for examples and quick experiments.
pub mod prelude {
    pub use starfish_core::{
        make_shared_store, BufferConfig, ComplexObjectStore, ConcurrentObjectStore, IoEngineConfig,
        ModelKind, PolicyKind, StoreConfig,
    };
    pub use starfish_nf2::station::{station_schema, Station};
    pub use starfish_nf2::{Oid, Projection, Tuple, Value};
    pub use starfish_pagestore::IoSnapshot;
    pub use starfish_workload::{
        DatasetParams, Executor, MixKind, Op, PlanOutcome, PlanRun, WorkloadSpec,
    };
}
