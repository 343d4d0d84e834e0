//! # starfish — facade crate
//!
//! Re-exports the full starfish stack. See the README for the architecture
//! overview; the individual crates are:
//!
//! * [`nf2`] — the NF² complex-object model (values, schemas, encoding,
//!   projections, the benchmark `Station` schema);
//! * [`pagestore`] — the page-based storage substrate (simulated disk,
//!   slotted pages, spanned records, a buffer pool with pluggable
//!   replacement policies — O(1) LRU, Clock, MRU, FIFO, LRU-2 — a
//!   lock-striped `SharedBufferPool` for concurrent serving, and I/O
//!   accounting);
//! * [`core`] — the four storage models of the paper (DSM, DASDBS-DSM,
//!   NSM(+index), DASDBS-NSM) behind one [`core::ComplexObjectStore`] trait;
//! * [`cost`] — the analytical disk-I/O cost model (Equations 1–8);
//! * [`workload`] — the benchmark generator and the declarative workload
//!   layer: the `WorkloadSpec` AccessPlan IR, the streaming `Executor`
//!   (serial / concurrent / mixed), and queries 1a–3b as built-in plans;
//! * [`harness`] — experiment drivers regenerating every table and figure of
//!   the paper's evaluation, plus declarative-workload reports.

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
