//! Golden I/O-*call* snapshot: the Table-5 dimension of the paper.
//!
//! `tests/golden_lru.rs` pins pages and fixes; this test pins the **call**
//! counts (`read_calls + write_calls` — one call may transfer several
//! contiguous pages) for queries 1a–3b × all five models at the harness's
//! fast scale. Calls are where DASDBS's multi-page I/O shows up: the
//! direct models read ≈2 pages per call on large objects while "NSM even
//! reads only a single page per retrieval call" (§6), and the deferred
//! grouped writes land ~20–30 pages in one call. A refactor can keep every
//! page count intact and still silently degenerate the call grouping —
//! this table makes that impossible.
//!
//! The golden constants live in `tests/common/golden.rs`, shared with the
//! WAL-off golden-identity check in `tests/crash_differential.rs`. To
//! regenerate after an *intentional* protocol change, run
//! `cargo run --release --example golden_dump` and paste its
//! `io_calls` section there — with a PR note explaining why the calls
//! moved.

use starfish::core::{make_store, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::workload::{generate, DatasetParams, Executor, PlanOutcome, WorkloadSpec};

#[path = "common/golden.rs"]
mod golden;
use golden::{assert_heat_silent, golden_io_calls, GOLDEN_IO_CALLS_FAST};

#[test]
fn io_call_counts_match_golden_table_fast_scale() {
    let db = generate(&DatasetParams {
        n_objects: 300,
        seed: 4242,
        ..Default::default()
    });
    let mut mismatches = Vec::new();
    for kind in ModelKind::all() {
        let mut store = make_store(kind, StoreConfig::with_buffer_pages(240));
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        for q in QueryId::all() {
            let expect = golden_io_calls(kind, q);
            let spec = WorkloadSpec::for_query(q);
            let got = match exec.run(store.as_mut(), &spec).unwrap() {
                PlanOutcome::Measured(m) => {
                    // Heat tracking is off by default: its additive
                    // counters must be provably zero, or the golden
                    // tables would no longer pin the pre-heat protocol.
                    assert_heat_silent(&m.snapshot, &format!("{kind}/{q}"));
                    Some(m.snapshot.io_calls())
                }
                PlanOutcome::Unsupported => None,
            };
            if got != expect {
                mismatches.push(format!("{kind}/{q}: golden {expect:?}, run {got:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "I/O-call grouping regressed:\n{}",
        mismatches.join("\n")
    );
}

/// Heat tracking is observation-only: with tracking **on**, every
/// model × query cell must still reproduce the golden `io_calls` exactly
/// (and the page counters too) — only the additive `heat_*` counters may
/// move, and they must actually move (the signal exists).
#[test]
fn heat_tracking_on_leaves_golden_io_calls_identical() {
    let db = generate(&DatasetParams {
        n_objects: 300,
        seed: 4242,
        ..Default::default()
    });
    let mut heat_records = 0u64;
    for kind in ModelKind::all() {
        let mut store = make_store(
            kind,
            StoreConfig::with_buffer_pages(240).heat(starfish::core::HeatConfig::enabled()),
        );
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        for q in QueryId::all() {
            let expect = golden_io_calls(kind, q);
            let spec = WorkloadSpec::for_query(q);
            let got = match exec.run(store.as_mut(), &spec).unwrap() {
                PlanOutcome::Measured(m) => {
                    heat_records += m.snapshot.heat_records;
                    Some(m.snapshot.io_calls())
                }
                PlanOutcome::Unsupported => None,
            };
            assert_eq!(
                got, expect,
                "{kind}/{q}: heat tracking perturbed the I/O-call protocol"
            );
        }
    }
    assert!(
        heat_records > 0,
        "tracking was on but recorded no accesses — the heat signal is dead"
    );
}

/// Multi-page calls are the point: the direct models must move more than
/// one page per call on the object-heavy queries, while NSM stays at
/// exactly one page per call — the paper's §6 observation, as a structural
/// guard on the golden table itself.
#[test]
fn direct_models_group_pages_per_call_nsm_does_not() {
    let db = generate(&DatasetParams {
        n_objects: 300,
        seed: 4242,
        ..Default::default()
    });
    // DSM query 2b: pages/call well above 1.
    let mut dsm = make_store(ModelKind::Dsm, StoreConfig::with_buffer_pages(240));
    let refs = dsm.load(&db).unwrap();
    let exec = Executor::new(refs, 1993);
    let outcome = exec.run(dsm.as_mut(), &WorkloadSpec::q2b()).unwrap();
    let m = outcome.run().unwrap();
    let pages_per_call = m.snapshot.pages_read as f64 / m.snapshot.read_calls as f64;
    assert!(
        pages_per_call > 1.5,
        "DSM must use multi-page calls ({pages_per_call:.2} pages/call)"
    );

    // NSM query 1b: exactly one page per read call.
    let mut nsm = make_store(ModelKind::Nsm, StoreConfig::with_buffer_pages(240));
    let refs = nsm.load(&db).unwrap();
    let exec = Executor::new(refs, 1993);
    let outcome = exec.run(nsm.as_mut(), &WorkloadSpec::q1b()).unwrap();
    let m = outcome.run().unwrap();
    assert_eq!(
        m.snapshot.pages_read, m.snapshot.read_calls,
        "NSM reads a single page per call"
    );
}

/// The golden table covers the full 5 × 7 grid with exactly one
/// unsupported cell (NSM/1a).
#[test]
fn golden_io_call_table_is_complete() {
    assert_eq!(GOLDEN_IO_CALLS_FAST.len(), 35);
    let unsupported: Vec<_> = GOLDEN_IO_CALLS_FAST
        .iter()
        .filter(|(_, _, c)| c.is_none())
        .collect();
    assert_eq!(unsupported.len(), 1);
    assert_eq!(unsupported[0].0, "NSM");
    assert_eq!(unsupported[0].1, "1a");
}
