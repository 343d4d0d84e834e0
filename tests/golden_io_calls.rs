//! Golden I/O-*call* check: the Table-5 dimension of the paper.
//!
//! `tests/golden_lru.rs` pins every counter of the golden table field by
//! field; this test pins the figure the paper reports, `IoSnapshot::io_calls`
//! (`read_calls + write_calls`: one call may transfer several contiguous
//! pages), against the same table for queries 1a–3b × all five models at
//! the harness's fast scale, and checks that the table's call columns are
//! consistent with its page columns. There is no second table: the
//! expected calls are summed from `tests/common/golden.rs`.

use starfish::core::{make_store, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::workload::{generate, DatasetParams, Executor, PlanOutcome, WorkloadSpec};

#[path = "common/golden.rs"]
mod golden;
use golden::{assert_heat_silent, golden, GOLDEN_FAST, GOLDEN_PAPER};

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
            let expect = golden(GOLDEN_FAST, kind, q).map(|(rc, _, wc, _, _)| rc + wc);
            let spec = WorkloadSpec::for_query(q);
            let got = match exec.run(store.as_mut(), &spec).unwrap() {
                PlanOutcome::Measured(m) => {
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

/// The call columns of the golden table are consistent with its page
/// columns at both scales: a call moves at least one page, and a cell
/// moves pages exactly when it makes calls.
#[test]
fn golden_io_call_table_is_complete() {
    for table in [GOLDEN_FAST, GOLDEN_PAPER] {
        for (model, query, cell) in table {
            let Some((rc, pr, wc, pw, _)) = *cell else {
                continue;
            };
            assert!(rc <= pr, "{model}/{query}: {rc} read calls for {pr} pages");
            assert!(wc <= pw, "{model}/{query}: {wc} write calls for {pw} pages");
            assert_eq!(rc == 0, pr == 0, "{model}/{query}: reads without calls");
            assert_eq!(wc == 0, pw == 0, "{model}/{query}: writes without calls");
        }
    }
}
