//! Differential battery for the batched-I/O submission/completion engine:
//! off, it is byte-invisible; on, it preserves every answer.
//!
//! 1. **Engine-on golden identity (single client)**: with the engine
//!    enabled and one client, every miss drains as a solo one-page batch,
//!    so the legacy counters must reproduce the golden I/O-call table of
//!    `tests/common/golden.rs` *exactly* — while the additive engine
//!    counters light up (`batched_read_calls > 0`, queue depth pinned at
//!    1, nothing coalesced).
//! 2. **Engine-off zero counters**: the default store reports all-zero
//!    engine counters over the same suite — the fields are additive and
//!    cost nothing until switched on.
//! 3. **Engine on vs off, concurrent clients**: at 4 clients the two
//!    configurations must produce identical per-unit answers and identical
//!    fix counts for every supported query; only the physical read
//!    schedule (and its engine counters) may differ.
//!
//! Runs at the golden table's own scale/seed (300 objects, 240-page
//! buffer, seeds 4242/1993).

use starfish::core::{make_shared_store, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::prelude::*;
use starfish::workload::generate;

#[path = "common/golden.rs"]
mod golden;
use golden::golden_io_calls;

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: 300,
        seed: 4242,
        ..Default::default()
    })
}

fn config() -> StoreConfig {
    StoreConfig::with_buffer_pages(240)
}

/// Battery 1: engine on, one client — the golden table counter for
/// counter, plus populated (but solo) engine counters.
#[test]
fn engine_on_single_client_matches_golden_io_calls() {
    let db = dataset();
    let mut mismatches = Vec::new();
    for kind in ModelKind::all() {
        let mut store = make_shared_store(kind, config().io_engine(IoEngineConfig::enabled()), 1);
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        let mut engine_rows = 0u64;
        for q in QueryId::all() {
            // The concurrent protocol defers 3b's per-loop updates to a
            // tail, which reorders its physical I/O against the golden
            // table; its `&mut` run still drains misses through the same
            // engine.
            let spec = WorkloadSpec::for_query(q);
            let outcome = if q == QueryId::Q3b {
                exec.run(store.as_mut() as &mut dyn ComplexObjectStore, &spec)
                    .unwrap()
            } else {
                exec.run_concurrent(store.as_mut(), &spec, 1)
                    .unwrap()
                    .outcome
            };
            let got = match outcome {
                PlanOutcome::Measured(m) => {
                    // Per-run deltas: a solo client never queues a second
                    // request, so nothing coalesces and the depth high-water
                    // mark cannot exceed one.
                    assert_eq!(m.snapshot.coalesced_pages, 0, "{kind}/{q}: solo coalesce");
                    assert!(m.snapshot.max_queue_depth <= 1, "{kind}/{q}: solo depth");
                    golden::assert_heat_silent(&m.snapshot, &format!("{kind}/{q}"));
                    engine_rows += m.snapshot.batched_read_calls;
                    Some(m.snapshot.io_calls())
                }
                PlanOutcome::Unsupported => None,
            };
            let expect = golden_io_calls(kind, q);
            if got != expect {
                mismatches.push(format!("{kind}/{q}: golden {expect:?}, run {got:?}"));
            }
        }
        assert!(
            engine_rows > 0,
            "{kind}: no miss ever drained through the enabled engine"
        );
    }
    assert!(
        mismatches.is_empty(),
        "engine-on single-client store drifted from the golden I/O-call table:\n{}",
        mismatches.join("\n")
    );
}

/// Battery 2: engine off (the default), the counters stay additive zeros
/// across the whole suite.
#[test]
fn engine_off_reports_zero_engine_counters() {
    let db = dataset();
    for kind in ModelKind::all() {
        let mut store = make_shared_store(kind, config(), 1);
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        for q in QueryId::all() {
            let run = exec
                .run_concurrent(store.as_mut(), &WorkloadSpec::for_query(q), 1)
                .unwrap();
            if let PlanOutcome::Measured(m) = run.outcome {
                assert_eq!(
                    (
                        m.snapshot.batched_read_calls,
                        m.snapshot.coalesced_pages,
                        m.snapshot.max_queue_depth,
                    ),
                    (0, 0, 0),
                    "{kind}/{q}: engine-off run reported engine work"
                );
            }
        }
        let s = store.snapshot();
        assert_eq!(
            (s.batched_read_calls, s.coalesced_pages, s.max_queue_depth),
            (0, 0, 0),
            "{kind}: engine-off store accumulated engine counters"
        );
    }
}

/// Battery 3: 4 concurrent clients, engine on vs off — identical answers
/// and fix counts; the engine only reschedules physical reads.
#[test]
fn engine_on_concurrent_clients_preserve_answers_and_fixes() {
    let db = dataset();
    let threads = 4;
    for kind in ModelKind::all() {
        let mut off = make_shared_store(kind, config(), threads);
        let mut on =
            make_shared_store(kind, config().io_engine(IoEngineConfig::enabled()), threads);
        let refs_off = off.load(&db).unwrap();
        let refs_on = on.load(&db).unwrap();
        let exec_off = Executor::new(refs_off, 1993);
        let exec_on = Executor::new(refs_on, 1993);
        let mut engine_calls = 0u64;
        for q in QueryId::all() {
            let spec = WorkloadSpec::for_query(q);
            let run_off = exec_off
                .run_concurrent(off.as_mut(), &spec, threads)
                .expect("engine-off run");
            let run_on = exec_on
                .run_concurrent(on.as_mut(), &spec, threads)
                .expect("engine-on run");
            assert_eq!(
                run_on.observations, run_off.observations,
                "{kind}/{q}: the engine changed an answer"
            );
            match (&run_on.outcome, &run_off.outcome) {
                (PlanOutcome::Measured(a), PlanOutcome::Measured(b)) => {
                    assert_eq!(
                        a.snapshot.fixes, b.snapshot.fixes,
                        "{kind}/{q}: the engine changed the logical access count"
                    );
                    engine_calls += a.snapshot.batched_read_calls;
                }
                (a, b) => assert_eq!(
                    a.run().is_some(),
                    b.run().is_some(),
                    "{kind}/{q}: support divergence"
                ),
            }
        }
        assert!(
            engine_calls > 0,
            "{kind}: no concurrent miss drained through the engine"
        );
    }
}
