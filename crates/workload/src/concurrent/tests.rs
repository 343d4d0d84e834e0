//! The paper's queries through the multi-client protocols
//! ([`Executor::run_concurrent`], [`Executor::run_stream`]): answers, fix
//! totals and final disk bytes are thread-count invariant, and one thread
//! over one shard replays the serial run.

use crate::executor::tests::{serial_setup, shared_setup};
use crate::{MixKind, PlanOutcome, WorkloadSpec};
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_nf2::Oid;

#[test]
fn one_thread_one_shard_matches_serial_runner() {
    for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
        for q in [
            QueryId::Q1a,
            QueryId::Q1b,
            QueryId::Q1c,
            QueryId::Q2a,
            QueryId::Q2b,
            QueryId::Q3a,
        ] {
            let spec = WorkloadSpec::for_query(q);
            let (mut serial, exec) = serial_setup(kind);
            let want = exec.run(serial.as_mut(), &spec).unwrap();

            let (mut store, exec) = shared_setup(kind, 1);
            let got = exec.run_concurrent(store.as_mut(), &spec, 1).unwrap();
            assert_eq!(
                got.outcome, want,
                "{kind}/{q}: 1 thread × 1 shard must equal the serial run"
            );
        }
    }
}

#[test]
fn answers_and_fixes_independent_of_thread_count() {
    let spec = WorkloadSpec::q2b();
    for kind in [ModelKind::DasdbsDsm, ModelKind::NsmIndexed] {
        let (mut store, exec) = shared_setup(kind, 1);
        let base = exec.run_concurrent(store.as_mut(), &spec, 1).unwrap();
        let base_m = base.outcome.run().unwrap();
        for threads in [2, 4] {
            let (mut store, exec) = shared_setup(kind, threads);
            let got = exec.run_concurrent(store.as_mut(), &spec, threads).unwrap();
            assert_eq!(got.observations, base.observations, "{kind}: answers moved");
            let m = got.outcome.run().unwrap();
            assert_eq!(m.snapshot.fixes, base_m.snapshot.fixes, "{kind}");
            assert_eq!(m.units, base_m.units);
            assert_eq!(got.threads, threads);
        }
    }
}

#[test]
fn pure_nsm_q1a_is_unsupported_concurrently_too() {
    let (mut store, exec) = shared_setup(ModelKind::Nsm, 2);
    let got = exec
        .run_concurrent(store.as_mut(), &WorkloadSpec::q1a(), 2)
        .unwrap();
    assert_eq!(got.outcome, PlanOutcome::Unsupported);
    assert!(got.observations.is_empty());
}

#[test]
fn q3a_updates_apply_identically_for_any_thread_count() {
    use starfish_nf2::station::Station;
    let mut checksums = Vec::new();
    for threads in [1usize, 2, 4] {
        let (mut store, exec) = shared_setup(ModelKind::Dsm, threads);
        exec.run_concurrent(store.as_mut(), &WorkloadSpec::q3a(), threads)
            .unwrap();
        checksums.push(store.disk_checksum());
        // And the logical content matches too.
        store.clear_cache().unwrap();
        let mut names = Vec::new();
        store
            .scan_all(&mut |t| {
                names.push(Station::from_tuple(t).unwrap().name);
            })
            .unwrap();
        assert!(names.iter().any(|n| n.starts_with("updated-")), "{threads}");
    }
    assert_eq!(checksums[0], checksums[1], "2 writers diverged from 1");
    assert_eq!(checksums[0], checksums[2], "4 writers diverged from 1");
}

#[test]
fn navigation_answers_carry_real_refs() {
    let (mut store, exec) = shared_setup(ModelKind::DasdbsNsm, 2);
    let spec = WorkloadSpec::q2b();
    let got = exec.run_concurrent(store.as_mut(), &spec, 2).unwrap();
    assert_eq!(
        got.observations.len(),
        spec.units(exec.refs().len()) as usize
    );
    for obs in &got.observations {
        assert!(obs.root.oid != Oid(u32::MAX));
        assert!(obs.retrieved.is_empty(), "2b units are navigations");
        assert_eq!(obs.hops.len(), 2, "children, then grand-children");
        assert_eq!(obs.hops[1].len(), obs.records.len());
    }
}

#[test]
fn mixed_stream_composition_is_deterministic() {
    assert!(!MixKind::ReadOnly.is_update(0));
    assert!(!MixKind::ReadOnly.is_update(7));
    assert!(MixKind::Mixed5050.is_update(1));
    assert!(!MixKind::Mixed5050.is_update(2));
    let heavy = (0..8)
        .filter(|&i| MixKind::UpdateHeavy.is_update(i))
        .count();
    assert_eq!(heavy, 6, "update-heavy is 3 of 4");
    assert_eq!(MixKind::all().len(), 3);
}

#[test]
fn mixed_streams_serve_and_count_every_mix() {
    for kind in [ModelKind::DasdbsNsm, ModelKind::Dsm] {
        for mix in MixKind::all() {
            for threads in [1usize, 3] {
                let (mut store, exec) = shared_setup(kind, threads);
                let spec = WorkloadSpec::mixed(mix);
                let loops = spec.units(exec.refs().len());
                let run = exec.run_stream(store.as_mut(), &spec, threads).unwrap();
                assert_eq!(run.requests, loops, "{kind}/{threads}");
                assert_eq!(
                    run.updates,
                    (0..loops as usize).filter(|&i| mix.is_update(i)).count() as u64
                );
                assert!(run.snapshot.fixes > 0);
                if mix == MixKind::ReadOnly {
                    assert_eq!(run.snapshot.pages_written, 0, "reads never write");
                    assert_eq!(run.snapshot.latch_exclusive, 0);
                } else {
                    assert!(run.snapshot.pages_written > 0, "updates must write");
                    assert!(run.snapshot.latch_exclusive > 0, "writers latch");
                }
                assert_eq!(run.threads, threads);
            }
        }
    }
}

#[test]
fn mixed_requests_and_fixes_are_thread_count_invariant() {
    // The stream composition (and therefore total fixes) must not
    // depend on how many clients serve it.
    let mut base: Option<u64> = None;
    for threads in [1usize, 2, 4] {
        let (mut store, exec) = shared_setup(ModelKind::DasdbsNsm, threads);
        let run = exec
            .run_stream(
                store.as_mut(),
                &WorkloadSpec::mixed(MixKind::Mixed5050),
                threads,
            )
            .unwrap();
        match base {
            None => base = Some(run.snapshot.fixes),
            Some(want) => assert_eq!(run.snapshot.fixes, want, "{threads} threads"),
        }
    }
}
