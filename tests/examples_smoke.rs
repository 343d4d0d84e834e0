//! Examples smoke gate.
//!
//! `cargo test` (and CI's `cargo check --examples` / clippy `--all-targets`)
//! already compiles every file under `examples/`, so an example that stops
//! building fails the suite. These tests additionally *run* the logic of
//! `quickstart` and `model_comparison` on tiny datasets through the same
//! public API the examples use, so the flows they demonstrate cannot
//! silently rot either.

use starfish::core::make_store;
use starfish::cost::{estimate, EstimatorInputs, ModelVariant, QueryId};
use starfish::nf2::station::{Connection, Platform, Sightseeing};
use starfish::prelude::*;
use starfish::workload::generate;

/// A demo station mirroring `examples/quickstart.rs`.
fn demo_station(name: &str, key: i32, children: &[u32]) -> Station {
    let pad = |s: &str| format!("{s:<100}").chars().take(100).collect::<String>();
    Station {
        key,
        name: pad(name),
        platforms: vec![Platform {
            platform_nr: 1,
            no_line: children.len() as i32,
            ticket_code: 7,
            information: pad("platform info"),
            connections: children
                .iter()
                .map(|&c| Connection {
                    line_nr: 1,
                    key_connection: c as i32,
                    oid_connection: Oid(c),
                    departure_times: pad("06:00 08:00 10:00"),
                })
                .collect(),
        }],
        sightseeings: (0..8)
            .map(|i| Sightseeing {
                seeing_nr: i,
                description: pad("a sight"),
                location: pad("old town"),
                history: pad("est. 1871"),
                remarks: pad("closed on mondays"),
            })
            .collect(),
    }
}

/// The `quickstart` flow: hand-built network, all five models, the three
/// access paths the example prints.
#[test]
fn quickstart_flow_runs_on_every_model() {
    let stations = vec![
        demo_station("Zurich HB", 0, &[1, 2]),
        demo_station("Enschede", 1, &[0]),
        demo_station("Bombay VT", 2, &[0, 1]),
    ];
    for kind in ModelKind::all() {
        let mut store = make_store(kind, StoreConfig::default());
        let refs = store.load(&stations).expect("load");
        assert_eq!(store.object_count(), 3);
        assert!(store.database_pages() > 0, "{kind}: empty database");

        store.clear_cache().unwrap();
        store.reset_stats();
        if let Ok(t) = store.get_by_oid(refs[0].oid, &Projection::All) {
            let back = Station::from_tuple(&t).unwrap();
            assert_eq!(back.name.trim_end(), "Zurich HB");
            assert!(store.snapshot().pages_io() > 0, "{kind}: free q1a");
        } else {
            assert_eq!(kind, ModelKind::Nsm, "only NSM lacks OID access");
        }

        store.clear_cache().unwrap();
        store.reset_stats();
        let children = store.children_of(&refs[..1]).expect("navigate");
        assert_eq!(children.len(), 2);
        assert!(store.snapshot().pages_io() > 0, "{kind}: free navigation");

        store.clear_cache().unwrap();
        store.reset_stats();
        let t = store
            .get_by_key(refs[2].key, &Projection::All)
            .expect("lookup");
        assert_eq!(Station::from_tuple(&t).unwrap().platforms.len(), 1);
        assert!(store.snapshot().pages_io() > 0, "{kind}: free key lookup");
    }
}

/// The `model_comparison` flow: generated dataset, measured queries next to
/// the analytical estimator, for every (ModelKind, ModelVariant) pair.
#[test]
fn model_comparison_flow_measures_and_estimates() {
    let params = DatasetParams {
        n_objects: 40,
        ..Default::default()
    };
    let db = generate(&params);
    let inputs = EstimatorInputs::new(params.profile());
    let variants = [
        (ModelKind::Dsm, ModelVariant::Dsm),
        (ModelKind::DasdbsDsm, ModelVariant::DasdbsDsm),
        (ModelKind::Nsm, ModelVariant::Nsm),
        (ModelKind::NsmIndexed, ModelVariant::NsmIndexed),
        (ModelKind::DasdbsNsm, ModelVariant::DasdbsNsm),
    ];
    for (kind, variant) in variants {
        let mut store = make_store(kind, StoreConfig::default());
        let refs = store.load(&db).expect("load");
        let exec = Executor::new(refs, 1993);
        for q in [QueryId::Q1a, QueryId::Q2a, QueryId::Q2b, QueryId::Q3b] {
            let spec = WorkloadSpec::for_query(q);
            let measured = match exec.run(store.as_mut(), &spec).expect("query") {
                PlanOutcome::Measured(m) => Some(m.pages_per_unit()),
                PlanOutcome::Unsupported => None,
            };
            let analytic = estimate(variant, q, &inputs).map(|c| c.total());
            if let Some(v) = measured {
                assert!(v.is_finite() && v > 0.0, "{kind} q{q}: measured {v}");
            } else {
                assert_eq!((kind, q), (ModelKind::Nsm, QueryId::Q1a));
            }
            if let Some(a) = analytic {
                assert!(a.is_finite() && a > 0.0, "{kind} q{q}: analytic {a}");
            }
        }
    }
}
