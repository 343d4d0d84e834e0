//! The paper's own validation methodology, automated: the analytical cost
//! model (Table 3) must agree with the simulated measurements (Table 4)
//! wherever the paper's assumptions hold, and deviate exactly where the
//! paper says they deviate (ceiling effects, cache overflow).

use starfish::core::{make_store, ModelKind, StoreConfig};
use starfish::cost::{estimate, EstimatorInputs, ModelVariant, QueryId};
use starfish::workload::{generate, DatasetParams, Executor, PlanOutcome, WorkloadSpec};

const N: usize = 400;

fn measured(kind: ModelKind, q: QueryId, buffer: usize) -> f64 {
    let params = DatasetParams {
        n_objects: N,
        seed: 3,
        ..Default::default()
    };
    let db = generate(&params);
    let mut store = make_store(kind, StoreConfig::with_buffer_pages(buffer));
    let refs = store.load(&db).expect("load");
    let exec = Executor::new(refs, 17);
    let spec = WorkloadSpec::for_query(q);
    match exec.run(store.as_mut(), &spec).expect("query") {
        PlanOutcome::Measured(m) => m.pages_per_unit(),
        PlanOutcome::Unsupported => f64::NAN,
    }
}

fn analytic(variant: ModelVariant, q: QueryId) -> f64 {
    let params = DatasetParams {
        n_objects: N,
        ..Default::default()
    };
    let inputs = EstimatorInputs::new(params.profile());
    estimate(variant, q, &inputs)
        .map(|c| c.total())
        .unwrap_or(f64::NAN)
}

/// Large cache: measurements must land near the best-case estimates.
#[test]
fn estimates_match_measurements_with_a_large_cache() {
    let big = 100_000; // effectively infinite
    let cases = [
        // (model, variant, query, tolerance as a fraction)
        (ModelKind::Nsm, ModelVariant::Nsm, QueryId::Q1b, 0.10),
        (ModelKind::Nsm, ModelVariant::Nsm, QueryId::Q1c, 0.10),
        (ModelKind::Nsm, ModelVariant::Nsm, QueryId::Q2a, 0.10),
        (ModelKind::Nsm, ModelVariant::Nsm, QueryId::Q2b, 0.15),
        (ModelKind::Nsm, ModelVariant::Nsm, QueryId::Q3b, 0.15),
        (
            ModelKind::NsmIndexed,
            ModelVariant::NsmIndexed,
            QueryId::Q1b,
            0.10,
        ),
        (
            ModelKind::DasdbsNsm,
            ModelVariant::DasdbsNsm,
            QueryId::Q1b,
            0.10,
        ),
        (
            ModelKind::DasdbsNsm,
            ModelVariant::DasdbsNsm,
            QueryId::Q2b,
            0.25,
        ),
        (ModelKind::Dsm, ModelVariant::Dsm, QueryId::Q2b, 0.35),
        (
            ModelKind::DasdbsDsm,
            ModelVariant::DasdbsDsm,
            QueryId::Q2b,
            0.35,
        ),
    ];
    for (kind, variant, q, tol) in cases {
        let m = measured(kind, q, big);
        let a = analytic(variant, q);
        let rel = (m - a).abs() / a.max(1e-9);
        assert!(
            rel <= tol,
            "{kind} {q}: measured {m:.2} vs analytic {a:.2} (rel {rel:.2} > {tol})"
        );
    }
}

/// The ceiling effect (§5.1): for the direct models the measured per-object
/// cost sits *below* the estimate because Equation 2 rounds the page count
/// up ("the estimated values are somewhat too large").
#[test]
fn direct_model_measurements_sit_below_the_ceiling_estimates() {
    for (kind, variant) in [(ModelKind::Dsm, ModelVariant::Dsm)] {
        for q in [QueryId::Q1a, QueryId::Q1c] {
            let m = measured(kind, q, 100_000);
            let a = analytic(variant, q);
            assert!(
                m <= a + 1e-9,
                "{kind} {q}: measured {m:.2} should not exceed the ceiling estimate {a:.2}"
            );
            assert!(
                m >= a * 0.6,
                "{kind} {q}: {m:.2} suspiciously far below {a:.2}"
            );
        }
    }
}

/// Cache overflow (§5.4): with the paper's DB ≫ buffer regime, the direct
/// models' measured 2b exceeds the best case but stays below the worst case.
#[test]
fn cache_overflow_pushes_direct_models_between_best_and_worst_case() {
    let small_buffer = 80;
    for (kind, variant) in [
        (ModelKind::Dsm, ModelVariant::Dsm),
        (ModelKind::DasdbsDsm, ModelVariant::DasdbsDsm),
    ] {
        let m = measured(kind, QueryId::Q2b, small_buffer);
        let best = analytic(variant, QueryId::Q2b);
        let worst = analytic(variant, QueryId::Q2a);
        assert!(
            m > best,
            "{kind}: overflow must push measured ({m:.2}) above best case ({best:.2})"
        );
        assert!(
            m < worst * 1.2,
            "{kind}: measured ({m:.2}) must stay near/below worst case ({worst:.2})"
        );
    }
}

/// DASDBS-NSM's working set fits even the small buffer, so overflow barely
/// moves it (the flat Figure 6 curve).
#[test]
fn dasdbs_nsm_is_insensitive_to_the_buffer_size() {
    let large = measured(ModelKind::DasdbsNsm, QueryId::Q2b, 100_000);
    let small = measured(ModelKind::DasdbsNsm, QueryId::Q2b, 300);
    assert!(
        (small - large).abs() <= 0.6 + 0.25 * large,
        "DASDBS-NSM q2b moved too much: {large:.2} -> {small:.2}"
    );
}
