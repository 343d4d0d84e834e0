//! Figure 6 — database caching: measured query 2b (pages per loop) against
//! the analytic best/worst-case envelope while the database size varies
//! (§5.4; loops = size/5; the paper's x-axis is logarithmic, 100…1500
//! objects; buffer fixed at 1200 pages).

use crate::paper::FIG6_ANCHORS;
use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{load_store, HarnessConfig};
use crate::Result;
use starfish_core::ModelKind;
use starfish_cost::{estimate, EstimatorInputs, ModelVariant, QueryId};
use starfish_workload::{generate, WorkloadSpec};

/// Models plotted in Figure 6.
pub const FIG6_MODELS: [(ModelKind, ModelVariant); 3] = [
    (ModelKind::Dsm, ModelVariant::Dsm),
    (ModelKind::DasdbsDsm, ModelVariant::DasdbsDsm),
    (ModelKind::DasdbsNsm, ModelVariant::DasdbsNsm),
];

/// One point of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// Database size in objects.
    pub n_objects: usize,
    /// Measured pages per loop.
    pub measured: f64,
    /// Analytic best case (query 2b estimate).
    pub best: f64,
    /// Analytic worst case (query 2a estimate).
    pub worst: f64,
}

/// Database sizes for the sweep, scaled from the paper's 100…1500 when the
/// harness runs a smaller overall configuration.
pub fn sweep_sizes(config: &HarnessConfig) -> Vec<usize> {
    [100usize, 200, 400, 800, 1200, 1500]
        .iter()
        .map(|&s| (s * config.n_objects).div_ceil(1500).max(10))
        .collect()
}

/// Runs the sweep for every Figure 6 model.
pub fn sweep(config: &HarnessConfig) -> Result<Vec<(ModelKind, Vec<Fig6Point>)>> {
    let sizes = sweep_sizes(config);
    let mut out = Vec::new();
    for (kind, variant) in FIG6_MODELS {
        let mut points = Vec::new();
        for &n in &sizes {
            let params = config.dataset().with_objects(n);
            let db = generate(&params);
            let (mut store, exec) = load_store(kind, &db, config)?;
            let outcome = exec.run(store.as_mut(), &WorkloadSpec::q2b())?;
            let measured = outcome.run().map_or(f64::NAN, |m| m.pages_per_unit());
            let inputs = EstimatorInputs::new(params.profile());
            let best = estimate(variant, QueryId::Q2b, &inputs)
                .expect("2b")
                .total();
            let worst = estimate(variant, QueryId::Q2a, &inputs)
                .expect("2a")
                .total();
            points.push(Fig6Point {
                n_objects: n,
                measured,
                best,
                worst,
            });
        }
        out.push((kind, points));
    }
    Ok(out)
}

/// Regenerates Figure 6 as a table plus shape notes.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let data = sweep(config)?;
    let mut table = Table::new(vec![
        "MODEL",
        "objects",
        "loops",
        "measured",
        "best-case",
        "worst-case",
    ]);
    for (kind, points) in &data {
        for p in points {
            table.push_row(vec![
                kind.paper_name().to_string(),
                p.n_objects.to_string(),
                QueryId::Q2b.loops(p.n_objects as u64).to_string(),
                fmt_pages(p.measured),
                fmt_pages(p.best),
                fmt_pages(p.worst),
            ]);
        }
    }

    let mut notes = vec![format!(
        "buffer fixed at {} pages; for small databases there is no overflow and \
         the measured values sit near the best case; as the database outgrows \
         the buffer they rise towards (but stay below) the worst case — the \
         paper's Figure 6 shape",
        config.buffer_pages
    )];
    // Quantify the shape: small-vs-large measured ratio per model.
    for (kind, points) in &data {
        let first = points.first().expect("nonempty sweep");
        let last = points.last().expect("nonempty sweep");
        notes.push(format!(
            "{}: measured {:.2} pages/loop at {} objects (best-case {:.2}) → {:.2} \
             at {} objects (worst-case {:.2})",
            kind.paper_name(),
            first.measured,
            first.n_objects,
            first.best,
            last.measured,
            last.n_objects,
            last.worst
        ));
    }
    if config.n_objects == 1500 {
        for a in FIG6_ANCHORS {
            notes.push(format!("paper §5.4 narrative: {} ≈ {}", a.what, a.paper));
        }
    }

    Ok(ExperimentReport {
        id: "fig6".into(),
        title: "Query 2b pages/loop vs database size (caching)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sensitivity_ordering_matches_paper() {
        let config = HarnessConfig::fast();
        let data = sweep(&config).unwrap();
        let by_kind =
            |k: ModelKind| -> &Vec<Fig6Point> { &data.iter().find(|(m, _)| *m == k).unwrap().1 };
        let dsm = by_kind(ModelKind::Dsm);
        let dnsm = by_kind(ModelKind::DasdbsNsm);
        // DSM is the most cache-sensitive: its measured value grows much
        // more from the smallest to the largest database than DASDBS-NSM's.
        let dsm_growth = dsm.last().unwrap().measured - dsm.first().unwrap().measured;
        let dnsm_growth = dnsm.last().unwrap().measured - dnsm.first().unwrap().measured;
        assert!(
            dsm_growth > dnsm_growth,
            "DSM growth {dsm_growth} vs DASDBS-NSM {dnsm_growth}"
        );
        // Measured stays within (or near) the analytic envelope.
        for (_, points) in &data {
            for p in points {
                assert!(
                    p.measured <= p.worst * 1.35 + 2.0,
                    "measured {} far above worst case {} at {} objects",
                    p.measured,
                    p.worst,
                    p.n_objects
                );
            }
        }
    }

    #[test]
    fn sizes_scale_with_config() {
        let sizes = sweep_sizes(&HarnessConfig::fast());
        assert_eq!(sizes.len(), 6);
        assert!(sizes[0] >= 10 && *sizes.last().unwrap() == 300);
        let full = sweep_sizes(&HarnessConfig::default());
        assert_eq!(full, vec![100, 200, 400, 800, 1200, 1500]);
    }
}
