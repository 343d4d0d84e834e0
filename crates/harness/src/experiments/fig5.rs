//! Figure 5 — measured page I/Os while the maximum number of sightseeings
//! is 0 (white bars), 15 (grey) and 30 (black), for queries 1c, 2b and 3b.
//!
//! "The larger the sub-objects not used, the larger the advantage of
//! DASDBS-DSM over DSM" (§5.3).

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{load_store, HarnessConfig};
use crate::Result;
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_workload::{generate, DatasetStats, WorkloadSpec};

/// The sightseeing maxima the paper sweeps.
pub const SIGHTSEEING_MAXIMA: [u32; 3] = [0, 15, 30];

/// Models shown in Figure 5 ("pure NSM has not shown to be particularly
/// suited ... we do not consider this storage model any longer").
pub const FIG5_MODELS: [ModelKind; 3] =
    [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm];

/// Queries shown in Figure 5.
pub const FIG5_QUERIES: [QueryId; 3] = [QueryId::Q1c, QueryId::Q2b, QueryId::Q3b];

/// Raw sweep results: `cells[query][model][sightseeing_variant]`.
pub struct Fig5Data {
    /// Average sightseeings observed per variant.
    pub avg_sightseeings: [f64; 3],
    /// Measured pages read+written per unit (`None`: query unsupported).
    pub cells: Vec<Vec<Vec<Option<f64>>>>,
}

/// Runs the sweep.
pub fn sweep(config: &HarnessConfig) -> Result<Fig5Data> {
    let mut avg = [0.0f64; 3];
    let mut cells =
        vec![vec![vec![None; SIGHTSEEING_MAXIMA.len()]; FIG5_MODELS.len()]; FIG5_QUERIES.len()];
    for (si, &max_s) in SIGHTSEEING_MAXIMA.iter().enumerate() {
        let params = config.dataset().with_max_sightseeing(max_s);
        let db = generate(&params);
        avg[si] = DatasetStats::compute(&db).avg_sightseeings;
        for (mi, &model) in FIG5_MODELS.iter().enumerate() {
            let (mut store, exec) = load_store(model, &db, config)?;
            for (qi, &q) in FIG5_QUERIES.iter().enumerate() {
                let outcome = exec.run(store.as_mut(), &WorkloadSpec::for_query(q))?;
                cells[qi][mi][si] = outcome.run().map(|run| run.pages_per_unit());
            }
        }
    }
    Ok(Fig5Data {
        avg_sightseeings: avg,
        cells,
    })
}

/// Regenerates Figure 5 as a table (query × model rows, one column per
/// sightseeing maximum).
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let data = sweep(config)?;
    let mut table = Table::new(vec!["QUERY / MODEL", "maxSee=0", "maxSee=15", "maxSee=30"]);
    for (qi, &q) in FIG5_QUERIES.iter().enumerate() {
        for (mi, &model) in FIG5_MODELS.iter().enumerate() {
            let mut row = vec![format!("{q}  {}", model.paper_name())];
            for si in 0..SIGHTSEEING_MAXIMA.len() {
                row.push(match data.cells[qi][mi][si] {
                    Some(pages) => fmt_pages(pages),
                    None => "-".into(),
                });
            }
            table.push_row(row);
        }
    }

    let gap = |qi: usize, si: usize| -> f64 {
        let dsm = data.cells[qi][0][si].unwrap_or(f64::NAN);
        let ddsm = data.cells[qi][1][si].unwrap_or(f64::NAN);
        dsm - ddsm
    };
    let dnsm_2b: Vec<f64> = (0..3)
        .map(|si| data.cells[1][2][si].unwrap_or(f64::NAN))
        .collect();
    let notes = vec![
        format!(
            "observed sightseeings per station: {:.2} / {:.2} / {:.2} \
             (paper: 0 / 7.64 / 15.3)",
            data.avg_sightseeings[0], data.avg_sightseeings[1], data.avg_sightseeings[2]
        ),
        format!(
            "paper shape — the DSM−(DASDBS-DSM) gap on query 2b grows with unused \
             sub-object volume: {:.2} → {:.2} → {:.2} pages/loop",
            gap(1, 0),
            gap(1, 1),
            gap(1, 2)
        ),
        format!(
            "paper shape — DASDBS-NSM query 2b is independent of the sightseeing \
             size (paper: 2.05 / 2.05 / 2.05): {:.2} / {:.2} / {:.2}",
            dnsm_2b[0], dnsm_2b[1], dnsm_2b[2]
        ),
        "paper shape — with the update query 3b the advantage of DASDBS-NSM over \
         the direct models remains, and DASDBS-DSM is hurt by its page-pool \
         change-attribute updates, especially for small objects"
            .into(),
    ];

    Ok(ExperimentReport {
        id: "fig5".into(),
        title: "Page I/Os vs object size (max sightseeings 0 / 15 / 30)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_match_paper() {
        let config = HarnessConfig::fast();
        let data = sweep(&config).unwrap();
        // DASDBS-NSM 2b flat across sightseeing sizes (within noise).
        let v: Vec<f64> = (0..3).map(|si| data.cells[1][2][si].unwrap()).collect();
        assert!(
            (v[0] - v[2]).abs() < 0.8,
            "DASDBS-NSM q2b should not depend on sightseeings: {v:?}"
        );
        // The DSM vs DASDBS-DSM q2b gap grows with object size.
        let gap0 = data.cells[1][0][0].unwrap() - data.cells[1][1][0].unwrap();
        let gap2 = data.cells[1][0][2].unwrap() - data.cells[1][1][2].unwrap();
        assert!(gap2 > gap0, "gap must grow: {gap0} -> {gap2}");
        // Bigger objects cost more pages for DSM on q1c.
        let dsm0 = data.cells[0][0][0].unwrap();
        let dsm2 = data.cells[0][0][2].unwrap();
        assert!(dsm2 > dsm0);
    }

    #[test]
    fn report_renders() {
        let report = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(report.table.rows.len(), 9);
        assert!(report.render().contains("maxSee=30"));
    }
}
