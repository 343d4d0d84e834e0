//! Table 4 — measured physical page I/Os.

use crate::report::ExperimentReport;
use crate::runner::MeasuredGrid;
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_workload::PlanRun;

/// Renders Table 4 (pages read + written per object / per loop) from a
/// measured grid.
pub fn run(grid: &MeasuredGrid) -> ExperimentReport {
    let table = super::grid_table(grid, PlanRun::pages_per_unit);

    let mut notes = vec![
        format!(
            "measured on the simulated engine: {} objects, {}-page buffer; \
             writes include the database-disconnect flush",
            grid.config.n_objects, grid.config.buffer_pages
        ),
        "shape checks vs the paper's Table 4: direct models cost several pages per \
         object on query 1; value selection (1b) costs the whole database for \
         DSM/NSM but only the root relation + addresses for DASDBS-NSM; DASDBS-NSM \
         needs the fewest pages on navigation (2a/2b)"
            .into(),
    ];
    // Spell out the query-3 write components (the paper discusses them).
    for model in [
        ModelKind::Dsm,
        ModelKind::DasdbsDsm,
        ModelKind::Nsm,
        ModelKind::DasdbsNsm,
    ] {
        if let Some(c) = grid.cell(model, QueryId::Q3b) {
            notes.push(format!(
                "{}: query 3b = {:.2} reads + {:.2} writes per loop",
                model.paper_name(),
                c.reads_per_unit(),
                c.writes_per_unit()
            ));
        }
    }

    ExperimentReport {
        id: "table4".into(),
        title: "Measured physical page I/Os (X_IO_pages)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid_models;
    use crate::runner::{measure_grid, HarnessConfig};

    #[test]
    fn renders_grid_with_paper_shapes() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &grid_models()).unwrap();
        let report = run(&grid);
        assert_eq!(report.table.rows.len(), 5);

        // Paper shape (i): 1b is whole-database for DSM but near root-relation
        // size for DASDBS-NSM.
        let pages = |m, q| grid.cell(m, q).unwrap().pages_per_unit();
        let dsm_1b = pages(ModelKind::Dsm, QueryId::Q1b);
        let dnsm_1b = pages(ModelKind::DasdbsNsm, QueryId::Q1b);
        assert!(dsm_1b > 10.0 * dnsm_1b, "{dsm_1b} vs {dnsm_1b}");

        // Paper shape (ii): DASDBS-DSM reads fewer pages than DSM on 2a.
        let dsm = pages(ModelKind::Dsm, QueryId::Q2a);
        let ddsm = pages(ModelKind::DasdbsDsm, QueryId::Q2a);
        assert!(ddsm < dsm, "{ddsm} vs {dsm}");

        // Paper shape (iii): DASDBS-NSM cheapest on 2b.
        let dnsm = pages(ModelKind::DasdbsNsm, QueryId::Q2b);
        for m in [ModelKind::Dsm, ModelKind::DasdbsDsm] {
            assert!(dnsm < pages(m, QueryId::Q2b), "{m}");
        }
    }
}
