//! Table 5 — measured I/O calls.

use crate::paper::{compare, TABLE5_ANCHORS};
use crate::report::ExperimentReport;
use crate::runner::MeasuredGrid;
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_workload::PlanRun;

/// Renders Table 5 (I/O calls per object / per loop) from a measured grid.
pub fn run(grid: &MeasuredGrid) -> ExperimentReport {
    let table = super::grid_table(grid, PlanRun::calls_per_unit);

    let mut notes = vec![
        "one call transfers a contiguous page run: the direct models read a large \
         object as root-page call + header calls + data-run call (≈2 pages/call); \
         the normalized models' scans read one page per call; flush-time writes \
         are grouped (≤32 pages per call), as DASDBS's deferred writes were"
            .into(),
    ];
    // Pages-per-call ratios, the §5.2 discussion.
    for model in [ModelKind::Dsm, ModelKind::Nsm] {
        if let Some(scan) = grid.cell(model, QueryId::Q1c).map(|c| c.snapshot) {
            if scan.read_calls > 0 {
                notes.push(format!(
                    "{}: {:.2} pages per read call on the full scan (paper: ≈2 for \
                     DSM, 1 for NSM)",
                    model.paper_name(),
                    scan.pages_read as f64 / scan.read_calls as f64
                ));
            }
        }
    }
    if grid.config.n_objects == 1500 {
        for anchor in TABLE5_ANCHORS {
            if let Some(ours) = super::grid_anchor(grid, anchor.what, PlanRun::calls_per_unit) {
                notes.push(compare(anchor, ours));
            }
        }
    }

    ExperimentReport {
        id: "table5".into(),
        title: "Measured I/O calls (X_IO_calls)".into(),
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
    fn calls_never_exceed_pages() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &grid_models()).unwrap();
        let report = run(&grid);
        assert_eq!(report.table.rows.len(), 5);
        for (_, cells) in &grid.rows {
            for c in cells.iter().flatten() {
                assert!(
                    c.calls_per_unit() <= c.pages_per_unit() + 1e-9,
                    "a call moves ≥ 1 page"
                );
            }
        }
    }

    #[test]
    fn direct_models_move_multiple_pages_per_call() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &[ModelKind::Dsm]).unwrap();
        let c = grid.cell(ModelKind::Dsm, QueryId::Q1a).unwrap();
        let pages_per_call = c.pages_per_unit() / c.calls_per_unit();
        assert!(
            pages_per_call > 1.2,
            "DSM reads ≈2 pages per call, got {pages_per_call}"
        );
    }
}
