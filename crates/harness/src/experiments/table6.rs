//! Table 6 — buffer fixes (the paper's CPU-load indicator).

use crate::paper::{compare, TABLE6_ANCHORS};
use crate::report::ExperimentReport;
use crate::runner::MeasuredGrid;
use starfish_core::ModelKind;
use starfish_cost::QueryId;
use starfish_workload::PlanRun;

/// Renders Table 6 (page fixes in buffer per object / per loop).
pub fn run(grid: &MeasuredGrid) -> ExperimentReport {
    let table = super::grid_table(grid, PlanRun::fixes_per_unit);

    let mut notes = vec![
        "every page access through the buffer counts one fix, hit or miss — the \
         paper uses this as the CPU-load indicator (§5.2)"
            .into(),
    ];
    let fixes = |m| grid.cell(m, QueryId::Q2b).map(PlanRun::fixes_per_unit);
    if let (Some(nsm), Some(dnsm)) = (fixes(ModelKind::Nsm), fixes(ModelKind::DasdbsNsm)) {
        let loops = (grid.config.n_objects / 5).max(1) as f64;
        notes.push(format!(
            "NSM query 2b touches {:.0} fixes/loop (its per-loop relation re-scans) \
             vs {:.1} for DASDBS-NSM — ×{:.0}; over the whole run NSM burns ≈{:.0} \
             fixes (paper: \"more than 370,000 page fixes\", ≈2.5 h on the Sun 3/60)",
            nsm,
            dnsm,
            nsm / dnsm.max(1e-9),
            nsm * loops,
        ));
    }
    if grid.config.n_objects == 1500 {
        for anchor in TABLE6_ANCHORS {
            if let Some(ours) = super::grid_anchor(grid, anchor.what, PlanRun::fixes_per_unit) {
                notes.push(compare(anchor, ours));
            }
        }
    }

    ExperimentReport {
        id: "table6".into(),
        title: "Measured buffer fixes".into(),
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
    fn nsm_burns_the_most_fixes_on_navigation() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &grid_models()).unwrap();
        let report = run(&grid);
        assert_eq!(report.table.rows.len(), 5);
        let fixes = |m| grid.cell(m, QueryId::Q2b).unwrap().fixes_per_unit();
        let nsm = fixes(ModelKind::Nsm);
        for m in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
            let other = fixes(m);
            assert!(
                nsm > other,
                "NSM ({nsm}) must exceed {m} ({other}) on fixes"
            );
        }
        // The ×50+ blowup vs DASDBS-NSM in the paper scales with relation
        // size; at this reduced scale it is still an order of magnitude.
        let dnsm = fixes(ModelKind::DasdbsNsm);
        assert!(
            nsm > 8.0 * dnsm,
            "NSM ({nsm}) must dwarf DASDBS-NSM ({dnsm})"
        );
        // Fixes ≥ misses ≥ 0 and fixes ≥ pages read per unit.
        for (_, cells) in &grid.rows {
            for c in cells.iter().flatten() {
                assert!(
                    c.fixes_per_unit() + 1e-9 >= c.reads_per_unit(),
                    "every miss is a fix"
                );
            }
        }
    }
}
