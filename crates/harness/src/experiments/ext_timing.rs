//! Extension experiment: estimated response times via Equation 1.
//!
//! The paper measures logical counts and gives a single wall-clock anecdote
//! (§5.2: NSM's query-2b run "took about 2.5 hours, whereas the same query
//! was executed within at most 0.5 hour for the other storage models" on a
//! Sun 3/60). This experiment plugs the measured counts into Equation 1
//! (`C = d1·calls + d2·pages` + a CPU term per fix) under two weight sets:
//! the calibrated 1989-era workstation and a modern NVMe machine — an
//! ablation of which 1993 conclusions survive today's hardware.

use crate::report::{ExperimentReport, Table};
use crate::runner::MeasuredGrid;
use starfish_core::ModelKind;
use starfish_cost::{CostWeights, QueryId};

/// Estimated whole-program time for the loop queries (counts × loops).
fn program_ms(grid: &MeasuredGrid, model: ModelKind, q: QueryId, w: &CostWeights) -> Option<f64> {
    let cell = grid.cell(model, q)?;
    let loops = q.loops(grid.config.n_objects as u64) as f64;
    Some(w.cost_ms(
        cell.calls_per_unit() * loops,
        cell.pages_per_unit() * loops,
        cell.fixes_per_unit() * loops,
    ))
}

/// Builds the response-time table from a measured grid.
pub fn run(grid: &MeasuredGrid) -> ExperimentReport {
    let era = CostWeights::sun_3_60_era();
    let nvme = CostWeights::modern_nvme();
    let mut table = Table::new(vec![
        "MODEL",
        "2b 1989-era",
        "3b 1989-era",
        "2b modern",
        "3b modern",
    ]);
    for (model, _) in &grid.rows {
        let fmt = |v: Option<f64>| v.map(CostWeights::human).unwrap_or_else(|| "-".into());
        table.push_row(vec![
            super::grid_label(*model),
            fmt(program_ms(grid, *model, QueryId::Q2b, &era)),
            fmt(program_ms(grid, *model, QueryId::Q3b, &era)),
            fmt(program_ms(grid, *model, QueryId::Q2b, &nvme)),
            fmt(program_ms(grid, *model, QueryId::Q3b, &nvme)),
        ]);
    }

    let mut notes = vec![
        "Equation 1 with weights d1 = 30 ms/call, d2 = 2 ms/page plus 20 ms of CPU \
         per buffer fix (calibrated on the paper's own 2.5-hour anecdote); the \
         modern column uses 0.02 ms/call, 0.002 ms/page, 0.5 µs/fix"
            .into(),
    ];
    if let (Some(nsm), Some(others)) = (
        program_ms(grid, ModelKind::Nsm, QueryId::Q2b, &era),
        program_ms(grid, ModelKind::DasdbsNsm, QueryId::Q2b, &era),
    ) {
        notes.push(format!(
            "1989-era query 2b: NSM ≈ {} vs DASDBS-NSM ≈ {} — the paper's \
             \"about 2.5 hours\" vs \"within at most 0.5 hour\"",
            CostWeights::human(nsm),
            CostWeights::human(others)
        ));
    }
    if let (Some(nsm), Some(dsm)) = (
        program_ms(grid, ModelKind::Nsm, QueryId::Q2b, &nvme),
        program_ms(grid, ModelKind::Dsm, QueryId::Q2b, &nvme),
    ) {
        notes.push(format!(
            "modern hardware ablation: the I/O gap between the models shrinks to \
             milliseconds (NSM {} vs DSM {}), but NSM's CPU blow-up — and hence \
             the paper's ranking — survives: disk counts stop mattering long \
             before page *touches* do",
            CostWeights::human(nsm),
            CostWeights::human(dsm)
        ));
    }

    ExperimentReport {
        id: "ext-timing".into(),
        title: "Extension — estimated response times (Equation 1, two hardware eras)".into(),
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
    fn era_ranking_matches_the_anecdote_shape() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &grid_models()).unwrap();
        let report = run(&grid);
        assert_eq!(report.table.rows.len(), 5);
        let era = CostWeights::sun_3_60_era();
        let nsm = program_ms(&grid, ModelKind::Nsm, QueryId::Q2b, &era).unwrap();
        for m in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
            let other = program_ms(&grid, m, QueryId::Q2b, &era).unwrap();
            assert!(
                nsm > 1.5 * other,
                "NSM ({nsm:.0} ms) must be the slowest; {m} took {other:.0} ms"
            );
        }
    }
}
