//! Table 3 — analytical estimates of the number of page I/Os.

use crate::paper::{compare, TABLE3_ANCHORS};
use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::HarnessConfig;
use starfish_cost::{estimate, table3, EstimatorInputs, ModelVariant, QueryId};

/// Regenerates Table 3 from the analytical cost model (Equations 1–8).
pub fn run(config: &HarnessConfig) -> ExperimentReport {
    let inputs = EstimatorInputs::new(config.dataset().profile());
    let rows = table3(&inputs);
    let mut table = Table::new(vec!["MODEL", "1a", "1b", "1c", "2a", "2b", "3a", "3b"]);
    for row in &rows {
        let mut cells = vec![row.variant.label().to_string()];
        for cell in &row.cells {
            cells.push(match cell {
                Some(c) => fmt_pages(c.total()),
                None => "-".into(),
            });
        }
        table.push_row(cells);
    }

    let mut notes = vec![
        "best-case estimates (large cache), pages per object (query 1) or per loop \
         (queries 2/3), exactly as in the paper"
            .into(),
    ];
    for anchor in TABLE3_ANCHORS {
        if let Some(ours) = lookup(anchor.what, &inputs) {
            notes.push(compare(anchor, ours));
        }
    }

    ExperimentReport {
        id: "table3".into(),
        title: "Analytical estimates of the number of page I/Os".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    }
}

fn lookup(what: &str, inputs: &EstimatorInputs) -> Option<f64> {
    let (model, query) = what.rsplit_once(' ')?;
    let variant = ModelVariant::all()
        .into_iter()
        .find(|v| v.label() == model)?;
    let q = QueryId::all()
        .into_iter()
        .find(|q| format!("q{q}") == query)?;
    estimate(variant, q, inputs).map(|c| c.total())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_eight_rows() {
        let report = run(&HarnessConfig::default());
        assert_eq!(report.table.rows.len(), 8);
        // NSM q1a is "-".
        let nsm = report.table.rows.iter().find(|r| r[0] == "NSM").unwrap();
        assert_eq!(nsm[1], "-");
        // All anchors resolve (notes beyond the header note).
        assert!(report.notes.len() > TABLE3_ANCHORS.len() / 2);
    }

    #[test]
    fn anchor_lookup_resolves_labels() {
        let inputs = EstimatorInputs::new(HarnessConfig::default().dataset().profile());
        assert!((lookup("DSM q1a", &inputs).unwrap() - 4.0).abs() < 1e-9);
        assert!(lookup("NSM q1a", &inputs).is_none());
        assert!(lookup("DASDBS-NSM' q1b", &inputs).is_some());
    }
}
