//! Extension experiment: packed vs sub-tuple-aligned data pages.
//!
//! DASDBS kept addressable sub-tuples whole on a page, which costs
//! *alignment waste*: the paper's average station occupies `p = 4` allocated
//! pages of which only ≈3 hold data, and DSM reads the waste while
//! DASDBS-DSM's header-guided reads dodge it (the 4.00-vs-3.00 query-1 gap
//! between the unprimed and primed rows of Table 3). Our engine defaults to
//! packed pages (the primed behaviour); this ablation turns the DASDBS
//! layout on and measures what the waste costs each model.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{HarnessConfig, QUERY_SEED};
use crate::Result;
use starfish_core::{make_store, ModelKind, StoreConfig};
use starfish_cost::QueryId;
use starfish_workload::{generate, Executor, WorkloadSpec};

/// Models affected by direct-layout alignment.
pub const MODELS: [ModelKind; 2] = [ModelKind::Dsm, ModelKind::DasdbsDsm];

/// Queries measured.
pub const QUERIES: [QueryId; 3] = [QueryId::Q1a, QueryId::Q1c, QueryId::Q2b];

/// Runs the ablation.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let mut table = Table::new(vec![
        "MODEL", "layout", "DB pages", "p (avg)", "1a", "1c", "2b",
    ]);
    let mut q1a = [[0.0f64; 2]; 2]; // [model][layout]
    for (mi, &kind) in MODELS.iter().enumerate() {
        for (li, aligned) in [(0, false), (1, true)] {
            // `--policy` is not applied here: the default (LRU) always.
            let store_config = StoreConfig::with_buffer_pages(config.buffer_pages);
            let store_config = if aligned {
                store_config.aligned()
            } else {
                store_config
            };
            let mut store = make_store(kind, store_config);
            let refs = store.load(&db)?;
            let exec = Executor::new(refs, QUERY_SEED);
            let mut cells = Vec::new();
            for q in QUERIES {
                let outcome = exec.run(store.as_mut(), &WorkloadSpec::for_query(q))?;
                let m = outcome.run().expect("direct models support all queries");
                cells.push(m.pages_per_unit());
            }
            q1a[mi][li] = cells[0];
            let p = store.relation_info()[0].p.unwrap_or(1.0);
            table.push_row(vec![
                kind.paper_name().to_string(),
                if aligned {
                    "aligned".into()
                } else {
                    "packed".to_string()
                },
                store.database_pages().to_string(),
                format!("{p:.2}"),
                fmt_pages(cells[0]),
                fmt_pages(cells[1]),
                fmt_pages(cells[2]),
            ]);
        }
    }

    let notes = vec![
        "packed = data cut every 2012 bytes (our default, the paper's primed \
         rows); aligned = sub-tuples kept whole per page (DASDBS's layout, the \
         unprimed rows)"
            .into(),
        format!(
            "DSM query 1a: {:.2} packed → {:.2} aligned — the waste is read; \
             DASDBS-DSM: {:.2} → {:.2} — full retrievals still touch every \
             data-carrying page, but its *projected* reads (queries 2/3) dodge \
             the waste entirely",
            q1a[0][0], q1a[0][1], q1a[1][0], q1a[1][1]
        ),
        "the paper's Table 2 'S_tuple = 6078 B / p = 4' for an object whose data \
         is ~3 pages is exactly this effect plus a fully-counted header page"
            .into(),
    ];

    Ok(ExperimentReport {
        id: "ext-alignment".into(),
        title: "Extension — packed vs sub-tuple-aligned direct layout".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_costs_pages_and_never_helps_reads() {
        let report = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(report.table.rows.len(), 4);
        // DB pages: aligned > packed for both models.
        for mi in 0..2 {
            let packed: f64 = report.table.rows[mi * 2][2].parse().unwrap();
            let aligned: f64 = report.table.rows[mi * 2 + 1][2].parse().unwrap();
            assert!(aligned > packed, "row {mi}: {aligned} vs {packed}");
            // And the measured p grows.
            let pp: f64 = report.table.rows[mi * 2][3].parse().unwrap();
            let pa: f64 = report.table.rows[mi * 2 + 1][3].parse().unwrap();
            assert!(pa > pp);
        }
    }
}
