//! Table 2 — average stored tuple sizes and page parameters per relation.

use crate::paper::{compare, TABLE2_ANCHORS};
use crate::report::{ExperimentReport, Table};
use crate::runner::{load_store, HarnessConfig};
use crate::Result;
use starfish_core::{ModelKind, RelationInfo};
use starfish_cost::{RelParams, Table2Analytic};
use starfish_workload::{generate, DatasetStats};

/// Regenerates Table 2: measured (from the loaded stores) vs analytic (from
/// the cost model's expectations).
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let params = config.dataset();
    let db = generate(&params);
    let stats = DatasetStats::compute(&db);
    let analytic = params.profile().table2();

    let mut measured: Vec<RelationInfo> = Vec::new();
    for kind in [ModelKind::Dsm, ModelKind::Nsm, ModelKind::DasdbsNsm] {
        let (store, _) = load_store(kind, &db, config)?;
        measured.extend(store.relation_info());
    }

    let mut table = Table::new(vec![
        "RELATION", "TUP/OBJ", "TUPLES", "S_tuple", "S_anal", "k", "k_anal", "p", "p_anal", "m",
        "m_anal",
    ]);
    for ri in &measured {
        let a = find_analytic(&analytic, &ri.name);
        table.push_row(vec![
            ri.name.clone(),
            format!("{:.2}", ri.tuples_per_object),
            format!("{}", ri.total_tuples),
            format!("{:.0}", ri.avg_tuple_bytes),
            a.map(|a| format!("{:.0}", a.s_tuple)).unwrap_or_default(),
            ri.k.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
            a.and_then(|a| a.k)
                .map(|k| k.to_string())
                .unwrap_or_else(|| "-".into()),
            ri.p.map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "-".into()),
            a.and_then(|a| a.p)
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            ri.m.to_string(),
            a.map(|a| format!("{:.0}", a.m)).unwrap_or_default(),
        ]);
    }

    let mut notes = vec![format!(
        "generated extension: {:.2} platforms, {:.2} connections, {:.2} sightseeings \
         per station (paper observed 1.59 / 4.04 / 7.64)",
        stats.avg_platforms, stats.avg_connections, stats.avg_sightseeings
    )];
    // Compare against the recoverable anchors using the analytic values
    // (the paper's Table 2 is itself an expectation-level analysis).
    for anchor in TABLE2_ANCHORS {
        let ours = lookup_anchor(&analytic, anchor.what);
        if let Some(ours) = ours {
            notes.push(compare(anchor, ours));
        }
    }
    notes.push(
        "S_anal for DSM-Station counts encoded data only; the paper's 6078 B \
         additionally counts the (partially used) header page in full — with it, \
         ours is 2012 + data ≈ 6502 B, and p = 4 either way"
            .into(),
    );

    Ok(ExperimentReport {
        id: "table2".into(),
        title: "Average stored sizes of benchmark tuples (measured vs analytic)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

fn find_analytic<'a>(t2: &'a Table2Analytic, name: &str) -> Option<&'a RelParams> {
    t2.rows().into_iter().find(|r| r.name == name)
}

fn lookup_anchor(t2: &Table2Analytic, what: &str) -> Option<f64> {
    let (rel, field) = what.split_once(' ')?;
    let r = t2.rows().into_iter().find(|r| r.name == rel)?;
    match field {
        "S_tuple [B]" => Some(if r.p.is_some() {
            r.s_tuple + 2012.0
        } else {
            r.s_tuple
        }),
        "k" => r.k.map(|k| k as f64),
        "p" => r.p.map(|p| p as f64),
        "m" => Some(r.m),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_small_scale() {
        let report = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(report.id, "table2");
        // 1 DSM relation + 4 NSM + 4 DASDBS-NSM.
        assert_eq!(report.table.rows.len(), 9);
        assert!(!report.notes.is_empty());
        assert!(report.render().contains("NSM-Connection"));
    }
}
