//! Table 7 — data skew (§5.5): query 2b with generation probability 20% and
//! fanout 8 instead of 80% / 2, same expected sub-object counts but much
//! wider variance.

use crate::paper::{compare, DATASET_ANCHORS};
use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{load_store, HarnessConfig};
use crate::Result;
use starfish_core::ModelKind;
use starfish_workload::{generate, DatasetParams, DatasetStats, WorkloadSpec};

/// Models compared under skew (as in Figure 5, NSM is dropped).
pub const TABLE7_MODELS: [ModelKind; 3] =
    [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm];

/// Regenerates Table 7: query 2b per loop under the default and skewed
/// generators.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let default_params = config.dataset();
    let skew_params = DatasetParams {
        n_objects: config.n_objects,
        seed: config.dataset_seed,
        ..DatasetParams::skewed()
    };

    let mut table = Table::new(vec![
        "MODEL",
        "2b default",
        "2b skew",
        "calls default",
        "calls skew",
        "fixes default",
        "fixes skew",
    ]);

    let mut cells = Vec::new();
    for params in [&default_params, &skew_params] {
        let db = generate(params);
        let mut per_model = Vec::new();
        for &kind in &TABLE7_MODELS {
            let (mut store, exec) = load_store(kind, &db, config)?;
            per_model.push(
                match exec.run(store.as_mut(), &WorkloadSpec::q2b())?.run() {
                    Some(m) => (m.pages_per_unit(), m.calls_per_unit(), m.fixes_per_unit()),
                    None => (f64::NAN, f64::NAN, f64::NAN),
                },
            );
        }
        cells.push(per_model);
    }
    for (i, &kind) in TABLE7_MODELS.iter().enumerate() {
        table.push_row(vec![
            kind.paper_name().to_string(),
            fmt_pages(cells[0][i].0),
            fmt_pages(cells[1][i].0),
            fmt_pages(cells[0][i].1),
            fmt_pages(cells[1][i].1),
            fmt_pages(cells[0][i].2),
            fmt_pages(cells[1][i].2),
        ]);
    }

    let default_stats = DatasetStats::compute(&generate(&default_params));
    let skew_stats = DatasetStats::compute(&generate(&skew_params));
    let mut notes = vec![
        format!(
            "default extension: {:.2} platforms, {:.2} connections per station \
             (max {} platforms / {} connections)",
            default_stats.avg_platforms,
            default_stats.avg_connections,
            default_stats.max_platforms,
            default_stats.max_connections
        ),
        format!(
            "skewed extension:  {:.2} platforms, {:.2} connections per station \
             (max {} platforms / {} connections) — same averages, wider spread, \
             as in §5.5",
            skew_stats.avg_platforms,
            skew_stats.avg_connections,
            skew_stats.max_platforms,
            skew_stats.max_connections
        ),
        "paper conclusion: \"the overall figures are similar to those of the \
         original benchmark\" — the per-loop averages barely move"
            .into(),
    ];
    if config.n_objects == 1500 {
        for a in DATASET_ANCHORS {
            let ours = match a.what {
                "avg platforms/station (default)" => default_stats.avg_platforms,
                "avg connections/station (default)" => default_stats.avg_connections,
                "avg sightseeings/station (default)" => default_stats.avg_sightseeings,
                "avg platforms/station (skew)" => skew_stats.avg_platforms,
                "avg connections/station (skew)" => skew_stats.avg_connections,
                "max platforms/station (skew)" => skew_stats.max_platforms as f64,
                "max connections/station (skew)" => skew_stats.max_connections as f64,
                _ => continue,
            };
            notes.push(compare(a, ours));
        }
    }

    Ok(ExperimentReport {
        id: "table7".into(),
        title: "Query 2b under data skew (probability 20%, fanout 8)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_keeps_averages_similar() {
        let report = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(report.table.rows.len(), 3);
        // Parse back the 2b columns: default vs skew within a factor ~2 for
        // every model (the paper found them "similar").
        for row in &report.table.rows {
            let d: f64 = row[1].parse().unwrap();
            let s: f64 = row[2].parse().unwrap();
            assert!(d > 0.0 && s > 0.0);
            let ratio = if d > s { d / s } else { s / d };
            assert!(ratio < 2.5, "{}: default {d} vs skew {s}", row[0]);
        }
    }
}
