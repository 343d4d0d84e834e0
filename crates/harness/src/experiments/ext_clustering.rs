//! Extension experiment: adaptive placement under drifting workloads.
//!
//! The paper fixes physical placement at load time; this testbed closes
//! the loop. Each store runs a drifting workload twice over the identical
//! operation tape: phase A accumulates page heat, then the cost model's
//! plan-walker prices the tape with the hot span *as placed* versus *as
//! packed* ([`starfish_core::PlacementStats`]), and only when the
//! predicted page-read win clears [`REORG_WIN_THRESHOLD`] does the store
//! run its online reorganization pass before phase B replays the tape.
//! Reported per row: measured reads/unit before and after, the measured
//! win, the predicted win, whether the pass fired, and whether prediction
//! and measurement agree in sign — the property the trigger relies on.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::HarnessConfig;
use crate::Result;
use starfish_core::{make_store, HeatConfig, ModelKind, PlacementStats, HEAT_DECAY_EVERY};
use starfish_cost::{estimate_plan, EstimatorInputs, ModelVariant, PlanContext};
use starfish_workload::{generate, lower_spec, Executor, PlanOutcome, WorkloadSpec};

/// Models swept, paired with their cost-model variant. One model per
/// placement family: whole-object extents (DSM), page-sharing relations
/// with direct addresses (NSM+index), nested relations behind the
/// transformation table (DASDBS-NSM).
pub const MODELS: [(ModelKind, ModelVariant); 3] = [
    (ModelKind::Dsm, ModelVariant::Dsm),
    (ModelKind::NsmIndexed, ModelVariant::NsmIndexed),
    (ModelKind::DasdbsNsm, ModelVariant::DasdbsNsm),
];

/// Minimum predicted page-read win (pages per unit) before the
/// reorganization pass is allowed to run. It covers two costs the raw win
/// does not: the pass's own counted I/O (it rewrites every extent once)
/// and the walker's resolution — sub-quarter-page-per-unit predictions
/// are inside the model's noise band, where firing can lose as easily as
/// win. Below it the row replays phase B on the untouched layout, which
/// (deterministic tape, cold start) measures a win of exactly zero.
pub const REORG_WIN_THRESHOLD: f64 = 0.25;

/// One swept cell of the adaptation grid.
struct AdaptCell {
    reads_before: f64,
    reads_after: f64,
    predicted_win: f64,
    reorganized: bool,
    moved: usize,
}

impl AdaptCell {
    fn measured_win(&self) -> f64 {
        self.reads_before - self.reads_after
    }

    /// Sign agreement between prediction and measurement: a fired pass
    /// must not lose pages; a skipped pass replays identically.
    fn agrees(&self) -> bool {
        if self.reorganized {
            self.predicted_win > 0.0 && self.measured_win() > 0.0
        } else {
            self.measured_win().abs() < 1e-9
        }
    }
}

/// Prices `spec`'s tape under `variant` with the hot span at `span` pages,
/// returning expected page reads per unit. `None` where the model cannot
/// price the plan (no such row is swept here, but the walker's contract
/// allows it).
fn predicted_reads(
    variant: ModelVariant,
    inputs: &EstimatorInputs,
    buffer_pages: usize,
    span: u32,
    spec: &WorkloadSpec,
    n_objects: usize,
    units: u64,
) -> Option<f64> {
    let ctx = PlanContext {
        buffer_pages: buffer_pages as f64,
        hot_span_pages: Some(span as f64),
    };
    let ops = lower_spec(spec, n_objects);
    estimate_plan(variant, inputs, &ctx, &ops).map(|est| est.pages_read / units.max(1) as f64)
}

/// Runs one (model, policy, scenario) cell: phase A, trigger decision,
/// optional reorganization, phase B over the identical tape.
fn run_cell(
    kind: ModelKind,
    variant: ModelVariant,
    inputs: &EstimatorInputs,
    config: &HarnessConfig,
    db: &[starfish_nf2::station::Station],
    spec: &WorkloadSpec,
) -> Result<AdaptCell> {
    let mut store = make_store(kind, config.store_config().heat(HeatConfig::enabled()));
    let refs = store.load(db)?;
    let exec = Executor::new(refs, config.query_seed);

    let PlanOutcome::Measured(before) = exec.run(store.as_mut(), spec)? else {
        unreachable!("drift scenarios avoid model-specific ops");
    };
    let reads_before = before.snapshot.pages_read as f64 / before.units.max(1) as f64;

    let stats: PlacementStats = store.placement_stats()?;
    let pred = |span: u32| {
        predicted_reads(
            variant,
            inputs,
            config.buffer_pages,
            span,
            spec,
            exec.n_objects(),
            before.units,
        )
    };
    let predicted_win = match (pred(stats.hot_pages), pred(stats.hot_packed_pages)) {
        (Some(b), Some(a)) => b - a,
        _ => 0.0,
    };

    let (reorganized, moved) = if predicted_win > REORG_WIN_THRESHOLD {
        let report = store.reorganize()?;
        (true, report.moved)
    } else {
        (false, 0)
    };

    let PlanOutcome::Measured(after) = exec.run(store.as_mut(), spec)? else {
        unreachable!("drift scenarios avoid model-specific ops");
    };
    let reads_after = after.snapshot.pages_read as f64 / after.units.max(1) as f64;

    Ok(AdaptCell {
        reads_before,
        reads_after,
        predicted_win,
        reorganized,
        moved,
    })
}

/// Sweeps the drifting scenarios × models × policies with the adaptive
/// placement loop.
///
/// Runs on the small-object database (`max_sightseeing = 0`, §5.3's
/// page-sharing regime — placement only matters when objects share pages)
/// with the buffer scaled down to preserve the paper's DB ≫ buffer regime
/// (§5.1): a buffer that swallows the whole database would absorb any
/// placement effect.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let config = HarnessConfig {
        buffer_pages: (config.buffer_pages / 8).max(16),
        ..*config
    };
    let params = config.dataset().with_max_sightseeing(0);
    let db = generate(&params);
    let inputs = EstimatorInputs::new(params.profile());
    let scenarios = [
        WorkloadSpec::drift_gradual(),
        WorkloadSpec::drift_sudden(),
        WorkloadSpec::drift_cycle(),
    ];
    let policies = [
        starfish_core::PolicyKind::Lru,
        starfish_core::PolicyKind::Lru2,
    ];

    let mut table = Table::new(vec![
        "SCENARIO",
        "MODEL",
        "POLICY",
        "reads/u A",
        "reads/u B",
        "win meas",
        "win pred",
        "reorg",
        "agree",
    ]);
    let mut fired = 0usize;
    let mut agreed = 0usize;
    let mut total = 0usize;
    for spec in &scenarios {
        for &(kind, variant) in &MODELS {
            for &policy in &policies {
                let cfg = HarnessConfig { policy, ..config };
                let cell = run_cell(kind, variant, &inputs, &cfg, &db, spec)?;
                total += 1;
                fired += cell.reorganized as usize;
                agreed += cell.agrees() as usize;
                table.push_row(vec![
                    spec.name.clone(),
                    kind.paper_name().to_string(),
                    format!("{policy}"),
                    fmt_pages(cell.reads_before),
                    fmt_pages(cell.reads_after),
                    format!("{:+.2}", cell.measured_win()),
                    format!("{:+.2}", cell.predicted_win),
                    if cell.reorganized {
                        format!("yes ({} moved)", cell.moved)
                    } else {
                        "no".into()
                    },
                    if cell.agrees() { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }

    let notes = vec![
        format!(
            "max sightseeings = 0 (small, page-sharing objects) and the buffer \
             scaled down to {} pages to keep DB ≫ buffer; heat tracking on, \
             decaying every {} records",
            config.buffer_pages, HEAT_DECAY_EVERY
        ),
        format!(
            "phase A runs the drift tape and accumulates heat; the plan-walker \
             prices the tape with the hot span as placed vs as packed, and the \
             reorganization pass fires only when the predicted read win exceeds \
             {REORG_WIN_THRESHOLD} pages/unit; phase B replays the identical tape"
        ),
        format!(
            "{fired}/{total} cells fired the pass; {agreed}/{total} agree in sign \
             (fired ⇒ measured win > 0, skipped ⇒ identical replay)"
        ),
        "reading: drift widens the hot set beyond its instantaneous window, so \
         packing it back into contiguous pages shrinks the span the buffer must \
         retain — the models whose navigation touches whole objects (DSM) gain \
         the most; DASDBS-NSM's per-relation tuples gain less but still pack"
            .into(),
    ];

    Ok(ExperimentReport {
        id: "ext-clustering".into(),
        title: "Extension — adaptive placement (heat-tracked online reclustering)".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_helps_and_predictions_have_the_right_sign() {
        let report = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(
            report.table.rows.len(),
            18,
            "3 scenarios × 3 models × 2 policies"
        );
        let mut any_win = false;
        for row in &report.table.rows {
            assert_eq!(row[8], "yes", "sign mismatch in row {row:?}");
            let meas: f64 = row[5].parse().unwrap();
            if row[7].starts_with("yes") && meas > 0.5 {
                any_win = true;
            }
        }
        assert!(
            any_win,
            "at least one drifting cell must show a real page-read reduction"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(&HarnessConfig::fast()).unwrap();
        let b = run(&HarnessConfig::fast()).unwrap();
        assert_eq!(a.table.rows, b.table.rows);
    }
}
