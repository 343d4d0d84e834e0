//! Extension experiment: replacement policies under drifting hot sets.
//!
//! The paper's workloads are *stationary*: the pick distribution never
//! changes within a run, so a policy that learns the hot set once keeps it
//! forever. The drift vocabulary of the AccessPlan IR breaks that
//! assumption three ways ([`WorkloadSpec::drift_gradual`],
//! [`WorkloadSpec::drift_sudden`], [`WorkloadSpec::drift_cycle`]):
//!
//! * **drift-gradual** — the 16-object hot window slides 4 objects every 4
//!   loops (the DOEF "moving window" regime): recency policies keep up,
//!   frequency-leaning ones hold stale pages;
//! * **drift-sudden** — the window jumps 137 objects every 60 loops: a
//!   policy that over-committed to the old hot set pays for the whole next
//!   phase;
//! * **drift-cycle** — a `phase` op rotates tight-hot-set → uniform →
//!   wide-warm-set every 20 loops, alternating cacheable and scan-like
//!   regimes.
//!
//! Each is measured against the **static** hot-set baseline
//! ([`WorkloadSpec::hot_set`]) across every replacement policy on the two
//! bracket models (DSM and DASDBS-NSM), with the buffer scaled down to the
//! paper's DB ≫ buffer regime (§5.1) — at full cache nothing evicts and
//! every policy ties. Reported per cell: reads per unit, the delta against
//! the same policy on the static workload (the *price of drift*), and the
//! delta against LRU on the same scenario. The notes call out where the
//! policy ranking under drift differs from the static ranking — the
//! experiment's point: the paper's single-policy buffer (§5.1) would have
//! picked differently had its workloads moved.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{measure, same_shape, HarnessConfig, Serving};
use crate::Result;
use starfish_core::{ModelKind, PolicyKind};
use starfish_workload::{generate, WorkloadSpec};

/// The models bracketing the design space: fully decomposed (DSM) and
/// fully clustered (DASDBS-NSM).
pub const MODELS: [ModelKind; 2] = [ModelKind::Dsm, ModelKind::DasdbsNsm];

/// The static baseline followed by the three drifting scenarios.
fn scenarios() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::hot_set(),
        WorkloadSpec::drift_gradual(),
        WorkloadSpec::drift_sudden(),
        WorkloadSpec::drift_cycle(),
    ]
}

/// One measured cell of the sweep.
struct Cell {
    scenario: usize,
    model: ModelKind,
    policy: PolicyKind,
    units: u64,
    reads: f64,
}

/// Policies ordered best-to-worst by reads/u for one (scenario, model),
/// ties broken by registry order so the ranking is deterministic.
fn ranking(cells: &[Cell], scenario: usize, model: ModelKind) -> Vec<PolicyKind> {
    let mut of: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.scenario == scenario && c.model == model)
        .collect();
    of.sort_by(|a, b| a.reads.total_cmp(&b.reads));
    of.iter().map(|c| c.policy).collect()
}

fn fmt_ranking(r: &[PolicyKind]) -> String {
    r.iter().map(|p| p.name()).collect::<Vec<_>>().join(" < ")
}

/// Runs the sweep: (static + 3 drift scenarios) × bracket models × every
/// policy, buffer scaled down to the DB ≫ buffer regime.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let config = HarnessConfig {
        buffer_pages: (config.buffer_pages / 8).max(16),
        ..*config
    };
    let config = &config;
    let db = generate(&config.dataset());
    let specs = scenarios();

    let mut cells: Vec<Cell> = Vec::new();
    let mut drifted_shape: Vec<String> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let mut shape = None;
        for policy in PolicyKind::all() {
            let cfg = HarnessConfig { policy, ..*config };
            for model in MODELS {
                let outcome = measure(&db, &cfg, model, spec, Serving::Serial)?;
                let run = outcome
                    .run()
                    .expect("both bracket models run navigation plans");
                if !same_shape(&mut shape, &outcome) {
                    drifted_shape.push(format!("{}/{model}/{policy}", spec.name));
                }
                cells.push(Cell {
                    scenario: si,
                    model,
                    policy,
                    units: run.units,
                    reads: run.reads_per_unit(),
                });
            }
        }
    }

    let mut table = Table::new(vec![
        "SCENARIO",
        "MODEL",
        "POLICY",
        "units",
        "reads/u",
        "vs static",
        "vs LRU",
    ]);
    let find = |scenario: usize, model: ModelKind, policy: PolicyKind| -> &Cell {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.model == model && c.policy == policy)
            .expect("every cell measured")
    };
    let pct = |v: f64, base: f64| -> String {
        if base > 0.0 {
            format!("{:+.1}%", 100.0 * (v - base) / base)
        } else {
            "-".to_string()
        }
    };
    for c in &cells {
        let static_base = find(0, c.model, c.policy);
        let lru_base = find(c.scenario, c.model, PolicyKind::Lru);
        table.push_row(vec![
            specs[c.scenario].name.clone(),
            c.model.paper_name().to_string(),
            c.policy.name().to_string(),
            c.units.to_string(),
            fmt_pages(c.reads),
            if c.scenario == 0 {
                "(baseline)".to_string()
            } else {
                pct(c.reads, static_base.reads)
            },
            if c.policy == PolicyKind::Lru {
                "(baseline)".to_string()
            } else {
                pct(c.reads, lru_base.reads)
            },
        ]);
    }

    // Where does drift reorder the policy ranking the static workload
    // would have suggested?
    let mut ranking_changes: Vec<String> = Vec::new();
    for model in MODELS {
        let static_rank = ranking(&cells, 0, model);
        for (si, spec) in specs.iter().enumerate().skip(1) {
            let drift_rank = ranking(&cells, si, model);
            if drift_rank != static_rank {
                ranking_changes.push(format!(
                    "{}/{}: {} (static: {})",
                    spec.name,
                    model.paper_name(),
                    fmt_ranking(&drift_rank),
                    fmt_ranking(&static_rank)
                ));
            }
        }
    }

    let mut notes = vec![
        format!(
            "{} objects, buffer scaled down to {} pages to preserve the \
             paper's DB >> buffer regime (5.1) — at full cache nothing \
             evicts and every policy ties",
            config.n_objects, config.buffer_pages
        ),
        "\"vs static\" compares each policy to itself on the static hot-set \
         baseline (the price of the same skew once it moves); \"vs LRU\" \
         compares policies within a scenario, like ext-policy does"
            .to_string(),
    ];
    notes.push(if ranking_changes.is_empty() {
        "policy rankings under drift match the static hot-set ranking — \
         at this scale drift changes magnitudes, not the choice of policy"
            .to_string()
    } else {
        format!(
            "policy ranking changes under drift (best-to-worst by reads/u): {}",
            ranking_changes.join("; ")
        )
    });
    notes.push(if drifted_shape.is_empty() {
        "determinism check passed: units, per-hop cardinalities, scan and \
         update counts identical across every (model, policy) cell of each \
         scenario — drift changes *which* objects are hot, never how many \
         are accessed"
            .to_string()
    } else {
        format!(
            "WARNING: access sequences drifted across models/policies at {} — \
             the executor's determinism contract is broken",
            drifted_shape.join(", ")
        )
    });

    Ok(ExperimentReport {
        id: "ext-drift".into(),
        title: "Extension — drifting hot sets and phase changes vs the static baseline \
                (policies × bracket models, DB >> buffer)"
            .into(),
        table,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_sweep_covers_scenarios_models_policies() {
        let report = run(&HarnessConfig::fast()).unwrap();
        let want = scenarios().len() * MODELS.len() * PolicyKind::all().len();
        assert_eq!(report.table.rows.len(), want);
        assert!(
            !report.notes.iter().any(|n| n.contains("WARNING")),
            "determinism check failed: {:?}",
            report.notes
        );
    }

    #[test]
    fn drift_reorders_at_least_one_policy_ranking() {
        // The experiment's reason to exist: under a moving hot set the
        // best-to-worst policy order differs from the static baseline's
        // for at least one (scenario, model).
        let report = run(&HarnessConfig::fast()).unwrap();
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("policy ranking changes under drift")),
            "no ranking change found: {:?}",
            report.notes
        );
    }

    #[test]
    fn drift_costs_reads_over_the_static_baseline() {
        // Moving the hot window must cost page reads under at least one
        // policy (the buffer keeps re-learning the working set).
        let report = run(&HarnessConfig::fast()).unwrap();
        let dearer = report
            .table
            .rows
            .iter()
            .filter(|r| r[5].starts_with('+'))
            .count();
        assert!(
            dearer > 0,
            "drift was free everywhere: {:?}",
            report.table.rows
        );
    }
}
