//! One module per table/figure of the paper's evaluation, plus extension
//! experiments (`ext_*`) that go beyond the paper: response-time estimates
//! under Equation 1, alignment, durability and adaptive placement. Every
//! experiment that sweeps replacement policies or servings — the
//! buffer-size and policy ablations, the drifting hot sets, the
//! declarative-workload sweep, concurrent serving and the §5.5
//! shared-nothing cluster — is a preset of [`policy_grid`].
//!
//! Every experiment is an entry in [`REGISTRY`] — the single table behind
//! [`run_all`], `starfish_repro --only` dispatch and `starfish_repro
//! --list`. Adding an experiment means adding a module, or a preset in
//! [`policy_grid`], plus a registry row and a [`run_one`] match arm;
//! nothing else.

pub mod ext_alignment;
pub mod ext_clustering;
pub mod ext_durability;
pub mod ext_timing;
pub mod fig5;
pub mod fig6;
pub mod policy_grid;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{measure_grid, HarnessConfig, MeasuredGrid};
use crate::Result;
use starfish_core::{CoreError, ModelKind};
use starfish_cost::QueryId;
use starfish_workload::PlanRun;

/// The models measured in Tables 4–6: the paper's four plus (extra, marked)
/// NSM+index.
pub fn grid_models() -> Vec<ModelKind> {
    vec![
        ModelKind::Dsm,
        ModelKind::DasdbsDsm,
        ModelKind::Nsm,
        ModelKind::NsmIndexed,
        ModelKind::DasdbsNsm,
    ]
}

/// The model × query table of Tables 4, 5 and 6: one row per measured
/// model, one column per query, `cell` picking the per-unit number the
/// table reports; `-` where the model does not support the query.
fn grid_table(grid: &MeasuredGrid, cell: fn(&PlanRun) -> f64) -> Table {
    let mut table = Table::new(vec!["MODEL", "1a", "1b", "1c", "2a", "2b", "3a", "3b"]);
    for (model, cells) in &grid.rows {
        let mut row = vec![grid_label(*model)];
        row.extend(cells.iter().map(|c| match c {
            Some(run) => fmt_pages(cell(run)),
            None => "-".into(),
        }));
        table.push_row(row);
    }
    table
}

/// A grid row's label: the paper's name, NSM+index marked as our extra.
fn grid_label(model: ModelKind) -> String {
    match model {
        ModelKind::NsmIndexed => "NSM+index (extra)".to_string(),
        m => m.paper_name().to_string(),
    }
}

/// The grid cell a paper anchor such as `"DASDBS-NSM q2b calls"` names,
/// read through `cell`.
fn grid_anchor(grid: &MeasuredGrid, what: &str, cell: fn(&PlanRun) -> f64) -> Option<f64> {
    // Longest-prefix match guards against "DASDBS-DSM" vs "DSM" etc.
    let model = ModelKind::all()
        .into_iter()
        .filter(|m| {
            what.starts_with(m.paper_name())
                && what.as_bytes().get(m.paper_name().len()) == Some(&b' ')
        })
        .max_by_key(|m| m.paper_name().len())?;
    let q = QueryId::all()
        .into_iter()
        .find(|q| what.contains(&format!("q{q} ")))?;
    grid.cell(model, q).map(cell)
}

/// One registry row: the experiment's canonical id and a one-line summary
/// for `--list`.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentInfo {
    /// Canonical id (`--only` accepts it with `-` or `_` separators).
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every experiment, in paper order then extensions — the one table behind
/// [`run_all`], `--only` dispatch and `--list`.
pub const REGISTRY: &[ExperimentInfo] = &[
    ExperimentInfo {
        id: "table2",
        summary: "average tuple sizes, k, p, m per relation",
    },
    ExperimentInfo {
        id: "table3",
        summary: "analytical page-I/O estimates (Equations 2-8)",
    },
    ExperimentInfo {
        id: "table4",
        summary: "measured physical page I/Os per query x model",
    },
    ExperimentInfo {
        id: "table5",
        summary: "measured I/O calls per query x model",
    },
    ExperimentInfo {
        id: "table6",
        summary: "buffer fixes per query x model",
    },
    ExperimentInfo {
        id: "fig5",
        summary: "object-size sweep (max sightseeings 0/15/30)",
    },
    ExperimentInfo {
        id: "fig6",
        summary: "caching vs database size",
    },
    ExperimentInfo {
        id: "table7",
        summary: "data skew (probability 20%, fanout 8)",
    },
    ExperimentInfo {
        id: "table8",
        summary: "overall qualitative ranking",
    },
    ExperimentInfo {
        id: "ext-timing",
        summary: "response-time estimates under Equation 1 weights",
    },
    ExperimentInfo {
        id: "ext-buffer",
        summary: "buffer capacity x replacement policy ablation",
    },
    ExperimentInfo {
        id: "ext-policy",
        summary: "replacement-policy deltas vs the LRU baseline",
    },
    ExperimentInfo {
        id: "ext-concurrency",
        summary: "multi-client read/write serving over the sharded pool",
    },
    ExperimentInfo {
        id: "ext-distributed",
        summary: "shared-nothing distribution study (5.5) + routed cluster serving sweep",
    },
    ExperimentInfo {
        id: "ext-cluster-baseline",
        summary: "deterministic cluster serving fingerprint",
    },
    ExperimentInfo {
        id: "ext-clustering",
        summary: "heat-driven adaptive placement (reorganize on drift) vs the static layout",
    },
    ExperimentInfo {
        id: "ext-alignment",
        summary: "tuple-alignment ablation",
    },
    ExperimentInfo {
        id: "ext-workload",
        summary: "declarative non-paper workloads (static trio + drift scenarios)",
    },
    ExperimentInfo {
        id: "ext-drift",
        summary: "drifting hot sets and phase changes vs the static baseline",
    },
    ExperimentInfo {
        id: "ext-durability",
        summary: "WAL commit durability: fsync mode x writer count",
    },
];

/// Runs one experiment by id. `threads` is the client-count list for the
/// concurrency sweep; `grid` caches the measured model × query grid shared
/// by tables 4/5/6/8 and ext-timing (pass the same `&mut None` across
/// calls to build it at most once). Ids accept `-` or `_` separators.
pub fn run_one(
    id: &str,
    config: &HarnessConfig,
    threads: &[usize],
    grid: &mut Option<MeasuredGrid>,
) -> Result<ExperimentReport> {
    fn ensure_grid<'a>(
        grid: &'a mut Option<MeasuredGrid>,
        config: &HarnessConfig,
    ) -> Result<&'a MeasuredGrid> {
        if grid.is_none() {
            *grid = Some(measure_grid(&config.dataset(), config, &grid_models())?);
        }
        Ok(grid.as_ref().expect("grid just built"))
    }
    let canonical = id.replace('_', "-");
    match canonical.as_str() {
        "table2" => table2::run(config),
        "table3" => Ok(table3::run(config)),
        "table4" => Ok(table4::run(ensure_grid(grid, config)?)),
        "table5" => Ok(table5::run(ensure_grid(grid, config)?)),
        "table6" => Ok(table6::run(ensure_grid(grid, config)?)),
        "fig5" => fig5::run(config),
        "fig6" => fig6::run(config),
        "table7" => table7::run(config),
        "table8" => Ok(table8::run(ensure_grid(grid, config)?)),
        "ext-timing" => Ok(ext_timing::run(ensure_grid(grid, config)?)),
        "ext-buffer" => policy_grid::ext_buffer(config),
        "ext-policy" => policy_grid::ext_policy(config),
        "ext-concurrency" => policy_grid::ext_concurrency(config, threads),
        "ext-distributed" => policy_grid::ext_distributed(config, threads),
        "ext-cluster-baseline" => policy_grid::cluster_baseline(config),
        "ext-clustering" => ext_clustering::run(config),
        "ext-alignment" => ext_alignment::run(config),
        "ext-workload" => policy_grid::ext_workload(config),
        "ext-drift" => policy_grid::ext_drift(config),
        "ext-durability" => ext_durability::run_with(config, threads),
        other => Err(CoreError::NotFound {
            what: format!("experiment '{other}' (run starfish_repro --list for valid ids)"),
        }),
    }
}

/// The largest cluster among the experiments `ids` that splits each node's
/// buffer into `--threads` shards — `ext-distributed`'s serving sweep — or
/// `None` when none does (what [`crate::runner::check_threads`] needs).
pub fn sharded_cluster_nodes(ids: &[String]) -> Option<usize> {
    let distributed = ids
        .iter()
        .any(|id| id.replace('_', "-") == "ext-distributed");
    distributed.then(|| policy_grid::SWEEP_NODES.into_iter().max().unwrap_or(1))
}

/// Runs every experiment at the given scale, in [`REGISTRY`] order.
pub fn run_all(config: &HarnessConfig) -> Result<Vec<ExperimentReport>> {
    run_all_with(config, &policy_grid::THREADS)
}

/// [`run_all`] with an explicit client-count list for the concurrency
/// sweep (`starfish_repro --threads N` passes `[N]`).
pub fn run_all_with(
    config: &HarnessConfig,
    concurrency_threads: &[usize],
) -> Result<Vec<ExperimentReport>> {
    let mut grid = None;
    REGISTRY
        .iter()
        .map(|e| run_one(e.id, config, concurrency_threads, &mut grid))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dispatch_knows_every_id() {
        let config = HarnessConfig::fast();
        let mut grid = None;
        // Dispatch each grid-backed experiment through the registry path;
        // the grid must be measured exactly once (cheap ids only, to keep
        // the test fast).
        for id in ["table4", "table5", "table8", "ext-timing"] {
            let report = run_one(id, &config, &[1], &mut grid).unwrap();
            assert_eq!(report.id.replace('_', "-"), id.replace('_', "-"));
        }
        assert!(grid.is_some());
        // Underscore aliases resolve to the same experiment.
        let a = run_one("ext_timing", &config, &[1], &mut grid).unwrap();
        assert_eq!(a.id, "ext-timing");
        // Unknown ids are a clean error naming --list.
        let err = run_one("table99", &config, &[1], &mut grid).unwrap_err();
        assert!(err.to_string().contains("--list"), "{err}");
    }

    #[test]
    fn registry_ids_are_unique_and_canonical() {
        for e in REGISTRY {
            assert_eq!(e.id, e.id.replace('_', "-"), "{} not canonical", e.id);
            assert!(!e.summary.is_empty());
        }
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "duplicate registry ids");
    }

    /// `FINGERPRINT.json` is `starfish_repro --fast --json` followed by
    /// `--fast --workload hot-set --sweep --threads 1 --json`; CI diffs a
    /// fresh run against it. An experiment added without regenerating it,
    /// or a file regenerated from a run whose contract broke, fails here.
    #[test]
    fn the_fingerprint_has_one_line_per_experiment_then_the_sweep() {
        let lines: Vec<&str> = include_str!("../../../../FINGERPRINT.json")
            .lines()
            .collect();
        let ids: Vec<String> = (lines.iter())
            .map(|line| {
                let report = serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                let id = report.get("id").and_then(|id| id.as_str());
                id.unwrap_or_else(|| panic!("no id: {line}")).to_string()
            })
            .collect();
        let mut want: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        want.push("workload-sweep-hot-set");
        assert_eq!(ids, want);
        for line in lines {
            assert!(
                !line.contains("WARNING") && !line.contains("DIVERGED"),
                "{line}"
            );
        }
    }
}

// Each policy-grid preset's tests sit under the experiment id it serves
// (`--only ext_policy` …); `policy_grid::tests::preset` measures it and
// checks its row count and contract, the named checks do the rest. The
// serving presets' tests call them directly.

#[cfg(test)]
mod ext_policy {
    mod tests {
        use crate::experiments::policy_grid::tests::*;

        #[test]
        fn policy_sweep_covers_every_model_policy_pair() {
            policy_rows(&preset("ext-policy"));
        }
    }
}

#[cfg(test)]
mod ext_buffer {
    mod tests {
        use crate::experiments::policy_grid::tests::*;

        #[test]
        fn buffer_sweep_orders_models_by_sensitivity() {
            buffer_sensitivity(&preset("ext-buffer"));
        }

        #[test]
        fn policy_rows_cover_both_regimes() {
            buffer_regimes(&preset("ext-buffer"));
        }
    }
}

#[cfg(test)]
mod ext_drift {
    mod tests {
        use crate::experiments::policy_grid::tests::*;

        #[test]
        fn drift_sweep_covers_scenarios_models_policies() {
            preset("ext-drift");
        }

        #[test]
        fn drift_reorders_at_least_one_policy_ranking() {
            drift_reorders(&preset("ext-drift"));
        }

        #[test]
        fn drift_costs_reads_over_the_static_baseline() {
            drift_costs(&preset("ext-drift"));
        }
    }
}

#[cfg(test)]
mod ext_workload {
    mod tests {
        use crate::experiments::policy_grid::tests::*;

        #[test]
        fn shipped_sweep_covers_scenarios_models_policies() {
            workload_rows(&preset("ext-workload"));
        }

        #[test]
        fn spec_report_runs_an_adhoc_plan() {
            tiny_probe_rows(&preset("tiny-probe"));
        }

        #[test]
        fn sweep_report_shares_one_path_across_surfaces() {
            sweep_rows(&preset("sweep"), "1");
            sweep_rows(&preset("sweep-3-nodes"), "3");
        }

        #[test]
        fn concurrent_spec_report_matches_serial_counters() {
            threaded_matches_serial();
        }
    }
}

#[cfg(test)]
mod ext_concurrency {
    mod tests {
        use crate::experiments::policy_grid::ext_concurrency as run_with;
        use crate::runner::HarnessConfig;
        use starfish_core::{ModelKind, PolicyKind};
        use starfish_workload::MixKind;

        #[test]
        fn sweep_covers_models_policies_mixes_and_client_counts() {
            // Cap the engine sweep at depth 2 to keep the fast test fast.
            let config = HarnessConfig {
                queue_depth: Some(2),
                ..HarnessConfig::fast()
            };
            let report = run_with(&config, &[1, 2]).unwrap();
            let models = ModelKind::all().len();
            let policies = PolicyKind::all().len();
            let mixes = MixKind::all().len();
            let depths = 2; // DEPTHS capped at --queue-depth 2
            assert_eq!(
                report.table.rows.len(),
                models * policies * 2 + models * mixes * 2 + models * depths,
                "read-only sweep rows + mixed matrix rows + batched-I/O rows"
            );
            // Engine rows carry engine columns; engine-off rows dash them out.
            for row in &report.table.rows {
                if row[2] == "2b batched-io" {
                    assert_ne!(row[12], "-");
                    assert_ne!(row[13], "-");
                    if row[3] == "1" {
                        // Depth 1: solo batches, queue never deeper than 1.
                        assert_eq!(row[13], "1", "depth-1 engine row: {row:?}");
                        assert!(row[12].ends_with("/0"), "nothing to coalesce: {row:?}");
                    }
                } else {
                    assert_eq!(row[12], "-");
                    assert_eq!(row[13], "-");
                }
            }
            // The correctness anchors held: no WARNING notes.
            assert!(
                report
                    .notes
                    .iter()
                    .any(|n| n.contains("single-client numbers exactly"))
                    && !report.contract_broken(),
                "anchors failed: {:?}",
                report.notes
            );
            // Wall-clock and wait columns are unpinned in every row; physical
            // I/O and the engine's batching above one client.
            for (r, row) in report.table.rows.iter().enumerate() {
                for (c, header) in report.table.headers.iter().enumerate() {
                    let never = ["queries/s", "speedup", "latch waits"].contains(&&**header);
                    let multi = ["pages/loop", "batch/coalesced", "max qd"].contains(&&**header);
                    let unpinned = never || (multi && row[3] != "1");
                    let got = report.table.unpinned.contains(&(r, c));
                    assert_eq!(got, unpinned, "{header}: {row:?}");
                }
            }
            // Speedup column of every 1-client row is exactly 1.00x, and its
            // latch-wait column is 0 (no contention possible).
            for row in report.table.rows.iter().filter(|r| r[3] == "1") {
                assert_eq!(row[7], "1.00x");
                assert_eq!(row[9], "0", "1 client cannot wait on a latch");
            }
            // Update mixes report exclusive-latch work; read-only rows none.
            let has_excl = |r: &Vec<String>| !r[8].ends_with("/0");
            assert!(report
                .table
                .rows
                .iter()
                .filter(|r| r[2] == "update-heavy")
                .all(has_excl));
            assert!(report
                .table
                .rows
                .iter()
                .filter(|r| r[2] == "read-only")
                .all(|r| !has_excl(r)));
        }
    }
}

#[cfg(test)]
mod ext_distributed {
    mod tests {
        use crate::experiments::policy_grid::ext_distributed as run_with;
        use crate::experiments::policy_grid::*;
        use crate::runner::{measure, HarnessConfig, Serving};
        use starfish_core::{IoEngineConfig, ModelKind};
        use starfish_workload::{generate, WorkloadSpec};

        #[test]
        fn helper_metrics() {
            assert!((imbalance(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
            assert!((imbalance(&[40, 0, 0, 0]) - 4.0).abs() < 1e-12);
            assert_eq!(cv(&[5, 5, 5, 5]), 0.0);
            assert!(cv(&[10, 0, 10, 0]) > 0.9);
            assert_eq!(imbalance(&[0, 0]), 1.0);
        }

        #[test]
        fn cluster_totals_match_single_node_counts() {
            // The §5.5 cell: serial 2b on the 8-node cluster.
            let config = HarnessConfig::fast();
            let db = generate(&config.dataset());
            let serving = Serving::SerialCluster { nodes: NODES };
            let off = IoEngineConfig::default();
            let m = measure(
                &db,
                &config,
                ModelKind::DasdbsNsm,
                &WorkloadSpec::q2b(),
                serving,
                off,
            );
            let m = m.unwrap();
            let pages = m.outcome.run().unwrap().pages_per_unit();
            let per_node: Vec<u64> = m.nodes.iter().map(|s| s.pages_io()).collect();
            assert!(pages > 0.0);
            assert_eq!(per_node.len(), NODES);
            assert!(per_node.iter().filter(|&&l| l > 0).count() >= NODES / 2);
        }

        #[test]
        fn report_covers_skew_study_and_serving_sweep() {
            let config = HarnessConfig::fast();
            let report = run_with(&config, &[2]).unwrap();
            let part1 = MODELS.len() * 2;
            let part2 = SWEEP_MODELS.len()
                * sweep_policies(&config).len()
                * SWEEP_NODES.len()
                * CLIENT_LOADS.len();
            assert_eq!(report.table.rows.len(), part1 + part2);
            assert!(report.render().contains("5.5 skew"));
            // Every serving cell matched its serial oracle and the 1×1×1
            // anchor held — no WARNING note, no DIVERGED cell.
            assert!(
                !report.contract_broken(),
                "determinism failed: {:?}",
                report.notes
            );
            for row in report.table.rows.iter().filter(|r| r[2] == "serve 3b") {
                assert_eq!(row[14], "ok", "disks diverged: {row:?}");
                assert!(CLIENT_LOADS.map(|c| c.to_string()).contains(&row[5]));
            }
        }

        #[test]
        fn baseline_grid_is_worker_count_invariant() {
            let report = cluster_baseline(&HarnessConfig::fast()).unwrap();
            let rows = &report.table.rows;
            assert_eq!(
                rows.len(),
                SWEEP_MODELS.len() * BASELINE_NODES.len() * BASELINE_WORKERS.len()
            );
            // The deterministic columns (everything from `units` on) must be
            // identical across worker counts of the same (model, nodes) —
            // the property the CI diff pins.
            for pair in rows.chunks(BASELINE_WORKERS.len()) {
                assert_eq!(pair[0][0], pair[1][0]);
                assert_eq!(pair[0][1], pair[1][1]);
                assert_eq!(pair[0][4..], pair[1][4..], "worker count leaked: {pair:?}");
            }
        }
    }
}
