//! One module per table/figure of the paper's evaluation, plus extension
//! experiments (`ext_*`) that go beyond the paper: response-time estimates
//! under Equation 1, the §5.5 shared-nothing distribution study, concurrent
//! serving and durability. Every experiment that sweeps replacement
//! policies — the buffer-size and policy ablations, the drifting hot sets
//! and the declarative-workload sweep — is a preset of [`policy_grid`].
//!
//! Every experiment is an entry in [`REGISTRY`] — the single table behind
//! [`run_all`], `starfish_repro --only` dispatch and `starfish_repro
//! --list`. Adding an experiment means adding a module, or a preset in
//! [`policy_grid`], plus a registry row and a [`run_one`] match arm;
//! nothing else.

pub mod ext_alignment;
pub mod ext_clustering;
pub mod ext_concurrency;
pub mod ext_distributed;
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

/// The first row of a sweep is its speed-up base: 1.0 for that row, the
/// row's rate over the base's for every later one (0 over a base of 0).
fn speedup_over_first(base: &mut Option<f64>, rate: f64) -> f64 {
    match *base {
        None => {
            *base = Some(rate);
            1.0
        }
        Some(b) if b > 0.0 => rate / b,
        Some(_) => 0.0,
    }
}

/// The first row's count is the sweep's reference: returns it (the row's
/// own count, for the first row).
fn first_row_count(reference: &mut Option<u64>, count: u64) -> u64 {
    *reference.get_or_insert(count)
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
        summary: "deterministic cluster serving fingerprint (BENCH_cluster.json)",
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
        "ext-concurrency" => ext_concurrency::run_with(config, threads),
        "ext-distributed" => ext_distributed::run_with(config, threads),
        "ext-cluster-baseline" => ext_distributed::cluster_baseline(config),
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

/// Runs every experiment at the given scale, in [`REGISTRY`] order.
pub fn run_all(config: &HarnessConfig) -> Result<Vec<ExperimentReport>> {
    run_all_with(config, &ext_concurrency::THREADS)
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
}

// Each policy-grid preset's tests sit under the experiment id it serves
// (`--only ext_policy` …); `policy_grid::tests::preset` measures it and
// checks its row count and contract, the named checks do the rest.

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
