//! Extension experiment: declarative workloads the paper never ran.
//!
//! The AccessPlan redesign makes workloads *data* — so this experiment
//! sweeps the shipped non-paper scenarios ([`WorkloadSpec::shipped`]):
//!
//! * **deep-nav** — 4 reference hops instead of the paper's 2. The
//!   normalized models pay one set-oriented step per hop while the direct
//!   models re-read ever more container pages; the paper's 2-hop ranking
//!   is stress-tested at depth.
//! * **hot-set** — 90% of navigation roots from a 16-object hot set. The
//!   paper's uniform picks keep the buffer cold; skew is where
//!   replacement policies actually differ.
//! * **scan-then-update** — a full scan that floods the buffer, then
//!   single-hop update loops. Adversarial for LRU (the scan evicts the
//!   working set), the classic batch-behind-OLTP shape.
//! * **drift-gradual / drift-sudden / drift-cycle** — the dynamic
//!   scenarios: a sliding hot window, an abrupt hot-spot relocation and a
//!   `phase`-cycled pick distribution. The `ext-drift` experiment studies
//!   these against the static baseline per policy; here they ride in the
//!   same sweep so the determinism contract covers the drift vocabulary
//!   too.
//!
//! … across the five storage models × all replacement policies. Reported
//! per cell: per-unit reads/writes/pages/calls/fixes. The notes verify the
//! spec-level determinism contract: for a given scenario, **units, per-hop
//! navigation cardinalities, scanned-object and update counts are
//! identical for every (model, policy) cell** — only physical I/O may
//! move. This is the paper's "shared database" guarantee lifted to
//! arbitrary declarative plans.
//!
//! The same rendering backs `starfish_repro --workload <file.json>` via
//! [`report_for_spec`], which runs one ad-hoc spec across the models at
//! the harness-selected policy.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{measure, same_shape, HarnessConfig, Serving};
use crate::Result;
use starfish_core::{ModelKind, PolicyKind};
use starfish_cost::{estimate_plan, EstimatorInputs, ModelVariant, PlanContext, PlanOp};
use starfish_workload::{generate, lower_spec, PlanOutcome, WorkloadSpec};

/// The cost-model variant that prices each measured model. The primed
/// (no-waste) variants don't arise: the walker prices the layouts the
/// harness builds.
fn variant_of(kind: ModelKind) -> ModelVariant {
    match kind {
        ModelKind::Dsm => ModelVariant::Dsm,
        ModelKind::DasdbsDsm => ModelVariant::DasdbsDsm,
        ModelKind::Nsm => ModelVariant::Nsm,
        ModelKind::NsmIndexed => ModelVariant::NsmIndexed,
        ModelKind::DasdbsNsm => ModelVariant::DasdbsNsm,
    }
}

/// The plan's own unit count (summed top-level loop counts), mirroring
/// `Executor::units_of` so predicted and measured cells share the
/// denominator even on rows the model cannot execute.
fn plan_units(ops: &[PlanOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            PlanOp::Loop { count, .. } => *count,
            _ => 0,
        })
        .sum::<u64>()
        .max(1)
}

/// Expected page I/Os per unit for `spec` under `kind` from the cost
/// model's plan-walker (uniform Table 3 pricing — no placement feedback),
/// or `None` where the model cannot price an op of the plan, the same
/// rows the executor reports as unsupported.
fn predicted_pages(config: &HarnessConfig, spec: &WorkloadSpec, kind: ModelKind) -> Option<f64> {
    let inputs = EstimatorInputs::new(config.dataset().profile());
    let ctx = PlanContext {
        buffer_pages: config.buffer_pages as f64,
        hot_span_pages: None,
    };
    let ops = lower_spec(spec, config.n_objects);
    estimate_plan(variant_of(kind), &inputs, &ctx, &ops)
        .map(|est| est.total() / plan_units(&ops) as f64)
}

/// One measured row: scenario, model, the `lead` cells, then units and
/// the five per-unit counters — dashes where the model cannot run the plan.
fn measured_row(
    spec: &WorkloadSpec,
    kind: ModelKind,
    lead: &[&str],
    outcome: &PlanOutcome,
) -> Vec<String> {
    let mut row = vec![spec.name.clone(), kind.paper_name().to_string()];
    row.extend(lead.iter().map(|cell| cell.to_string()));
    match outcome.run() {
        Some(run) => {
            row.push(run.units.to_string());
            let counters = [
                run.reads_per_unit(),
                run.writes_per_unit(),
                run.pages_per_unit(),
                run.calls_per_unit(),
                run.fixes_per_unit(),
            ];
            row.extend(counters.map(fmt_pages));
        }
        None => row.extend(std::iter::repeat_n("-".to_string(), 6)),
    }
    row
}

/// [`measured_row`] under the [`headers`] of the serial and `--threads`
/// reports: policy in the lead, the plan-walker's prediction at the end.
fn predicted_row(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    kind: ModelKind,
    outcome: &PlanOutcome,
) -> Vec<String> {
    let mut row = measured_row(spec, kind, &[config.policy.name()], outcome);
    row.push(predicted_pages(config, spec, kind).map_or_else(|| "-".to_string(), fmt_pages));
    row
}

fn headers() -> Vec<&'static str> {
    vec![
        "SCENARIO",
        "MODEL",
        "POLICY",
        "units",
        "reads/u",
        "writes/u",
        "pages/u",
        "calls/u",
        "fixes/u",
        "pred pg/u",
    ]
}

/// Runs the shipped-scenario sweep: scenarios × models × policies.
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let mut table = Table::new(headers());
    let mut drifted: Vec<String> = Vec::new();

    for spec in WorkloadSpec::shipped() {
        let mut shape = None;
        for policy in PolicyKind::all() {
            let cfg = HarnessConfig { policy, ..*config };
            for kind in ModelKind::all() {
                let outcome = measure(&db, &cfg, kind, &spec, Serving::Serial)?;
                table.push_row(predicted_row(&cfg, &spec, kind, &outcome));
                if !same_shape(&mut shape, &outcome) {
                    drifted.push(format!("{}/{kind}/{policy}", spec.name));
                }
            }
        }
    }

    let mut notes = vec![
        format!(
            "{} objects, {}-page buffer; every cell reloads the store and runs \
             the full protocol (cold start, plan execution, counted disconnect \
             flush), normalized per plan unit",
            config.n_objects, config.buffer_pages
        ),
        "scenarios come from WorkloadSpec::shipped() — the static trio \
         (deep-nav, hot-set, scan-then-update) plus the drifting trio \
         (drift-gradual, drift-sudden, drift-cycle — see ext-drift for the \
         policy study); run any of them, or an ad-hoc JSON plan, with \
         starfish_repro --workload (add --threads N for the concurrent \
         surface)"
            .to_string(),
        "deep-nav compounds the per-hop cost difference the paper measured \
         at 2 hops; hot-set is where replacement policies separate (compare \
         the LRU and MRU fixes/u columns at equal access counts); \
         scan-then-update shows the scan-flood regime LRU-2 was built for"
            .to_string(),
        "pred pg/u is the cost plan-walker's expected page I/Os per unit \
         (lower_spec → estimate_plan, uniform Table 3 pricing, no placement \
         feedback) — compare against the measured pages/u column; '-' marks \
         plans the model cannot price, the same rows the executor reports \
         as unsupported"
            .to_string(),
    ];
    notes.push(if drifted.is_empty() {
        "determinism check passed: units, per-hop navigation cardinalities, \
         scanned-object and update counts are identical across every (model, \
         policy) cell of each scenario — declarative plans inherit the \
         paper's shared-access-sequence guarantee"
            .to_string()
    } else {
        format!(
            "WARNING: access sequences drifted across models/policies at {} — \
             the executor's determinism contract is broken",
            drifted.join(", ")
        )
    });

    Ok(ExperimentReport {
        id: "ext-workload".into(),
        title: "Extension — declarative non-paper workloads (deep navigation, hot-set skew, \
                scan-then-update) across models × policies"
            .into(),
        table,
        notes,
    })
}

/// Runs one declarative spec across the five models at the
/// harness-selected policy — the report behind
/// `starfish_repro --workload <file.json>`. With `threads` it runs over
/// the concurrent surface (`--threads N`): counters must match the serial
/// report (the executor's thread-count invariance); with 1 thread they
/// match exactly, physical reads included.
pub fn report_for_spec(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    threads: Option<usize>,
) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let serving = threads.map_or(Serving::Serial, |clients| Serving::Shared { clients });
    let mut table = Table::new(headers());
    let mut shape = None;
    let mut drifted = false;
    for kind in ModelKind::all() {
        let outcome = measure(&db, config, kind, spec, serving)?;
        table.push_row(predicted_row(config, spec, kind, &outcome));
        drifted |= !same_shape(&mut shape, &outcome);
    }

    let mut notes = vec![
        match threads {
            Some(n) => format!(
                "{} objects, {}-page buffer ({} shards), {} replacement; \
                 {n} client threads over the shared surface — counters are \
                 thread-count invariant, and a 1-thread run reproduces the \
                 serial measurement exactly",
                config.n_objects, config.buffer_pages, n, config.policy
            ),
            None => format!(
                "{} objects, {}-page buffer, {} replacement; per-unit counters \
                 over the paper's measurement protocol",
                config.n_objects, config.buffer_pages, config.policy
            ),
        },
        if spec.description.is_empty() {
            format!("spec: {}", spec.name)
        } else {
            format!("spec: {} — {}", spec.name, spec.description)
        },
        format!("spec JSON: {}", spec.to_json()),
    ];
    if let Some((units, nav, scanned, updates)) = &shape {
        notes.push(format!(
            "model-invariant shape: {units} units, nav hops {nav:?}, {scanned} scanned, \
             {updates} updates{}",
            if drifted {
                " — WARNING: some models disagreed (determinism contract broken)"
            } else {
                " (identical for every supporting model)"
            }
        ));
    }

    Ok(ExperimentReport {
        id: format!("workload-{}", spec.name),
        title: format!("Declarative workload — {}", spec.name),
        table,
        notes,
    })
}

/// The `--workload <spec> --sweep` report: one declarative spec crossed
/// with every replacement policy and every client count in `threads`,
/// through one reporting path shared by the concurrency, cluster and
/// drift scenarios. Without `nodes` each cell serves the spec from the
/// shared surface (`threads[i]` clients over `threads[i]` shards); with
/// `--nodes N` each cell serves it from a routed N-node cluster
/// (`threads[i]` clients, `threads[i]` queue workers per node). The
/// model-invariant shape (units, per-hop navigation, scanned and update
/// counts) must agree across **every** cell — policy, client count and
/// cluster shape may move physical I/O only.
pub fn report_for_spec_sweep(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    threads: &[usize],
    nodes: Option<usize>,
) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let mut table = Table::new(vec![
        "SCENARIO", "MODEL", "POLICY", "CLIENTS", "NODES", "units", "reads/u", "writes/u",
        "pages/u", "calls/u", "fixes/u",
    ]);
    let mut shape = None;
    let mut drifted: Vec<String> = Vec::new();
    for policy in PolicyKind::all() {
        let cfg = HarnessConfig { policy, ..*config };
        for &n in threads {
            let n = n.max(1);
            let serving = match nodes {
                Some(k) => Serving::Cluster {
                    nodes: k,
                    clients: n,
                    workers: n,
                },
                None => Serving::Shared { clients: n },
            };
            let (clients, served_by) = (n.to_string(), nodes.unwrap_or(1).to_string());
            for kind in ModelKind::all() {
                let outcome = measure(&db, &cfg, kind, spec, serving)?;
                let lead = [policy.name(), &clients, &served_by];
                table.push_row(measured_row(spec, kind, &lead, &outcome));
                if !same_shape(&mut shape, &outcome) {
                    drifted.push(format!("{kind}/{policy}/{n}c"));
                }
            }
        }
    }

    let mut notes = vec![
        format!(
            "{} objects, {}-page buffer; spec '{}' crossed with every \
             replacement policy × client counts {threads:?}, served {}",
            config.n_objects,
            config.buffer_pages,
            spec.name,
            match nodes {
                Some(k) => format!(
                    "by a routed {k}-node cluster (clients = queue workers \
                     per node = the swept count, proportional buffer share \
                     per node)"
                ),
                None => "from the shared surface (shards = clients)".to_string(),
            }
        ),
        format!("spec JSON: {}", spec.to_json()),
    ];
    notes.push(if drifted.is_empty() {
        "determinism check passed: units, per-hop navigation cardinalities, \
         scanned-object and update counts are identical across every \
         (model, policy, clients) cell — policy, concurrency and cluster \
         shape move physical I/O only"
            .to_string()
    } else {
        format!(
            "WARNING: access sequences drifted across cells at {} — the \
             executor's determinism contract is broken",
            drifted.join(", ")
        )
    });

    Ok(ExperimentReport {
        id: format!("workload-sweep-{}", spec.name),
        title: format!(
            "Declarative workload sweep — {} × policies × clients{}",
            spec.name,
            match nodes {
                Some(k) => format!(" on a {k}-node cluster"),
                None => String::new(),
            }
        ),
        table,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_sweep_covers_scenarios_models_policies() {
        let report = run(&HarnessConfig::fast()).unwrap();
        let want = WorkloadSpec::shipped().len() * ModelKind::all().len() * PolicyKind::all().len();
        assert_eq!(report.table.rows.len(), want);
        assert!(
            !report.notes.iter().any(|n| n.contains("WARNING")),
            "determinism check failed: {:?}",
            report.notes
        );
        // scan-then-update rows must write; deep-nav rows must not.
        for row in &report.table.rows {
            if row[0] == "deep-nav" {
                assert_eq!(row[5], "0", "deep-nav never writes: {row:?}");
            }
            if row[0] == "scan-then-update" {
                assert_ne!(row[5], "0", "scan-then-update must write: {row:?}");
            }
            // The predicted column prices exactly the plans the executor
            // can run: '-' in one means '-' in the other.
            assert_eq!(row.len(), headers().len());
            assert_eq!(
                row[9] == "-",
                row[4] == "-",
                "predicted/measured support must agree: {row:?}"
            );
            if row[9] != "-" {
                let pred: f64 = row[9].parse().unwrap();
                assert!(pred.is_finite() && pred >= 0.0, "bad prediction: {row:?}");
            }
        }
    }

    #[test]
    fn spec_report_runs_an_adhoc_plan() {
        let json = r#"{
            "name": "tiny-probe",
            "description": "three cold key lookups",
            "stream": 40,
            "ops": [
                {"op": "loop", "count": 3, "body": [
                    {"op": "pick_random", "n": 1},
                    {"op": "get_by_key", "proj": "all"},
                    {"op": "cold_restart"}
                ]}
            ]
        }"#;
        let spec = WorkloadSpec::from_json(json).unwrap();
        let report = report_for_spec(&HarnessConfig::fast(), &spec, None).unwrap();
        assert_eq!(report.table.rows.len(), ModelKind::all().len());
        assert!(report.id.contains("tiny-probe"));
        assert!(report.notes.iter().any(|n| n.contains("spec JSON")));
        // Every model supports key lookups; all cells measured.
        assert!(report.table.rows.iter().all(|r| r[3] == "3"));
    }

    #[test]
    fn sweep_report_shares_one_path_across_surfaces() {
        // --sweep: policies × client counts; without --nodes the shared
        // surface serves, with --nodes a routed cluster does. The
        // model-invariant shape must agree across every cell of both.
        let config = HarnessConfig::fast();
        let spec = WorkloadSpec::for_query(starfish_cost::QueryId::Q2b);
        for nodes in [None, Some(3)] {
            let report = report_for_spec_sweep(&config, &spec, &[1, 2], nodes).unwrap();
            let want = PolicyKind::all().len() * 2 * ModelKind::all().len();
            assert_eq!(report.table.rows.len(), want);
            assert!(
                !report.notes.iter().any(|n| n.contains("WARNING")),
                "determinism failed ({nodes:?} nodes): {:?}",
                report.notes
            );
            let want_nodes = nodes.unwrap_or(1).to_string();
            assert!(report.table.rows.iter().all(|r| r[4] == want_nodes));
            // Units are cell-invariant wherever the model supports the plan.
            let units: Vec<&String> = report
                .table
                .rows
                .iter()
                .map(|r| &r[5])
                .filter(|u| *u != "-")
                .collect();
            assert!(!units.is_empty());
            assert!(units.iter().all(|u| *u == units[0]));
        }
    }

    #[test]
    fn concurrent_spec_report_matches_serial_counters() {
        // --workload --threads N: units and fix counts (access counts) are
        // thread-count invariant, so the 4-thread report's cells agree
        // with the serial report's.
        let config = HarnessConfig::fast();
        let spec = WorkloadSpec::drift_gradual();
        let serial = report_for_spec(&config, &spec, None).unwrap();
        let conc = report_for_spec(&config, &spec, Some(4)).unwrap();
        assert_eq!(serial.table.rows.len(), conc.table.rows.len());
        for (s, c) in serial.table.rows.iter().zip(&conc.table.rows) {
            assert_eq!(s[1], c[1], "model order");
            assert_eq!(s[3], c[3], "units moved across thread counts");
            assert_eq!(s[8], c[8], "fixes/u moved across thread counts");
        }
        assert!(conc.notes.iter().any(|n| n.contains("4 client threads")));
    }
}
