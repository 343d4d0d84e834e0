//! The replacement-policy grid: every report that sweeps buffer policies is
//! a preset of one table-driven sweep with one renderer.
//!
//! The paper ran every measurement through one LRU buffer (§5.1–§5.2); the
//! policy axis is this repository's extension. A grid is the product of
//! five axes — specs × models × policies × buffer fractions × servings —
//! less the cells an optional filter drops, in the order a sort key gives.
//! Each cell reloads the store and runs one spec through [`measure`] (cold
//! start, plan, counted disconnect flush). Dynamic behaviour is a parameter
//! of the one sweep, not a new experiment: He & Darmont's DoEF design.
//!
//! | preset | report | grid |
//! |---|---|---|
//! | [`ext_policy`] | `ext-policy` | queries 1a–3b (as columns) × models × policies |
//! | [`ext_buffer`] | `ext-buffer` | 2b × 3 models × LRU at six buffer fractions, the rest at ⅛ and 1 |
//! | [`ext_drift`] | `ext-drift` | static + 3 drifting hot sets × DSM, DASDBS-NSM × policies, ⅛ buffer |
//! | [`ext_workload`] | `ext-workload` | [`WorkloadSpec::shipped`] × models × policies |
//! | [`workload`] | `--workload <spec>` (`--threads N`) | one spec × models at `--policy` |
//! | [`workload_sweep`] | `--workload <spec> --sweep` (`--nodes N`) | one spec × policies × clients × models |
//!
//! Every grid keeps the executor's contract, and every report warns when it
//! breaks: units, per-hop navigation counts, scans and updates agree
//! across the cells of a spec, and fixes across the policies of each
//! (spec, model, buffer, serving). Policies move physical I/O only.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{measure, HarnessConfig, Serving};
use crate::Result;
use starfish_core::{ModelKind, PolicyKind};
use starfish_cost::{estimate_plan, EstimatorInputs, ModelVariant, PlanContext, PlanOp, QueryId};
use starfish_nf2::station::Station;
use starfish_pagestore::BufferStats;
use starfish_workload::{generate, lower_spec, PlanOutcome, PlanRun, WorkloadSpec};

/// The axes of one grid: every point of their product that `keep` admits
/// (by policy and buffer fraction), sorted by `order`, outermost axis
/// first. The first spec is the "vs static" baseline.
struct Axes {
    specs: Vec<WorkloadSpec>,
    models: Vec<ModelKind>,
    policies: Vec<PolicyKind>,
    fractions: Vec<f64>,
    servings: Vec<Serving>,
    order: fn(&At) -> [usize; 4],
    keep: Option<fn(PolicyKind, f64) -> bool>,
}

/// A point of a grid: an index into each axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct At {
    spec: usize,
    model: usize,
    policy: usize,
    fraction: usize,
    serving: usize,
}

impl Axes {
    /// The serial protocol at the configured buffer under every policy.
    fn every_policy(
        specs: Vec<WorkloadSpec>,
        models: &[ModelKind],
        order: fn(&At) -> [usize; 4],
    ) -> Axes {
        Axes {
            specs,
            models: models.to_vec(),
            policies: PolicyKind::all().to_vec(),
            fractions: vec![1.0],
            servings: vec![Serving::Serial],
            order,
            keep: None,
        }
    }

    /// The points to measure, in row order.
    fn points(&self) -> Vec<At> {
        let mut points = Vec::new();
        for spec in 0..self.specs.len() {
            for model in 0..self.models.len() {
                for policy in 0..self.policies.len() {
                    for fraction in 0..self.fractions.len() {
                        let (p, f) = (self.policies[policy], self.fractions[fraction]);
                        if self.keep.is_none_or(|keep| keep(p, f)) {
                            let at = |serving| At {
                                spec,
                                model,
                                policy,
                                fraction,
                                serving,
                            };
                            points.extend((0..self.servings.len()).map(at));
                        }
                    }
                }
            }
        }
        points.sort_by_key(self.order);
        points
    }
}

/// A buffer of `fraction` × the configured one, never below 16 pages.
fn buffer_of(config: &HarnessConfig, fraction: f64) -> usize {
    ((config.buffer_pages as f64 * fraction) as usize).max(16)
}

/// The one cell function: `spec` on a fresh `model` store under `policy`
/// with a [`buffer_of`]`(fraction)` buffer, served as `serving` says.
fn measure_cell(
    db: &[Station],
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    model: ModelKind,
    policy: PolicyKind,
    fraction: f64,
    serving: Serving,
) -> Result<(PlanOutcome, BufferStats)> {
    let buffer_pages = buffer_of(config, fraction);
    let cfg = HarnessConfig {
        policy,
        buffer_pages,
        ..*config
    };
    measure(db, &cfg, model, spec, serving)
}

/// What a column shows of a cell. The counters print `-` for a plan the
/// model cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Col {
    Scenario,
    Model,
    Policy,
    Clients,
    Nodes,
    Buffer,
    Units,
    Reads,
    Writes,
    Pages,
    Calls,
    Fixes,
    HitRate,
    /// Evictions per unit.
    Evictions,
    /// Reads against LRU's.
    VsLru,
    /// Reads against the first spec's.
    VsStatic,
    /// Spec `i`'s reads with their [`Col::VsLru`] in parentheses: the specs
    /// become columns, one row per point of the other axes.
    ReadsVsLru(usize),
    /// The plan-walker's pages per unit ([`predicted_pages`]).
    Predicted,
}

/// The per-unit counters of a workload row.
const COUNTERS: [(&str, Col); 6] = [
    ("units", Col::Units),
    ("reads/u", Col::Reads),
    ("writes/u", Col::Writes),
    ("pages/u", Col::Pages),
    ("calls/u", Col::Calls),
    ("fixes/u", Col::Fixes),
];

/// The lead columns of a workload row.
const WORKLOAD: [(&str, Col); 3] = [
    ("SCENARIO", Col::Scenario),
    ("MODEL", Col::Model),
    ("POLICY", Col::Policy),
];

fn columns(lists: &[&[(&str, Col)]]) -> Vec<(String, Col)> {
    let all = lists.iter().flat_map(|list| list.iter());
    all.map(|&(header, col)| (header.to_string(), col))
        .collect()
}

/// `v` against `base` as a signed percentage; `-` without a positive base.
fn pct(v: f64, base: f64) -> String {
    if base > 0.0 {
        format!("{:+.1}%", 100.0 * (v - base) / base)
    } else {
        "-".to_string()
    }
}

/// What every cell of one spec must agree on: units, objects seen per
/// navigation hop, scanned objects, updates applied.
type Shape = (u64, Vec<u64>, u64, u64);

fn shape(run: &PlanRun) -> Shape {
    (
        run.units,
        run.nav_seen.clone(),
        run.scanned,
        run.updates_applied,
    )
}

/// One measured cell: the outcome and the buffer's counters of the run.
struct Cell {
    at: At,
    outcome: PlanOutcome,
    buffer: BufferStats,
}

/// A measured grid, its cells in row order.
struct Grid {
    config: HarnessConfig,
    axes: Axes,
    cells: Vec<Cell>,
}

impl Grid {
    /// Measures every point of `axes` over one generated database.
    fn measure(config: &HarnessConfig, axes: Axes) -> Result<Grid> {
        let db = generate(&config.dataset());
        let mut cells = Vec::new();
        for at in axes.points() {
            let (outcome, buffer) = measure_cell(
                &db,
                config,
                &axes.specs[at.spec],
                axes.models[at.model],
                axes.policies[at.policy],
                axes.fractions[at.fraction],
                axes.servings[at.serving],
            )?;
            cells.push(Cell {
                at,
                outcome,
                buffer,
            });
        }
        Ok(Grid {
            config: *config,
            axes,
            cells,
        })
    }

    /// The supported runs, in row order.
    fn runs(&self) -> impl Iterator<Item = (At, &BufferStats, &PlanRun)> {
        (self.cells.iter()).filter_map(|c| Some((c.at, &c.buffer, c.outcome.run()?)))
    }

    /// The first supported run at a point `same` admits.
    fn first(&self, same: impl Fn(At) -> bool) -> Option<&PlanRun> {
        self.runs().find(|&(at, ..)| same(at)).map(|(.., run)| run)
    }

    /// The run at `at`, if measured and supported.
    fn run(&self, at: At) -> Option<&PlanRun> {
        self.first(|a| a == at)
    }

    /// The run at `at` under LRU instead.
    fn lru(&self, at: At) -> Option<&PlanRun> {
        let policies = &self.axes.policies;
        let policy = policies.iter().position(|p| *p == PolicyKind::Lru)?;
        self.run(At { policy, ..at })
    }

    fn buffer_pages(&self, at: At) -> usize {
        buffer_of(&self.config, self.axes.fractions[at.fraction])
    }

    /// The cells that break the executor's contract: a shape unlike the
    /// spec's first, or fixes unlike the same point's under the first
    /// policy. An unsupported cell breaks nothing.
    fn breaks(&self) -> Vec<String> {
        let axes = &self.axes;
        let broken = self.runs().filter(|&(at, _, run)| {
            let spec = self.first(|a| a.spec == at.spec);
            let policy = self.first(|a| {
                At {
                    policy: at.policy,
                    ..a
                } == at
            });
            spec.is_some_and(|first| shape(first) != shape(run))
                || policy.is_some_and(|first| first.snapshot.fixes != run.snapshot.fixes)
        });
        (broken.map(|(at, ..)| {
            let (spec, model) = (&axes.specs[at.spec].name, axes.models[at.model]);
            let (policy, serving) = (axes.policies[at.policy], axes.servings[at.serving]);
            format!(
                "{spec}/{model}/{policy}/{}p/{serving:?}",
                self.buffer_pages(at)
            )
        }))
        .collect()
    }

    /// The warning naming the cells that break the contract, if any do.
    fn warning(&self) -> Option<String> {
        let broken = self.breaks();
        (!broken.is_empty()).then(|| {
            format!(
                "WARNING: access sequences or fix counts drifted at {} — the \
                 executor's determinism contract is broken",
                broken.join(", ")
            )
        })
    }

    /// `passed`, or the warning.
    fn contract_note(&self, passed: &str) -> String {
        self.warning().unwrap_or_else(|| passed.to_string())
    }

    /// What `col` shows at `at`.
    fn show(&self, col: Col, at: At) -> String {
        let axes = &self.axes;
        let dash = || "-".to_string();
        let on_run = |at: At, f: &dyn Fn(&BufferStats, &PlanRun) -> String| {
            let cell = self.runs().find(|&(a, ..)| a == at);
            cell.map_or_else(dash, |(_, buffer, run)| f(buffer, run))
        };
        let vs = |base: Option<&PlanRun>| {
            let reads = |run: &PlanRun| run.reads_per_unit();
            on_run(at, &|_, run| {
                base.map_or_else(dash, |b| pct(reads(run), reads(b)))
            })
        };
        let is_lru = axes.policies[at.policy] == PolicyKind::Lru;
        let (clients, nodes) = match axes.servings[at.serving] {
            Serving::Serial => (1, 1),
            Serving::Shared { clients } => (clients, 1),
            Serving::Cluster { nodes, clients, .. } => (clients, nodes),
        };
        match col {
            Col::Scenario => axes.specs[at.spec].name.clone(),
            Col::Model => axes.models[at.model].paper_name().to_string(),
            Col::Policy => axes.policies[at.policy].name().to_string(),
            Col::Clients => clients.to_string(),
            Col::Nodes => nodes.to_string(),
            Col::Buffer => self.buffer_pages(at).to_string(),
            Col::Units => on_run(at, &|_, run| run.units.to_string()),
            Col::Reads => on_run(at, &|_, run| fmt_pages(run.reads_per_unit())),
            Col::Writes => on_run(at, &|_, run| fmt_pages(run.writes_per_unit())),
            Col::Pages => on_run(at, &|_, run| fmt_pages(run.pages_per_unit())),
            Col::Calls => on_run(at, &|_, run| fmt_pages(run.calls_per_unit())),
            Col::Fixes => on_run(at, &|_, run| fmt_pages(run.fixes_per_unit())),
            Col::HitRate => on_run(at, &|buffer, _| {
                let hit_rate = buffer.hits as f64 / buffer.fixes.max(1) as f64;
                format!("{:.1}%", 100.0 * hit_rate)
            }),
            Col::Evictions => on_run(at, &|buffer, run| {
                fmt_pages(buffer.evictions as f64 / run.units.max(1) as f64)
            }),
            Col::VsLru if is_lru => on_run(at, &|_, _| "(baseline)".to_string()),
            Col::VsLru => vs(self.lru(at)),
            Col::VsStatic if at.spec == 0 => on_run(at, &|_, _| "(baseline)".to_string()),
            Col::VsStatic => vs(self.run(At { spec: 0, ..at })),
            Col::ReadsVsLru(spec) => {
                let at = At { spec, ..at };
                on_run(at, &|_, run| {
                    let reads = fmt_pages(run.reads_per_unit());
                    match self.lru(at).filter(|_| !is_lru) {
                        Some(b) => format!(
                            "{reads} ({})",
                            pct(run.reads_per_unit(), b.reads_per_unit())
                        ),
                        None => reads,
                    }
                })
            }
            Col::Predicted => {
                let (spec, model) = (&axes.specs[at.spec], axes.models[at.model]);
                let pages = predicted_pages(&self.config, spec, model, self.buffer_pages(at));
                pages.map_or_else(dash, fmt_pages)
            }
        }
    }

    /// The one renderer: report `id` with a row per cell in row order — per
    /// point of the other axes when the specs are columns — and `notes`.
    fn report(
        &self,
        id: &str,
        title: &str,
        columns: &[(String, Col)],
        notes: Vec<String>,
    ) -> ExperimentReport {
        let pivot = columns.iter().any(|(_, c)| matches!(c, Col::ReadsVsLru(_)));
        let mut table = Table::new(columns.iter().map(|(h, _)| h.clone()).collect());
        for cell in self.cells.iter().filter(|c| !pivot || c.at.spec == 0) {
            table.push_row(
                columns
                    .iter()
                    .map(|&(_, col)| self.show(col, cell.at))
                    .collect(),
            );
        }
        let (id, title) = (id.to_string(), title.to_string());
        ExperimentReport {
            id,
            title,
            table,
            notes,
        }
    }
}

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

/// Expected page I/Os per unit for `spec` under `kind` with a buffer of
/// `buffer_pages`, from the cost model's plan-walker (uniform Table 3
/// pricing — no placement feedback), or `None` where the model cannot
/// price an op of the plan: the same rows the executor reports as
/// unsupported.
fn predicted_pages(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    kind: ModelKind,
    buffer_pages: usize,
) -> Option<f64> {
    let inputs = EstimatorInputs::new(config.dataset().profile());
    let ctx = PlanContext {
        buffer_pages: buffer_pages as f64,
        hot_span_pages: None,
    };
    let ops = lower_spec(spec, config.n_objects);
    estimate_plan(variant_of(kind), &inputs, &ctx, &ops)
        .map(|est| est.total() / plan_units(&ops) as f64)
}

/// `ext-policy`: queries 1a–3b under every policy × every model, page
/// reads per unit with the delta against the paper's LRU. Writes are
/// deferred alike under every policy, so reads are where policies part.
pub fn ext_policy(config: &HarnessConfig) -> Result<ExperimentReport> {
    let specs = QueryId::all().map(WorkloadSpec::for_query).to_vec();
    let order = |a: &At| [a.model, a.policy, a.spec, 0];
    let grid = Grid::measure(
        config,
        Axes::every_policy(specs, &super::grid_models(), order),
    )?;
    let mut columns = columns(&[&[("MODEL", Col::Model), ("POLICY", Col::Policy)]]);
    let queries = QueryId::all().into_iter().enumerate();
    columns.extend(queries.map(|(i, q)| (format!("{q} reads"), Col::ReadsVsLru(i))));
    let notes = vec![
        format!(
            "{} objects, {}-page buffer; every cell reruns the full protocol \
             (cold start, query, disconnect flush) under that policy",
            config.n_objects, config.buffer_pages
        ),
        "deltas are page reads per unit vs. the paper's LRU baseline; \
         negative = the policy reads fewer pages than LRU did"
            .to_string(),
        grid.contract_note(
            "fix counts verified identical across all policies for every \
             (model, query) — policies change physical I/O only, never the \
             access pattern",
        ),
        "reading the table: LRU and CLOCK track each other (second chance \
         approximates recency) and FIFO trails them slightly; MRU pins the \
         coldest frames forever, which can pay off for a pure cyclic scan \
         just over the buffer size but loses heavily on the skewed reuse of \
         the navigation loops (2b/3b under the direct models); LRU-2 \
         refuses to keep single-touch pages, which costs it on sequential \
         re-scans (1c) whose pages are exactly single-touch per pass"
            .to_string(),
    ];
    let title = "Extension — replacement-policy sweep (queries 1a–3b, every model)";
    Ok(grid.report("ext-policy", title, &columns, notes))
}

/// `ext-buffer`'s LRU buffer fractions: ≤ 1 keeps the paper's DB ≫ buffer
/// regime, 2× and 4× leave it to find each model's saturation point.
const BUFFER_FRACTIONS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

/// `ext-buffer`'s fractions for the other policies: starved and the
/// paper's. Once the working set fits, nothing evicts and policies tie.
const POLICY_FRACTIONS: [f64; 2] = [0.125, 1.0];

/// `ext-buffer`: Figure 6's dual — a fixed database under a varying
/// buffer, query 2b pages per loop. LRU sweeps every fraction, which pins
/// down each model's working set (§5.4); the other policies run at the
/// starved and paper sizes.
pub fn ext_buffer(config: &HarnessConfig) -> Result<ExperimentReport> {
    let models = [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm];
    // Per model, LRU's capacity sweep (LRU is policy 0), then the policy
    // sweep buffer by buffer.
    let order = |a: &At| [a.model, usize::from(a.policy > 0), a.fraction, a.policy];
    let mut axes = Axes::every_policy(vec![WorkloadSpec::q2b()], &models, order);
    axes.fractions = BUFFER_FRACTIONS.to_vec();
    axes.keep = Some(|p, f| p == PolicyKind::Lru || POLICY_FRACTIONS.contains(&f));
    let grid = Grid::measure(config, axes)?;

    let mut notes = vec![
        format!(
            "database: {} objects; buffer swept from {}×⅛ to {}×4 pages",
            config.n_objects, config.buffer_pages, config.buffer_pages
        ),
        "regimes: fractions ≤ 1 preserve the paper's DB ≫ buffer regime \
         (all of Tables 4–6 assume it); the 2× and 4× LRU rows deliberately \
         leave it to expose each model's working-set size; the policy sweep \
         stays at ⅛× (starved) and 1× (paper) because an oversized buffer \
         stops evicting and makes every policy identical by construction"
            .to_string(),
    ];
    let (starved, oversized) = (0, BUFFER_FRACTIONS.len() - 1);
    let pages = |model, policy, fraction| {
        let at = At {
            spec: 0,
            model,
            policy,
            fraction,
            serving: 0,
        };
        grid.run(at).map_or(f64::NAN, PlanRun::pages_per_unit)
    };
    for (m, kind) in models.iter().enumerate() {
        let (small, large) = (pages(m, 0, starved), pages(m, 0, oversized));
        notes.push(format!(
            "{} (LRU): {:.2} pages/loop with the starved buffer → {:.2} with the \
             oversized one (×{:.1} sensitivity)",
            kind.paper_name(),
            small,
            large,
            small / large.max(1e-9)
        ));
    }
    for (m, kind) in models.iter().enumerate() {
        // The first of the cheapest non-LRU policies at the starved buffer.
        let best = (1..grid.axes.policies.len())
            .map(|p| (p, pages(m, p, starved)))
            .filter(|(_, pages)| !pages.is_nan())
            .reduce(|best, next| if next.1 < best.1 { next } else { best });
        if let Some((p, best)) = best {
            notes.push(format!(
                "{} starved-buffer best non-LRU policy: {} at {:.2} pages/loop \
                 (LRU: {:.2})",
                kind.paper_name(),
                grid.axes.policies[p].name(),
                best,
                pages(m, 0, starved)
            ));
        }
    }
    notes.push(
        "shape: DSM's curve keeps falling across the whole sweep (working set ≈ \
         whole database), DASDBS-DSM saturates once headers+prefixes fit, \
         DASDBS-NSM is already saturated at the smallest buffer — the §5.4 \
         sensitivity ordering, seen from the memory side"
            .to_string(),
    );
    notes.extend(grid.warning());
    let columns = columns(&[&[
        ("MODEL", Col::Model),
        ("POLICY", Col::Policy),
        ("buffer", Col::Buffer),
        ("2b pages/loop", Col::Pages),
        ("hit rate", Col::HitRate),
        ("evictions/loop", Col::Evictions),
    ]]);
    let title = "Extension — buffer ablation (query 2b, fixed database, size × policy)";
    Ok(grid.report("ext-buffer", title, &columns, notes))
}

/// `ext-drift`: the static hot set against three moving ones — a 16-object
/// window sliding 4 objects every 4 loops (DoEF's moving window), one
/// jumping 137 objects every 60 loops, and a `phase` cycle of tight,
/// uniform and wide picks — under every policy on the bracket models
/// (fully decomposed DSM, fully clustered DASDBS-NSM) with a ⅛ buffer: at
/// full cache nothing evicts and every policy ties. The notes name the
/// (scenario, model) pairs whose policy ranking differs from the static
/// one.
pub fn ext_drift(config: &HarnessConfig) -> Result<ExperimentReport> {
    let specs = vec![
        WorkloadSpec::hot_set(),
        WorkloadSpec::drift_gradual(),
        WorkloadSpec::drift_sudden(),
        WorkloadSpec::drift_cycle(),
    ];
    let models = [ModelKind::Dsm, ModelKind::DasdbsNsm];
    let order = |a: &At| [a.spec, a.policy, a.model, 0];
    let mut axes = Axes::every_policy(specs, &models, order);
    axes.fractions = vec![0.125];
    let grid = Grid::measure(config, axes)?;

    // Policies best-to-worst by reads per unit, ties in axis order.
    let ranking = |spec: usize, model: usize| {
        let mut ranked: Vec<(f64, usize)> = (grid.runs())
            .filter(|(at, ..)| at.spec == spec && at.model == model)
            .map(|(at, _, run)| (run.reads_per_unit(), at.policy))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let names = ranked.iter().map(|&(_, p)| grid.axes.policies[p].name());
        names.collect::<Vec<_>>().join(" < ")
    };
    let mut changes: Vec<String> = Vec::new();
    for (m, model) in models.iter().enumerate() {
        let static_rank = ranking(0, m);
        for (s, spec) in grid.axes.specs.iter().enumerate().skip(1) {
            let drift_rank = ranking(s, m);
            if drift_rank != static_rank {
                let model = model.paper_name();
                let name = &spec.name;
                changes.push(format!(
                    "{name}/{model}: {drift_rank} (static: {static_rank})"
                ));
            }
        }
    }
    let notes = vec![
        format!(
            "{} objects, buffer scaled down to {} pages to preserve the \
             paper's DB >> buffer regime (5.1) — at full cache nothing \
             evicts and every policy ties",
            config.n_objects,
            buffer_of(config, 0.125)
        ),
        "\"vs static\" compares each policy to itself on the static hot-set \
         baseline (the price of the same skew once it moves); \"vs LRU\" \
         compares policies within a scenario, like ext-policy does"
            .to_string(),
        if changes.is_empty() {
            "policy rankings under drift match the static hot-set ranking — \
             at this scale drift changes magnitudes, not the choice of policy"
                .to_string()
        } else {
            format!(
                "policy ranking changes under drift (best-to-worst by reads/u): {}",
                changes.join("; ")
            )
        },
        grid.contract_note(
            "determinism check passed: units, per-hop cardinalities, scan and \
             update counts identical across every (model, policy) cell of each \
             scenario — drift changes *which* objects are hot, never how many \
             are accessed",
        ),
    ];
    let columns = columns(&[
        &WORKLOAD,
        &COUNTERS[..2],
        &[("vs static", Col::VsStatic), ("vs LRU", Col::VsLru)],
    ]);
    let title = "Extension — drifting hot sets and phase changes vs the static baseline \
                 (policies × bracket models, DB >> buffer)";
    Ok(grid.report("ext-drift", title, &columns, notes))
}

/// `ext-workload`: the shipped non-paper specs — deep navigation, hot-set
/// skew, scan-then-update and the three drifting hot sets — × every
/// model × every policy, the plan-walker's prediction beside the counters.
pub fn ext_workload(config: &HarnessConfig) -> Result<ExperimentReport> {
    let order = |a: &At| [a.spec, a.policy, a.model, 0];
    let axes = Axes::every_policy(WorkloadSpec::shipped(), &ModelKind::all(), order);
    let grid = Grid::measure(config, axes)?;
    let notes = vec![
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
        grid.contract_note(
            "determinism check passed: units, per-hop navigation cardinalities, \
             scanned-object and update counts are identical across every (model, \
             policy) cell of each scenario — declarative plans inherit the \
             paper's shared-access-sequence guarantee",
        ),
    ];
    let columns = columns(&[&WORKLOAD, &COUNTERS, &[("pred pg/u", Col::Predicted)]]);
    let title = "Extension — declarative non-paper workloads (deep navigation, hot-set skew, \
                 scan-then-update) across models × policies";
    Ok(grid.report("ext-workload", title, &columns, notes))
}

/// `--workload <spec>`: one declarative spec across the five models at
/// the configured policy. With `threads` it is served from the shared
/// surface by that many clients: counters are thread-count invariant, and
/// one thread reproduces the serial run exactly, physical reads included.
pub fn workload(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    threads: Option<usize>,
) -> Result<ExperimentReport> {
    let order = |a: &At| [a.model, 0, 0, 0];
    let mut axes = Axes::every_policy(vec![spec.clone()], &ModelKind::all(), order);
    axes.policies = vec![config.policy];
    axes.servings = vec![threads.map_or(Serving::Serial, |clients| Serving::Shared { clients })];
    let grid = Grid::measure(config, axes)?;
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
    if let Some((units, nav, scanned, updates)) = grid.first(|_| true).map(shape) {
        notes.push(format!(
            "model-invariant shape: {units} units, nav hops {nav:?}, {scanned} scanned, \
             {updates} updates{}",
            if grid.breaks().is_empty() {
                " (identical for every supporting model)"
            } else {
                " — WARNING: some models disagreed (determinism contract broken)"
            }
        ));
    }
    let columns = columns(&[&WORKLOAD, &COUNTERS, &[("pred pg/u", Col::Predicted)]]);
    let title = format!("Declarative workload — {}", spec.name);
    Ok(grid.report(&format!("workload-{}", spec.name), &title, &columns, notes))
}

/// `--workload <spec> --sweep`: one spec × every policy × each client
/// count in `threads` × every model. Without `nodes` a cell is served from
/// the shared surface (clients = shards); with `nodes` from a routed
/// cluster (clients = queue workers per node).
pub fn workload_sweep(
    config: &HarnessConfig,
    spec: &WorkloadSpec,
    threads: &[usize],
    nodes: Option<usize>,
) -> Result<ExperimentReport> {
    let order = |a: &At| [a.policy, a.serving, a.model, 0];
    let mut axes = Axes::every_policy(vec![spec.clone()], &ModelKind::all(), order);
    axes.servings = (threads.iter().map(|&n| n.max(1)))
        .map(|n| match nodes {
            Some(nodes) => Serving::Cluster {
                nodes,
                clients: n,
                workers: n,
            },
            None => Serving::Shared { clients: n },
        })
        .collect();
    let grid = Grid::measure(config, axes)?;
    let notes = vec![
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
        grid.contract_note(
            "determinism check passed: units, per-hop navigation cardinalities, \
             scanned-object and update counts are identical across every \
             (model, policy, clients) cell — policy, concurrency and cluster \
             shape move physical I/O only",
        ),
    ];
    let serving = [("CLIENTS", Col::Clients), ("NODES", Col::Nodes)];
    let columns = columns(&[&WORKLOAD, &serving, &COUNTERS]);
    let title = format!(
        "Declarative workload sweep — {} × policies × clients{}",
        spec.name,
        nodes.map_or_else(String::new, |k| format!(" on a {k}-node cluster"))
    );
    Ok(grid.report(
        &format!("workload-sweep-{}", spec.name),
        &title,
        &columns,
        notes,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::measure_grid_on;

    /// One preset at `--fast`, by report name: its report, checked to have
    /// one row per point of its axes and an unbroken contract — units,
    /// navigation, scans, updates and fixes identical across policies.
    /// The per-preset checks below run on what it returns; the tests that
    /// call them sit under the experiment ids in `experiments`.
    pub(crate) fn preset(name: &str) -> ExperimentReport {
        let config = HarnessConfig::fast();
        let (models, policies) = (ModelKind::all().len(), PolicyKind::all().len());
        let q2b = WorkloadSpec::q2b();
        let (report, rows) = match name {
            "ext-policy" => (ext_policy(&config), models * policies),
            "ext-buffer" => (ext_buffer(&config), 3 * 6 + 3 * 2 * (policies - 1)),
            "ext-drift" => (ext_drift(&config), 4 * 2 * policies),
            "ext-workload" => (
                ext_workload(&config),
                WorkloadSpec::shipped().len() * models * policies,
            ),
            "tiny-probe" => (workload(&config, &tiny_probe(), None), models),
            "sweep" => (
                workload_sweep(&config, &q2b, &[1, 2], None),
                policies * 2 * models,
            ),
            "sweep-3-nodes" => (
                workload_sweep(&config, &q2b, &[1, 2], Some(3)),
                policies * 2 * models,
            ),
            other => panic!("no preset {other}"),
        };
        let report = report.unwrap();
        assert_eq!(report.table.rows.len(), rows, "{}", report.id);
        let warned = report.notes.iter().any(|n| n.contains("WARNING"));
        assert!(
            !warned,
            "contract broken in {}: {:?}",
            report.id, report.notes
        );
        report
    }

    /// An ad-hoc spec: three cold key lookups.
    fn tiny_probe() -> WorkloadSpec {
        WorkloadSpec::from_json(
            r#"{"name": "tiny-probe", "description": "three cold key lookups", "stream": 40,
                "ops": [{"op": "loop", "count": 3, "body": [{"op": "pick_random", "n": 1},
                    {"op": "get_by_key", "proj": "all"}, {"op": "cold_restart"}]}]}"#,
        )
        .unwrap()
    }

    /// Policies in axis order under each model, LRU first; fixes identical;
    /// the LRU row is the plain grid's measurement.
    pub(crate) fn policy_rows(report: &ExperimentReport) {
        for rows in report.table.rows.chunks(PolicyKind::all().len()) {
            assert_eq!(rows[0][1], "LRU");
            assert!(rows.iter().all(|r| r[0] == rows[0][0]));
        }
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("verified identical")));
        let cfg = HarnessConfig::fast();
        let grid = measure_grid_on(&generate(&cfg.dataset()), &cfg, &[ModelKind::Dsm]).unwrap();
        let q2b = grid.cell(ModelKind::Dsm, QueryId::Q2b).unwrap();
        let dsm = &report.table.rows[0];
        assert_eq!(
            (dsm[0].as_str(), dsm[6].clone()),
            ("DSM", fmt_pages(q2b.reads_per_unit()))
        );
    }

    /// LRU at every fraction: more buffer never hurts, DSM gains the most,
    /// DASDBS-NSM the least.
    pub(crate) fn buffer_sensitivity(report: &ExperimentReport) {
        let lru = |m: &str| -> Vec<f64> {
            let rows = report
                .table
                .rows
                .iter()
                .filter(|r| r[0] == m && r[1] == "LRU");
            rows.map(|r| r[3].parse().unwrap()).collect()
        };
        for m in ["DSM", "DASDBS-DSM", "DASDBS-NSM"] {
            let pages = lru(m);
            assert_eq!(pages.len(), BUFFER_FRACTIONS.len());
            for w in pages.windows(2) {
                assert!(
                    w[1] <= w[0] * 1.10 + 0.3,
                    "{m}: more buffer, more pages: {pages:?}"
                );
            }
        }
        let gain = |m: &str| lru(m)[0] / lru(m)[BUFFER_FRACTIONS.len() - 1].max(1e-9);
        assert!(gain("DSM") > gain("DASDBS-NSM"));
    }

    /// Every other policy at the starved and paper sizes, and the regime
    /// named in the notes.
    pub(crate) fn buffer_regimes(report: &ExperimentReport) {
        let config = HarnessConfig::fast();
        for m in ["DSM", "DASDBS-DSM", "DASDBS-NSM"] {
            for p in ["CLOCK", "MRU", "FIFO", "LRU-2"] {
                for buffer in POLICY_FRACTIONS.map(|f| buffer_of(&config, f).to_string()) {
                    assert!(
                        report
                            .table
                            .rows
                            .iter()
                            .any(|r| r[0] == m && r[1] == p && r[2] == buffer),
                        "missing policy row {m}/{p}/{buffer}"
                    );
                }
            }
        }
        assert!(report.notes.iter().any(|n| n.contains("DB ≫ buffer")));
    }

    /// Drift reorders at least one policy ranking.
    pub(crate) fn drift_reorders(report: &ExperimentReport) {
        let reordered = report
            .notes
            .iter()
            .any(|n| n.contains("policy ranking changes under drift"));
        assert!(reordered, "no ranking change: {:?}", report.notes);
    }

    /// Drift costs reads over the static hot set under at least one policy.
    pub(crate) fn drift_costs(report: &ExperimentReport) {
        assert!(
            report.table.rows.iter().any(|r| r[5].starts_with('+')),
            "drift was free: {:?}",
            report.table.rows
        );
    }

    /// scan-then-update writes, deep-nav does not; the prediction is '-'
    /// exactly where the measurement is.
    pub(crate) fn workload_rows(report: &ExperimentReport) {
        for row in &report.table.rows {
            match row[0].as_str() {
                "deep-nav" => assert_eq!(row[5], "0", "deep-nav never writes: {row:?}"),
                "scan-then-update" => assert_ne!(row[5], "0", "must write: {row:?}"),
                _ => {}
            }
            assert_eq!(row[9] == "-", row[4] == "-", "support must agree: {row:?}");
            if row[9] != "-" {
                let pred: f64 = row[9].parse().unwrap();
                assert!(pred.is_finite() && pred >= 0.0, "bad prediction: {row:?}");
            }
        }
    }

    /// The ad-hoc spec runs under every model, every lookup measured.
    pub(crate) fn tiny_probe_rows(report: &ExperimentReport) {
        assert!(report.id.contains("tiny-probe"));
        assert!(report.notes.iter().any(|n| n.contains("spec JSON")));
        // Every model supports key lookups.
        assert!(
            report.table.rows.iter().all(|row| row[3] == "3"),
            "{report:?}"
        );
    }

    /// Every row served by `nodes` nodes; units are cell-invariant.
    pub(crate) fn sweep_rows(report: &ExperimentReport, nodes: &str) {
        assert!(report.table.rows.iter().all(|r| r[4] == nodes));
        let units: Vec<&String> = report
            .table
            .rows
            .iter()
            .map(|r| &r[5])
            .filter(|u| *u != "-")
            .collect();
        assert!(!units.is_empty() && units.iter().all(|u| *u == units[0]));
    }

    /// Units and fixes (access counts) are thread-count invariant.
    pub(crate) fn threaded_matches_serial() {
        let config = HarnessConfig::fast();
        let spec = WorkloadSpec::drift_gradual();
        let serial = workload(&config, &spec, None).unwrap();
        let threaded = workload(&config, &spec, Some(4)).unwrap();
        assert_eq!(serial.table.rows.len(), threaded.table.rows.len());
        for (s, t) in serial.table.rows.iter().zip(&threaded.table.rows) {
            assert_eq!(
                (&s[1], &s[3], &s[8]),
                (&t[1], &t[3], &t[8]),
                "model, units, fixes/u"
            );
        }
        assert!(threaded
            .notes
            .iter()
            .any(|n| n.contains("4 client threads")));
    }

    #[test]
    fn a_broken_contract_names_the_cell() {
        // Fixes that differ across policies at one point are a break.
        let config = HarnessConfig::fast();
        let order = |a: &At| [a.policy, 0, 0, 0];
        let axes = Axes::every_policy(vec![WorkloadSpec::q2b()], &[ModelKind::Dsm], order);
        let mut grid = Grid::measure(&config, axes).unwrap();
        assert!(grid.breaks().is_empty());
        if let PlanOutcome::Measured(run) = &mut grid.cells[1].outcome {
            run.snapshot.fixes += 1;
        }
        assert_eq!(grid.breaks(), ["q2b/DSM/CLOCK/240p/Serial"]);
        assert!(grid.warning().unwrap().starts_with("WARNING"));
    }

    #[test]
    fn a_cell_the_model_cannot_run_is_a_dashed_row() {
        // Pure NSM has no 1a; every counter and delta column dashes.
        let config = HarnessConfig::fast();
        let order = |a: &At| [a.policy, 0, 0, 0];
        let axes = Axes::every_policy(vec![WorkloadSpec::q1a()], &[ModelKind::Nsm], order);
        let grid = Grid::measure(&config, axes).unwrap();
        let shown = [
            Col::Units,
            Col::Reads,
            Col::HitRate,
            Col::VsLru,
            Col::VsStatic,
        ];
        let report = grid.report(
            "t",
            "t",
            &columns(&[&WORKLOAD, &shown.map(|c| ("", c))]),
            vec![],
        );
        for row in &report.table.rows {
            assert!(row[3..].iter().all(|c| c == "-"), "{row:?}");
        }
        assert!(grid.breaks().is_empty());
    }
}
