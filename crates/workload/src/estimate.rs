//! The plan-walker: a [`WorkloadSpec`]'s expected page I/Os, priced from
//! the Table 3 estimators.
//!
//! [`starfish_cost::estimate`] prices the seven fixed benchmark queries. A
//! spec composes the same primitive accesses (pick an object, navigate,
//! fetch roots, update roots, scan) into arbitrary loops and mixes, so its
//! expected I/O is a *walk* over [`WorkloadSpec::ops`] that maps each
//! primitive back onto the Table 3 machinery via
//! [`starfish_cost::estimate_loops`] — navigation inside an `L`-iteration
//! loop is priced as query 2b amortized over `L`, a single navigation as
//! query 2a, updates as the write part of queries 3a/3b, and so on. Each
//! op is priced where it stands: its loop's count resolved against the
//! database, its pick's skew summarized, and `update_roots` scaled by the
//! spec's [`MixKind`] update fraction.
//!
//! # The hot-span miss model
//!
//! Table 3 assumes a large cache and uniform random picks. Drifting
//! workloads break both: most picks land in a *hot set* whose physical
//! span decides whether it fits the buffer. When a loop body picks skewed
//! and the [`PlanContext`] supplies the hot set's physical span `S`, the
//! hot fraction of the loop's accesses is priced with a span-aware model
//! instead of the uniform amortization:
//!
//! * `A_h` hot accesses touching `r` pages each want `A_h·r` page reads;
//! * at most the span can fault in cold: `S_touched = min(S, A_h·r)`;
//! * if `S ≤ B` (buffer pages) the hot set stays resident after warm-up
//!   and the cost is just `S_touched`;
//! * if `S > B`, revisits re-miss in proportion to the overhang:
//!   `S_touched + (A_h·r − S_touched)·(S − B)/S`.
//!
//! The model is monotone non-decreasing in `S`, so packing the same hot
//! set into fewer pages can never *increase* the estimate — the predicted
//! reorganization win always has the right sign. Pure NSM navigation is
//! scan-based (span-independent), so the hot model does not apply there
//! and the predicted win is zero — consistent with a reorganizer that
//! never fires for it.
//!
//! Drift widens the hot set rather than moving a window: a window of `hot`
//! objects sliding `shift` objects every `period` iterations covers
//! `hot + shift·⌊(L−1)/period⌋` distinct objects over an `L`-iteration run
//! (capped at the database size), which is exactly the set a placement
//! pass would have to co-locate to serve the whole run from packed pages.
//! Phases cycle uniformly, so the blended hot fraction is the phase mean
//! and the blended coverage the union bound (sum, capped).

use crate::plan::{MixKind, Op, WorkloadSpec};
use starfish_cost::formulas::distinct_selected;
use starfish_cost::{estimate_loops, EstimatorInputs, ModelVariant, QueryId};

/// Environment the plan runs in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanContext {
    /// Buffer-pool capacity in pages.
    pub buffer_pages: f64,
    /// Physical span (pages) over which the hot set's pages are spread —
    /// scattered placement makes this large, a reorganized layout packs
    /// it. `None` disables the hot-span model (uniform Table 3 pricing).
    pub hot_span_pages: Option<f64>,
}

/// Estimated page I/Os for a whole plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanEstimate {
    /// Expected pages read over the whole plan.
    pub pages_read: f64,
    /// Expected pages written over the whole plan.
    pub pages_written: f64,
}

impl PlanEstimate {
    /// Total page I/Os.
    pub fn total(&self) -> f64 {
        self.pages_read + self.pages_written
    }

    fn add(&mut self, read: f64, written: f64) {
        self.pages_read += read;
        self.pages_written += written;
    }
}

/// Walks `spec` over the database `inputs` profiles and returns the
/// expected page I/Os of the plan under `variant`, or `None` if the plan
/// uses a primitive the model cannot execute (OID access under pure NSM —
/// the same plans the executor reports as unsupported).
pub fn estimate_plan(
    variant: ModelVariant,
    inputs: &EstimatorInputs,
    ctx: &PlanContext,
    spec: &WorkloadSpec,
) -> Option<PlanEstimate> {
    let walk = Walk {
        variant,
        inputs,
        ctx,
        update_fraction: update_fraction(spec.mix),
    };
    let n_objects = inputs.profile.n_objects as usize;
    let mut est = PlanEstimate::default();
    for op in &spec.ops {
        let part = match op {
            Op::Loop { count, body } => walk.loop_cost(count.resolve(n_objects), body)?,
            single => walk.loop_cost(1, std::slice::from_ref(single))?,
        };
        est.add(part.pages_read, part.pages_written);
    }
    Some(est)
}

/// The fraction of units whose `update_roots` ops run under `mix`.
fn update_fraction(mix: Option<MixKind>) -> f64 {
    match mix {
        None => 1.0,
        Some(MixKind::ReadOnly) => 0.0,
        Some(MixKind::Mixed5050) => 0.5,
        // 3 of 4 requests update (see `MixKind::is_update`).
        Some(MixKind::UpdateHeavy) => 0.75,
    }
}

/// What every op of one walk is priced against.
struct Walk<'a> {
    variant: ModelVariant,
    inputs: &'a EstimatorInputs,
    ctx: &'a PlanContext,
    update_fraction: f64,
}

impl Walk<'_> {
    /// Prices one loop of `count` iterations over `body`.
    fn loop_cost(&self, count: u64, body: &[Op]) -> Option<PlanEstimate> {
        let (variant, inputs, ctx) = (self.variant, self.inputs, self.ctx);
        let l = count.max(1) as f64;
        let n_objects = inputs.profile.n_objects;
        let n = n_objects as f64;
        // A cold restart inside the body drops the cache every iteration —
        // nothing amortizes across the loop (the query-1a sample protocol).
        let restarts = body.iter().any(|op| matches!(op, Op::ColdRestart));
        let mut est = PlanEstimate::default();
        let mut hot: Option<HotInfo> = None;

        for op in body {
            match op {
                // A pick is free by itself; its skew shapes the cost of the
                // accesses that follow it in the same body.
                Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                    hot = skew_info(op, count, n_objects)
                }
                // Free: the query 2/3 cells already include the
                // grand-children root draws, and a restart's flush writes
                // are the dirty pages already charged to the updates.
                Op::FetchRoots | Op::ColdRestart => {}
                Op::ScanAll => {
                    let scan = estimate_loops(variant, QueryId::Q1c, inputs, 1.0)?.pages_read * n;
                    est.add(rescan_cost(scan, l, ctx, restarts), 0.0);
                }
                Op::GetByKey { .. } => {
                    let one = estimate_loops(variant, QueryId::Q1b, inputs, 1.0)?.pages_read;
                    est.add(rescan_cost(one, l, ctx, restarts), 0.0);
                }
                Op::GetByOid { .. } => {
                    // Distinct picked objects each cost a cold full read;
                    // revisits stay cached (large-cache best case, Eq. 8) —
                    // unless a restart re-chills the cache each iteration.
                    let one = estimate_loops(variant, QueryId::Q1a, inputs, 1.0)?.pages_read;
                    let per_loop = |loops: f64| {
                        if restarts {
                            one
                        } else {
                            distinct_selected(n, loops) / loops * one
                        }
                    };
                    est.add(hot_adjusted(variant, ctx, hot, l, one, per_loop), 0.0);
                }
                Op::NavigateChildren { depth } => {
                    let f = depth_factor(inputs, *depth);
                    let cold = estimate_loops(variant, QueryId::Q2a, inputs, 1.0)?.pages_read * f;
                    let per_loop = |loops: f64| -> f64 {
                        let q = if loops > 1.0 && !restarts {
                            QueryId::Q2b
                        } else {
                            QueryId::Q2a
                        };
                        // The Q2 cells exist for every variant (only Q1a
                        // under pure NSM is missing).
                        estimate_loops(variant, q, inputs, loops)
                            .expect("query 2 cells exist for every variant")
                            .pages_read
                            * f
                    };
                    est.add(hot_adjusted(variant, ctx, hot, l, cold, per_loop), 0.0);
                }
                Op::UpdateRoots { .. } => {
                    // Write part of queries 3a/3b; root-page writes go to
                    // random distinct objects, span-insensitive.
                    let q = if l > 1.0 { QueryId::Q3b } else { QueryId::Q3a };
                    let w = estimate_loops(variant, q, inputs, l)?.pages_written;
                    est.add(0.0, l * self.update_fraction * w);
                }
                Op::Loop { count, body } => {
                    let inner = self.loop_cost(count.resolve(n_objects as usize), body)?;
                    est.add(l * inner.pages_read, l * inner.pages_written);
                }
            }
        }
        Some(est)
    }
}

/// Repeated set-oriented accesses (scans, key lookups): the first pass is
/// cold; re-runs stay cached only if the touched pages fit the buffer and
/// no per-iteration restart empties it.
fn rescan_cost(one_pass: f64, l: f64, ctx: &PlanContext, restarts: bool) -> f64 {
    if !restarts && (l <= 1.0 || one_pass <= ctx.buffer_pages) {
        one_pass
    } else {
        l * one_pass
    }
}

/// Expected draw count of a `depth`-hop navigation relative to the
/// benchmark's 2-hop loop: hop 1 draws `c1` children, hop 2 `c2`
/// grand-children, deeper hops fan out by `c1` per hop.
fn depth_factor(inputs: &EstimatorInputs, depth: u32) -> f64 {
    let c1 = inputs.profile.avg_children();
    let c2 = inputs.profile.avg_grandchildren();
    let draws = |d: u32| -> f64 {
        let mut total = 1.0;
        if d >= 1 {
            total += c1;
        }
        let mut hop = c2;
        for _ in 2..=d {
            total += hop;
            hop *= c1;
        }
        total
    };
    draws(depth) / draws(2)
}

/// Total reads of `l` accesses whose per-access cold footprint is `r`
/// pages: uniform Table 3 amortization when no skew applies, the module's
/// hot-span miss model when it does.
fn hot_adjusted(
    variant: ModelVariant,
    ctx: &PlanContext,
    hot: Option<HotInfo>,
    l: f64,
    r: f64,
    per_loop: impl Fn(f64) -> f64,
) -> f64 {
    let span_sensitive = variant != ModelVariant::Nsm;
    match (hot, ctx.hot_span_pages) {
        (Some(h), Some(span)) if span_sensitive && h.pct_hot > 0.0 => {
            let a_hot = l * h.pct_hot.clamp(0.0, 1.0);
            let want = a_hot * r;
            let s_touched = span.min(want);
            let hot_cost = if span <= ctx.buffer_pages {
                s_touched
            } else {
                s_touched + (want - s_touched) * (span - ctx.buffer_pages) / span
            };
            let cold_loops = l - a_hot;
            let cold_cost = if cold_loops >= 1.0 {
                cold_loops * per_loop(cold_loops)
            } else {
                0.0
            };
            hot_cost + cold_cost
        }
        _ => l * per_loop(l),
    }
}

/// A skewed pick's summary: which fraction of picks lands in the hot set
/// and how many distinct objects that set covers over the whole loop.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HotInfo {
    /// Fraction of picks (0.0–1.0) that hit the hot set.
    pct_hot: f64,
    /// Distinct objects the hot set covers over the loop (drift widens
    /// this beyond the instantaneous window).
    coverage_objects: u64,
}

/// The skew summary of a pick op in a `loops`-iteration loop: a skewed
/// pick's hot fraction and its window's run-wide coverage under drift, a
/// phase cycle's blend, `None` when the pick is effectively uniform.
fn skew_info(pick: &Op, loops: u64, n_objects: u64) -> Option<HotInfo> {
    match pick {
        Op::PickSkewed {
            hot,
            pct_hot,
            drift,
        } if *pct_hot > 0 => {
            let steps = drift
                .map(|d| loops.saturating_sub(1) / d.period.max(1))
                .unwrap_or(0);
            let shift = drift.map(|d| d.shift).unwrap_or(0);
            let coverage = hot
                .saturating_add(shift.saturating_mul(steps))
                .min(n_objects.max(1));
            Some(HotInfo {
                pct_hot: f64::from(*pct_hot) / 100.0,
                coverage_objects: coverage,
            })
        }
        Op::Phase { picks, .. } => blend_phases(picks, loops, n_objects),
        _ => None,
    }
}

/// Blends a phase cycle into one skew summary: phases run equal shares of
/// the loop, so the hot fraction is the mean and the coverage the union
/// bound. A phase set with no skewed pick is uniform (`None`).
fn blend_phases(picks: &[Op], loops: u64, n_objects: u64) -> Option<HotInfo> {
    let mut pct_sum = 0.0;
    let mut coverage: u64 = 0;
    let mut any_hot = false;
    let skewed = picks
        .iter()
        .filter_map(|pick| skew_info(pick, loops, n_objects));
    for info in skewed {
        any_hot = true;
        pct_sum += info.pct_hot;
        coverage = coverage.saturating_add(info.coverage_objects);
    }
    if !any_hot || picks.is_empty() {
        return None;
    }
    Some(HotInfo {
        pct_hot: pct_sum / picks.len() as f64,
        coverage_objects: coverage.min(n_objects.max(1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_cost::estimate;

    /// The paper's database size, which `EstimatorInputs::default`'s
    /// profile prices.
    const N: u64 = 1500;

    fn inputs() -> EstimatorInputs {
        EstimatorInputs::new(Default::default())
    }

    fn ctx() -> PlanContext {
        PlanContext {
            buffer_pages: 1200.0,
            hot_span_pages: None,
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn walker_matches_table3_cells_for_all_variants() {
        // The walk of each paper query's built-in spec reproduces its
        // Table 3 cell times the unit count, for every variant that can
        // run the query — and refuses exactly the cell Table 3 leaves out.
        let inputs = inputs();
        for q in QueryId::all() {
            let spec = WorkloadSpec::for_query(q);
            // The query-1c cell is per object; its one scan covers all.
            let units = match q {
                QueryId::Q1c => N,
                _ => spec.units(N as usize),
            } as f64;
            for v in ModelVariant::all() {
                let walked = estimate_plan(v, &inputs, &ctx(), &spec);
                match (walked, estimate(v, q, &inputs)) {
                    (None, None) => {}
                    (Some(w), Some(c)) => {
                        let (read, written) = (c.pages_read * units, c.pages_written * units);
                        let both = close(w.pages_read, read, 1e-9)
                            && close(w.pages_written, written, 1e-9);
                        assert!(both, "{v} {q}: {w:?} vs {c:?} × {units}");
                    }
                    (w, c) => panic!("{v} {q}: walker {w:?} disagrees with cell {c:?}"),
                }
            }
        }
    }

    #[test]
    fn builtin_query_specs_run_the_table3_unit_counts() {
        // Each built-in spec's own unit count — the divisor every run and
        // estimate normalizes by — is the paper's loop count for its query,
        // save query 1a, which averages a capped sample of cold reads.
        for q in QueryId::all() {
            let spec = WorkloadSpec::for_query(q);
            let paper = match q {
                QueryId::Q1a => (crate::plan::Q1A_SAMPLE as u64).min(N),
                _ => q.loops(N),
            };
            assert_eq!(spec.units(N as usize), paper, "{q}");
        }
    }

    /// The loop count and first op of a one-loop spec.
    fn first_pick(spec: &WorkloadSpec) -> (u64, &Op) {
        let Op::Loop { count, body } = &spec.ops[0] else {
            panic!("{} is one loop", spec.name);
        };
        (count.resolve(N as usize), &body[0])
    }

    #[test]
    fn drift_widens_the_hot_coverage() {
        let spec = WorkloadSpec::drift_gradual();
        let (loops, pick) = first_pick(&spec);
        assert_eq!(loops, 120);
        let info = skew_info(pick, loops, N).expect("a skewed pick");
        // 16-object window sliding 4 every 4 loops: 16 + 4·⌊119/4⌋ = 132.
        assert_eq!(info.coverage_objects, 132);
        assert!((info.pct_hot - 0.9).abs() < 1e-12);
        // The drift-free hot-set spec keeps its static coverage.
        let spec = WorkloadSpec::hot_set();
        let (loops, pick) = first_pick(&spec);
        assert_eq!(skew_info(pick, loops, N).unwrap().coverage_objects, 16);
    }

    #[test]
    fn phases_blend_to_mean_share_and_union_coverage() {
        let spec = WorkloadSpec::drift_cycle();
        let (loops, pick) = first_pick(&spec);
        let info = skew_info(pick, loops, N).expect("a phase cycle with skewed picks");
        assert!(info.pct_hot > 0.0 && info.pct_hot < 1.0);
        assert!(info.coverage_objects >= 16);
    }

    #[test]
    fn mix_gates_become_update_fractions() {
        for (mix, want) in [
            (MixKind::ReadOnly, 0.0),
            (MixKind::Mixed5050, 0.5),
            (MixKind::UpdateHeavy, 0.75),
        ] {
            assert_eq!(
                update_fraction(WorkloadSpec::mixed(mix).mix),
                want,
                "{mix:?}"
            );
        }
        assert_eq!(update_fraction(WorkloadSpec::q3b().mix), 1.0);
    }

    fn at_span(v: ModelVariant, span: f64) -> f64 {
        let ctx = PlanContext {
            buffer_pages: 100.0,
            hot_span_pages: Some(span),
        };
        estimate_plan(v, &inputs(), &ctx, &WorkloadSpec::hot_set())
            .unwrap()
            .pages_read
    }

    #[test]
    fn hot_span_cost_is_monotone_in_the_span() {
        for v in [
            ModelVariant::Dsm,
            ModelVariant::NsmIndexed,
            ModelVariant::DasdbsNsm,
        ] {
            let mut prev = 0.0;
            for span in [20.0, 80.0, 100.0, 400.0, 2000.0, 6000.0] {
                let cost = at_span(v, span);
                assert!(
                    cost >= prev - 1e-9,
                    "{v}: cost at span {span} fell: {cost} < {prev}"
                );
                prev = cost;
            }
            // A hot set that fits the buffer is far cheaper than one
            // scattered over a span much larger than the buffer.
            assert!(at_span(v, 80.0) < 0.5 * at_span(v, 6000.0), "{v}");
        }
    }

    #[test]
    fn pure_nsm_navigation_is_span_independent() {
        assert!(
            (at_span(ModelVariant::Nsm, 20.0) - at_span(ModelVariant::Nsm, 6000.0)).abs() < 1e-9,
            "pure NSM scans; packing the hot set cannot help it"
        );
    }

    #[test]
    fn depth_scaling_brackets_the_benchmark_loop() {
        let inputs = inputs();
        assert!(close(depth_factor(&inputs, 2), 1.0, 1e-12));
        assert!(depth_factor(&inputs, 1) < 1.0);
        assert!(depth_factor(&inputs, 3) > 1.0);
    }

    #[test]
    fn uniform_pick_reduces_to_table3_amortization() {
        // With no skewed pick the span must not matter at all.
        let with_span = PlanContext {
            buffer_pages: 100.0,
            hot_span_pages: Some(5000.0),
        };
        let spec = WorkloadSpec::q2b();
        let a = estimate_plan(ModelVariant::Dsm, &inputs(), &with_span, &spec).unwrap();
        let b = estimate_plan(ModelVariant::Dsm, &inputs(), &ctx(), &spec).unwrap();
        assert!(close(a.pages_read, b.pages_read, 1e-12));
    }

    #[test]
    fn predicted_win_is_nonnegative_for_the_drift_specs() {
        let inputs = inputs();
        for name in ["drift-gradual", "drift-sudden", "drift-cycle"] {
            let spec = WorkloadSpec::builtin(name).expect("shipped spec");
            for v in [
                ModelVariant::Dsm,
                ModelVariant::NsmIndexed,
                ModelVariant::DasdbsNsm,
            ] {
                let scattered = PlanContext {
                    buffer_pages: 150.0,
                    hot_span_pages: Some(4000.0),
                };
                let packed = PlanContext {
                    buffer_pages: 150.0,
                    hot_span_pages: Some(60.0),
                };
                let before = estimate_plan(v, &inputs, &scattered, &spec).unwrap();
                let after = estimate_plan(v, &inputs, &packed, &spec).unwrap();
                assert!(
                    before.pages_read >= after.pages_read - 1e-9,
                    "{name} {v}: packing the hot set must not cost reads"
                );
                assert!(
                    before.pages_read > after.pages_read + 1.0,
                    "{name} {v}: a scattered hot span should predict a real win"
                );
            }
        }
    }
}
