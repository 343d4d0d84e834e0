//! Per-query, per-model analytical page-I/O estimators — the machinery that
//! regenerates the paper's **Table 3**.
//!
//! All estimates are *best case* exactly as in the paper ("Since we assumed
//! a large cache, all estimates are best case"): repeated accesses within a
//! query hit the cache, deferred writes are flushed once, and the loop
//! queries (2b/3b) amortize using Equation 8's distinct-object counts.
//! Query 1 values are **per object**, query 2/3 values **per loop**.

use crate::formulas::{
    bernstein, cluster_run, clustered_groups, distinct_selected, partial_object_pages,
};
use crate::profile::{BenchProfile, RelParams, Table2Analytic, S_PAGE};
use crate::QueryId;

/// The eight Table 3 rows: the four models plus the primed ("imaginary
/// situation without wasted disk space") variants of the DASDBS-flavoured
/// ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    /// Direct storage model.
    Dsm,
    /// DSM without ceiling waste (`p' = ⌈data/S_page⌉`, no header page).
    DsmPrime,
    /// DASDBS-DSM.
    DasdbsDsm,
    /// DASDBS-DSM without the header page.
    DasdbsDsmPrime,
    /// Pure NSM.
    Nsm,
    /// NSM with the memory-resident index.
    NsmIndexed,
    /// DASDBS-NSM.
    DasdbsNsm,
    /// DASDBS-NSM without spanning waste in the sightseeing relation.
    DasdbsNsmPrime,
}

impl ModelVariant {
    /// All rows in Table 3 order.
    pub fn all() -> [ModelVariant; 8] {
        [
            ModelVariant::Dsm,
            ModelVariant::DsmPrime,
            ModelVariant::DasdbsDsm,
            ModelVariant::DasdbsDsmPrime,
            ModelVariant::Nsm,
            ModelVariant::NsmIndexed,
            ModelVariant::DasdbsNsm,
            ModelVariant::DasdbsNsmPrime,
        ]
    }

    /// Paper-style row label.
    pub fn label(self) -> &'static str {
        match self {
            ModelVariant::Dsm => "DSM",
            ModelVariant::DsmPrime => "DSM'",
            ModelVariant::DasdbsDsm => "DASDBS-DSM",
            ModelVariant::DasdbsDsmPrime => "DASDBS-DSM'",
            ModelVariant::Nsm => "NSM",
            ModelVariant::NsmIndexed => "NSM+index",
            ModelVariant::DasdbsNsm => "DASDBS-NSM",
            ModelVariant::DasdbsNsmPrime => "DASDBS-NSM'",
        }
    }
}

impl std::fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Estimated page I/Os for one query under one model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryCost {
    /// Expected pages read (per object for query 1, per loop for 2/3).
    pub pages_read: f64,
    /// Expected pages written.
    pub pages_written: f64,
}

impl QueryCost {
    fn read(pages: f64) -> QueryCost {
        QueryCost {
            pages_read: pages,
            pages_written: 0.0,
        }
    }

    /// Total page I/Os (the paper's Table 3 reports reads + writes).
    pub fn total(&self) -> f64 {
        self.pages_read + self.pages_written
    }
}

/// Inputs to the estimator: the benchmark profile and its analytic Table 2.
#[derive(Clone, Debug)]
pub struct EstimatorInputs {
    /// Expected benchmark structure.
    pub profile: BenchProfile,
    /// Analytic per-relation parameters.
    pub table2: Table2Analytic,
}

impl EstimatorInputs {
    /// Builds inputs from a profile.
    pub fn new(profile: BenchProfile) -> Self {
        let table2 = profile.table2();
        EstimatorInputs { profile, table2 }
    }
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// The model variant.
    pub variant: ModelVariant,
    /// Costs for queries 1a, 1b, 1c, 2a, 2b, 3a, 3b (`None` = "not
    /// relevant", e.g. query 1a under pure NSM).
    pub cells: [Option<QueryCost>; 7],
}

/// Regenerates the full Table 3.
pub fn table3(inputs: &EstimatorInputs) -> Vec<CostRow> {
    ModelVariant::all()
        .into_iter()
        .map(|variant| CostRow {
            variant,
            cells: QueryId::all().map(|q| estimate(variant, q, inputs)),
        })
        .collect()
}

/// Estimates the page I/Os of `query` under `variant`.
///
/// Returns `None` where the paper marks the cell not relevant (query 1a
/// under NSM, which has no object identifiers).
pub fn estimate(
    variant: ModelVariant,
    query: QueryId,
    inputs: &EstimatorInputs,
) -> Option<QueryCost> {
    let loops = query.loops(inputs.profile.n_objects) as f64;
    estimate_loops(variant, query, inputs, loops)
}

/// Like [`estimate`] but amortizing the loop queries (2b/3b) over an
/// explicit `loops` count instead of [`QueryId::loops`]'s Table 3 default.
///
/// This is what the workload plan-walker
/// (`starfish_workload::estimate_plan`) uses: a `WorkloadSpec` navigates
/// some arbitrary number of times, and Equation 8's distinct-object
/// amortization depends on that count. With `loops = query.loops(n)` this
/// is exactly [`estimate`].
pub fn estimate_loops(
    variant: ModelVariant,
    query: QueryId,
    inputs: &EstimatorInputs,
    loops: f64,
) -> Option<QueryCost> {
    let p = &inputs.profile;
    let n = p.n_objects as f64;
    let c1 = p.avg_children();
    let c2 = p.avg_grandchildren();
    let draws = 1.0 + c1 + c2;
    let loops = loops.max(1.0);
    // Equation 8: distinct objects per loop for reads / for updates.
    let dist_per_loop = |per_loop: f64| distinct_selected(n, loops * per_loop) / loops;

    match variant {
        ModelVariant::Dsm
        | ModelVariant::DsmPrime
        | ModelVariant::DasdbsDsm
        | ModelVariant::DasdbsDsmPrime => Some(direct_estimate(
            variant,
            query,
            inputs,
            draws,
            dist_per_loop,
        )),
        ModelVariant::Nsm => nsm_estimate(false, query, inputs, loops),
        ModelVariant::NsmIndexed => nsm_estimate(true, query, inputs, loops),
        ModelVariant::DasdbsNsm => Some(dasdbs_nsm_estimate(false, query, inputs, loops)),
        ModelVariant::DasdbsNsmPrime => Some(dasdbs_nsm_estimate(true, query, inputs, loops)),
    }
}

/// Direct-model estimates (DSM / DASDBS-DSM and primes).
fn direct_estimate(
    variant: ModelVariant,
    query: QueryId,
    inputs: &EstimatorInputs,
    draws: f64,
    dist_per_loop: impl Fn(f64) -> f64,
) -> QueryCost {
    let p = &inputs.profile;
    let rel = &inputs.table2.dsm;
    let n = p.n_objects as f64;
    let c2 = p.avg_grandchildren();
    let partial = matches!(
        variant,
        ModelVariant::DasdbsDsm | ModelVariant::DasdbsDsmPrime
    );
    let prime = matches!(
        variant,
        ModelVariant::DsmPrime | ModelVariant::DasdbsDsmPrime
    );

    if let Some(k) = rel.k {
        // Small objects share pages; the direct models coincide (§5.3) and
        // the primed variants change nothing.
        let _ = k;
        let m = rel.m;
        let full = 1.0;
        let pool = if partial { 1.0 } else { 0.0 };
        return match query {
            QueryId::Q1a => QueryCost::read(full),
            QueryId::Q1b => QueryCost::read(m),
            QueryId::Q1c => QueryCost::read(m / n),
            QueryId::Q2a => QueryCost::read(bernstein(draws, m)),
            QueryId::Q2b => QueryCost::read(bernstein(dist_per_loop(draws), m)),
            QueryId::Q3a => QueryCost {
                pages_read: bernstein(draws, m),
                pages_written: bernstein(distinct_selected(n, c2), m) + pool * c2,
            },
            QueryId::Q3b => QueryCost {
                pages_read: bernstein(dist_per_loop(draws), m),
                pages_written: bernstein(dist_per_loop(c2), m) + pool * c2,
            },
        };
    }

    // Page-spanning objects.
    let data = rel.s_tuple;
    let h = if prime { 0.0 } else { rel.header_pages };
    // Whole-object read cost.
    let full = if partial {
        partial_object_pages(h, data, data, S_PAGE)
    } else if prime {
        (data / S_PAGE).ceil()
    } else {
        rel.p.expect("spanning relation") as f64
    };
    // Projected read costs (DASDBS-DSM only; DSM always reads everything).
    let nav = if partial {
        partial_object_pages(h, data, p.navigation_bytes(), S_PAGE)
    } else {
        full
    };
    let root = if partial {
        partial_object_pages(h, data, p.root_region_bytes(), S_PAGE)
    } else {
        full
    };
    let c1 = p.avg_children();
    let q2a_read = (1.0 + c1) * nav + c2 * root;
    let per_object_q2 = q2a_read / draws;
    // Update cost per touched object.
    let write_per_obj = if partial {
        1.0 // change-attribute: the page carrying Name
    } else {
        full.max(1.0) // replace whole tuple: every page of the extent
    };
    let pool = if partial { c2 } else { 0.0 }; // one pool page per operation

    match query {
        QueryId::Q1a => QueryCost::read(full),
        QueryId::Q1b => QueryCost::read((inputs.profile.n_objects as f64) * full),
        QueryId::Q1c => QueryCost::read(full),
        QueryId::Q2a => QueryCost::read(q2a_read),
        QueryId::Q2b => QueryCost::read(dist_per_loop(draws) * per_object_q2),
        QueryId::Q3a => QueryCost {
            pages_read: q2a_read,
            pages_written: distinct_selected(inputs.profile.n_objects as f64, c2) * write_per_obj
                + pool,
        },
        QueryId::Q3b => QueryCost {
            pages_read: dist_per_loop(draws) * per_object_q2,
            pages_written: dist_per_loop(c2) * write_per_obj + pool,
        },
    }
}

/// NSM estimates (pure and indexed).
fn nsm_estimate(
    indexed: bool,
    query: QueryId,
    inputs: &EstimatorInputs,
    loops: f64,
) -> Option<QueryCost> {
    let p = &inputs.profile;
    let [st, pl, co, se] = &inputs.table2.nsm;
    let n = p.n_objects as f64;
    let c1 = p.avg_children();
    let c2 = p.avg_grandchildren();
    let total_m = st.m + pl.m + co.m + se.m;

    // Per-object clustered sub-tuple reads (index path): Eq. 6 per relation.
    let k_of = |r: &RelParams| r.k.expect("flat NSM relations share pages") as f64;
    let one_object_subtuples = cluster_run(p.avg_platforms(), pl.m, k_of(pl))
        + cluster_run(c1, co.m, k_of(co))
        + cluster_run(p.avg_sightseeings(), se.m, k_of(se));

    // Navigation reads.
    let q2a_read = if indexed {
        // Self connections (one cluster), children connections (c1 clusters
        // of c1 tuples, Eq. 7), grand-children roots (random, Eq. 4).
        cluster_run(c1, co.m, k_of(co))
            + clustered_groups(c1 * c1, c1, co.m, k_of(co))
            + bernstein(c2, st.m)
    } else {
        // One set-oriented scan of NSM-Connection (the second scan hits the
        // cache in the best case) plus one scan of NSM-Station.
        co.m + st.m
    };

    let cost = match query {
        QueryId::Q1a => {
            if !indexed {
                return None; // "With NSM we have no identifiers."
            }
            QueryCost::read(1.0 + one_object_subtuples)
        }
        QueryId::Q1b => {
            if indexed {
                // Value selection still scans the root relation; sub-tuples
                // come by address.
                QueryCost::read(st.m + one_object_subtuples)
            } else {
                QueryCost::read(total_m)
            }
        }
        QueryId::Q1c => QueryCost::read(total_m / n),
        QueryId::Q2a => QueryCost::read(q2a_read),
        QueryId::Q2b => QueryCost::read(nsm_q2b_reads(indexed, inputs, loops, q2a_read)),
        QueryId::Q3a => QueryCost {
            pages_read: q2a_read,
            pages_written: bernstein(distinct_selected(n, c2), st.m),
        },
        QueryId::Q3b => QueryCost {
            pages_read: nsm_q2b_reads(indexed, inputs, loops, q2a_read),
            pages_written: bernstein(distinct_selected(n, loops * c2), st.m) / loops,
        },
    };
    Some(cost)
}

/// NSM query-2b/3b read amortization (best case, large cache).
///
/// Pure NSM re-scans stay in the buffer after the first loop, so the cold
/// scans amortize over the loops (the paper's 675/300 = 2.25). NSM+index
/// touches pages at tuple granularity; over the whole run the distinct
/// objects' connection clusters (Eq. 7 over Eq. 8's distinct count) and the
/// distinct grand-children root pages (Eq. 4) are each read once.
fn nsm_q2b_reads(indexed: bool, inputs: &EstimatorInputs, loops: f64, q2a_read: f64) -> f64 {
    if !indexed {
        return q2a_read / loops;
    }
    let p = &inputs.profile;
    let [st, _, co, _] = &inputs.table2.nsm;
    let n = p.n_objects as f64;
    let c1 = p.avg_children();
    let c2 = p.avg_grandchildren();
    let k_co = co.k.expect("flat") as f64;
    let distinct_nav = distinct_selected(n, loops * (1.0 + c1));
    let conn_pages = clustered_groups(distinct_nav * c1, c1, co.m, k_co);
    let root_pages = bernstein(distinct_selected(n, loops * c2), st.m);
    (conn_pages + root_pages) / loops
}

/// DASDBS-NSM estimates.
fn dasdbs_nsm_estimate(
    prime: bool,
    query: QueryId,
    inputs: &EstimatorInputs,
    loops: f64,
) -> QueryCost {
    let p = &inputs.profile;
    let [st, pl, co, se] = &inputs.table2.dasdbs_nsm;
    let n = p.n_objects as f64;
    let c1 = p.avg_children();
    let c2 = p.avg_grandchildren();

    // Pages for one tuple of a relation (they are one-per-object here).
    let tuple_pages = |r: &RelParams| -> f64 {
        match (r.k, r.p) {
            (Some(_), _) => 1.0,
            (None, Some(pp)) => {
                if prime {
                    (r.s_tuple / S_PAGE).ceil()
                } else {
                    pp as f64
                }
            }
            _ => 1.0,
        }
    };
    let one_object = tuple_pages(pl) + tuple_pages(co) + tuple_pages(se);
    let total_m = st.m + pl.m + co.m + se.m;

    let q2a_read = 1.0 /* self connection tuple */
        + bernstein(c1, co.m / tuple_pages(co).max(1.0)).min(c1) * tuple_pages(co).max(1.0)
        + bernstein(c2, st.m);

    // Query 2b/3b reads, best case: over the whole run every distinct
    // object's connection tuple and every distinct grand-child's root page
    // is read once and then stays cached ("about 2 pages per loop", §5.4).
    let loop_reads = {
        let conn_pages = bernstein(
            distinct_selected(n, loops * (1.0 + c1)) * tuple_pages(co),
            co.m,
        );
        let root_pages = bernstein(distinct_selected(n, loops * c2), st.m);
        (conn_pages + root_pages) / loops
    };

    match query {
        QueryId::Q1a => QueryCost::read(1.0 + one_object),
        QueryId::Q1b => QueryCost::read(st.m + one_object),
        QueryId::Q1c => QueryCost::read(total_m / n),
        QueryId::Q2a => QueryCost::read(q2a_read),
        QueryId::Q2b => QueryCost::read(loop_reads),
        QueryId::Q3a => QueryCost {
            pages_read: q2a_read,
            pages_written: bernstein(distinct_selected(n, c2), st.m),
        },
        QueryId::Q3b => QueryCost {
            pages_read: loop_reads,
            pages_written: bernstein(distinct_selected(n, loops * c2), st.m) / loops,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> EstimatorInputs {
        EstimatorInputs::new(BenchProfile::default())
    }

    fn total(v: ModelVariant, q: QueryId) -> f64 {
        estimate(v, q, &inputs()).expect("cell exists").total()
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    // ---- recoverable Table 3 anchor cells ---------------------------------

    #[test]
    fn dsm_row_matches_paper() {
        assert!(close(total(ModelVariant::Dsm, QueryId::Q1a), 4.0, 1e-9)); // 4.00
        assert!(close(total(ModelVariant::Dsm, QueryId::Q1b), 6000.0, 1e-6)); // 6000
        assert!(close(total(ModelVariant::Dsm, QueryId::Q1c), 4.0, 1e-9)); // 4.00
                                                                           // q2a: paper 86.9 (with 4.10/16.7 rounded); ours (1+4.096+16.78)·4.
        assert!(close(total(ModelVariant::Dsm, QueryId::Q2a), 87.5, 0.5));
        assert!(close(total(ModelVariant::Dsm, QueryId::Q2b), 19.7, 0.2)); // 19.7
        assert!(close(total(ModelVariant::Dsm, QueryId::Q3a), 154.0, 1.0)); // 154
        assert!(close(total(ModelVariant::Dsm, QueryId::Q3b), 39.1, 0.3)); // 39.1
    }

    #[test]
    fn dsm_prime_row_matches_paper() {
        // DSM': p' = 3 ⇒ 3.00 / 4500 / 3.00 / 65.2-ish.
        assert!(close(
            total(ModelVariant::DsmPrime, QueryId::Q1a),
            3.0,
            1e-9
        ));
        assert!(close(
            total(ModelVariant::DsmPrime, QueryId::Q1b),
            4500.0,
            1e-6
        ));
        assert!(close(
            total(ModelVariant::DsmPrime, QueryId::Q2a),
            65.6,
            0.6
        )); // paper 65.2
    }

    #[test]
    fn dasdbs_dsm_rows_match_paper() {
        // Full read ≈ header + 2.23 data pages (paper: 3.02 with its 2.02).
        let q1a = total(ModelVariant::DasdbsDsm, QueryId::Q1a);
        assert!(close(q1a, 3.23, 0.05), "{q1a}");
        // q2b ≈ 9.9 (OCR fragment 9.87 at the paper's sizes).
        let q2b = total(ModelVariant::DasdbsDsm, QueryId::Q2b);
        assert!(close(q2b, 9.9, 0.3), "{q2b}");
        // Primed navigation drops the header page: q2a ≈ 21.9 (paper 21.7).
        let q2a_p = total(ModelVariant::DasdbsDsmPrime, QueryId::Q2a);
        assert!(close(q2a_p, 21.9, 0.3), "{q2a_p}");
    }

    #[test]
    fn nsm_row_matches_paper() {
        assert!(estimate(ModelVariant::Nsm, QueryId::Q1a, &inputs()).is_none());
        // q1b = scan everything = 116+219+559+2813 = 3707 (paper 3820 with
        // its slightly larger platform relation).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q1b), 3707.0, 5.0));
        // q1c ≈ 2.47 (paper 2.55).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q1c), 2.47, 0.05));
        // q2a = connection scan + station scan = 675 (paper 700).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q2a), 675.0, 2.0));
        // q2b = 675/300 = 2.25 (paper fragment 2.25, exact).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q2b), 2.25, 0.01));
        // q3a ≈ 690.6 (paper 692).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q3a), 690.6, 2.0));
        // q3b = 2.25 + 116/300 = 2.64 (paper 2.64, exact).
        assert!(close(total(ModelVariant::Nsm, QueryId::Q3b), 2.64, 0.01));
    }

    #[test]
    fn nsm_index_row_matches_paper() {
        // q1a = 1 + 1.05 + 1.28 + 2.63 = 5.96 (paper 5.96, exact).
        let q1a = total(ModelVariant::NsmIndexed, QueryId::Q1a);
        assert!(close(q1a, 5.96, 0.02), "{q1a}");
        // q1b = 116 + 4.96 = 120.96 (paper 121).
        let q1b = total(ModelVariant::NsmIndexed, QueryId::Q1b);
        assert!(close(q1b, 121.0, 0.2), "{q1b}");
        // q1c = 2.47 (paper 2.47).
        assert!(close(
            total(ModelVariant::NsmIndexed, QueryId::Q1c),
            2.47,
            0.05
        ));
        // q2a ≈ 22.2 (paper 23.2).
        let q2a = total(ModelVariant::NsmIndexed, QueryId::Q2a);
        assert!(close(q2a, 22.2, 0.4), "{q2a}");
    }

    #[test]
    fn dasdbs_nsm_rows_match_paper() {
        // Primed q1a = 1 root + 1 platform + 1 connection + 2 sightseeing
        // = 5.00 (paper, exact); unprimed carries the header page: 6.00.
        assert!(close(
            total(ModelVariant::DasdbsNsmPrime, QueryId::Q1a),
            5.0,
            1e-9
        ));
        assert!(close(
            total(ModelVariant::DasdbsNsm, QueryId::Q1a),
            6.0,
            1e-9
        ));
        // q1b = m_station + (q1a − 1) = 116 + 4 = 120 (paper 120, exact).
        assert!(close(
            total(ModelVariant::DasdbsNsmPrime, QueryId::Q1b),
            120.0,
            1e-9
        ));
        // q2a ≈ 20.7 (paper 21.8).
        let q2a = total(ModelVariant::DasdbsNsm, QueryId::Q2a);
        assert!(close(q2a, 20.7, 0.5), "{q2a}");
        // q2b ≈ 2.2 pages per loop ("about 2 pages per loop", §5.4).
        let q2b = total(ModelVariant::DasdbsNsm, QueryId::Q2b);
        assert!(close(q2b, 2.2, 0.2), "{q2b}");
        // q3b − q2b = 116/300 (the paper's 0.387 root-page writes).
        let delta = total(ModelVariant::DasdbsNsm, QueryId::Q3b)
            - total(ModelVariant::DasdbsNsm, QueryId::Q2b);
        assert!(close(delta, 0.387, 0.01), "{delta}");
    }

    // ---- structural properties -------------------------------------------

    #[test]
    fn table3_has_eight_rows_and_one_missing_cell() {
        let t3 = table3(&inputs());
        assert_eq!(t3.len(), 8);
        let missing: usize = t3
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter(|c| c.is_none())
            .count();
        assert_eq!(missing, 1, "only NSM query 1a is not relevant");
    }

    #[test]
    fn paper_conclusions_hold_in_the_estimates() {
        // (i) DASDBS-DSM ≤ DSM everywhere on reads.
        for q in QueryId::all() {
            let dsm = estimate(ModelVariant::Dsm, q, &inputs()).unwrap();
            let ddsm = estimate(ModelVariant::DasdbsDsm, q, &inputs()).unwrap();
            assert!(
                ddsm.pages_read <= dsm.pages_read + 1e-9,
                "query {q}: DASDBS-DSM reads {} > DSM {}",
                ddsm.pages_read,
                dsm.pages_read
            );
        }
        // (ii) DASDBS-NSM beats every other model on cold navigation (2a),
        // and beats the direct models on cached navigation (2b). Pure NSM's
        // analytic 2b (2.25) is its unrealistic in-memory-join best case, as
        // the paper notes — measured, NSM is far worse (Table 6).
        let dn = total(ModelVariant::DasdbsNsm, QueryId::Q2a);
        for v in [
            ModelVariant::Dsm,
            ModelVariant::DasdbsDsm,
            ModelVariant::Nsm,
        ] {
            assert!(dn <= total(v, QueryId::Q2a) + 1e-9, "query 2a vs {v}");
        }
        let dn = total(ModelVariant::DasdbsNsm, QueryId::Q2b);
        for v in [ModelVariant::Dsm, ModelVariant::DasdbsDsm] {
            assert!(dn <= total(v, QueryId::Q2b) + 1e-9, "query 2b vs {v}");
        }
        // (iii) NSM's value lookup is orders of magnitude worse than
        // DASDBS-NSM's.
        assert!(
            total(ModelVariant::Nsm, QueryId::Q1b)
                > 25.0 * total(ModelVariant::DasdbsNsm, QueryId::Q1b)
        );
        // (iv) DASDBS-DSM is the worst updater per loop (the page-pool
        // anomaly) among the non-NSM models on 3b writes.
        let ddsm_w = estimate(ModelVariant::DasdbsDsm, QueryId::Q3b, &inputs())
            .unwrap()
            .pages_written;
        let dn_w = estimate(ModelVariant::DasdbsNsm, QueryId::Q3b, &inputs())
            .unwrap()
            .pages_written;
        assert!(ddsm_w > 10.0 * dn_w, "{ddsm_w} vs {dn_w}");
    }

    #[test]
    fn small_object_profile_collapses_direct_models() {
        // §5.3: with 0 sightseeings the direct models' objects share pages
        // and DSM == DASDBS-DSM on reads.
        let small = EstimatorInputs::new(BenchProfile {
            max_sightseeing: 0,
            ..Default::default()
        });
        for q in [QueryId::Q1a, QueryId::Q1c, QueryId::Q2a, QueryId::Q2b] {
            let a = estimate(ModelVariant::Dsm, q, &small).unwrap().pages_read;
            let b = estimate(ModelVariant::DasdbsDsm, q, &small)
                .unwrap()
                .pages_read;
            assert!(close(a, b, 1e-9), "query {q}: {a} vs {b}");
        }
    }

    #[test]
    fn loop_queries_amortize() {
        // 2b per loop must be far below 2a (cache effect).
        for v in [
            ModelVariant::Dsm,
            ModelVariant::DasdbsDsm,
            ModelVariant::Nsm,
            ModelVariant::DasdbsNsm,
        ] {
            assert!(total(v, QueryId::Q2b) < total(v, QueryId::Q2a) / 2.0, "{v}");
        }
    }
}
