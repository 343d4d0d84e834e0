//! Extension experiment: buffer ablation — size *and* replacement policy.
//!
//! Figure 6 varies the database under a fixed 1200-page buffer; this is the
//! dual sweep — fixed database, varying buffer — which pins down each
//! model's working set directly. The crossover points quantify §5.4: DSM
//! needs a buffer on the order of the whole database, DASDBS-DSM of its
//! header+prefix pages, DASDBS-NSM only of its root+connection relations.
//!
//! Two sweeps share the table, distinguished by the POLICY column:
//!
//! * the **capacity sweep** runs the paper's LRU across every buffer
//!   fraction. Fractions ≤ 1 preserve the paper's DB ≫ buffer regime
//!   (every measured table assumes it); the 2× and 4× rows deliberately
//!   leave it to locate each model's saturation point;
//! * the **policy sweep** reruns the other four policies at the starved
//!   (⅛×, deep inside DB ≫ buffer) and paper (1×) capacities — the two
//!   regimes where policy choice can matter. Oversized buffers are
//!   omitted: once the working set fits, every policy stops evicting and
//!   the rows would be identical by construction.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{load_store, HarnessConfig};
use crate::Result;
use starfish_core::{ModelKind, PolicyKind};
use starfish_workload::{generate, WorkloadSpec};

/// Models swept.
pub const MODELS: [ModelKind; 3] = [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm];

/// Buffer sizes as fractions of the default (1200 pages at paper scale).
pub const FRACTIONS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Fractions at which the non-LRU policies are swept: the starved buffer
/// (DB ≫ buffer held strongly) and the paper's own size.
pub const POLICY_FRACTIONS: [f64; 2] = [0.125, 1.0];

/// Query 2b pages/loop for one (model, policy, buffer) cell.
fn measure_cell(
    config: &HarnessConfig,
    db: &[starfish_nf2::station::Station],
    kind: ModelKind,
    policy: PolicyKind,
    buffer: usize,
) -> Result<Option<(f64, f64, f64)>> {
    let cfg = HarnessConfig {
        buffer_pages: buffer,
        policy,
        ..*config
    };
    let (mut store, exec) = load_store(kind, db, &cfg)?;
    let outcome = exec.run(store.as_mut(), &WorkloadSpec::q2b())?;
    let Some(m) = outcome.run() else {
        return Ok(None);
    };
    let bs = store.buffer_stats();
    let hit_rate = bs.hits as f64 / (bs.fixes.max(1)) as f64;
    let evictions = bs.evictions as f64 / m.units.max(1) as f64;
    Ok(Some((m.pages_per_unit(), hit_rate, evictions)))
}

/// Runs both sweeps: query 2b pages/loop for each (model, policy, buffer).
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let mut table = Table::new(vec![
        "MODEL",
        "POLICY",
        "buffer",
        "2b pages/loop",
        "hit rate",
        "evictions/loop",
    ]);
    let buffer_of = |frac: f64| ((config.buffer_pages as f64 * frac) as usize).max(16);
    let mut summary: Vec<(ModelKind, f64, f64)> = Vec::new();
    let mut best_policy: Vec<(ModelKind, PolicyKind, f64, f64)> = Vec::new();
    for &kind in &MODELS {
        // Capacity sweep under the paper's LRU. Remember each buffer size's
        // LRU result so the policy sweep can compare without re-measuring.
        let mut smallest = f64::NAN;
        let mut largest = f64::NAN;
        let mut lru_pages_at: Vec<(usize, f64)> = Vec::new();
        for &frac in &FRACTIONS {
            let buffer = buffer_of(frac);
            let Some((pages, hit_rate, evictions)) =
                measure_cell(config, &db, kind, PolicyKind::Lru, buffer)?
            else {
                continue;
            };
            lru_pages_at.push((buffer, pages));
            table.push_row(vec![
                kind.paper_name().to_string(),
                PolicyKind::Lru.name().to_string(),
                buffer.to_string(),
                fmt_pages(pages),
                format!("{:.1}%", 100.0 * hit_rate),
                fmt_pages(evictions),
            ]);
            if frac == FRACTIONS[0] {
                smallest = pages;
            }
            if frac == FRACTIONS[FRACTIONS.len() - 1] {
                largest = pages;
            }
        }
        summary.push((kind, smallest, largest));

        // Policy sweep at the starved and paper capacities (both already
        // measured under LRU above — POLICY_FRACTIONS ⊆ FRACTIONS).
        let mut starved_best = (PolicyKind::Lru, f64::NAN, f64::NAN); // (kind, pages, lru pages)
        for &frac in &POLICY_FRACTIONS {
            let buffer = buffer_of(frac);
            let lru_pages = lru_pages_at
                .iter()
                .find(|(b, _)| *b == buffer)
                .map(|(_, p)| *p)
                .unwrap_or(f64::NAN);
            for policy in PolicyKind::all() {
                if policy == PolicyKind::Lru {
                    continue; // already in the capacity sweep
                }
                let Some((pages, hit_rate, evictions)) =
                    measure_cell(config, &db, kind, policy, buffer)?
                else {
                    continue;
                };
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    policy.name().to_string(),
                    buffer.to_string(),
                    fmt_pages(pages),
                    format!("{:.1}%", 100.0 * hit_rate),
                    fmt_pages(evictions),
                ]);
                if frac == POLICY_FRACTIONS[0]
                    && (starved_best.1.is_nan() || pages < starved_best.1)
                {
                    starved_best = (policy, pages, lru_pages);
                }
            }
        }
        best_policy.push((kind, starved_best.0, starved_best.1, starved_best.2));
    }

    let mut notes = vec![format!(
        "database: {} objects; buffer swept from {}×⅛ to {}×4 pages",
        config.n_objects, config.buffer_pages, config.buffer_pages
    )];
    notes.push(
        "regimes: fractions ≤ 1 preserve the paper's DB ≫ buffer regime \
         (all of Tables 4–6 assume it); the 2× and 4× LRU rows deliberately \
         leave it to expose each model's working-set size; the policy sweep \
         stays at ⅛× (starved) and 1× (paper) because an oversized buffer \
         stops evicting and makes every policy identical by construction"
            .into(),
    );
    for (kind, small, large) in &summary {
        notes.push(format!(
            "{} (LRU): {:.2} pages/loop with the starved buffer → {:.2} with the \
             oversized one (×{:.1} sensitivity)",
            kind.paper_name(),
            small,
            large,
            small / large.max(1e-9)
        ));
    }
    for (kind, policy, pages, lru_pages) in &best_policy {
        notes.push(format!(
            "{} starved-buffer best non-LRU policy: {} at {:.2} pages/loop \
             (LRU: {:.2})",
            kind.paper_name(),
            policy.name(),
            pages,
            lru_pages
        ));
    }
    notes.push(
        "shape: DSM's curve keeps falling across the whole sweep (working set ≈ \
         whole database), DASDBS-DSM saturates once headers+prefixes fit, \
         DASDBS-NSM is already saturated at the smallest buffer — the §5.4 \
         sensitivity ordering, seen from the memory side"
            .into(),
    );

    Ok(ExperimentReport {
        id: "ext-buffer".into(),
        title: "Extension — buffer ablation (query 2b, fixed database, size × policy)".into(),
        table,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sweep_orders_models_by_sensitivity() {
        let report = run(&HarnessConfig::fast()).unwrap();
        let lru_rows = MODELS.len() * FRACTIONS.len();
        let policy_rows = MODELS.len() * POLICY_FRACTIONS.len() * (PolicyKind::all().len() - 1);
        assert_eq!(report.table.rows.len(), lru_rows + policy_rows);
        // Extract the LRU (model, buffer) -> pages mapping back from the rows.
        let pages = |model: &str, idx: usize| -> f64 {
            report
                .table
                .rows
                .iter()
                .filter(|r| r[0] == model && r[1] == "LRU")
                .nth(idx)
                .map(|r| r[3].parse().unwrap())
                .unwrap()
        };
        // More buffer never hurts (weak monotonicity with small tolerance).
        for m in ["DSM", "DASDBS-DSM", "DASDBS-NSM"] {
            for i in 1..FRACTIONS.len() {
                assert!(
                    pages(m, i) <= pages(m, i - 1) * 1.10 + 0.3,
                    "{m}: pages/loop should not grow with buffer (step {i})"
                );
            }
        }
        // DSM gains the most from extra memory; DASDBS-NSM the least.
        let gain = |m: &str| pages(m, 0) / pages(m, FRACTIONS.len() - 1).max(1e-9);
        assert!(gain("DSM") > gain("DASDBS-NSM"));
    }

    #[test]
    fn policy_rows_cover_both_regimes() {
        let report = run(&HarnessConfig::fast()).unwrap();
        let config = HarnessConfig::fast();
        let starved = ((config.buffer_pages as f64 * POLICY_FRACTIONS[0]) as usize).max(16);
        let paper = ((config.buffer_pages as f64 * POLICY_FRACTIONS[1]) as usize).max(16);
        for m in ["DSM", "DASDBS-DSM", "DASDBS-NSM"] {
            for p in ["CLOCK", "MRU", "FIFO", "LRU-2"] {
                for buf in [starved, paper] {
                    assert!(
                        report
                            .table
                            .rows
                            .iter()
                            .any(|r| r[0] == m && r[1] == p && r[2] == buf.to_string()),
                        "missing policy row {m}/{p}/{buf}"
                    );
                }
            }
        }
        // The regime documentation made it into the notes.
        assert!(report.notes.iter().any(|n| n.contains("DB ≫ buffer")));
    }
}
