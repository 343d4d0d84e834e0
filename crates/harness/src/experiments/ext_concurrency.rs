//! Extension experiment: concurrent query serving over the sharded,
//! latched buffer pool.
//!
//! The paper measures one client behind one 1200-page LRU buffer; a
//! production system serves many, and serves *writes* among the reads.
//! This experiment has two parts:
//!
//! **Read-only sweep** (the PR-3 baseline, kept as the correctness
//! anchor): query 2b with 1/2/4/8 client threads sharing one
//! `SharedBufferPool` (shard count = client count), for every storage
//! model × replacement policy. The one-client LRU row is checked
//! cell-for-cell against the serial `Executor::run` measurement (same seed ⇒
//! identical counters) — the acceptance gate for the shared pool.
//!
//! **Mixed-workload matrix** (new with the concurrent write path): the
//! same client counts serve a 2b-shaped request stream where a
//! deterministic share of requests also applies the query-3a root patch
//! through the latched `&self` write surface — read-only / 50-50 /
//! update-heavy ([`MixKind`]) — at the harness-selected policy (use
//! `--policy` to re-run the matrix under another one). Reported per row:
//!
//! * **pages/loop** and **fixes/loop** — the paper's per-unit metrics,
//!   now under concurrency. Fixes must not move across client counts
//!   (accesses are scheduling-independent); physical pages may, because
//!   clients race on cache residency;
//! * **queries/s** and the speedup over one client — wall-clock
//!   throughput of the serving phase (hardware-dependent);
//! * **latch sh/ex** — shared/exclusive group-latch acquisitions (equal
//!   across client counts: the access pattern is deterministic) and
//!   **latch waits** — blocked acquisitions plus flush-gate waits, the
//!   contention signal (scheduling-dependent; 0 at one client);
//! * **shard imbalance** — max/mean and cv of per-shard fix counts,
//!   reusing the `ext_distributed` §5.5 load-distribution metrics.
//!
//! **Batched-I/O queue-depth sweep** (new with the submission/completion
//! engine): query 2b again with the pool's batched read engine *enabled*
//! and client count = queue depth (1/2/4/8, capped by `--queue-depth`).
//! Concurrent misses pile into the engine's submission queue; a leader
//! drains and coalesces adjacent page ids into multi-page reads. Reported
//! per row, besides the usual columns: **batch/coalesced** (engine read
//! calls / pages delivered through multi-page runs) and **max qd** (the
//! submission queue's high-water mark). At depth 1 the engine degenerates
//! to solo one-page batches and reproduces the engine-off counters.

use crate::experiments::ext_distributed::{cv, imbalance};
use crate::experiments::{first_row_count, speedup_over_first};
use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::{load_store, store_config_for, HarnessConfig};
use crate::Result;
use starfish_core::{
    make_shared_store, ConcurrentObjectStore, IoEngineConfig, ModelKind, PolicyKind,
};
use starfish_workload::{generate, Executor, MixKind, PlanOutcome, WorkloadSpec};

/// Client counts swept by default.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Queue depths the batched-I/O sweep drives (capped by `--queue-depth`).
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Runs the full sweep (1/2/4/8 clients).
pub fn run(config: &HarnessConfig) -> Result<ExperimentReport> {
    run_with(config, &THREADS)
}

/// Runs the sweep for an explicit list of client counts
/// (`starfish_repro --threads N` passes `[N]`).
pub fn run_with(config: &HarnessConfig, threads: &[usize]) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let mut table = Table::new(vec![
        "MODEL",
        "POLICY",
        "MIX",
        "CLIENTS",
        "pages/loop",
        "fixes/loop",
        "queries/s",
        "speedup",
        "latch sh/ex",
        "latch waits",
        "shard max/mean",
        "shard cv",
        "batch/coalesced",
        "max qd",
    ]);

    let mut fixes_diverged: Vec<String> = Vec::new();
    let mut serial_mismatch: Vec<String> = Vec::new();
    let mut serial_checked = false;
    // The anchor compares the shared pool's 1-client LRU row against the
    // serial pipeline, so it must itself run LRU whatever --policy the
    // sweep's caller selected — and it is only worth measuring when the
    // sweep actually contains a 1-client row to compare.
    let want_anchor = threads.iter().any(|&n| n.max(1) == 1);
    let anchor_config = HarnessConfig {
        policy: PolicyKind::Lru,
        ..*config
    };

    let fresh_store = |kind: ModelKind,
                       policy: PolicyKind,
                       shards: usize|
     -> Result<(Box<dyn ConcurrentObjectStore>, Executor)> {
        let mut store =
            make_shared_store(kind, store_config_for(policy, config.buffer_pages), shards);
        let refs = store.load(&db)?;
        Ok((store, Executor::new(refs, config.query_seed)))
    };
    let q2b = WorkloadSpec::q2b();

    // ---- Part 1: the read-only 2b sweep, model × policy × clients -------
    for kind in ModelKind::all() {
        // Serial anchor (regular BufferPool store, the paper's pipeline).
        let serial = if want_anchor {
            let (mut serial_store, serial_exec) = load_store(kind, &db, &anchor_config)?;
            match serial_exec.run(serial_store.as_mut(), &q2b)? {
                PlanOutcome::Measured(m) => Some(m),
                PlanOutcome::Unsupported => unreachable!("query 2b is supported everywhere"),
            }
        } else {
            None
        };
        for policy in PolicyKind::all() {
            let mut base_qps: Option<f64> = None;
            let mut base_fixes: Option<u64> = None;
            for &n in threads {
                let n = n.max(1);
                let (mut store, exec) = fresh_store(kind, policy, n)?;
                let run = exec.run_concurrent(store.as_mut(), &q2b, n)?;
                let m = run.outcome.run().expect("2b supported");
                // Fixes are access counts: identical across clients.
                if first_row_count(&mut base_fixes, m.snapshot.fixes) != m.snapshot.fixes {
                    fixes_diverged.push(format!("{kind}/{policy}/2b/{n}"));
                }
                // One client under LRU must reproduce the serial pipeline
                // exactly — physical reads included.
                if n == 1 && policy == PolicyKind::Lru {
                    if let Some(serial) = &serial {
                        serial_checked = true;
                        if m != serial {
                            serial_mismatch.push(format!("{kind}: {m:?} vs serial {serial:?}"));
                        }
                    }
                }
                let qps = run.units_per_sec();
                let speedup = speedup_over_first(&mut base_qps, qps);
                let shard_fixes: Vec<u64> = store.shard_stats().iter().map(|s| s.fixes).collect();
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    policy.name().to_string(),
                    "2b read-only".to_string(),
                    n.to_string(),
                    fmt_pages(m.pages_per_unit()),
                    fmt_pages(m.fixes_per_unit()),
                    fmt_pages(qps),
                    format!("{speedup:.2}x"),
                    format!("{}/{}", m.snapshot.latch_shared, m.snapshot.latch_exclusive),
                    m.snapshot.latch_waits.to_string(),
                    format!("{:.2}", imbalance(&shard_fixes)),
                    format!("{:.3}", cv(&shard_fixes)),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }

    // ---- Part 2: the mixed read/write matrix, model × mix × clients -----
    // Runs at the harness-selected policy (--policy re-runs it under
    // another); the read-only mix doubles as the cross-check against the
    // part-1 protocol (different request loop, same access counts).
    for kind in ModelKind::all() {
        for mix in MixKind::all() {
            let mut base_qps: Option<f64> = None;
            let mut base_fixes: Option<u64> = None;
            for &n in threads {
                let n = n.max(1);
                let (mut store, exec) = fresh_store(kind, config.policy, n)?;
                let run = exec.run_stream(store.as_mut(), &WorkloadSpec::mixed(mix), n)?;
                if first_row_count(&mut base_fixes, run.snapshot.fixes) != run.snapshot.fixes {
                    fixes_diverged.push(format!("{kind}/{}/{}/{n}", config.policy, mix.name()));
                }
                let qps = run.requests_per_sec();
                let speedup = speedup_over_first(&mut base_qps, qps);
                let loops = run.requests.max(1) as f64;
                let shard_fixes: Vec<u64> = store.shard_stats().iter().map(|s| s.fixes).collect();
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    config.policy.name().to_string(),
                    mix.name().to_string(),
                    n.to_string(),
                    fmt_pages(run.snapshot.pages_io() as f64 / loops),
                    fmt_pages(run.snapshot.fixes as f64 / loops),
                    fmt_pages(qps),
                    format!("{speedup:.2}x"),
                    format!(
                        "{}/{}",
                        run.snapshot.latch_shared, run.snapshot.latch_exclusive
                    ),
                    run.snapshot.latch_waits.to_string(),
                    format!("{:.2}", imbalance(&shard_fixes)),
                    format!("{:.3}", cv(&shard_fixes)),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }

    // ---- Part 3: the batched-I/O queue-depth sweep ----------------------
    // Query 2b once more, engine ON, client count = queue depth: `d`
    // concurrent clients put up to `d` misses in the engine's submission
    // queue at once, which is exactly the pressure the leader drain
    // coalesces into multi-page reads.
    let depth_cap = config.queue_depth.unwrap_or(8);
    let depths: Vec<usize> = DEPTHS.iter().copied().filter(|&d| d <= depth_cap).collect();
    let mut best_speedup: Option<(ModelKind, usize, f64)> = None;
    // The paper's currency is I/O *calls*: coalescing turns several solo
    // reads into one multi-page call, so the depth-d read-call count vs
    // the depth-1 baseline is the engine's measured (and deterministic
    // enough) win even where wall-clock is not.
    let mut best_call_cut: Option<(ModelKind, usize, f64)> = None;
    for kind in ModelKind::all() {
        let mut base_qps: Option<f64> = None;
        let mut base_reads: Option<u64> = None;
        for &d in &depths {
            let mut store = make_shared_store(
                kind,
                config.store_config().io_engine(IoEngineConfig::enabled()),
                d,
            );
            let refs = store.load(&db)?;
            let exec = Executor::new(refs, config.query_seed);
            let run = exec.run_concurrent(store.as_mut(), &q2b, d)?;
            let m = run.outcome.run().expect("2b supported");
            let qps = run.units_per_sec();
            let speedup = speedup_over_first(&mut base_qps, qps);
            if d >= 4 && best_speedup.is_none_or(|(_, _, s)| speedup > s) {
                best_speedup = Some((kind, d, speedup));
            }
            let s = &m.snapshot;
            // The depth-1 row is the reference (and never a candidate).
            let base = first_row_count(&mut base_reads, s.read_calls);
            if base > 0 && d >= 4 {
                let cut = 100.0 * (1.0 - s.read_calls as f64 / base as f64);
                if best_call_cut.is_none_or(|(_, _, c)| cut > c) {
                    best_call_cut = Some((kind, d, cut));
                }
            }
            let shard_fixes: Vec<u64> = store.shard_stats().iter().map(|x| x.fixes).collect();
            table.push_row(vec![
                kind.paper_name().to_string(),
                config.policy.name().to_string(),
                "2b batched-io".to_string(),
                d.to_string(),
                fmt_pages(m.pages_per_unit()),
                fmt_pages(m.fixes_per_unit()),
                fmt_pages(qps),
                format!("{speedup:.2}x"),
                format!("{}/{}", s.latch_shared, s.latch_exclusive),
                s.latch_waits.to_string(),
                format!("{:.2}", imbalance(&shard_fixes)),
                format!("{:.3}", cv(&shard_fixes)),
                format!("{}/{}", s.batched_read_calls, s.coalesced_pages),
                s.max_queue_depth.to_string(),
            ]);
        }
    }

    let mut notes = vec![
        format!(
            "{} objects, {}-page shared buffer split over (clients) lock-striped \
             shards; every cell reloads the store and runs the full protocol \
             (cold start, concurrent serving, writer-quiescing disconnect \
             flush) with that many client threads",
            config.n_objects, config.buffer_pages
        ),
        "the read-only rows sweep every model × policy on query 2b; the \
         mixed matrix (read-only / 50-50 / update-heavy request streams, \
         updates = query-3a root patches through the latched &self write \
         surface) runs at the harness-selected policy — rerun with --policy \
         to cross it with another"
            .to_string(),
        "latch sh/ex counts shared/exclusive group-latch acquisitions \
         (deterministic — they follow the access plan); latch waits counts \
         blocked acquisitions plus flush-gate waits and is the contention \
         signal: 0 at one client, scheduling-dependent above"
            .to_string(),
        "shard imbalance = max/mean and cv of per-shard buffer fixes \
         (the ext-distributed §5.5 metrics applied to shards instead of nodes)"
            .to_string(),
        "fixes/loop is the deterministic column (accesses are \
         scheduling-independent); pages/loop may drift slightly at >1 client \
         as threads race on cache residency; queries/s and speedup are \
         wall-clock and hardware-dependent — on a single core expect ≈1.0x \
         (the experiment then measures locking overhead)"
            .to_string(),
    ];
    notes.push(if !serial_checked {
        "serial anchor not checked (no 1-client LRU row in this sweep); run \
         with --threads 1 to verify the shared pool against the serial \
         pipeline"
            .to_string()
    } else if serial_mismatch.is_empty() {
        "1-client LRU rows verified identical to the serial Executor::run \
         measurement, counter for counter — the shared pool reproduces the \
         paper's single-client numbers exactly"
            .to_string()
    } else {
        format!(
            "WARNING: 1-client runs diverged from the serial pipeline at {} — \
             the shared pool is not behaviour-preserving",
            serial_mismatch.join("; ")
        )
    });
    notes.push(format!(
        "batched-I/O rows (2b batched-io) rerun the read sweep with the \
         pool's submission/completion engine enabled and client count = \
         queue depth (swept {depths:?}; cap with --queue-depth); \
         batch/coalesced = engine read calls / pages delivered through \
         multi-page coalesced runs, max qd = submission-queue high-water \
         mark; at depth 1 every batch is a solo one-page read and the \
         counters match the engine-off sweep"
    ));
    notes.push(match best_speedup {
        Some((kind, d, s)) => format!(
            "best batched-I/O throughput at depth >= 4: {s:.2}x over depth 1 \
             ({kind}, depth {d}) — wall-clock, hardware-dependent"
        ),
        None => "no depth >= 4 in this sweep (raise --queue-depth to measure \
                 the coalescing throughput win)"
            .to_string(),
    });
    if let Some((kind, d, cut)) = best_call_cut {
        notes.push(format!(
            "best batched-I/O read-call reduction at depth >= 4: {cut:.1}% \
             fewer disk read calls than depth 1 ({kind}, depth {d}) — the \
             coalescing win in the paper's own I/O-call currency (the \
             simulated disk has no seek latency for wall-clock to hide)"
        ));
    }
    notes.push(if fixes_diverged.is_empty() {
        "fix counts verified identical across client counts for every \
         (model, policy, mix) — concurrency changes physical I/O only, never \
         the access pattern"
            .to_string()
    } else {
        format!(
            "WARNING: fix counts diverged across client counts at {} — a \
             scheduling-dependent access path, which should be impossible",
            fixes_diverged.join(", ")
        )
    });

    Ok(ExperimentReport {
        id: "ext-concurrency".into(),
        title: "Extension — concurrent read/write serving over a sharded, latched buffer pool"
            .into(),
        table,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                && !report.notes.iter().any(|n| n.contains("WARNING")),
            "anchors failed: {:?}",
            report.notes
        );
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
