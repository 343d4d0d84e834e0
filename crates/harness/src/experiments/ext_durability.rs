//! Extension experiment: commit durability under the write-ahead log.
//!
//! The paper's protocol flushes deferred pages at "database disconnect" —
//! a crash before that point silently loses every applied update. With the
//! WAL under the shared pool, each root update commits the checksummed byte
//! ranges it changed to the log before the call returns, so a kill at any
//! op boundary preserves exactly the committed prefix.
//!
//! This experiment measures what that durability costs and what group
//! commit buys back: query-3a-shaped root updates (one commit per object)
//! through `shared_update_roots`, swept over **fsync mode × writer
//! count** for every storage model. Reported per row:
//!
//! * **commits** — durably logged ops (deterministic: one per object);
//! * **log flushes / log pages** — device write calls and pages the log
//!   absorbed. Per-commit mode pays one flush per commit; group commit
//!   lets concurrent writers share a leader's flush, so flushes ≤ commits
//!   and the ratio improves with writer count (scheduling-dependent);
//! * **commits/flush** — the amortization factor, the headline number;
//! * **commits/s** — wall-clock commit throughput (hardware-dependent);
//! * **recovered pages** — after the timed phase the store is crashed
//!   (volatile state dropped, no flush) and recovered from the log; the
//!   row reports how many pages the redo scan replayed. A cold scan then
//!   verifies every root carries the patched name — updates survived the
//!   kill through the log alone.

use crate::report::{fmt_pages, ExperimentReport, Table};
use crate::runner::HarnessConfig;
use crate::Result;
use starfish_core::{make_shared_store, FsyncMode, ModelKind, RootPatch, WalConfig};
use starfish_nf2::station::Station;
use starfish_workload::generate;
use std::thread;
use std::time::Instant;

/// Runs the sweep for an explicit list of writer counts
/// (`starfish_repro --threads N` passes `[N]`); `config.fsync` restricts
/// the mode dimension (`--fsync per|group`), default both.
pub fn run_with(config: &HarnessConfig, threads: &[usize]) -> Result<ExperimentReport> {
    let db = generate(&config.dataset());
    let modes: &[FsyncMode] = match config.fsync {
        Some(FsyncMode::PerCommit) => &[FsyncMode::PerCommit],
        Some(FsyncMode::Group) => &[FsyncMode::Group],
        None => &[FsyncMode::PerCommit, FsyncMode::Group],
    };
    // Names are fixed-width 100 bytes (the paper's Station.Name), so the
    // patch below fits every object.
    let patch = RootPatch {
        new_name: "W".repeat(100),
    };
    let mut table = Table::new(vec![
        "MODEL",
        "FSYNC",
        "WRITERS",
        "commits",
        "log flushes",
        "commits/flush",
        "log pages",
        "commits/s",
        "recovered pages",
    ]);
    let mut lost_updates: Vec<String> = Vec::new();
    let mut over_flushed: Vec<String> = Vec::new();

    for kind in ModelKind::all() {
        for &mode in modes {
            for &n in threads {
                let n = n.max(1);
                let mut store =
                    make_shared_store(kind, config.store_config().wal(WalConfig::enabled(mode)), n);
                let refs = store.load(&db)?;
                // Checkpoint away the load phase: the timed window measures
                // update commits only, from a clean log.
                store.shared_flush()?;
                store.reset_stats();

                let started = Instant::now();
                thread::scope(|s| {
                    for w in 0..n {
                        let part: Vec<_> = refs.iter().copied().skip(w).step_by(n).collect();
                        let (store, patch) = (&store, &patch);
                        s.spawn(move || {
                            for r in part {
                                store.shared_update_roots(&[r], patch).expect("update");
                            }
                        });
                    }
                });
                let secs = started.elapsed().as_secs_f64();

                let snap = store.snapshot();
                if snap.log_write_calls > snap.commits {
                    over_flushed.push(format!("{kind}/{}/{n}", mode.name()));
                }
                // The durability anchor: kill the store at the last op
                // boundary, recover from the log alone, and verify no
                // committed update was lost.
                store.simulate_crash();
                let recovered = store.recover()?;
                let mut names = Vec::new();
                store.scan_all(&mut |t| names.push(Station::from_tuple(t).unwrap().name))?;
                if !names.iter().all(|name| name == &patch.new_name) {
                    lost_updates.push(format!("{kind}/{}/{n}", mode.name()));
                }
                let amortization = snap.commits as f64 / snap.log_write_calls.max(1) as f64;
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    mode.name().to_string(),
                    n.to_string(),
                    snap.commits.to_string(),
                    snap.log_write_calls.to_string(),
                    format!("{amortization:.2}"),
                    snap.log_pages_written.to_string(),
                    fmt_pages(snap.commits as f64 / secs.max(1e-9)),
                    recovered.to_string(),
                ]);
                // commits/s is wall-clock; how many commits share a group
                // flush follows the schedule once two writers race.
                table.unpin(7);
                if mode == FsyncMode::Group && n > 1 {
                    (4..7).for_each(|col| table.unpin(col));
                }
            }
        }
    }

    let mut notes = vec![
        format!(
            "{} objects, {}-page shared buffer over (writers) shards; each cell \
             reloads the store with the WAL on, checkpoints away the load, then \
             commits one query-3a root patch per object from that many writer \
             threads over disjoint partitions",
            config.n_objects, config.buffer_pages
        ),
        "commits is deterministic (one per object); per-commit mode flushes \
         the log once per commit, group commit lets concurrent writers ride a \
         leader's flush — commits/flush is the amortization factor and grows \
         with writer count (scheduling-dependent, 1.0 at one writer); \
         commits/s is wall-clock and hardware-dependent"
            .to_string(),
        "after the timed phase the store is crashed (cache and unflushed WAL \
         state dropped, no data flush) and recovered from the durable log; \
         recovered pages counts the pages the redo scan replayed ranges onto"
            .to_string(),
        "rerun with --fsync per|group to restrict the mode dimension and \
         --threads N to pin the writer count"
            .to_string(),
    ];
    notes.push(if lost_updates.is_empty() {
        "crash-recovery anchor held in every cell: a cold scan after \
         crash+recover saw every committed patch — no lost writes"
            .to_string()
    } else {
        format!(
            "WARNING: committed updates lost after crash+recover at {} — the \
             log is not durable",
            lost_updates.join(", ")
        )
    });
    notes.push(if over_flushed.is_empty() {
        "log flushes never exceeded commits in any cell (group commit only \
         amortizes, never inflates)"
            .to_string()
    } else {
        format!(
            "WARNING: more log flushes than commits at {} — the group-commit \
             path regressed",
            over_flushed.join(", ")
        )
    });

    Ok(ExperimentReport {
        id: "ext-durability".into(),
        title: "Extension — WAL commit durability: fsync mode × writer count".into(),
        table,
        notes,
        unpinned_notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_models_modes_and_writer_counts() {
        let report = run_with(&HarnessConfig::fast(), &[1, 2]).unwrap();
        let models = ModelKind::all().len();
        assert_eq!(report.table.rows.len(), models * 2 * 2, "model × mode × n");
        assert!(
            !report.contract_broken(),
            "anchors failed: {:?}",
            report.notes
        );
        for row in &report.table.rows {
            // One commit per object, in every cell.
            assert_eq!(row[3], "300", "commits: {row:?}");
            // The crash+recover anchor replayed the committed images.
            assert_ne!(row[8], "0", "nothing recovered: {row:?}");
        }
        // Per-commit mode pays exactly one flush per commit.
        for row in report.table.rows.iter().filter(|r| r[1] == "per") {
            assert_eq!(row[4], "300", "per-commit flushes: {row:?}");
            assert_eq!(row[5], "1.00", "per-commit amortization: {row:?}");
        }
    }

    #[test]
    fn fsync_restriction_halves_the_sweep() {
        let config = HarnessConfig {
            fsync: Some(FsyncMode::Group),
            ..HarnessConfig::fast()
        };
        let report = run_with(&config, &[1]).unwrap();
        assert_eq!(report.table.rows.len(), ModelKind::all().len());
        assert!(report.table.rows.iter().all(|r| r[1] == "group"));
    }
}
