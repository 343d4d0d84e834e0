//! Crash differential: a kill at **any op boundary** must lose nothing
//! that committed and invent nothing that didn't.
//!
//! The paper's protocol defers dirty pages until "database disconnect" —
//! without a log, a crash before the flush silently loses every applied
//! update. The WAL closes that hole; this suite proves it by
//! *differential re-execution*:
//!
//! 1. **Kill-at-random-boundary tapes** (proptest): for every storage
//!    model, a random tape of root updates runs through a WAL-enabled
//!    shared store (per-commit and group fsync both drawn). The store is
//!    killed at a random op boundary `k` — volatile frames and unflushed
//!    log buffers dropped, no data flush — then recovered from the durable
//!    log. The recovered disk FNV must equal a WAL-off serial store that
//!    executed exactly the first `k` updates and flushed. The recovered
//!    store then finishes the tape and must land on the full-tape serial
//!    image — recovery leaves a store you can keep writing to.
//! 2. **Concurrent writers + kill**: N writers commit disjoint partitions
//!    through group commit, the store is killed after the last commit
//!    returns, and recovery alone (no flush ever ran) reproduces the
//!    serial disk image.
//! 3. **WAL-off golden identity**: with the WAL disabled (the default),
//!    the shared pool reproduces the golden I/O-call table of
//!    `tests/golden_io_calls.rs` counter for counter, reports all-zero log
//!    counters, and recovers zero pages — the durability plumbing is
//!    byte-invisible until switched on.
//! 4. **Torn log tail**: after a crash, tear an arbitrary number of bytes
//!    off the end of the durable log (a final flush the device never
//!    completed). Recovery must *never* error — a truncated final record
//!    reads as end-of-log — and the recovered disk must equal one of the
//!    committed-prefix serial images, with the surviving prefix shrinking
//!    monotonically as the tear grows.
//!
//! Set `CRASH_STREAM=<n>` to shift every dataset/tape seed — CI runs the
//! suite under two streams so the random boundaries differ across runs.

use proptest::prelude::*;
use starfish::core::{
    make_shared_store, make_store, FsyncMode, ModelKind, PolicyKind, RootPatch, StoreConfig,
    WalConfig,
};
use starfish::cost::QueryId;
use starfish::nf2::station::Station;
use starfish::prelude::*;
use starfish::workload::generate;
use std::thread;

#[path = "common/golden.rs"]
mod golden;
use golden::golden_io_calls;

const N_OBJECTS: usize = 60;
/// Small enough that update working sets overflow it, so evictions write
/// data pages *before* the crash and recovery must overwrite, not just
/// fill in.
const BUFFER_PAGES: usize = 48;

/// `CRASH_STREAM` shifts every seed in the suite: two CI runs with
/// different stream values exercise different tapes and kill points.
fn stream() -> u64 {
    std::env::var("CRASH_STREAM")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn seed() -> u64 {
    19_930_420 + stream()
}

fn dataset() -> Vec<Station> {
    generate(&DatasetParams {
        n_objects: N_OBJECTS,
        seed: seed(),
        ..Default::default()
    })
}

fn config() -> StoreConfig {
    StoreConfig::with_buffer_pages(BUFFER_PAGES).policy(PolicyKind::Lru)
}

/// One tape entry: which object to patch and with which 100-byte name
/// (names are fixed-width, so every patch is applicable to every object).
fn patch_for(letter: u8) -> RootPatch {
    RootPatch {
        new_name: char::from(b'A' + letter % 26).to_string().repeat(100),
    }
}

/// The serial reference: a WAL-off exclusive store executing `tape[..k]`
/// and flushing at disconnect. Returns the post-flush disk FNV.
fn serial_disk_after_for(kind: ModelKind, db: &[Station], tape: &[(usize, u8)], k: usize) -> u64 {
    let mut store = make_store(kind, config());
    let refs = store.load(db).expect("load");
    for &(obj, letter) in &tape[..k] {
        store
            .update_roots(&[refs[obj % refs.len()]], &patch_for(letter))
            .expect("serial update");
    }
    store.flush().expect("flush");
    store.disk_checksum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Battery 1: kill at a random boundary, recover, and the disk equals
    /// the serial prefix re-execution; finish the tape after recovery and
    /// it equals the serial full-tape image.
    #[test]
    fn recovered_disk_equals_serial_prefix_reexecution(
        tape in proptest::collection::vec((0usize..N_OBJECTS, 0u8..26), 1..14),
        cut in 0usize..100,
        group in any::<bool>(),
    ) {
        let db = dataset();
        let k = cut % (tape.len() + 1); // kill boundary: 0..=len
        let mode = if group { FsyncMode::Group } else { FsyncMode::PerCommit };
        for kind in ModelKind::all() {
            let mut store = make_shared_store(kind, config().wal(WalConfig::enabled(mode)), 1);
            let refs = store.load(&db).expect("load");
            // Disconnect-flush the load phase (checkpoints the log), so the
            // crash window contains exactly the tape's updates.
            store.shared_flush().expect("flush");
            for &(obj, letter) in &tape[..k] {
                store
                    .shared_update_roots(&[refs[obj % refs.len()]], &patch_for(letter))
                    .expect("update");
            }

            store.simulate_crash();
            store.recover().expect("recover");
            prop_assert_eq!(
                store.disk_checksum(),
                serial_disk_after_for(kind, &db, &tape, k),
                "{}/{} kill at {}/{}: recovered disk diverged from serial prefix",
                kind, mode.name(), k, tape.len()
            );

            // Recovery hands back a live store: finish the tape and land on
            // the full-tape serial image.
            for &(obj, letter) in &tape[k..] {
                store
                    .shared_update_roots(&[refs[obj % refs.len()]], &patch_for(letter))
                    .expect("update after recovery");
            }
            store.shared_flush().expect("flush after recovery");
            prop_assert_eq!(
                store.disk_checksum(),
                serial_disk_after_for(kind, &db, &tape, tape.len()),
                "{}/{}: post-recovery tail diverged from serial full tape",
                kind, mode.name()
            );
        }
    }
}

/// Battery 2: concurrent group-commit writers, kill after the last commit
/// returns, recover — no flush ever ran, yet the disk equals serial.
#[test]
fn concurrent_writers_survive_kill_after_commit() {
    let db = dataset();
    let patch = RootPatch {
        new_name: "R".repeat(100),
    };
    for kind in ModelKind::all() {
        let n = 4;
        let mut store =
            make_shared_store(kind, config().wal(WalConfig::enabled(FsyncMode::Group)), n);
        let refs = store.load(&db).expect("load");
        store.shared_flush().expect("flush");
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
        store.simulate_crash();
        let recovered = store.recover().expect("recover");
        assert!(recovered > 0, "{kind}: nothing replayed");

        // Serial reference: same patch over every object, then flush.
        let mut serial = make_store(kind, config());
        let srefs = serial.load(&db).expect("load");
        serial.update_roots(&srefs, &patch).expect("serial update");
        serial.flush().expect("flush");
        assert_eq!(
            store.disk_checksum(),
            serial.disk_checksum(),
            "{kind}: recovered disk diverged from serial after concurrent commits"
        );
        // And the recovered content is really the patch, read cold.
        let mut names = Vec::new();
        store
            .scan_all(&mut |t| names.push(Station::from_tuple(t).unwrap().name))
            .expect("scan");
        assert!(
            names.iter().all(|n| n == &patch.new_name),
            "{kind}: committed update lost"
        );
    }
}

/// Buffer for battery 4: large enough that the update phase never evicts
/// a dirty page, so the data disk holds exactly the post-load image until
/// recovery overwrites it with the committed prefix. (Battery 1 runs the
/// deliberately overflowing buffer; this battery isolates the *log* tear.)
const TORN_BUFFER_PAGES: usize = 2048;

/// Battery 4: tear `cut` bytes off the durable log after the crash, for a
/// sweep of cuts from "nothing" to "past the whole log". Every recovery
/// must succeed, land on a committed-prefix disk image, and larger tears
/// must never resurrect ops a smaller tear already lost.
#[test]
fn torn_log_tail_recovers_a_committed_prefix() {
    let db = dataset();
    // Distinct objects and letters so every prefix image is distinct and
    // the recovered checksum maps back to a unique prefix length.
    let tape: Vec<(usize, u8)> = (0..6).map(|i| (i * 7 % N_OBJECTS, i as u8)).collect();
    let big = || StoreConfig::with_buffer_pages(TORN_BUFFER_PAGES).policy(PolicyKind::Lru);
    // Cut sizes in bytes: within the final record, across several records,
    // and far past the log's used bytes (the device clamps).
    let cuts: [u32; 9] = [0, 1, 9, 40, 300, 1_500, 4_000, 12_000, u32::MAX];
    for kind in ModelKind::all() {
        // Every committed-prefix image the torn log may legally land on.
        let prefixes: Vec<u64> = (0..=tape.len())
            .map(|k| {
                let mut serial = make_store(kind, big());
                let refs = serial.load(&db).expect("load");
                for &(obj, letter) in &tape[..k] {
                    serial
                        .update_roots(&[refs[obj % refs.len()]], &patch_for(letter))
                        .expect("serial update");
                }
                serial.flush().expect("flush");
                serial.disk_checksum()
            })
            .collect();
        for k in 0..prefixes.len() {
            for j in 0..k {
                assert_ne!(
                    prefixes[k], prefixes[j],
                    "{kind}: prefixes {j} and {k} collide; the tape is not discriminating"
                );
            }
        }

        let mut last_prefix = tape.len();
        for cut in cuts {
            let mut store =
                make_shared_store(kind, big().wal(WalConfig::enabled(FsyncMode::PerCommit)), 1);
            let refs = store.load(&db).expect("load");
            store.shared_flush().expect("flush");
            for &(obj, letter) in &tape {
                store
                    .shared_update_roots(&[refs[obj % refs.len()]], &patch_for(letter))
                    .expect("update");
            }
            store.simulate_crash();
            store.damage_log_tail(cut);
            store
                .recover()
                .unwrap_or_else(|e| panic!("{kind} cut {cut}: torn tail broke recovery: {e}"));
            let got = store.disk_checksum();
            let prefix = prefixes.iter().position(|&p| p == got).unwrap_or_else(|| {
                panic!("{kind} cut {cut}: recovered disk is not a committed prefix")
            });
            assert!(
                prefix <= last_prefix,
                "{kind} cut {cut}: a larger tear resurrected ops ({prefix} > {last_prefix})"
            );
            last_prefix = prefix;
        }
        // The device tears within the open (last) segment, which always
        // holds the most recent record — so the maximal cut must at least
        // lose the final op, however the earlier records were segmented.
        assert!(
            last_prefix < tape.len(),
            "{kind}: the maximal tear left the final commit alive"
        );
    }
}

/// Battery 3: with the WAL off (the default), the shared pool still
/// reproduces the golden I/O-call table exactly, reports zero log
/// counters, and recovers nothing — durability is byte-invisible until
/// enabled. Runs at the golden table's own scale/seed (300 objects,
/// 240-page buffer, seed 4242/1993), independent of `CRASH_STREAM`.
#[test]
fn wal_off_shared_pool_matches_golden_io_calls() {
    let db = generate(&DatasetParams {
        n_objects: 300,
        seed: 4242,
        ..Default::default()
    });
    let mut mismatches = Vec::new();
    for kind in ModelKind::all() {
        let mut store = make_shared_store(kind, StoreConfig::with_buffer_pages(240), 1);
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        for q in QueryId::all() {
            // The concurrent protocol defers the bulk-update 3b's per-loop
            // updates to a tail, which reorders its physical I/O against
            // the golden table; run it through the same shared pool's
            // `&mut` side (the table covers both surfaces either way).
            let spec = WorkloadSpec::for_query(q);
            let outcome = if q == QueryId::Q3b {
                exec.run(store.as_mut() as &mut dyn ComplexObjectStore, &spec)
                    .unwrap()
            } else {
                exec.run_concurrent(store.as_mut(), &spec, 1)
                    .unwrap()
                    .outcome
            };
            let got = match outcome {
                PlanOutcome::Measured(m) => {
                    // Golden identity also covers adaptive placement: heat
                    // tracking is off, so its additive counters read zero.
                    golden::assert_heat_silent(&m.snapshot, &format!("{kind}/{q}"));
                    Some(m.snapshot.io_calls())
                }
                PlanOutcome::Unsupported => None,
            };
            let expect = golden_io_calls(kind, q);
            if got != expect {
                mismatches.push(format!("{kind}/{q}: golden {expect:?}, run {got:?}"));
            }
        }
        let snap = store.snapshot();
        assert_eq!(
            (
                snap.log_write_calls,
                snap.log_pages_written,
                snap.log_read_calls,
                snap.log_pages_read,
                snap.commits,
            ),
            (0, 0, 0, 0, 0),
            "{kind}: WAL-off store logged something"
        );
        assert_eq!(store.recover().unwrap(), 0, "{kind}: WAL-off recovery");
    }
    assert!(
        mismatches.is_empty(),
        "WAL-off shared pool drifted from the golden I/O-call table:\n{}",
        mismatches.join("\n")
    );
}
