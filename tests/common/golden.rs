//! The golden counter table: the exact `IoSnapshot` counters (read calls,
//! pages read, write calls, pages written, buffer fixes) of queries 1a–3b
//! under all five storage models, at two scales, shared between the
//! integration suites.
//!
//! `tests/golden_lru.rs` pins the serial pipeline against every counter at
//! both scales. `tests/golden_io_calls.rs` (serial),
//! `tests/crash_differential.rs` (shared pool, WAL off) and
//! `tests/ioengine_differential.rs` (shared pool, I/O engine on, one
//! client) pin the fast scale's I/O calls — `read_calls + write_calls`,
//! the paper's Table-5 dimension — through the same table.
//!
//! To regenerate after an *intentional* protocol change, run
//! `cargo run --release --example golden_dump` and paste its output here —
//! with a note explaining why the counters moved.

use starfish::core::ModelKind;
use starfish::cost::QueryId;

/// (read_calls, pages_read, write_calls, pages_written, fixes).
pub type Counters = (u64, u64, u64, u64, u64);

/// One golden cell: model paper-name, query label, counters (`None` =
/// unsupported, i.e. query 1a under pure NSM).
pub type GoldenCell = (&'static str, &'static str, Option<Counters>);

/// Fast scale: 300 objects, 240-page buffer, dataset seed 4242, query seed
/// 1993 (the paper's DB:buffer ratio at a fifth of its size).
pub const GOLDEN_FAST: &[GoldenCell] = &[
    ("DSM", "1a", Some((46, 87, 0, 0, 87))),
    ("DSM", "1b", Some((549, 1043, 0, 0, 1047))),
    ("DSM", "1c", Some((549, 1043, 0, 0, 1047))),
    ("DSM", "2a", Some((42, 80, 0, 0, 84))),
    ("DSM", "2b", Some((1817, 3440, 0, 0, 4592))),
    ("DSM", "3a", Some((42, 80, 17, 67, 218))),
    ("DSM", "3b", Some((1817, 3440, 2607, 2772, 11698))),
    ("DASDBS-DSM", "1a", Some((46, 87, 0, 0, 87))),
    ("DASDBS-DSM", "1b", Some((549, 1043, 0, 0, 1047))),
    ("DASDBS-DSM", "1c", Some((549, 1043, 0, 0, 1047))),
    ("DASDBS-DSM", "2a", Some((42, 42, 0, 0, 44))),
    ("DASDBS-DSM", "2b", Some((1316, 1316, 0, 0, 2420))),
    ("DASDBS-DSM", "3a", Some((42, 42, 38, 38, 101))),
    ("DASDBS-DSM", "3b", Some((1316, 1316, 1605, 1612, 5465))),
    ("NSM", "1a", None),
    ("NSM", "1b", Some((726, 726, 0, 0, 726))),
    ("NSM", "1c", Some((726, 726, 0, 0, 726))),
    ("NSM", "2a", Some((136, 136, 0, 0, 248))),
    ("NSM", "2b", Some((136, 136, 0, 0, 14880))),
    ("NSM", "3a", Some((136, 136, 6, 12, 286))),
    ("NSM", "3b", Some((136, 136, 1, 24, 16910))),
    ("NSM+index", "1a", Some((145, 145, 0, 0, 342))),
    ("NSM+index", "1b", Some((27, 27, 0, 0, 29))),
    ("NSM+index", "1c", Some((726, 726, 0, 0, 726))),
    ("NSM+index", "2a", Some((19, 19, 0, 0, 42))),
    ("NSM+index", "2b", Some((133, 133, 0, 0, 2274))),
    ("NSM+index", "3a", Some((19, 19, 6, 12, 80))),
    ("NSM+index", "3b", Some((133, 133, 1, 24, 4304))),
    ("DASDBS-NSM", "1a", Some((116, 143, 0, 0, 143))),
    ("DASDBS-NSM", "1b", Some((27, 27, 0, 0, 28))),
    ("DASDBS-NSM", "1c", Some((686, 1049, 0, 0, 1766))),
    ("DASDBS-NSM", "2a", Some((17, 17, 0, 0, 24))),
    ("DASDBS-NSM", "2b", Some((148, 148, 0, 0, 1319))),
    ("DASDBS-NSM", "3a", Some((17, 17, 6, 12, 62))),
    ("DASDBS-NSM", "3b", Some((148, 148, 1, 24, 3349))),
];

/// The paper's Table 4 scale: 1500 objects, 1200-page buffer, dataset seed
/// 4242, query seed 1993.
#[allow(dead_code)] // Only `golden_lru` and `golden_io_calls` read the paper scale.
pub const GOLDEN_PAPER: &[GoldenCell] = &[
    ("DSM", "1a", Some((47, 92, 0, 0, 92))),
    ("DSM", "1b", Some((2746, 5293, 0, 0, 5313))),
    ("DSM", "1c", Some((2746, 5293, 0, 0, 5313))),
    ("DSM", "2a", Some((35, 60, 0, 0, 60))),
    ("DSM", "2b", Some((9136, 17487, 0, 0, 23486))),
    ("DSM", "3a", Some((35, 60, 14, 47, 154))),
    ("DSM", "3b", Some((9136, 17487, 13286, 14014, 59294))),
    ("DASDBS-DSM", "1a", Some((47, 92, 0, 0, 92))),
    ("DASDBS-DSM", "1b", Some((2746, 5293, 0, 0, 5313))),
    ("DASDBS-DSM", "1c", Some((2746, 5293, 0, 0, 5313))),
    ("DASDBS-DSM", "2a", Some((35, 35, 0, 0, 35))),
    ("DASDBS-DSM", "2b", Some((6682, 6682, 0, 0, 12283))),
    ("DASDBS-DSM", "3a", Some((35, 35, 28, 28, 77))),
    ("DASDBS-DSM", "3b", Some((6682, 6682, 8067, 8099, 27526))),
    ("NSM", "1a", None),
    ("NSM", "1b", Some((3690, 3690, 0, 0, 3690))),
    ("NSM", "1c", Some((3690, 3690, 0, 0, 3690))),
    ("NSM", "2a", Some((674, 674, 0, 0, 1232))),
    ("NSM", "2b", Some((674, 674, 0, 0, 369600))),
    ("NSM", "3a", Some((674, 674, 10, 14, 1260))),
    ("NSM", "3b", Some((674, 674, 4, 116, 379762))),
    ("NSM+index", "1a", Some((145, 145, 0, 0, 355))),
    ("NSM+index", "1b", Some((122, 122, 0, 0, 133))),
    ("NSM+index", "1c", Some((3690, 3690, 0, 0, 3690))),
    ("NSM+index", "2a", Some((21, 21, 0, 0, 32))),
    ("NSM+index", "2b", Some((647, 647, 0, 0, 11446))),
    ("NSM+index", "3a", Some((21, 21, 10, 14, 60))),
    ("NSM+index", "3b", Some((647, 647, 4, 116, 21608))),
    ("DASDBS-NSM", "1a", Some((120, 154, 0, 0, 154))),
    ("DASDBS-NSM", "1b", Some((120, 123, 0, 0, 124))),
    ("DASDBS-NSM", "1c", Some((3444, 5327, 0, 0, 8932))),
    ("DASDBS-NSM", "2a", Some((19, 19, 0, 0, 19))),
    ("DASDBS-NSM", "2b", Some((717, 717, 0, 0, 6665))),
    ("DASDBS-NSM", "3a", Some((19, 19, 10, 14, 47))),
    ("DASDBS-NSM", "3b", Some((717, 717, 4, 116, 16827))),
];

fn model_by_name(name: &str) -> ModelKind {
    ModelKind::all()
        .into_iter()
        .find(|k| k.paper_name() == name)
        .unwrap_or_else(|| panic!("unknown model {name}"))
}

fn query_by_label(label: &str) -> QueryId {
    QueryId::all()
        .into_iter()
        .find(|q| format!("{q}") == label)
        .unwrap_or_else(|| panic!("unknown query {label}"))
}

/// The expected counters of one model × query cell of `table`.
pub fn golden(table: &[GoldenCell], kind: ModelKind, q: QueryId) -> Option<Counters> {
    table
        .iter()
        .find(|(m, ql, _)| model_by_name(m) == kind && query_by_label(ql) == q)
        .unwrap_or_else(|| panic!("golden table misses {kind}/{q}"))
        .2
}

/// Asserts the heat counters are provably zero — the adaptive-placement
/// fields of [`starfish::core::IoSnapshot`] are purely additive, so with
/// tracking off (every golden run) they must read exactly 0 and the
/// golden table stays byte-identical to the pre-heat era.
pub fn assert_heat_silent(snap: &starfish::core::IoSnapshot, context: &str) {
    assert_eq!(
        (snap.heat_records, snap.heat_decays),
        (0, 0),
        "{context}: heat counters must be zero with tracking off"
    );
}
