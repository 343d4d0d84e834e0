//! One-off: dump per-(model, query) IoSnapshot counters as Rust constants.
//! Used to (re)generate the golden tables in `tests/golden_lru.rs` (full
//! counters, both scales) and `tests/golden_io_calls.rs` (Table-5-style
//! `io_calls`, fast scale).

use starfish::core::{make_store, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::pagestore::IoSnapshot;
use starfish::workload::{generate, DatasetParams, Executor, WorkloadSpec};

/// One `("model", "query", Some(<cell>))` row per model × query at the
/// given scale, `None` where the model does not support the query.
fn dump(title: &str, n_objects: usize, buffer_pages: usize, cell: fn(&IoSnapshot) -> String) {
    println!("// {title} ({n_objects} objects, {buffer_pages}-page buffer)");
    let db = generate(&DatasetParams {
        n_objects,
        seed: 4242,
        ..Default::default()
    });
    for kind in ModelKind::all() {
        let mut store = make_store(kind, StoreConfig::with_buffer_pages(buffer_pages));
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 1993);
        for q in QueryId::all() {
            let outcome = exec
                .run(store.as_mut(), &WorkloadSpec::for_query(q))
                .unwrap();
            let cell = match outcome.run() {
                Some(m) => format!("Some({})", cell(&m.snapshot)),
                None => "None".to_string(),
            };
            println!("(\"{}\", \"{}\", {cell}),", kind.paper_name(), q.label());
        }
    }
}

/// `(read_calls, pages_read, write_calls, pages_written, fixes)` for
/// `tests/golden_lru.rs`.
fn counters(s: &IoSnapshot) -> String {
    let (rc, pr, wc, pw) = (s.read_calls, s.pages_read, s.write_calls, s.pages_written);
    format!("({rc}, {pr}, {wc}, {pw}, {})", s.fixes)
}

fn main() {
    dump("scale: fast", 300, 240, counters);
    dump("scale: paper", 1500, 1200, counters);
    // The Table-5-style call counts (`read_calls + write_calls`) for
    // `tests/golden_io_calls.rs`.
    dump("io_calls at scale: fast", 300, 240, |s| {
        s.io_calls().to_string()
    });
}
