//! Dumps per-(model, query) IoSnapshot counters as Rust constants: the
//! golden table of `tests/common/golden.rs` (`GOLDEN_FAST`, `GOLDEN_PAPER`).
//! Run with `cargo run --release --example golden_dump`.

use starfish::core::{make_store, ModelKind, StoreConfig};
use starfish::cost::QueryId;
use starfish::pagestore::IoSnapshot;
use starfish::workload::{generate, DatasetParams, Executor, WorkloadSpec};

/// One `("model", "query", Some(<cell>))` row per model × query at the
/// given scale, `None` where the model does not support the query.
fn dump(title: &str, n_objects: usize, buffer_pages: usize) {
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
                Some(m) => format!("Some({})", counters(&m.snapshot)),
                None => "None".to_string(),
            };
            println!("(\"{}\", \"{}\", {cell}),", kind.paper_name(), q.label());
        }
    }
}

/// `(read_calls, pages_read, write_calls, pages_written, fixes)`.
fn counters(s: &IoSnapshot) -> String {
    let (rc, pr, wc, pw) = (s.read_calls, s.pages_read, s.write_calls, s.pages_written);
    format!("({rc}, {pr}, {wc}, {pw}, {})", s.fixes)
}

fn main() {
    dump("scale: fast", 300, 240);
    dump("scale: paper", 1500, 1200);
}
