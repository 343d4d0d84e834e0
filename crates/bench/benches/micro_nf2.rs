//! Micro-benchmark of the NF² read path: what a decode costs by how much of
//! the object it returns, over the first 200 generated stations (the set the
//! benchmark's `nf2.*` probes use, so a codec change has a layer number here
//! to cite beside them).
//!
//! * `nf2/decode_full` — every attribute of every station.
//! * `nf2/validate_full` — the same objects checked as `decode_full` checks
//!   them, nothing built: what an in-place update spends before it patches
//!   (DSM's replace-tuple, the normalized models' root record).
//! * `nf2/decode_projected_at` — the navigation projection through the
//!   directory walk (`decode_projected` is the same walk entered at a
//!   layout's `start`; the benchmark's `nf2.decode_projected_ns` probe
//!   times that spelling).
//! * `nf2/ranges_cursor` vs `nf2/ranges_from_bytes_tree` — the byte ranges
//!   DASDBS-DSM fetches for that projection, computed by the cursor over the
//!   serialized object header and by parsing the header into a `TupleLayout`
//!   first.

mod common;

use criterion::Criterion;
use starfish_nf2::station::{proj_navigation, station_schema};
use starfish_nf2::{decode, decode_projected_at, encode_with_layout, validate_at, TupleLayout};
use starfish_workload::{generate, DatasetParams};
use std::hint::black_box;

fn main() {
    let mut c: Criterion = common::criterion();
    let schema = station_schema();
    let stations = generate(&DatasetParams::default());
    let encoded: Vec<_> = (stations.iter().take(200))
        .map(|s| encode_with_layout(&s.to_tuple(), &schema).unwrap())
        .collect();
    let headers: Vec<Vec<u8>> = encoded.iter().map(|(_, l)| l.to_bytes()).collect();
    let proj = proj_navigation();

    c.bench_function("nf2/decode_full", |b| {
        b.iter(|| {
            for (bytes, _) in &encoded {
                black_box(decode(bytes, &schema).unwrap());
            }
        })
    });
    c.bench_function("nf2/validate_full", |b| {
        b.iter(|| {
            for (bytes, _) in &encoded {
                black_box(validate_at(bytes, &schema, 0)).unwrap();
            }
        })
    });
    c.bench_function("nf2/decode_projected_at", |b| {
        b.iter(|| {
            for (bytes, _) in &encoded {
                black_box(decode_projected_at(bytes, &schema, 0, &proj).unwrap());
            }
        })
    });
    c.bench_function("nf2/ranges_cursor", |b| {
        b.iter(|| {
            for header in &headers {
                black_box(proj.byte_ranges_from_bytes(header).unwrap());
            }
        })
    });
    c.bench_function("nf2/ranges_from_bytes_tree", |b| {
        b.iter(|| {
            for header in &headers {
                black_box(proj.byte_ranges(&TupleLayout::from_bytes(header).unwrap()));
            }
        })
    });

    c.final_summary();
}
