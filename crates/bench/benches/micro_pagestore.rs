//! Micro-benchmarks of the storage substrate and the NF² codec.

mod common;

use criterion::Criterion;
use starfish_nf2::station::{station_schema, Sightseeing, Station};
use starfish_nf2::{decode, encode_with_layout, Projection};
use starfish_pagestore::{slotted, BufferPool, PageCache, PageId, SimDisk, PAGE_SIZE};
use std::hint::black_box;

fn sample_station() -> Station {
    Station {
        key: 1,
        name: "n".repeat(100),
        platforms: vec![],
        sightseeings: (0..8)
            .map(|i| Sightseeing {
                seeing_nr: i,
                description: "d".repeat(100),
                location: "l".repeat(100),
                history: "h".repeat(100),
                remarks: "r".repeat(100),
            })
            .collect(),
    }
}

fn main() {
    let mut c: Criterion = common::criterion();
    let schema = station_schema();
    let tuple = sample_station().to_tuple();
    let (bytes, _) = encode_with_layout(&tuple, &schema).unwrap();

    c.bench_function("nf2/encode_with_layout", |b| {
        b.iter(|| black_box(encode_with_layout(&tuple, &schema).unwrap()))
    });
    c.bench_function("nf2/decode_full", |b| {
        b.iter(|| black_box(decode(&bytes, &schema).unwrap()))
    });
    c.bench_function("nf2/projection_apply", |b| {
        let proj = Projection::atomics(&schema);
        b.iter(|| black_box(proj.apply(&tuple, &schema)))
    });

    c.bench_function("slotted/insert_read", |b| {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        b.iter(|| {
            slotted::init(&mut page);
            let s0 = slotted::insert(&mut page, &[1u8; 166]).unwrap();
            slotted::insert(&mut page, &[2u8; 166]).unwrap();
            slotted::read(&page, s0, |b| black_box(b[0])).unwrap();
            black_box(slotted::free_content_bytes(&page))
        })
    });

    c.bench_function("buffer/with_page_hit", |b| {
        let mut pool = BufferPool::new(SimDisk::new(), 8);
        pool.alloc_extent(4);
        pool.with_page(PageId(0), |_| {}).unwrap();
        b.iter(|| pool.with_page(PageId(0), |p| black_box(p[0])).unwrap())
    });

    c.final_summary();
}
