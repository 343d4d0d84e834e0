//! An allocation budget for the read path and the update path.
//!
//! The read path must allocate in proportion to what it *returns*. Two
//! budgets pin that, counted by a test-only global allocator (the system
//! allocator underneath, one counter per thread so parallel tests do not
//! see each other):
//!
//! * a successful `decode` performs no more allocations than the `String`s
//!   and `Vec`s of the tuple it returns — in particular none for error
//!   values that are never raised;
//! * DSM `children_of` on a buffer-resident object allocates O(children),
//!   whatever the size of the `Sightseeing` relation it reads past;
//! * a resident prefetch plus a fix on the exclusive `BufferPool` allocates
//!   nothing at all, and neither does a miss once the pool is full (the
//!   victim's page buffer is the loaded page's);
//! * a resident heap scan on the exclusive pool allocates nothing: records
//!   go to the callback straight from the page;
//! * a resident spanned read, made with no latch as the direct models make
//!   it, allocates the buffers it hands back and nothing for the page runs
//!   it asks the pool for — on `BufferPool`, and on the one-shard
//!   `SharedPoolHandle` plus the three short lists one lock session keeps
//!   (shards, guards, cores);
//! * a root update — DSM's replace-tuple, a normalized root-record patch —
//!   allocates a constant number of blocks, whatever the object holds;
//! * with the write-ahead log on, what logging adds to an update is the
//!   same two blocks whatever the object spans, and none of them is
//!   page-sized.

use starfish::core::{
    make_shared_store, make_store, ComplexObjectStore, DirectStore, FsyncMode, ModelKind, ObjAddr,
    ObjRef, ObjectFile, RootPatch, StoreConfig, WalConfig,
};
use starfish::nf2::station::{
    proj_root_record, station_schema, Connection, Platform, Sightseeing, Station,
};
use starfish::nf2::{decode, encode, encode_with_layout, Oid, Tuple, Value};
use starfish::pagestore::{
    BufferConfig, BufferPool, HeapFile, PageCache, SharedPoolHandle, SimDisk, PAGE_SIZE,
};
use starfish::prelude::DatasetParams;
use starfish::workload::generate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Counts one (re)allocation of `size` bytes on this thread.
fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counter
// updates that neither allocate (const-initialised `Cell`s, no destructor)
// nor unwind (`try_with` tolerates a thread that is tearing down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread performs while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// The largest block (in bytes) this thread allocates while running `f`.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.with(|n| n.set(0));
    let r = f();
    (LARGEST.with(Cell::get), r)
}

/// Heap blocks a decoded tuple owns: its value vector, every non-empty
/// string and every non-empty relation vector, recursively.
fn owned_blocks(t: &Tuple) -> u64 {
    let inner: u64 = (t.values.iter())
        .map(|v| match v {
            Value::Str(s) => u64::from(!s.is_empty()),
            Value::Rel(ts) => u64::from(!ts.is_empty()) + ts.iter().map(owned_blocks).sum::<u64>(),
            _ => 0,
        })
        .sum();
    u64::from(!t.values.is_empty()) + inner
}

#[test]
fn decode_allocates_only_what_it_returns() {
    let schema = station_schema();
    let stations = generate(&DatasetParams {
        n_objects: 40,
        seed: 1993,
        ..Default::default()
    });
    for s in &stations {
        let bytes = encode(&s.to_tuple(), &schema).unwrap();
        let (n, t) = allocations(|| decode(&bytes, &schema).unwrap());
        let returned = owned_blocks(&t);
        assert!(
            n <= returned + 4,
            "decode of station {} allocated {n} times to return {returned} blocks",
            s.key
        );
    }
}

/// A station with two children and `n_seeing` sightseeings of ≈400 bytes.
fn station(key: i32, n_seeing: usize) -> Station {
    Station {
        key,
        name: format!("{key:0100}"),
        platforms: vec![Platform {
            platform_nr: 1,
            no_line: 2,
            ticket_code: 9,
            information: "i".repeat(100),
            connections: (0..2)
                .map(|c| Connection {
                    line_nr: c,
                    key_connection: 100 + c,
                    oid_connection: Oid(c as u32),
                    departure_times: "t".repeat(100),
                })
                .collect(),
        }],
        sightseeings: (0..n_seeing)
            .map(|i| Sightseeing {
                seeing_nr: i as i32,
                description: "d".repeat(100),
                location: "l".repeat(100),
                history: "h".repeat(100),
                remarks: "r".repeat(100),
            })
            .collect(),
    }
}

#[test]
fn dsm_navigation_allocates_per_child_not_per_sightseeing() {
    let mut store = DirectStore::new(false, StoreConfig::default());
    let refs = store.load(&[station(100, 5), station(101, 40)]).unwrap();
    let count = |store: &mut DirectStore, r: ObjRef| {
        store.children_of(&[r]).unwrap(); // make the object buffer-resident
        let (n, children) = allocations(|| store.children_of(&[r]).unwrap());
        assert_eq!(children.len(), 2);
        n
    };
    let small = count(&mut store, refs[0]);
    let large = count(&mut store, refs[1]);
    // Eight times the sightseeings, the same two children: the header and
    // data buffers grow, the number of allocations does not.
    assert_eq!(
        small, large,
        "allocations must not depend on the Sightseeing count"
    );
    assert!(
        small <= 24,
        "navigating to 2 children allocated {small} times"
    );
}

/// `BufferPool` runs the prefetch scan it shares with the sharded pool,
/// whose caller builds shard and guard lists for every call. The exclusive
/// `&mut` front must not inherit them: its hit path stays allocation-free.
#[test]
fn resident_prefetch_and_fix_on_the_exclusive_pool_allocate_nothing() {
    let mut disk = SimDisk::new();
    let first = disk.alloc_extent(8);
    let mut pool = BufferPool::new(disk, 16);
    pool.prefetch_run(first, 8).unwrap(); // cold: loads (and allocates)
    let (n, byte) = allocations(|| {
        pool.prefetch_run(first, 8).unwrap();
        pool.with_page(first.offset(3), |p| p[0]).unwrap()
    });
    assert_eq!(byte, 0);
    assert_eq!(n, 0, "a resident prefetch + fix allocated {n} times");
}

/// A heap scan hands each record to its callback in place: a resident scan
/// of a three-page relation allocates nothing. Before, it collected every
/// page's records into a `Vec` first: 7 allocations for the three pages
/// (each page's `Vec` and its regrowths).
#[test]
fn a_resident_heap_scan_on_the_exclusive_pool_allocates_nothing() {
    let mut pool = BufferPool::new(SimDisk::new(), 16);
    let records: Vec<Vec<u8>> = (0..25u8).map(|i| vec![i; 166]).collect();
    let (file, _) = HeapFile::bulk_load(&mut pool, "conn", &records).unwrap();
    assert_eq!(file.page_count(), 3);
    let mut sum = 0u64;
    let (n, ()) = allocations(|| {
        file.scan(&mut pool, |_, b| sum += u64::from(b[0])).unwrap();
    });
    assert_eq!(sum, (0..25).sum::<u64>());
    assert_eq!(n, 0, "a resident 3-page scan allocated {n} times");
}

/// A pool that is full works in the page buffers it has: a miss evicts a
/// frame and loads into the victim's buffer — no allocation per miss, per
/// run, or per evicted page.
#[test]
fn a_miss_on_a_full_exclusive_pool_allocates_nothing() {
    let mut disk = SimDisk::new();
    let first = disk.alloc_extent(64);
    let mut pool = BufferPool::new(disk, 8);
    pool.prefetch_run(first, 8).unwrap(); // fills the pool (and allocates)
    let mut churn = || {
        for i in 8..64 {
            pool.with_page_mut(first.offset(i), |p| p[0] = 1).unwrap(); // dirty victims too
        }
        pool.prefetch_run(first, 4).unwrap(); // a multi-page load
    };
    churn(); // the free-slot and spare-buffer lists reach their size
    let (n, ()) = allocations(churn);
    assert_eq!(pool.buffer_stats().evictions, 120);
    assert_eq!(n, 0, "60 misses on a full pool allocated {n} times");
}

/// Allocations of one buffer-resident whole-object read and one projected
/// read of a spanned object, with no latch around them — as the direct
/// models read it: each visit to the pool is one consistent image.
fn resident_spanned_reads(pool: &mut impl PageCache) -> (u64, u64) {
    let (bytes, layout) =
        encode_with_layout(&station(7, 12).to_tuple(), &station_schema()).unwrap();
    let file = ObjectFile::bulk_load(pool, "x", &[(bytes.clone(), layout)]).unwrap();
    let ObjAddr::Spanned(rec) = file.addr(0).unwrap() else {
        panic!("a 12-sightseeing station is spanned");
    };
    assert!(rec.data_pages >= 3, "several data pages: {rec:?}");
    let proj = proj_root_record();
    let mut read = |full: bool| {
        allocations(|| {
            if full {
                file.read_full(pool, 0)
            } else {
                file.read_projected(pool, 0, &proj)
            }
            .unwrap()
        })
    };
    read(true); // make the object buffer-resident
    let (full, data) = read(true);
    assert_eq!(data, bytes);
    let (projected, sparse) = read(false);
    assert_eq!(sparse.len(), bytes.len());
    (full, projected)
}

/// What one lock session of the shared pool allocates: the involved-shard
/// list, the guard list and the core list — once per visit (the per-call
/// path built all three for every prefetch).
const SESSION_LISTS: u64 = 3;

#[test]
fn resident_spanned_reads_allocate_what_they_return() {
    let (full, projected) = resident_spanned_reads(&mut BufferPool::new(SimDisk::new(), 64));
    // The whole-object read returns the data buffer; the header pages are
    // fixed, not copied, and the three runs it reads travel on the stack.
    assert_eq!(full, 1, "whole-object read");
    // The projected read needs the header's bytes to find its ranges: the
    // header buffer, the range list (grown twice, then merged), the
    // wanted-page map and the buffer it returns.
    assert_eq!(projected, 6, "projected read");

    // One shard: the same reads through one lock session per visit — one
    // for the whole object; for the projection one for the header and one
    // for the single run of data pages the root record lives on.
    let mut shared = SharedPoolHandle::new(BufferConfig::with_pages(64), 1);
    let (shared_full, shared_projected) = resident_spanned_reads(&mut shared);
    assert_eq!(
        shared_full,
        full + SESSION_LISTS,
        "whole-object read, shared"
    );
    assert_eq!(
        shared_projected,
        projected + 2 * SESSION_LISTS,
        "projected read, shared"
    );
}

/// `station(key, 0)` with a platform of sixteen connections: no
/// sightseeing, yet too large for a heap page, so it is stored spanned like
/// the twelve-sightseeing station it is compared with.
fn spanned_without_sightseeings(key: i32) -> Station {
    let mut s = station(key, 0);
    let c = s.platforms[0].connections[0].clone();
    s.platforms[0].connections = vec![c; 16];
    let len = encode(&s.to_tuple(), &station_schema()).unwrap().len();
    assert!(!ObjectFile::fits_heap(len), "{len} bytes fit a heap page");
    s
}

/// One root update of each loaded object on the exclusive pool, counted
/// once the object is buffer-resident.
fn update_allocations(kind: ModelKind, stations: &[Station]) -> Vec<u64> {
    let mut store = make_store(kind, StoreConfig::default());
    let refs = store.load(stations).unwrap();
    let patch = RootPatch {
        new_name: "Q".repeat(100),
    };
    (refs.iter())
        .map(|r| {
            store.update_roots(&[*r], &patch).unwrap(); // make it resident
            allocations(|| store.update_roots(&[*r], &patch).unwrap()).0
        })
        .collect()
}

/// An update patches the bytes it read: it allocates the buffer it reads
/// into and the page list of its latch, never per string of the object.
///
/// Before, the update decoded the object into a `Tuple`, converted it to a
/// `Station` and back and re-encoded it with its layout, so every string of
/// the object cost allocations: a DSM update of the spanned station without
/// sightseeings allocated 124 times and of the twelve-sightseeing station
/// 224 times; a root-record patch allocated 6 times (NSM+index and
/// DASDBS-NSM alike). Patching in place brought both DSM updates to 3
/// allocations; since the read inside the update takes no shared latch of
/// its own, they allocate 2 times. A root-record patch allocates once.
#[test]
fn an_update_allocates_the_same_whatever_the_object_holds() {
    let stations = [spanned_without_sightseeings(100), station(101, 12)];
    // The exclusive latch group's page list and the object buffer.
    assert_eq!(update_allocations(ModelKind::Dsm, &stations), [2, 2], "DSM");
    // The copy of the root record.
    for kind in [ModelKind::NsmIndexed, ModelKind::DasdbsNsm] {
        assert_eq!(update_allocations(kind, &stations), [1, 1], "{kind}");
    }
}

/// One root update of each loaded object on a one-shard shared store,
/// counted once the object is buffer-resident: `(allocations, largest
/// block in bytes)`. The counted update writes a name the object does not
/// hold yet, so it has bytes to log.
fn shared_update_allocations(
    kind: ModelKind,
    config: StoreConfig,
    stations: &[Station],
) -> Vec<(u64, usize)> {
    let mut store = make_shared_store(kind, config, 1);
    let refs = store.load(stations).unwrap();
    let patch = |c: &str| RootPatch {
        new_name: c.repeat(100),
    };
    let (resident, changed) = (patch("Q"), patch("R"));
    (refs.iter())
        .map(|r| {
            store.shared_update_roots(&[*r], &resident).unwrap(); // make it resident
            let (largest, (n, ())) = largest_allocation(|| {
                allocations(|| store.shared_update_roots(&[*r], &changed).unwrap())
            });
            (n, largest)
        })
        .collect()
}

/// What the WAL adds to an update — counted as the update with the log on
/// minus the same update with it off — is the same two blocks for every
/// object, whatever it spans: the op's range list and the one range's
/// bytes. The pages an update rewrites with their own bytes log nothing,
/// and the changed bytes are copied, not a page image.
///
/// Before, every dirtied page cost a boxed 2 KB after-image, a map node and
/// a record buffer. A DSM update allocated 9, 18 and 23 times (the WAL's
/// share 6, 10 and 15) for the heap-resident station, the spanned one
/// without sightseeings and the twelve-sightseeing one, and a root-record
/// patch allocated 8 times (share 6) with a 2 073-byte record among them
/// (NSM+index and DASDBS-NSM alike). Logging changed ranges brought a DSM
/// update to 5, 10 and 10 allocations; since the read inside it takes no
/// shared latch (whose page list and ordered list were 2 blocks), a DSM
/// update allocates 5, 8 and 8 times. A root-record patch allocates 4
/// times, the largest block 150 bytes. (Without the log, the spanned DSM
/// updates allocate 3 more blocks than the heap-resident one on the shared
/// pool: the three lists of the lock session their read runs through.)
#[test]
fn a_logged_update_allocates_for_the_bytes_it_changed() {
    let stations = [
        station(100, 0),
        spanned_without_sightseeings(101),
        station(102, 12),
    ];
    let len = |s: &Station| encode(&s.to_tuple(), &station_schema()).unwrap().len();
    assert!(ObjectFile::fits_heap(len(&stations[0])), "heap-resident");
    let logged = StoreConfig::default().wal(WalConfig::enabled(FsyncMode::PerCommit));
    for (kind, want) in [
        (ModelKind::Dsm, [5, 8, 8]),
        (ModelKind::NsmIndexed, [4, 4, 4]),
        (ModelKind::DasdbsNsm, [4, 4, 4]),
    ] {
        let on = shared_update_allocations(kind, logged.clone(), &stations);
        let off = shared_update_allocations(kind, StoreConfig::default(), &stations);
        let counts: Vec<u64> = on.iter().map(|&(n, _)| n).collect();
        assert_eq!(counts, want, "{kind}");
        let share: Vec<u64> = on.iter().zip(&off).map(|(on, off)| on.0 - off.0).collect();
        assert_eq!(share, [2, 2, 2], "{kind}: the WAL's share");
        if kind != ModelKind::Dsm {
            for (_, largest) in on {
                assert!(largest < PAGE_SIZE, "{kind}: a {largest}-byte block");
            }
        }
    }
}
