//! Probes: direct-call timings of single layers, and the variant runs that
//! price what every workload leaves switched off (I/O engine, page heat,
//! adaptive placement) or explain a workload from outside (`run_concurrent`
//! beside the serial run and the routed run).

use crate::adapter::{
    self, Batch, Dataset, ModelKind, Nf2Probe, SerialStore, SharedStore, Spec, Wal,
};
use crate::calib::{Reference, SHARE_TWO_THREADS};
use crate::metrics::{loop_us, per_unit, unit_us, Values};
use crate::run::Plan;
use crate::stats::{geomean, mean, median};
use crate::workloads::{self, Cell, Checks, Pass, Speed, Workload, CLIENTS};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// ns per operation of batch after batch of `batch`, for `budget` (and at
/// least nine batches).
fn samples(mut batch: impl FnMut() -> u64, budget: Duration) -> Vec<f64> {
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 9 || Instant::now() < end {
        let t0 = Instant::now();
        let ops = batch();
        samples.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    samples
}

/// Median ns per operation after two warm-up batches.
fn ns_per_op(mut batch: impl FnMut() -> u64, budget: Duration) -> f64 {
    batch();
    batch();
    median(&samples(batch, budget))
}

/// The same over `clients` threads started together, one batch closure
/// each; the median over all threads' samples.
fn ns_per_op_parallel(batches: Vec<Batch>, budget: Duration) -> f64 {
    let barrier = Barrier::new(batches.len());
    let all: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|mut batch| {
                let barrier = &barrier;
                s.spawn(move || {
                    batch();
                    barrier.wait();
                    samples(batch, budget)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    median(&all)
}

/// The direct-call probes of `pagestore` and `nf2`; `each` is the time one
/// probe measures for.
pub fn micro(data: &Dataset, each: Duration) -> adapter::Result<Values> {
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put(
        "pagestore.buffer.hit_ns",
        ns_per_op(adapter::probe_buffer_hit(), each),
    );
    let mut one = adapter::probe_shared_hit(1, 1);
    put(
        "pagestore.shared.hit_ns",
        ns_per_op(one.pop().expect("one client"), each),
    );
    put(
        "pagestore.shared.hit_ns_2t",
        ns_per_op_parallel(adapter::probe_shared_hit(2, CLIENTS), each),
    );
    put(
        "pagestore.buffer.miss_ns",
        ns_per_op(adapter::probe_buffer_miss(), each),
    );
    put(
        "pagestore.disk.read_run_ns_per_page",
        ns_per_op(adapter::probe_disk_runs(false), each),
    );
    put(
        "pagestore.disk.write_run_ns_per_page",
        ns_per_op(adapter::probe_disk_runs(true), each),
    );
    put(
        "pagestore.latch.group_ns",
        ns_per_op(adapter::probe_latch_group(), each),
    );
    put(
        "pagestore.wal.commit_us_group",
        ns_per_op(adapter::probe_wal_commit(data, Wal::Group)?, each) / 1e3,
    );
    put(
        "pagestore.wal.commit_us_per_commit",
        ns_per_op(adapter::probe_wal_commit(data, Wal::PerCommit)?, each) / 1e3,
    );

    let nf2 = Nf2Probe::new(data, 200);
    put(
        "nf2.encode_ns_per_tuple",
        ns_per_op(|| nf2.encode_all(), each),
    );
    let decode = ns_per_op(|| nf2.decode_all(), each);
    put("nf2.decode_ns_per_tuple", decode);
    put(
        "nf2.decode_ns_per_kb",
        decode * nf2.tuples() as f64 / (nf2.encoded_bytes() as f64 / 1024.0),
    );
    put(
        "nf2.decode_projected_ns",
        ns_per_op(|| nf2.decode_roots(), each),
    );
    Ok(out)
}

/// Median wall µs per loop iteration of whole `run` calls (which return
/// their loop count) repeated for `budget` (at least three).
fn repeat_us_per_loop(
    budget: Duration,
    mut run: impl FnMut() -> adapter::Result<u64>,
) -> adapter::Result<f64> {
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < end {
        let t0 = Instant::now();
        let units = run()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / units.max(1) as f64);
    }
    Ok(median(&samples))
}

/// `nav-resident` on DASDBS-NSM with page heat tracked against the same
/// store without: what the opt-in costs while nothing uses it.
pub fn heat_overhead(data: &Dataset, budget: Duration) -> adapter::Result<Values> {
    let spec = workloads::nav_resident_spec();
    let mut us = [0.0; 2];
    for (slot, heat) in [(0, false), (1, true)] {
        let mut store = SerialStore::build(ModelKind::DasdbsNsm, 1200, heat);
        store.load(data)?;
        us[slot] = repeat_us_per_loop(budget / 2, || Ok(store.run(&spec)?.units))?;
    }
    Ok(vec![(
        "pagestore.heat.overhead_pct".into(),
        (us[1] / us[0] - 1.0) * 100.0,
    )])
}

/// Heat on, `drift_sudden` on NSM+index at 150 pages, one `reorganize()`,
/// the same tape again: what the pass costs and what it wins.
pub fn placement(data: &Dataset) -> adapter::Result<Values> {
    let spec = Spec::drift_sudden();
    let mut store = SerialStore::build(ModelKind::NsmIndexed, 150, true);
    store.load(data)?;
    let before = store.run(&spec)?;
    let t0 = Instant::now();
    let reorg = store.reorganize()?;
    let reorg_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = store.run(&spec)?;
    let reads = |r: &adapter::RunResult| {
        r.counts.pages_read() as f64 / workloads::work_units(Workload::NavCold, r).max(1) as f64
    };
    Ok(vec![
        ("core.placement.reorg_ms".into(), reorg_ms),
        (
            "core.placement.pages_rewritten".into(),
            reorg.pages_rewritten as f64,
        ),
        (
            "core.placement.read_win_per_unit".into(),
            reads(&before) - reads(&after),
        ),
    ])
}

/// `Executor::run_stream(mixed(ReadOnly), 2)` on the `serve-read` stores:
/// the executor's own closed loop beside the benchmark's.
pub fn run_stream(stores: &mut [SharedStore]) -> adapter::Result<Values> {
    let spec = Spec::mixed_read_only();
    let mut per_model = Vec::new();
    for store in stores.iter_mut() {
        let mut rates = Vec::new();
        for _ in 0..3 {
            let (requests, elapsed) = store.run_stream(&spec, CLIENTS)?;
            rates.push(requests as f64 / elapsed.as_secs_f64().max(1e-9));
        }
        per_model.push(median(&rates));
    }
    Ok(vec![(
        "workload.run_stream_units_per_s".into(),
        geomean(&per_model),
    )])
}

/// `serve-read` on DASDBS-DSM with the batched I/O engine on against the
/// same store with it off, streams interleaved: engine-on ÷ engine-off.
pub fn io_engine(
    data: &Dataset,
    seed: u64,
    budget: Duration,
    reference: &Reference,
    checks: &mut Checks,
) -> adapter::Result<Values> {
    let kind = ModelKind::DasdbsDsm;
    let mut stores = Vec::new();
    for engine in [false, true] {
        let mut s = SharedStore::build(kind, 300, CLIENTS, Wal::Off, engine);
        s.load(data)?;
        stores.push(s);
    }
    let oracle = workloads::read_oracle(&stores[0])?;
    let oracles = vec![oracle.clone(), oracle];
    let mut clients = workloads::new_clients(2, seed);
    let cells = workloads::run_closed_loop(
        Workload::ServeRead,
        &[kind, kind],
        &stores,
        data,
        &oracles,
        &mut clients,
        &mut Pass {
            cell: budget / 2,
            rounds: 2,
            min_reps: 0,
            traced: false,
            // Both sides of the ratio see the same machine: its readings
            // are not used.
            speed: Speed::new(reference, SHARE_TWO_THREADS),
            checks,
        },
    );
    let (off, on) = (&cells[0], &cells[1]);
    Ok(vec![
        (
            "pagestore.ioengine.units_per_s_ratio".into(),
            unit_us(off) / unit_us(on),
        ),
        (
            "pagestore.ioengine.read_calls_ratio".into(),
            per_unit(on.counts.read_calls(), on) / per_unit(off.counts.read_calls(), off),
        ),
        (
            "pagestore.ioengine.coalesced_pages_per_unit".into(),
            per_unit(on.counts.coalesced_pages(), on),
        ),
        (
            "pagestore.ioengine.max_queue_depth".into(),
            on.counts.max_queue_depth() as f64,
        ),
    ])
}

/// Query 3b three ways per model — serial (`nav-update`'s cell),
/// `run_concurrent` with 2 clients on one 1200-page node, and the routed
/// cluster (the `cluster-route` cells handed in): what shared-mode
/// planning and merging cost, and what is left for the router hop.
pub fn shared_mode(data: &Dataset, routed: &[Cell], budget: Duration) -> adapter::Result<Values> {
    let spec = Spec::q3b();
    let slice = budget / (2 * routed.len().max(1)) as u32;
    let mut overhead = Vec::new();
    let mut hop_us = Vec::new();
    for cell in routed {
        let mut serial = SerialStore::build(cell.model, 1200, false);
        serial.load(data)?;
        let serial_us = repeat_us_per_loop(slice, || Ok(serial.run(&spec)?.units))?;
        let mut shared = SharedStore::build(cell.model, 1200, 1, Wal::Off, false);
        shared.load(data)?;
        let shared_us =
            repeat_us_per_loop(slice, || Ok(shared.run_concurrent(&spec, CLIENTS)?.units))?;
        overhead.push(shared_us / serial_us);
        if let Some(first) = &cell.first {
            // One ticket per object per navigation step and per fetched
            // root record, plus one update ticket per node per unit.
            let calls =
                first.units + first.nav_seen.iter().sum::<u64>() + 2 * first.updates_applied;
            let calls_per_loop = calls as f64 / first.units.max(1) as f64;
            hop_us.push((loop_us(cell) - shared_us) / calls_per_loop);
        }
    }
    Ok(vec![
        ("workload.shared_mode_overhead_x".into(), geomean(&overhead)),
        ("core.router.hop_us".into(), mean(&hop_us)),
    ])
}

/// The probes tied to one workload (the variant runs); the others return
/// nothing.
pub fn for_workload(
    w: Workload,
    data: &Dataset,
    plan: &Plan,
    cells: &[Cell],
    shared: Option<&mut [SharedStore]>,
    reference: &Reference,
    checks: &mut Checks,
) -> adapter::Result<Values> {
    let (seed, budget) = (plan.seed, plan.probe_variants);
    match w {
        Workload::NavResident => heat_overhead(data, budget),
        Workload::NavCold => placement(data),
        Workload::ServeRead => {
            let mut out = io_engine(data, seed, budget, reference, checks)?;
            if let Some(stores) = shared {
                out.extend(run_stream(stores)?);
            }
            Ok(out)
        }
        Workload::ClusterRoute => shared_mode(data, cells, budget),
        _ => Ok(Values::new()),
    }
}
