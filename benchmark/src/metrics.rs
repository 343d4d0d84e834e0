//! The metric registry (what `BENCHMARK.json` declares) and the reduction
//! of cells to metric values.

use crate::adapter::{model_label, ModelKind};
use crate::stats::{geomean, mean, median, percentile_sorted};
use crate::workloads::{Cell, Latency, Shape, Traced, Workload};

/// A declared metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Measured with tracing off. Every workload reports every one of them
/// (the contract the driver checks), which is why pure NSM's throughput —
/// absent from the three workloads that skip the model — is a per-layer
/// metric (`core.nsm.us_per_unit`), and why failures are the `failed` /
/// `attempted` counts of the result line and not a metric that reads 0.
///
/// The bounds are what this shared 2-vCPU machine supports across ten
/// seeds (ten generated databases) — see "Steadiness" in the README. The
/// timings drift by 15–30 % for a minute at a time when a neighbour is
/// busy, so every timing carries the widest bound the contract allows; the
/// counts repeat exactly at a fixed seed and differ between databases by
/// the spread measured there (`nav-resident`'s cold starts are the widest;
/// `space_amp` races on `update-durable`, where the log a checkpoint finds
/// depends on how fast the other client ran).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("units_per_s.dsm", "units/s", "higher", 0.25),
    e2e("units_per_s.dasdbs_dsm", "units/s", "higher", 0.25),
    e2e("units_per_s.nsm_index", "units/s", "higher", 0.25),
    e2e("units_per_s.dasdbs_nsm", "units/s", "higher", 0.25),
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("pages_per_unit", "pages", "lower", 0.25),
    e2e("io_calls_per_unit", "calls", "lower", 0.25),
    e2e("fixes_per_unit", "fixes", "lower", 0.1),
    e2e("device_ms_per_unit", "ms", "lower", 0.25),
    e2e("space_amp", "ratio", "lower", 0.15),
    e2e("rss_mb", "MB", "lower", 0.25),
];

/// From the traced run, the probes and the counters. In the result line of
/// a `--trace 1` run a metric that does not apply to the workload reads 0
/// (the line must carry every key); the printed report leaves it out.
pub const PER_LAYER: &[Def] = &[
    layer("workload.generate_s", "s", "lower"),
    layer("workload.executor_self_us_per_unit", "us", "lower"),
    layer("workload.shared_mode_overhead_x", "ratio", "lower"),
    layer("workload.run_stream_units_per_s", "requests/s", "higher"),
    layer("core.dsm.us_per_unit", "us", "lower"),
    layer("core.dasdbs_dsm.us_per_unit", "us", "lower"),
    layer("core.nsm.us_per_unit", "us", "lower"),
    layer("core.nsm_index.us_per_unit", "us", "lower"),
    layer("core.dasdbs_nsm.us_per_unit", "us", "lower"),
    layer("core.children_of.share", "ratio", "lower"),
    layer("core.root_records.share", "ratio", "lower"),
    layer("core.get_by_key.share", "ratio", "lower"),
    layer("core.scan_all.share", "ratio", "lower"),
    layer("core.update_roots.share", "ratio", "lower"),
    layer("core.flush.share", "ratio", "lower"),
    layer("core.clear_cache.share", "ratio", "lower"),
    layer("core.self_share", "ratio", "lower"),
    layer("core.req_read.p50_us", "us", "lower"),
    layer("core.req_read.p99_us", "us", "lower"),
    layer("core.req_update.p50_us", "us", "lower"),
    layer("core.req_update.p99_us", "us", "lower"),
    layer("core.router.hop_us", "us", "lower"),
    layer("core.router.queue_high_water", "requests", "lower"),
    layer("core.placement.reorg_ms", "ms", "lower"),
    layer("core.placement.pages_rewritten", "pages", "lower"),
    layer("core.placement.read_win_per_unit", "pages", "higher"),
    layer("pagestore.fix.busy_share", "ratio", "lower"),
    layer("pagestore.page_closure.share", "ratio", "lower"),
    layer("pagestore.prefetch.share", "ratio", "lower"),
    layer("pagestore.prefetch.calls_per_unit", "calls", "lower"),
    layer("pagestore.flush.share", "ratio", "lower"),
    layer("pagestore.miss_per_fix", "ratio", "lower"),
    layer("pagestore.pages_read_per_read_call", "pages", "higher"),
    layer("pagestore.buffer.hit_ns", "ns", "lower"),
    layer("pagestore.shared.hit_ns", "ns", "lower"),
    layer("pagestore.shared.hit_ns_2t", "ns", "lower"),
    layer("pagestore.buffer.miss_ns", "ns", "lower"),
    layer("pagestore.disk.read_run_ns_per_page", "ns", "lower"),
    layer("pagestore.disk.write_run_ns_per_page", "ns", "lower"),
    layer("pagestore.latch.group_ns", "ns", "lower"),
    layer("pagestore.latch.waits_per_kreq", "count", "lower"),
    layer("pagestore.latch.exclusive_per_req", "count", "lower"),
    layer("pagestore.shard.fix_imbalance", "ratio", "lower"),
    layer("pagestore.wal.commit_us_group", "us", "lower"),
    layer("pagestore.wal.commit_us_per_commit", "us", "lower"),
    layer("pagestore.wal.commits_per_flush", "ratio", "higher"),
    layer("pagestore.wal.log_pages_per_commit", "pages", "lower"),
    layer("pagestore.wal.log_bytes_per_user_byte", "ratio", "lower"),
    layer("pagestore.wal.checkpoint_ms_p50", "ms", "lower"),
    layer("pagestore.wal.checkpoint_count", "count", "higher"),
    layer("pagestore.wal.recover_ms", "ms", "lower"),
    layer("pagestore.wal.pages_replayed", "pages", "lower"),
    layer("pagestore.ioengine.units_per_s_ratio", "ratio", "higher"),
    layer("pagestore.ioengine.read_calls_ratio", "ratio", "lower"),
    layer(
        "pagestore.ioengine.coalesced_pages_per_unit",
        "pages",
        "higher",
    ),
    layer("pagestore.ioengine.max_queue_depth", "requests", "higher"),
    layer("pagestore.heat.overhead_pct", "%", "lower"),
    layer("nf2.encode_ns_per_tuple", "ns", "lower"),
    layer("nf2.decode_ns_per_tuple", "ns", "lower"),
    layer("nf2.decode_ns_per_kb", "ns", "lower"),
    layer("nf2.decode_projected_ns", "ns", "lower"),
    layer("nf2.decode_est_share", "ratio", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.timer_ns", "ns", "lower"),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Named values, in emission order.
pub type Values = Vec<(String, f64)>;

fn put(values: &mut Values, name: impl Into<String>, value: f64) {
    let name = name.into();
    assert!(def(&name).is_some(), "metric {name} is not declared");
    values.push((name, value));
}

/// Median wall µs per unit of a cell, as the clock read it.
pub fn unit_us(c: &Cell) -> f64 {
    median(&c.unit_us)
}

/// The same per loop iteration (or request, or pass).
pub fn loop_us(c: &Cell) -> f64 {
    unit_us(c) * c.units as f64 / c.loops.max(1) as f64
}

/// `total` per unit of work of the cell.
pub fn per_unit(total: u64, c: &Cell) -> f64 {
    total as f64 / c.units.max(1) as f64
}

fn quantile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// `p`-quantile of whole-request latency (send → reply), in µs.
fn request_us(requests: &[Latency], p: f64) -> f64 {
    quantile(requests.iter().map(|l| l.ns as f64 / 1e3).collect(), p)
}

/// `p`-quantile over requests of latency per unit of work, in µs.
fn unit_latency_us(c: &Cell, p: f64) -> f64 {
    quantile(
        c.lat_read
            .iter()
            .chain(c.lat_update.iter())
            .map(|l| l.ns as f64 / 1e3 / l.visits.max(1) as f64)
            .collect(),
        p,
    )
}

/// The end-to-end metrics of one workload from its untraced cells.
/// Throughput is per model; everything else is the geometric mean over the
/// workload's models of the per-model value. `speed` is the timed pass's
/// calibration factor (`calib::factor`): every time is multiplied by it.
pub fn end_to_end(
    w: Workload,
    cells: &[Cell],
    speed: f64,
    setup_s: f64,
    rss_mb: f64,
    user_bytes: u64,
) -> Values {
    let mut out = Values::new();
    put(&mut out, "setup_s", setup_s);
    for c in cells.iter().filter(|c| c.model != ModelKind::Nsm) {
        put(
            &mut out,
            format!("units_per_s.{}", model_label(c.model)),
            1e6 / (unit_us(c) * speed),
        );
    }
    let over_models = |f: &dyn Fn(&Cell) -> f64| geomean(&cells.iter().map(f).collect::<Vec<_>>());
    // Serial and cluster units are not timed one by one: their latency is
    // the repetition's wall per unit (a closed loop of one client).
    let latency = |c: &Cell| {
        speed
            * match w.shape() {
                Shape::ClosedLoop => unit_latency_us(c, 0.5),
                _ => unit_us(c),
            }
    };
    put(&mut out, "lat_p50_us", over_models(&latency));
    put(
        &mut out,
        "pages_per_unit",
        over_models(&|c| per_unit(c.counts.pages(), c)),
    );
    put(
        &mut out,
        "io_calls_per_unit",
        over_models(&|c| per_unit(c.counts.io_calls(), c)),
    );
    put(
        &mut out,
        "fixes_per_unit",
        over_models(&|c| per_unit(c.counts.fixes(), c)),
    );
    put(
        &mut out,
        "device_ms_per_unit",
        over_models(&|c| c.counts.device_ms() / c.units.max(1) as f64),
    );
    put(
        &mut out,
        "space_amp",
        over_models(&|c| c.stored_bytes as f64 / user_bytes.max(1) as f64),
    );
    put(&mut out, "rss_mb", rss_mb);
    out
}

/// The per-layer metrics a workload's own cells give: per-model times and
/// counter ratios from the untraced cells, span and timer shares from the
/// traced ones. Probe metrics are added by the caller. `speed` and
/// `traced_speed` are the calibration factors of the two passes.
pub fn per_layer(
    w: Workload,
    cells: &[Cell],
    traced: &[Cell],
    speed: f64,
    traced_speed: f64,
    timer_ns: f64,
) -> Values {
    let mut out = Values::new();
    for c in cells {
        put(
            &mut out,
            format!("core.{}.us_per_unit", model_label(c.model)),
            unit_us(c) * speed,
        );
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let mean_of = |f: &dyn Fn(&Cell) -> f64| mean(&cells.iter().map(f).collect::<Vec<_>>());
    put(
        &mut out,
        "pagestore.miss_per_fix",
        mean_of(&|c| ratio(c.counts.misses(), c.counts.fixes())),
    );
    put(
        &mut out,
        "pagestore.pages_read_per_read_call",
        mean_of(&|c| ratio(c.counts.pages_read(), c.counts.read_calls())),
    );

    if w.shape() != Shape::Serial {
        put(
            &mut out,
            "pagestore.shard.fix_imbalance",
            mean_of(&|c| c.fix_imbalance),
        );
    }
    if w.shape() == Shape::ClosedLoop {
        put(
            &mut out,
            "pagestore.latch.waits_per_kreq",
            mean_of(&|c| 1e3 * ratio(c.counts.latch_waits(), c.loops)),
        );
        put(
            &mut out,
            "pagestore.latch.exclusive_per_req",
            mean_of(&|c| ratio(c.counts.latch_exclusive(), c.loops)),
        );
        let geo = |f: &dyn Fn(&Cell) -> f64| geomean(&cells.iter().map(f).collect::<Vec<_>>());
        put(
            &mut out,
            "core.req_read.p50_us",
            geo(&|c| request_us(&c.lat_read, 0.5)),
        );
        put(
            &mut out,
            "core.req_read.p99_us",
            geo(&|c| request_us(&c.lat_read, 0.99)),
        );
        if w == Workload::UpdateDurable {
            put(
                &mut out,
                "core.req_update.p50_us",
                geo(&|c| request_us(&c.lat_update, 0.5)),
            );
            put(
                &mut out,
                "core.req_update.p99_us",
                geo(&|c| request_us(&c.lat_update, 0.99)),
            );
            put(
                &mut out,
                "pagestore.wal.commits_per_flush",
                mean_of(&|c| ratio(c.counts.commits(), c.counts.log_write_calls())),
            );
            put(
                &mut out,
                "pagestore.wal.log_pages_per_commit",
                mean_of(&|c| ratio(c.counts.log_pages_written(), c.counts.commits())),
            );
            put(
                &mut out,
                "pagestore.wal.log_bytes_per_user_byte",
                mean_of(&|c| {
                    ratio(
                        c.counts.log_pages_written() * crate::adapter::PAGE_BYTES,
                        c.patched_bytes,
                    )
                }),
            );
            put(
                &mut out,
                "pagestore.wal.checkpoint_ms_p50",
                mean_of(&|c| median(&c.checkpoint_ms)),
            );
            put(
                &mut out,
                "pagestore.wal.checkpoint_count",
                mean_of(&|c| c.checkpoint_ms.len() as f64),
            );
            put(
                &mut out,
                "pagestore.wal.recover_ms",
                mean_of(&|c| c.recover_ms),
            );
            put(
                &mut out,
                "pagestore.wal.pages_replayed",
                mean_of(&|c| c.pages_replayed as f64),
            );
        }
    }
    if w == Workload::ClusterRoute {
        put(
            &mut out,
            "core.router.queue_high_water",
            cells.iter().map(|c| c.queue_high_water).max().unwrap_or(0) as f64,
        );
    }

    if traced.is_empty() {
        return out;
    }
    // Shares are of the traced walls; the mean runs over the models.
    let traced_mean = |f: &dyn Fn(&Cell, &Traced) -> f64| {
        mean(
            &traced
                .iter()
                .filter_map(|c| c.traced.as_ref().map(|t| f(c, t)))
                .collect::<Vec<_>>(),
        )
    };
    let share = |part: f64, t: &Traced| part / t.root_ns.max(1) as f64;
    let overhead = cells
        .iter()
        .zip(traced.iter())
        .map(|(plain, traced)| {
            ((unit_us(traced) * traced_speed) / (unit_us(plain) * speed) - 1.0) * 100.0
        })
        .collect::<Vec<_>>();
    put(&mut out, "trace.overhead_pct", mean(&overhead));
    if w.shape() == Shape::Cluster {
        // The routed calls happen inside `run_cluster`: only the root
        // spans are visible from outside.
        return out;
    }
    for (i, op) in crate::trace::STORE_OPS.iter().enumerate() {
        let name = format!("core.{op}.share");
        if def(&name).is_some() {
            put(
                &mut out,
                name,
                traced_mean(&|_, t| share(t.ops[i].busy_ns as f64, t)),
            );
        }
    }
    if w.shape() == Shape::Serial {
        let store_ns = |t: &Traced| t.ops.iter().map(|o| o.busy_ns).sum::<u64>();
        put(
            &mut out,
            "workload.executor_self_us_per_unit",
            traced_mean(&|c, t| {
                traced_speed * t.root_ns.saturating_sub(store_ns(t)) as f64
                    / 1e3
                    / c.units.max(1) as f64
            }),
        );
        let pool = |t: &Traced| t.pool.clone().unwrap_or_default();
        put(
            &mut out,
            "core.self_share",
            traced_mean(&|_, t| share(store_ns(t).saturating_sub(pool(t).total_ns()) as f64, t)),
        );
        put(
            &mut out,
            "pagestore.fix.busy_share",
            traced_mean(&|_, t| {
                let p = pool(t);
                let fixes = p.fix.count + p.fix_mut.count;
                let busy = (p.fix.busy_ns + p.fix_mut.busy_ns).saturating_sub(p.closure_ns);
                share((busy as f64 - fixes as f64 * timer_ns).max(0.0), t)
            }),
        );
        put(
            &mut out,
            "pagestore.page_closure.share",
            traced_mean(&|_, t| share(pool(t).closure_ns as f64, t)),
        );
        put(
            &mut out,
            "pagestore.prefetch.share",
            traced_mean(&|_, t| share(pool(t).prefetch.busy_ns as f64, t)),
        );
        put(
            &mut out,
            "pagestore.prefetch.calls_per_unit",
            traced_mean(&|c, t| pool(t).prefetch.count as f64 / c.units.max(1) as f64),
        );
        put(
            &mut out,
            "pagestore.flush.share",
            traced_mean(&|_, t| share(pool(t).flush.busy_ns as f64, t)),
        );
    }
    out
}
