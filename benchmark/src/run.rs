//! One workload, end to end: set-ups, the timed cells, the traced cells,
//! the probes, the checks, and the reduction to metrics.

use crate::adapter::model_label;
use crate::calib::{self, Reference};
use crate::metrics::{self, unit_us, Values};
use crate::probes;
use crate::stats::{mean, median};
use crate::trace::{self, Span};
use crate::workloads::{
    build_traced_serial, cluster_oracles, new_clients, read_oracle, run_closed_loop, run_cluster,
    run_serial, set_up, Cell, Checks, Pass, Shape, Speed, Stores, Workload,
};
use std::time::Duration;

/// What to run for one workload, how long and how often: fixed by the
/// benchmark, never by the code under test.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Fresh set-ups timed for `setup_s`.
    pub setups: usize,
    /// Wall-clock budget of one untraced (workload, model) cell.
    pub cell: Duration,
    /// Wall-clock budget of one traced cell (zero: no traced pass).
    pub traced_cell: Duration,
    /// Interleaving rounds over the models of a workload.
    pub rounds: usize,
    /// Repetitions every serial cell runs at least, whatever they take,
    /// spread over the rounds.
    pub min_reps: usize,
    /// Measuring time of one direct-call probe (zero: no probes, which are
    /// the per-layer metrics that no cell gives).
    pub probe_each: Duration,
    /// Measuring time of the workload's variant probes together.
    pub probe_variants: Duration,
}

/// Everything one workload's run produced.
pub struct WorkloadRun {
    pub w: Workload,
    /// What the times of the timed and of the traced pass are divided by:
    /// how much slower than at the reference speed the workload ran, as
    /// the reference kernel's readings say (`calib::factor`, inverted).
    pub slowdown: (f64, f64),
    /// Seconds of each fresh set-up.
    pub setups: Vec<f64>,
    pub cells: Vec<Cell>,
    pub traced: Vec<Cell>,
    pub end_to_end: Values,
    pub per_layer: Values,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Hands the allocator's free pages back to the system. The two-thread
/// workloads spawn client and worker threads for every stream or
/// repetition, glibc gives each its own arena, and how much freed memory
/// the arenas keep varies from run to run: over ten seeds of `cluster-route`
/// the resident set read 97–126 MB (inter-quartile spread 13–21 %) as it
/// stood and 80–93 MB (7 %) after this call. What is left is what the
/// process holds, which is what a later change can make worse.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointer and may be called at
    // any time from any thread; it only returns free heap pages to the
    // system. The system allocator of this target is glibc's `malloc`.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// `VmRSS` of this process in MB once the allocator's free pages are
/// returned (0 off Linux).
fn rss_mb() -> f64 {
    release_free_heap();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Table 4's 3b column (`starfish_repro --only table4`, default seeds), in
/// `ModelKind::all()` order, with the table's printed precision.
const TABLE4_3B: [(f64, f64); 5] = [
    (105.0, 0.05),
    (49.27, 0.005),
    (2.63, 0.005),
    (2.54, 0.005),
    (2.78, 0.005),
];

/// At the default seed `nav-update` is the paper's query 3b on the paper's
/// database: its pages per unit must be table 4's.
fn check_table4(cells: &[Cell], checks: &mut Checks) {
    for (c, (expected, tolerance)) in cells.iter().zip(TABLE4_3B) {
        let pages = c.counts.pages() as f64 / c.loops.max(1) as f64;
        checks.check((pages - expected).abs() <= tolerance, || {
            format!(
                "nav-update/{}: {pages:.4} pages/loop, table 4 (3b) says {expected}",
                model_label(c.model)
            )
        });
    }
}

/// The traced pass of a serial cell must count exactly what the untraced
/// pass counted, and no span may be shorter than what its children cover.
fn check_traced_serial(w: Workload, cells: &[Cell], traced: &[Cell], checks: &mut Checks) {
    for (plain, t) in cells.iter().zip(traced.iter()) {
        let label = model_label(plain.model);
        checks.check(
            plain.first.as_ref().map(|r| r.counts) == t.first.as_ref().map(|r| r.counts),
            || {
                format!(
                    "{}/{label}: the traced pass counted differently: {:?} vs {:?}",
                    w.name(),
                    t.first,
                    plain.first
                )
            },
        );
        let Some(tr) = &t.traced else { continue };
        let store_ns: u64 = tr.ops.iter().map(|o| o.busy_ns).sum();
        let pool_ns = tr.pool.as_ref().map_or(0, |p| p.total_ns());
        let closure_ns = tr.pool.as_ref().map_or(0, |p| p.closure_ns);
        let fix_ns = tr
            .pool
            .as_ref()
            .map_or(0, |p| p.fix.busy_ns + p.fix_mut.busy_ns);
        checks.check(
            tr.root_ns >= store_ns && store_ns >= pool_ns && fix_ns >= closure_ns,
            || {
                format!(
                    "{}/{label}: negative self time: repetitions {} ns, store calls {store_ns} ns, \
                     pool {pool_ns} ns, fixes {fix_ns} ns, closures {closure_ns} ns",
                    w.name(),
                    tr.root_ns
                )
            },
        );
    }
}

pub fn run_workload(w: Workload, plan: &Plan) -> Result<WorkloadRun, String> {
    let mut checks = Checks::default();
    let reference = Reference::new();

    // Set-up, several times over; the last one is used. Like a timed pass
    // they are scaled by the reference readings taken between them.
    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    let mut readings = vec![reference.read()];
    let mut built = None;
    for _ in 0..plan.setups.max(1) {
        // Drop the previous stores first, as a fresh process would start.
        drop(built.take());
        let s = set_up(w, plan.seed)?;
        readings.push(reference.read());
        setups.push(s.seconds);
        generate_s.push(s.generate_seconds);
        built = Some((s.data, s.stores));
    }
    let setup_speed = calib::factor(&readings, calib::SHARE_SERIAL);
    for seconds in setups.iter_mut().chain(generate_s.iter_mut()) {
        *seconds *= setup_speed;
    }
    let (data, mut stores) = built.expect("at least one set-up");
    let user_bytes = data.user_bytes();
    let tracing = !plan.traced_cell.is_zero();
    let share = match w.shape() {
        Shape::Serial => calib::SHARE_SERIAL,
        Shape::ClosedLoop | Shape::Cluster => calib::SHARE_TWO_THREADS,
    };
    let mut timed = Pass {
        cell: plan.cell,
        rounds: plan.rounds,
        min_reps: plan.min_reps,
        traced: false,
        speed: Speed::new(&reference, share),
        checks: &mut checks,
    };
    // The traced pass: one round, a quarter of the budget, decorators on.
    let mut traced_checks = Checks::default();
    let mut traced_pass = Pass {
        cell: plan.traced_cell,
        rounds: 1,
        min_reps: plan.min_reps.min(3),
        traced: true,
        speed: Speed::new(&reference, share),
        checks: &mut traced_checks,
    };

    let rss;
    let (cells, traced) = match &mut stores {
        Stores::Serial(stores) => {
            let cells = run_serial(w, stores, &mut timed);
            rss = rss_mb();
            let mut traced = Vec::new();
            if tracing {
                let mut traced_stores = build_traced_serial(w, &data)?;
                traced = run_serial(w, &mut traced_stores, &mut traced_pass);
                check_traced_serial(w, &cells, &traced, traced_pass.checks);
            }
            (cells, traced)
        }
        Stores::Shared(stores) => {
            let models = w.models();
            let oracles = if w == Workload::ServeRead {
                stores
                    .iter()
                    .map(read_oracle)
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                Vec::new()
            };
            // The answer is a property of the database, not of the model.
            for o in oracles.iter().skip(1) {
                timed.checks.check(*o == oracles[0], || {
                    format!("{}: models disagree on the read answers", w.name())
                });
            }
            let mut clients = new_clients(models.len(), plan.seed);
            let cells = run_closed_loop(
                w,
                &models,
                stores,
                &data,
                &oracles,
                &mut clients,
                &mut timed,
            );
            rss = rss_mb();
            let mut traced = Vec::new();
            if tracing {
                traced = run_closed_loop(
                    w,
                    &models,
                    stores,
                    &data,
                    &oracles,
                    &mut clients,
                    &mut traced_pass,
                );
            }
            (cells, traced)
        }
        Stores::Cluster(clusters) => {
            let oracles = cluster_oracles(w, &data)?;
            let cells = run_cluster(w, clusters, &oracles, &mut timed);
            rss = rss_mb();
            let mut traced = Vec::new();
            if tracing {
                traced = run_cluster(w, clusters, &oracles, &mut traced_pass);
            }
            (cells, traced)
        }
    };
    let speed = timed.speed.factor();
    let traced_speed = traced_pass.speed.factor();
    checks.merge(traced_checks);
    if w == Workload::NavUpdate && plan.seed == 1993 {
        check_table4(&cells, &mut checks);
    }

    let end_to_end = metrics::end_to_end(w, &cells, speed, median(&setups), rss, user_bytes);
    let timer_ns = trace::timer_pair_ns();
    let mut per_layer = metrics::per_layer(w, &cells, &traced, speed, traced_speed, timer_ns);
    per_layer.push(("workload.generate_s".into(), median(&generate_s)));
    if tracing {
        per_layer.push(("trace.timer_ns".into(), timer_ns));
    }
    if !plan.probe_each.is_zero() {
        let micro = probes::micro(&data, plan.probe_each)?;
        if w == Workload::ScanSelect {
            // Objects a pass materialises (the scan's and the selection's)
            // times the decode probe, against the pass's wall: the ceiling
            // of what a codec change can buy.
            let decode_ns = micro
                .iter()
                .find(|(n, _)| n == "nf2.decode_ns_per_tuple")
                .map_or(0.0, |(_, v)| *v);
            let shares: Vec<f64> = cells
                .iter()
                .map(|c| {
                    let objects = c.first.as_ref().map_or(0, |r| r.scanned) + 1;
                    // Probe and pass both as the clock read them.
                    objects as f64 * decode_ns / (unit_us(c) * 1e3)
                })
                .collect();
            per_layer.push(("nf2.decode_est_share".into(), mean(&shares)));
        }
        per_layer.extend(micro);
        let shared = match &mut stores {
            Stores::Shared(s) => Some(s.as_mut_slice()),
            _ => None,
        };
        per_layer.extend(probes::for_workload(
            w,
            &data,
            plan,
            &cells,
            shared,
            &reference,
            &mut checks,
        )?);
    }
    for (name, _) in &per_layer {
        assert!(
            metrics::def(name).is_some(),
            "metric {name} is not declared"
        );
    }

    let cell_ops = |cells: &[Cell]| {
        cells
            .iter()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    };
    let (a1, f1) = cell_ops(&cells);
    let (a2, f2) = cell_ops(&traced);
    let spans = traced
        .iter()
        .filter_map(|c| c.traced.as_ref())
        .flat_map(|t| t.spans.iter().cloned())
        .collect();
    Ok(WorkloadRun {
        w,
        slowdown: (1.0 / speed, 1.0 / traced_speed),
        setups,
        cells,
        traced,
        end_to_end,
        per_layer,
        attempted: a1 + a2 + checks.attempted,
        failed: f1 + f2 + checks.failed,
        notes: checks.notes,
        spans,
    })
}
