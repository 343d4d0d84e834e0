//! The repository's benchmark: seven workloads × the five storage models,
//! end-to-end metrics with tracing off and per-layer metrics from a traced
//! run, every answer checked. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 1993
//!     every workload: timed pass, traced pass, probes, checks, report
//! ... -- --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, as the driver runs it; the last line is the result
//! ... -- --repeat <n> [--seed <n>]
//!     the whole timed benchmark n times; spread per metric against its bound
//! ... -- --smoke
//!     every budget divided by 20 (the crate's own test)
//! ... -- --emit-benchmark-json
//!     BENCHMARK.json as the metric registry declares it
//! ```

mod adapter;
mod calib;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{run_workload, Plan, WorkloadRun};
use std::fmt::Write as _;
use std::time::Duration;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const RUN_SECONDS: u64 = 10;
/// Per-cell budget when `--seconds` is not given (the whole-benchmark run).
const CELL_SECONDS: f64 = 2.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    repeat: Option<usize>,
    emit_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                out.seed = Some(v.parse().map_err(|_| format!("--seed: bad number {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: bad number {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {v} is not in (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                });
            }
            "--repeat" => {
                let v = value("a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--repeat: bad count {v:?}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--repeat: {n} is not in 1..=100"));
                }
                out.repeat = Some(n);
            }
            "--smoke" => out.smoke = true,
            "--emit-benchmark-json" => out.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// What a run does: the timed pass only (`--trace 0`, `--repeat`), the
/// traced side only (`--trace 1`), or both (the whole-benchmark run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
    Both,
}

/// The plan for one workload. `seconds`, when given, is what one workload
/// measures for; its cells share it equally. Run length is therefore fixed
/// here, never by the code under test.
fn plan_for(w: Workload, seed: u64, seconds: Option<f64>, mode: Mode, smoke: bool) -> Plan {
    let models = w.models().len() as f64;
    let scale = if smoke { 0.05 } else { 1.0 };
    let secs = |s: f64| Duration::from_secs_f64(s * scale);
    let (setups, cell, traced_cell, probe_each, probe_variants) = match (mode, seconds) {
        // The driver's timed run: all of `seconds` goes to the cells.
        (Mode::Timed, Some(s)) => (9, s / models, 0.0, 0.0, 0.0),
        (Mode::Timed, None) => (5, CELL_SECONDS, 0.0, 0.0, 0.0),
        // The driver's traced run: an untraced pass (for the per-model
        // times and the tracing overhead), the traced pass, the probes.
        (Mode::Traced, Some(s)) => (1, 0.4 * s / models, 0.3 * s / models, 0.004 * s, 0.2 * s),
        (Mode::Traced, None) | (Mode::Both, None) => {
            (5, CELL_SECONDS, CELL_SECONDS / 4.0, 0.04, 2.0)
        }
        (Mode::Both, Some(s)) => (5, s / models, s / models / 4.0, 0.004 * s, 0.2 * s),
    };
    Plan {
        seed,
        setups: if smoke { 1 } else { setups },
        cell: secs(cell),
        traced_cell: secs(traced_cell),
        rounds: if smoke { 2 } else { 5 },
        // A timed cell runs at least 11 repetitions however slow they are
        // (pure NSM on `nav-resident` takes two thirds of a second).
        min_reps: if smoke { 2 } else { 11 },
        probe_each: secs(probe_each),
        probe_variants: secs(probe_variants),
    }
}

fn selected(workload: Option<&str>) -> Result<Vec<Workload>, String> {
    match workload {
        None => Ok(Workload::ALL.to_vec()),
        Some(name) => Workload::by_name(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        }),
    }
}

fn trace_path() -> std::path::PathBuf {
    let dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    std::path::Path::new(&dir).join("out").join("trace.json")
}

fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: nproc {nproc}, {} client threads on the closed loops, {} {}",
        workloads::CLIENTS,
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// `--repeat n`: the whole timed benchmark n times; per end-to-end metric ×
/// workload the min / median / max and whether (max − min) ÷ median stays
/// inside the metric's bound.
fn repeat(
    n: usize,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    emit: &mut dyn FnMut(String),
) -> Result<bool, String> {
    emit(format!("{}\n", machine_line()));
    let mut all_ok = true;
    let mut inside_all = true;
    for w in Workload::ALL {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        for _ in 0..n {
            let run = run_workload(w, &plan_for(w, seed, seconds, Mode::Timed, smoke))?;
            all_ok &= run.failed == 0;
            for (name, v) in run.end_to_end {
                match samples.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, vs)) => vs.push(v),
                    None => samples.push((name, vec![v])),
                }
            }
        }
        let mut out = String::new();
        for (name, vs) in samples {
            let min = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let med = stats::median(&vs);
            let bound = metrics::def(&name).map_or(0.0, |d| d.bound);
            let spread = if med > 0.0 { (max - min) / med } else { 0.0 };
            let inside = spread <= bound;
            inside_all &= inside;
            let _ = writeln!(
                out,
                "  repeat {:<15} {name:<26} min {min:>14.4} median {med:>14.4} max {max:>14.4} \
                 spread {:>6.2}% bound {:>5.1}% {}",
                w.name(),
                spread * 100.0,
                bound * 100.0,
                if inside { "inside" } else { "OUTSIDE" }
            );
        }
        emit(out);
    }
    emit(format!(
        "repeat: {n} runs at seed {seed}: {}\n",
        if inside_all {
            "every spread inside its bound"
        } else {
            "some spread outside its bound"
        }
    ));
    Ok(all_ok)
}

/// Runs what `args` ask for, handing the report to `emit` piece by piece
/// (a workload at a time); returns whether every check passed.
fn benchmark(args: &Args, emit: &mut dyn FnMut(String)) -> Result<bool, String> {
    if args.emit_benchmark_json {
        emit(report::benchmark_json(RUN_SECONDS));
        return Ok(true);
    }
    let seed = args.seed.unwrap_or(1993);
    if let Some(n) = args.repeat {
        return repeat(n, seed, args.seconds, args.smoke, emit);
    }
    let driver = args.workload.is_some();
    let mode = match (driver, args.trace) {
        (_, Some(1)) => Mode::Traced,
        (true, _) | (_, Some(_)) => Mode::Timed,
        (false, None) => Mode::Both,
    };
    emit(format!(
        "{}\nseed {seed}, database of {} objects\n",
        machine_line(),
        workloads::N_OBJECTS
    ));
    let mut runs: Vec<WorkloadRun> = Vec::new();
    for w in selected(args.workload.as_deref())? {
        let run = run_workload(w, &plan_for(w, seed, args.seconds, mode, args.smoke))?;
        emit(report::workload_text(
            &run,
            mode != Mode::Traced,
            mode != Mode::Timed,
        ));
        runs.push(run);
    }
    if mode != Mode::Timed {
        let spans: Vec<_> = runs.iter().flat_map(|r| r.spans.iter().cloned()).collect();
        let path = trace_path();
        trace::write_trace_json(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        emit(format!(
            "trace: {} spans in {}\n",
            spans.len(),
            path.display()
        ));
    }
    // The result line(s): one JSON object per workload and kind, last.
    for run in &runs {
        if mode == Mode::Both {
            emit(report::result_line(run, false)? + "\n");
        }
        emit(report::result_line(run, mode != Mode::Timed)? + "\n");
    }
    Ok(runs.iter().all(|r| r.failed == 0))
}

fn main() {
    use std::io::Write as _;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut print = |text: String| {
        print!("{text}");
        let _ = std::io::stdout().flush();
    };
    match parse_args(&args).and_then(|a| benchmark(&a, &mut print)) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("starfish-benchmark: a check failed (see the FAILED lines)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("starfish-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name));
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for d in END_TO_END {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{}: bound {}",
                d.name,
                d.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, report::benchmark_json(RUN_SECONDS));
        assert!(on_disk.len() <= 64 * 1024);
    }

    /// `metric <workload> <name> <value> <unit>` lines of the report.
    fn metric_lines(text: &str) -> Vec<(String, String, f64, String)> {
        text.lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                if f.next()? != "metric" {
                    return None;
                }
                Some((
                    f.next()?.to_string(),
                    f.next()?.to_string(),
                    f.next()?.parse().ok()?,
                    f.next()?.to_string(),
                ))
            })
            .collect()
    }

    /// The whole benchmark at a twentieth of every budget: every workload
    /// prints every end-to-end metric exactly once, every per-layer metric
    /// is printed by at least one workload and at most once per workload,
    /// values are finite and carry the declared unit, and no check fails.
    #[test]
    fn smoke_run_prints_every_declared_metric() {
        let args = Args {
            smoke: true,
            ..Default::default()
        };
        let mut text = String::new();
        let ok = benchmark(&args, &mut |piece| text.push_str(&piece)).expect("the benchmark runs");
        assert!(ok, "a check failed:\n{text}");
        let lines = metric_lines(&text);
        for (w, name, value, unit) in &lines {
            let d = metrics::def(name).unwrap_or_else(|| panic!("{name} is not declared"));
            assert!(Workload::by_name(w).is_some(), "unknown workload {w}");
            assert_eq!(unit, d.unit, "{name}");
            assert!(value.is_finite(), "{w} {name} = {value}");
        }
        let count = |w: &str, name: &str| {
            lines
                .iter()
                .filter(|(lw, ln, _, _)| lw == w && ln == name)
                .count()
        };
        for w in Workload::ALL {
            for d in END_TO_END {
                assert_eq!(count(w.name(), d.name), 1, "{} {}", w.name(), d.name);
                let (_, _, v, _) = lines
                    .iter()
                    .find(|(lw, ln, _, _)| lw == w.name() && ln == d.name)
                    .expect("counted above");
                assert!(*v > 0.0, "{} {} = {v}", w.name(), d.name);
            }
            for d in PER_LAYER {
                assert!(count(w.name(), d.name) <= 1, "{} {}", w.name(), d.name);
            }
        }
        for d in PER_LAYER {
            assert!(
                lines.iter().any(|(_, n, _, _)| n == d.name),
                "{} is printed by no workload",
                d.name
            );
        }
        // One result line per workload and kind, each carrying every key.
        let results: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"correct\""))
            .collect();
        assert_eq!(results.len(), 2 * Workload::ALL.len());
        for line in results {
            assert!(line.contains("\"correct\": true"), "{line}");
            let declared = if line.contains("\"setup_s\"") {
                END_TO_END
            } else {
                PER_LAYER
            };
            for d in declared {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(selected(Some("no-such-workload")).is_err());
        let ok = parse(&[
            "--workload",
            "nav-cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("the driver's arguments parse");
        assert_eq!(
            (ok.workload.as_deref(), ok.seed, ok.seconds, ok.trace),
            (Some("nav-cold"), Some(7), Some(3.0), Some(1))
        );
    }
}
