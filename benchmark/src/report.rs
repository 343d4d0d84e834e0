//! What the benchmark prints: the per-workload report (every metric by
//! name with its unit), the result line the driver reads, `BENCHMARK.json`.

use crate::adapter::model_label;
use crate::metrics::{def, loop_us, per_unit, Def, Values, END_TO_END, PER_LAYER};
use crate::run::WorkloadRun;
use crate::stats::Summary;
use crate::workloads::{Cell, Workload};
use std::fmt::Write;

/// A JSON number: all the digits of a finite value (non-finite reads 0 and
/// is reported as incorrect by the caller).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `metric <workload> <name> <value> <unit>` lines, one per value.
fn metric_lines(out: &mut String, w: Workload, values: &Values) {
    for (name, value) in values {
        let unit = def(name).map_or("", |d| d.unit);
        let _ = writeln!(
            out,
            "  metric {:<15} {name:<44} {value:>16.4} {unit}",
            w.name()
        );
    }
}

fn cell_table(out: &mut String, cells: &[Cell]) {
    let _ = writeln!(
        out,
        "  {:<11} {:>7} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8} {:>11} {:>11}",
        "model",
        "samples",
        "min",
        "q1",
        "median",
        "q3 us/u",
        "pages/unit",
        "calls/unit",
        "fixes/unit",
        "units",
        "loops",
        "us/loop",
        "pages/loop"
    );
    for c in cells {
        let s = Summary::of(&c.unit_us);
        let _ = writeln!(
            out,
            "  {:<11} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>10.3} {:>10.3} {:>10.2} {:>9} {:>8} {:>11.2} {:>11.3}",
            model_label(c.model),
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            per_unit(c.counts.pages(), c),
            per_unit(c.counts.io_calls(), c),
            per_unit(c.counts.fixes(), c),
            c.units,
            c.loops,
            loop_us(c),
            c.counts.pages() as f64 / c.loops.max(1) as f64
        );
        if !c.lat_read.is_empty() || !c.lat_update.is_empty() {
            let _ = writeln!(
                out,
                "  {:<11} requests timed: {} reads, {} updates",
                "",
                c.lat_read.len(),
                c.lat_update.len()
            );
        }
    }
}

/// The human-readable report of one workload's run.
pub fn workload_text(run: &WorkloadRun, show_end_to_end: bool, show_per_layer: bool) -> String {
    let mut out = String::new();
    let w = run.w;
    let _ = writeln!(out, "== {} ==", w.name());
    let _ = writeln!(out, "  why: {}", w.why());
    if show_end_to_end {
        let s = Summary::of(&run.setups);
        let _ = writeln!(
            out,
            "  tracing off; set-ups: {} (q1 {:.3} s, median {:.3} s, q3 {:.3} s)",
            s.n, s.q1, s.median, s.q3
        );
        let _ = writeln!(
            out,
            "  cells as the clock read them; the metrics' times are these divided by {:.3} \
             (speed calibration)",
            run.slowdown.0
        );
        cell_table(&mut out, &run.cells);
        metric_lines(&mut out, w, &run.end_to_end);
    }
    if show_per_layer {
        if !run.traced.is_empty() {
            let _ = writeln!(
                out,
                "  traced pass (times divided by {:.3}):",
                run.slowdown.1
            );
            cell_table(&mut out, &run.traced);
        }
        metric_lines(&mut out, w, &run.per_layer);
    }
    let share = run.failed as f64 / run.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  failed_share {share} ({} failed of {} attempted)",
        run.failed, run.attempted
    );
    for note in &run.notes {
        let _ = writeln!(out, "  FAILED: {note}");
    }
    out
}

/// The driver's result line: `correct`, `attempted`, `failed`, and every
/// declared metric of the asked kind. A declared per-layer metric the
/// workload does not have reads 0; a missing end-to-end metric is an error.
pub fn result_line(run: &WorkloadRun, per_layer: bool) -> Result<String, String> {
    let (declared, values): (&[Def], &Values) = if per_layer {
        (PER_LAYER, &run.per_layer)
    } else {
        (END_TO_END, &run.end_to_end)
    };
    let mut correct = run.failed == 0;
    let mut fields = Vec::new();
    for d in declared {
        let value = match values.iter().find(|(n, _)| n == d.name) {
            Some((_, v)) => *v,
            None if per_layer => 0.0,
            None => return Err(format!("{}: no value for {}", run.w.name(), d.name)),
        };
        if !value.is_finite() || (!per_layer && value <= 0.0) {
            correct = false;
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(value),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(", ")
    ))
}

/// `BENCHMARK.json` as the registry declares it. The checked-in file must
/// equal this byte for byte (the crate's test compares them).
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    let n = Workload::ALL.len();
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            escape(w.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name, d.unit, d.better, d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}
