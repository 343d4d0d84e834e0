//! `PERF.jsonl` is the performance trajectory: one line per before/after
//! measurement of the repository's benchmark (`benchmark/`,
//! `BENCHMARK.json`) that a change was accepted on.
//!
//! A line holds the change's number (`pr`, ascending through the file), the
//! `workload` and end-to-end `metric` it names and the direction that metric
//! improves in (`better`, as `BENCHMARK.json` declares it), the dataset
//! `seed`, the alternated parent/change `pairs` and how many of them the
//! change won, the `parent` and `change` medians with their quartiles
//! (`q1`, `q3`), the `ratio` change ÷ parent as printed, the machine's
//! processor count (`nproc`, `null` where the source did not print it), the
//! two commits (`change_commit` is `null` on the last line only: a commit
//! cannot name itself, so it is the commit that adds that line), whether
//! the gain was `claimed` or only reported, and the `source` section the
//! numbers were copied from. This test checks the schema and that each
//! ratio is change ÷ parent within the rounding of its printed digits.

use serde_json::Value;

const FIELDS: [&str; 15] = [
    "pr",
    "workload",
    "metric",
    "better",
    "seed",
    "pairs",
    "pairs_won",
    "parent",
    "change",
    "ratio",
    "nproc",
    "parent_commit",
    "change_commit",
    "claimed",
    "source",
];

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn field<'a>(row: &'a Value, key: &str, line: usize) -> &'a Value {
    row.get(key)
        .unwrap_or_else(|| panic!("line {line}: missing \"{key}\""))
}

fn number(row: &Value, key: &str, line: usize) -> f64 {
    (field(row, key, line).as_f64())
        .unwrap_or_else(|| panic!("line {line}: \"{key}\" is not a number"))
}

fn count(row: &Value, key: &str, line: usize) -> u64 {
    (field(row, key, line).as_u64())
        .unwrap_or_else(|| panic!("line {line}: \"{key}\" is not a whole number"))
}

fn is_commit(v: &Value) -> bool {
    v.as_str()
        .is_some_and(|s| s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// `(median, q1, q3)` of a side, ordered and positive.
fn side(row: &Value, key: &str, line: usize) -> f64 {
    let side = field(row, key, line);
    let get = |k: &str| number(side, k, line);
    let (q1, median, q3) = (get("q1"), get("median"), get("q3"));
    assert!(
        0.0 < q1 && q1 <= median && median <= q3,
        "line {line}: {key} must read 0 < q1 <= median <= q3, got {q1} / {median} / {q3}"
    );
    assert_eq!(
        side.as_object().map(<[_]>::len),
        Some(3),
        "line {line}: {key}"
    );
    median
}

/// Digits after the decimal point of `ratio` as written on the line.
fn printed_decimals(text: &str) -> u32 {
    let after = text.split("\"ratio\":").nth(1).expect("a ratio field");
    let digits: String = (after.trim_start().chars())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.split('.').nth(1).map_or(0, |d| d.len() as u32)
}

#[test]
fn every_line_is_a_measured_benchmark_row() {
    let bench = serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |list: &str, key: &str| -> Vec<(String, Option<String>)> {
        let list = bench.get(list).and_then(Value::as_array).expect(list);
        (list.iter())
            .map(|w| {
                let name = w.get(key).and_then(Value::as_str).expect("a name");
                let better = w.get("better").and_then(Value::as_str).map(str::to_string);
                (name.to_string(), better)
            })
            .collect()
    };
    let workloads = names("workloads", "name");
    let metrics = names("end_to_end", "name");

    let text = read("PERF.jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "PERF.jsonl has no rows");
    let mut last_pr = 0;
    for (i, text) in lines.iter().enumerate() {
        let line = i + 1;
        let row = serde_json::from_str(text).unwrap_or_else(|e| panic!("line {line}: {e}"));
        let keys = row
            .as_object()
            .unwrap_or_else(|| panic!("line {line}: not an object"));
        for (key, _) in keys {
            assert!(
                FIELDS.contains(&key.as_str()),
                "line {line}: unknown field \"{key}\""
            );
        }
        for key in FIELDS {
            field(&row, key, line);
        }

        let pr = count(&row, "pr", line);
        assert!(
            pr > last_pr,
            "line {line}: pr {pr} does not follow {last_pr}"
        );
        last_pr = pr;
        let text_of = |key: &str| field(&row, key, line).as_str().map(str::to_string);
        let workload = text_of("workload").expect("workload is a string");
        assert!(
            workloads.iter().any(|(w, _)| *w == workload),
            "line {line}: \"{workload}\" is not a BENCHMARK.json workload"
        );
        let metric = text_of("metric").expect("metric is a string");
        let declared = (metrics.iter().find(|(m, _)| *m == metric))
            .unwrap_or_else(|| panic!("line {line}: \"{metric}\" is not an end-to-end metric"));
        assert_eq!(
            text_of("better"),
            declared.1,
            "line {line}: {metric}'s direction"
        );
        count(&row, "seed", line);
        let pairs = count(&row, "pairs", line);
        assert!(
            pairs >= 1 && count(&row, "pairs_won", line) <= pairs,
            "line {line}: pairs"
        );
        let nproc = field(&row, "nproc", line);
        assert!(
            *nproc == Value::Null || nproc.as_u64().is_some_and(|n| n >= 1),
            "line {line}: nproc must be a processor count or null"
        );
        assert!(
            field(&row, "claimed", line).as_bool().is_some(),
            "line {line}: claimed"
        );
        assert!(
            text_of("source").is_some_and(|s| !s.is_empty()),
            "line {line}: source"
        );
        assert!(
            is_commit(field(&row, "parent_commit", line)),
            "line {line}: parent_commit"
        );
        let change_commit = field(&row, "change_commit", line);
        let last = line == lines.len();
        assert!(
            is_commit(change_commit) || (last && *change_commit == Value::Null),
            "line {line}: change_commit must be a full hash (null on the last line only)"
        );

        let (parent, change) = (side(&row, "parent", line), side(&row, "change", line));
        let ratio = number(&row, "ratio", line);
        let half_digit = 0.5 * 10f64.powi(-(printed_decimals(text) as i32));
        assert!(
            (ratio - change / parent).abs() <= half_digit + 1e-9,
            "line {line}: ratio {ratio} is not {change} / {parent} = {:.4}",
            change / parent
        );
    }
}
