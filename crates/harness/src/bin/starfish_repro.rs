//! `starfish-repro` — regenerate every table and figure of the ICDE 1993
//! evaluation, and run declarative workloads beyond it.
//!
//! `starfish_repro --help` lists the flags, one table in
//! `starfish_harness::cli`, and the exit status.

use starfish_harness::cli::Cli;
use starfish_harness::experiments::{self, policy_grid, RunCtx};
use starfish_workload::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| usage(e));
    if cli.help {
        println!("{}", Cli::help());
        return;
    }
    if cli.list {
        print_list();
        return;
    }
    let config = cli.config;
    eprintln!(
        "starfish-repro: {} objects, {}-page buffer ({}), dataset seed {}",
        config.n_objects, config.buffer_pages, config.policy, config.dataset_seed
    );

    let cx = RunCtx::new(config, cli.threads);
    let reports = match &cli.workload {
        // --workload replaces the experiments with one declarative spec:
        // --sweep crosses it with policies × client counts through the
        // shared reporting path (--nodes: served by a routed cluster);
        // --threads alone serves it from that many clients.
        Some(arg) => {
            let spec = load_workload(arg);
            let report = match cli.sweep {
                true => policy_grid::workload_sweep(&config, &spec, &cx.threads, cli.nodes),
                false => policy_grid::workload(&config, &spec, cli.threads),
            };
            vec![report.unwrap_or_else(die)]
        }
        None => (cli.experiments.iter())
            .map(|e| (e.run)(&cx).unwrap_or_else(die))
            .collect(),
    };

    for report in &reports {
        if cli.json {
            println!("{}", report.render_json());
        } else if cli.markdown {
            println!("{}", report.render_markdown());
        } else {
            println!("{}", report.render());
        }
    }
    let broken: Vec<&str> = (reports.iter())
        .filter(|r| r.contract_broken())
        .map(|r| r.id.as_str())
        .collect();
    if !broken.is_empty() {
        eprintln!(
            "starfish-repro: contract check failed (WARNING note or DIVERGED cell) in {}",
            broken.join(", ")
        );
        std::process::exit(1);
    }
}

/// Resolves a `--workload` argument: a JSON file path first, then a
/// built-in spec name.
///
/// An argument that *looks* like a file path (contains a separator or ends
/// in `.json`) is treated as one even when it does not exist, so a typo'd
/// path reports the path and the OS error instead of the misleading
/// "neither a file nor a built-in" catch-all.
fn load_workload(arg: &str) -> WorkloadSpec {
    let file_like = arg.contains(std::path::MAIN_SEPARATOR)
        || arg.contains('/')
        || std::path::Path::new(arg)
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    if file_like || std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg)
            .unwrap_or_else(|e| usage(format!("cannot read workload file '{arg}': {e}")));
        WorkloadSpec::from_json(&text)
            .unwrap_or_else(|e| usage(format!("{arg} is not a valid workload spec: {e}")))
    } else {
        WorkloadSpec::builtin(arg).unwrap_or_else(|| {
            usage(format!(
                "'{arg}' is neither a readable file nor a built-in \
                 workload (run --list to see the built-ins)"
            ))
        })
    }
}

/// `--list`: everything `--only` and `--workload` accept.
fn print_list() {
    println!("experiments (--only, comma-separated):");
    for e in experiments::REGISTRY {
        println!("  {:<16} {}", e.id, e.summary);
    }
    println!("\nbuilt-in queries (paper §2.2; available as --workload specs):");
    for q in starfish_cost::QueryId::all() {
        let spec = WorkloadSpec::for_query(q);
        println!("  {:<16} {}", spec.name, spec.description);
    }
    println!("\nshipped workload specs (--workload <name>, or any JSON file in the same format):");
    for spec in WorkloadSpec::shipped() {
        println!("  {:<16} {}", spec.name, spec.description);
    }
    for mix in starfish_workload::MixKind::all() {
        let spec = WorkloadSpec::mixed(mix);
        println!("  {:<16} {}", spec.name, spec.description);
    }
}

/// Every command-line misuse ends here: the message, exit status 2.
fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("starfish-repro: {msg}");
    std::process::exit(2)
}

fn die<T>(err: starfish_core::CoreError) -> T {
    eprintln!("starfish-repro failed: {err}");
    std::process::exit(1);
}
