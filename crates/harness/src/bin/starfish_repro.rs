//! `starfish-repro` — regenerate every table and figure of the ICDE 1993
//! evaluation, and run declarative workloads beyond it.
//!
//! ```text
//! starfish-repro [--fast] [--only <id>[,<id>…]] [--markdown] [--json]
//!                [--seed N] [--policy <name>] [--threads N] [--fsync M]
//!                [--queue-depth N] [--workload <file.json>|<builtin>]
//!                [--sweep] [--nodes N] [--list]
//!
//!   --fast       300 objects / 240-page buffer (same DB:buffer ratio)
//!   --only       run a subset of experiments (ids from --list)
//!   --markdown   emit GitHub-flavoured markdown instead of plain text
//!   --json       emit one JSON object per experiment (one per line); a
//!                cell or note that is not pinned (wall-clock or
//!                schedule-dependent) prints as null, so two runs print
//!                the same bytes. Not with --markdown.
//!   --seed N     dataset seed (default 4242)
//!   --policy P   buffer-replacement policy for every measurement:
//!                lru (paper default), clock, mru, fifo, lru2.
//!                ext-policy always sweeps all five.
//!   --threads N  client count for ext-concurrency and workers-per-node
//!                for ext-distributed's serving sweep (default: sweep
//!                1/2/4/8). With N=1 the experiments reproduce the serial
//!                per-unit counters exactly. Combined with --workload, runs
//!                the spec over the concurrent surface with N clients.
//!   --fsync M    restrict ext-durability to one WAL flush mode: per
//!                (flush the log on every commit) or group (leader
//!                flushes a batch). Default: sweep both. Other
//!                experiments run with the WAL off and ignore it.
//!   --queue-depth N
//!                cap the queue depths ext-concurrency's batched-I/O
//!                sweep drives (default 8: depths 1/2/4/8 with the
//!                submission/completion engine enabled). Other
//!                experiments ignore it.
//!   --workload   run one declarative workload spec (a JSON file path or a
//!                built-in name like deep-nav) across the five storage
//!                models instead of the experiment suite; add --threads N
//!                to serve it from N client threads
//!   --sweep      with --workload: cross the spec with every replacement
//!                policy × the client-count list through the shared
//!                reporting path (concurrency, cluster and drift scenarios
//!                render identically); add --nodes N to serve every cell
//!                from a routed N-node cluster instead of the shared
//!                surface
//!   --nodes N    cluster size for --workload --sweep (requires --sweep)
//!   --list       enumerate experiments, built-in queries and shipped
//!                workload specs, then exit
//! ```
//!
//! Exit status: 0; 2 on a command-line misuse; 1 when a run fails, or when
//! a printed report's contract check failed (a `WARNING` note or a
//! `DIVERGED` cell) — reported after every report is printed.

use starfish_harness::experiments;
use starfish_harness::runner::{
    check_args, check_threads, parse_fsync, parse_nodes, parse_only, parse_queue_depth, parse_seed,
    parse_threads, HarnessConfig,
};
use starfish_workload::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args).unwrap_or_else(|e| usage(e));
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "starfish-repro [--fast] [--only <ids>] [--markdown] [--json] [--seed N] \
             [--policy lru|clock|mru|fifo|lru2] [--threads N] [--fsync per|group] \
             [--queue-depth N] [--workload <file.json>|<name>] [--sweep] \
             [--nodes N] [--list]\n\
             regenerates the tables/figures of 'An Evaluation of Physical Disk \
             I/Os for Complex Object Processing' (ICDE 1993)\n\
             --json prints one JSON object per report, one per line; a cell or \
             note that is not pinned (wall-clock or schedule-dependent) prints \
             as null, so two runs print the same bytes (FINGERPRINT.json holds \
             the --fast run); --markdown prints markdown tables instead\n\
             --policy selects the buffer-replacement policy behind every \
             measurement (default lru, the paper's §5.1 buffer); the \
             ext-policy experiment sweeps all five policies regardless\n\
             --threads pins the ext-concurrency client count and the \
             ext-distributed workers-per-node (default sweep: 1/2/4/8)\n\
             --fsync restricts the ext-durability WAL sweep to one flush mode \
             (per = flush on every commit, group = leader flushes a batch; \
             default both)\n\
             --queue-depth caps the queue depths of ext-concurrency's \
             batched-I/O sweep (submission/completion engine enabled, client \
             count = queue depth; default cap 8)\n\
             --workload runs one declarative AccessPlan spec (JSON file or \
             built-in name) across the five storage models; with --threads N \
             it runs over the concurrent surface from N client threads\n\
             --sweep crosses the --workload spec with every policy × the \
             client-count list through one shared reporting path; --nodes N \
             serves every sweep cell from a routed N-node cluster\n\
             --list shows every experiment id, built-in query and shipped \
             workload spec"
        );
        return;
    }
    if args.iter().any(|a| a == "--list") {
        print_list();
        return;
    }
    let mut config = if args.iter().any(|a| a == "--fast") {
        HarnessConfig::fast()
    } else {
        HarnessConfig::default()
    };
    if let Some(seed) = parse_seed(&args).unwrap_or_else(|e| usage(e)) {
        config.dataset_seed = seed;
    }
    if let Some(i) = args.iter().position(|a| a == "--policy") {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage("--policy needs a value"));
        config.policy = value.parse().unwrap_or_else(|e: String| usage(e));
    }
    config.fsync = parse_fsync(&args).unwrap_or_else(|e| usage(e));
    config.queue_depth = parse_queue_depth(&args).unwrap_or_else(|e| usage(e));
    let threads: Option<usize> = parse_threads(&args).unwrap_or_else(|e| usage(e));
    let thread_list: Vec<usize> = match threads {
        Some(n) => vec![n],
        None => experiments::policy_grid::THREADS.to_vec(),
    };
    let nodes: Option<usize> = parse_nodes(&args).unwrap_or_else(|e| usage(e));
    let sweep = args.iter().any(|a| a == "--sweep");
    if (sweep || nodes.is_some()) && !args.iter().any(|a| a == "--workload") {
        usage("--sweep and --nodes require --workload <spec>");
    }
    let markdown = args.iter().any(|a| a == "--markdown");
    let json = args.iter().any(|a| a == "--json");

    eprintln!(
        "starfish-repro: {} objects, {}-page buffer ({}), dataset seed {}",
        config.n_objects, config.buffer_pages, config.policy, config.dataset_seed
    );

    // --workload replaces the experiment suite with one declarative spec.
    let reports = if let Some(i) = args.iter().position(|a| a == "--workload") {
        let arg = (args.get(i + 1))
            .unwrap_or_else(|| usage("--workload needs a JSON file path or a built-in name"));
        let spec = load_workload(arg);
        if nodes.is_some() && !sweep {
            usage("--nodes requires --workload --sweep");
        }
        check_threads(threads, &config, nodes).unwrap_or_else(|e| usage(e));
        let report = if sweep {
            // --sweep: policies × client counts through the shared
            // reporting path; --nodes serves every cell from a routed
            // cluster instead of the shared surface.
            experiments::policy_grid::workload_sweep(&config, &spec, &thread_list, nodes)
        } else {
            // An explicit client count runs the spec over the concurrent
            // surface (N threads × N shards); counters stay invariant.
            experiments::policy_grid::workload(&config, &spec, threads)
        };
        vec![report.unwrap_or_else(die)]
    } else {
        let ids: Vec<String> = parse_only(&args)
            .unwrap_or_else(|e| usage(e))
            .unwrap_or_else(|| {
                (experiments::REGISTRY.iter())
                    .map(|e| e.id.to_string())
                    .collect()
            });
        let nodes = experiments::sharded_cluster_nodes(&ids);
        check_threads(threads, &config, nodes).unwrap_or_else(|e| usage(e));
        // Tables 4–6/8 and ext-timing share one measured grid; run_one
        // builds it at most once across the whole id list.
        let mut grid = None;
        ids.iter()
            .map(|id| {
                experiments::run_one(id, &config, &thread_list, &mut grid)
                    .unwrap_or_else(|e| usage(e))
            })
            .collect()
    };

    for report in &reports {
        if json {
            println!("{}", report.render_json());
        } else if markdown {
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
