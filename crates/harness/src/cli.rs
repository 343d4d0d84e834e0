//! The `starfish_repro` command line: one table of flags, each row its
//! name, its `--help` line, whether it takes a value and what it sets,
//! read in one pass by [`Cli::parse`] and printed by [`Cli::help`].

use crate::experiments::{self, policy_grid, Experiment};
use crate::runner::{check_threads, HarnessConfig};

/// A parsed `starfish_repro` command line.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// The configuration `--fast`, `--seed`, `--policy` and `--fsync` set.
    pub config: HarnessConfig,
    /// The experiments to run, in order: `--only`'s, else the whole
    /// [`experiments::REGISTRY`].
    pub experiments: Vec<&'static Experiment>,
    /// `--threads`: the one client (or worker) count, instead of a sweep.
    pub threads: Option<usize>,
    /// `--workload`: a spec file path or built-in name, run instead of the
    /// experiments (the binary resolves it).
    pub workload: Option<String>,
    /// `--sweep`: cross the workload with every policy × client count.
    pub sweep: bool,
    /// `--nodes`: serve the sweep from a routed cluster of this size.
    pub nodes: Option<usize>,
    /// `--json`: one JSON object per report.
    pub json: bool,
    /// `--markdown`: markdown tables.
    pub markdown: bool,
    /// `--list`: list what `--only` and `--workload` accept, then exit.
    pub list: bool,
    /// `--help` or `-h`: print [`Cli::help`], then exit.
    pub help: bool,
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    help: &'static str,
    takes: Takes,
}

/// Whether a flag takes a value, and what it sets.
enum Takes {
    /// A switch.
    Switch(fn(&mut Cli)),
    /// The value as `--help` names it; the setter says what is wrong with
    /// a value it rejects.
    Value(&'static str, fn(&mut Cli, &str) -> Result<(), String>),
}
use Takes::{Switch, Value};

const FLAGS: [Flag; 14] = [
    Flag {
        name: "--fast",
        help: "300 objects in a 240-page buffer (the paper's 1500 in 1200)",
        takes: Switch(|cli| {
            let fast = HarnessConfig::fast();
            (cli.config.n_objects, cli.config.buffer_pages) = (fast.n_objects, fast.buffer_pages);
        }),
    },
    Flag {
        name: "--only",
        help: "run these experiments, in this order (ids from --list)",
        takes: Value("<id>[,<id>…]", |cli, ids| {
            let found = ids.split(',').map(|id| experiments::find(id.trim()));
            found.collect::<Result<_, _>>().map(|e| cli.experiments = e)
        }),
    },
    Flag {
        name: "--markdown",
        help: "print markdown tables instead of plain text",
        takes: Switch(|cli| cli.markdown = true),
    },
    Flag {
        name: "--json",
        help: "print a JSON object per report per line; unpinned values print null",
        takes: Switch(|cli| cli.json = true),
    },
    Flag {
        name: "--seed",
        help: "dataset seed, any unsigned integer (default 4242)",
        takes: Value("N", |cli, n| {
            cli.config.dataset_seed = n.parse().map_err(|_| "not an unsigned integer")?;
            Ok(())
        }),
    },
    Flag {
        name: "--policy",
        help: "replacement policy: lru (the paper's), clock, mru, fifo or lru2",
        takes: Value("P", |cli, p| p.parse().map(|p| cli.config.policy = p)),
    },
    Flag {
        name: "--threads",
        help: "one client count, not the 1/2/4/8 sweep (ext-distributed: workers per node)",
        takes: Value("N", |cli, n| count(n).map(|n| cli.threads = Some(n))),
    },
    Flag {
        name: "--fsync",
        help: "restrict ext-durability to one WAL flush mode (default: both)",
        takes: Value("per|group", |cli, m| {
            m.parse().map(|m| cli.config.fsync = Some(m))
        }),
    },
    Flag {
        name: "--workload",
        help: "run one workload spec (JSON file or built-in name), not the experiments",
        takes: Value("<file.json>|<name>", |cli, spec| {
            cli.workload = Some(spec.to_string());
            Ok(())
        }),
    },
    Flag {
        name: "--sweep",
        help: "with --workload: cross the spec with every policy × client count",
        takes: Switch(|cli| cli.sweep = true),
    },
    Flag {
        name: "--nodes",
        help: "with --workload --sweep: serve every cell from a routed N-node cluster",
        takes: Value("N", |cli, n| count(n).map(|n| cli.nodes = Some(n))),
    },
    Flag {
        name: "--list",
        help: "list the experiment ids, built-in queries and shipped workload specs",
        takes: Switch(|cli| cli.list = true),
    },
    Flag {
        name: "--help",
        help: "print this help",
        takes: Switch(|cli| cli.help = true),
    },
    Flag {
        name: "-h",
        help: "print this help",
        takes: Switch(|cli| cli.help = true),
    },
];

/// A count of clients, workers or nodes: zero of them serves nothing.
fn count(n: &str) -> Result<usize, String> {
    match n.parse() {
        Ok(0) | Err(_) => Err("not a count >= 1".into()),
        Ok(n) => Ok(n),
    }
}

impl Cli {
    /// Reads a command line (without the program name) in one pass. Every
    /// argument is a flag of the table or the value of the flag before it;
    /// a flag comes at most once, and its value may not start with `-`.
    /// The error, a usage error, names the argument at fault; it is also
    /// one for two output formats, `--sweep` or `--nodes` without what they
    /// need, a flag the chosen mode ignores (`--only` or `--fsync` with
    /// `--workload`, `--policy` with `--sweep`, `--fsync` without
    /// `ext-durability`), and a `--threads` count larger than the buffer
    /// it shards.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let experiments = experiments::REGISTRY.iter().collect();
        let mut cli = Cli {
            experiments,
            ..Cli::default()
        };
        let mut seen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(format!("'{arg}' is not a flag (see --help)"));
            };
            if seen.contains(&flag.name) {
                return Err(format!("{arg} is given twice"));
            }
            seen.push(flag.name);
            match flag.takes {
                Switch(set) => set(&mut cli),
                Value(what, set) => match args.next() {
                    Some(value) if !value.starts_with('-') => {
                        set(&mut cli, value).map_err(|e| format!("{arg} {value}: {e}"))?
                    }
                    _ => return Err(format!("{arg} needs a value: {arg} {what}")),
                },
            }
        }
        if cli.json && cli.markdown {
            return Err("--json and --markdown are two output formats: pick one".into());
        }
        if cli.sweep && cli.workload.is_none() || cli.nodes.is_some() && !cli.sweep {
            return Err("--nodes needs --sweep, which needs --workload <spec>".into());
        }
        // A flag the chosen mode would ignore is a misuse, not a no-op.
        let given = |name| seen.contains(&name);
        for other in ["--only", "--fsync"] {
            if given(other) && given("--workload") {
                return Err(format!("{other} and --workload: it runs no experiment"));
            }
        }
        if given("--policy") && cli.sweep {
            return Err("--policy and --sweep: the sweep crosses every policy".into());
        }
        if given("--fsync") && !cli.experiments.iter().any(|e| e.id == "ext-durability") {
            return Err("--fsync sets ext-durability's flush mode: add it to --only".into());
        }
        // ext-distributed's serving sweep shards each node's buffer too.
        let sharded =
            cli.workload.is_none() && cli.experiments.iter().any(|e| e.id == "ext-distributed");
        let nodes = sharded.then(|| policy_grid::SWEEP_NODES.into_iter().max().unwrap_or(1));
        check_threads(cli.threads, &cli.config, cli.nodes.or(nodes))?;
        Ok(cli)
    }

    /// The `--help` text: what the program does, one line per flag of the
    /// table, and the exit status.
    pub fn help() -> String {
        let mut out = "starfish_repro: regenerate the tables and figures of 'An \
                       Evaluation of Physical Disk I/Os for Complex Object \
                       Processing' (ICDE 1993), or run one declarative workload\n\n"
            .to_string();
        for flag in &FLAGS {
            let usage = match flag.takes {
                Switch(_) => flag.name.to_string(),
                Value(what, _) => format!("{} {what}", flag.name),
            };
            out += &format!("  {usage:<32}{}\n", flag.help);
        }
        out + "\nexit status: 0; 2 on a command-line misuse; 1 when a run fails, or \
               when a printed report's contract check failed (a WARNING note or a \
               DIVERGED cell), reported after every report is printed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Cli::parse(&args)
    }

    /// The `starfish_repro` command lines of a text: every line that
    /// invokes it (in a code block, when `fenced`), from after the program
    /// name (and cargo's `--`) to a pipe, redirection or comment.
    fn command_lines(text: &str, fenced: bool) -> Vec<String> {
        let mut in_block = !fenced;
        let mut lines = Vec::new();
        for line in text.lines() {
            if fenced && line.trim_start().starts_with("```") {
                in_block = !in_block;
            }
            let Some((_, rest)) = line.split_once("starfish_repro").filter(|_| in_block) else {
                continue;
            };
            // Prose ("… makes starfish_repro exit 1") is not a command line.
            let rest = rest.trim_start();
            if !(rest.is_empty() || rest.starts_with(['-', '#'])) {
                continue;
            }
            let rest = rest.strip_prefix("-- ").unwrap_or(rest);
            lines.push(rest.split(['|', '>', '#', ';']).next().unwrap().into());
        }
        lines
    }

    #[test]
    fn every_command_line_in_ci_the_readme_and_the_verify_skill_parses() {
        let ci = command_lines(include_str!("../../../.github/workflows/ci.yml"), false);
        let readme = command_lines(include_str!("../../../README.md"), true);
        let skill = include_str!("../../../.claude/skills/verify/SKILL.md");
        let skill = command_lines(skill, true);
        for (file, lines) in [("ci.yml", ci), ("README.md", readme), ("SKILL.md", skill)] {
            assert!(
                !lines.is_empty(),
                "no starfish_repro command line in {file}"
            );
            for line in lines {
                assert!(parse(&line).is_ok(), "{file}: {line}: {:?}", parse(&line));
            }
        }
    }

    #[test]
    fn help_lists_every_flag() {
        let help = Cli::help();
        for flag in &FLAGS {
            let line = help.lines().find(|l| l.trim_start().starts_with(flag.name));
            assert!(line.is_some_and(|l| l.contains(flag.help)), "{}", flag.name);
        }
        assert!(parse("--help").unwrap().help && parse("-h").unwrap().help);
    }

    #[test]
    fn every_flag_and_misuse_parses_once_or_names_the_argument() {
        // Each valued flag: what it needs beside it, a good value, a
        // malformed one, and whether it counts something (so 0 is wrong).
        // --workload's value is resolved, and rejected, by the binary.
        let valued = [
            ("--only", "", "table4,ext_timing", Some("table99"), false),
            ("--seed", "", "0", Some("abc"), false),
            ("--policy", "", "clock", Some("fastest"), false),
            ("--threads", "", "4", Some("many"), true),
            ("--fsync", "", "group", Some("always"), false),
            ("--workload", "", "hot-set", None, false),
            (
                "--nodes",
                "--workload hot-set --sweep",
                "3",
                Some("all"),
                true,
            ),
        ];
        for flag in FLAGS.iter().filter(|f| matches!(f.takes, Value(..))) {
            let case = valued.iter().find(|(name, ..)| *name == flag.name);
            let (name, needs, good, bad, counts) = case.unwrap_or_else(|| panic!("{}", flag.name));
            let run = |value: &str| parse(&format!("--fast {needs} {name} {value}"));
            assert!(run(good).is_ok(), "{name} {good}: {:?}", run(good));
            let mut wrong = vec!["", "--fast", "-1"];
            wrong.extend(bad);
            wrong.extend(counts.then_some("0"));
            for value in wrong {
                let err = run(value).unwrap_err();
                assert!(
                    err.starts_with(&format!("{name} ")),
                    "{name} {value}: {err}"
                );
            }
        }
        let cli = parse("--fast --only table4,ext_durability --seed 0 --fsync per").unwrap();
        let ids: Vec<&str> = cli.experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["table4", "ext-durability"]);
        assert_eq!((cli.config.n_objects, cli.config.dataset_seed), (300, 0));
        assert_eq!(cli.config.fsync, Some(starfish_core::FsyncMode::PerCommit));
        let cli = parse("--workload hot-set --sweep --threads 4 --nodes 3").unwrap();
        let got = (cli.workload.as_deref(), cli.sweep, cli.threads, cli.nodes);
        assert_eq!(got, (Some("hot-set"), true, Some(4), Some(3)));
        let cli = parse("--workload hot-set --policy clock").unwrap();
        assert_eq!(cli.config.policy, starfish_core::PolicyKind::Clock);
        // Each misuse, and the argument its message names. A misspelt flag,
        // a stray argument and two output formats have tests of their own
        // in `runner`.
        for (line, names) in [
            (
                "--fast --only table3 --only table2",
                "--only is given twice",
            ),
            ("--fast --fast", "--fast is given twice"),
            ("--only --fast", "--only needs a value"),
            ("--seed --fast", "--seed needs a value"),
            ("--fast --sweep", "--sweep, which needs --workload"),
            ("--fast --nodes 3", "--nodes needs --sweep"),
            (
                "--fast --workload hot-set --nodes 3",
                "--nodes needs --sweep",
            ),
            (
                "--fast --threads 241 --only table3",
                "--threads 241 exceeds the 240-page buffer",
            ),
            (
                "--fast --threads 61 --only ext-distributed",
                "60-page buffer of each of 4",
            ),
            (
                "--fast --threads 81 --workload hot-set --sweep --nodes 3",
                "80-page",
            ),
            ("--workload hot-set --only table2", "--only and --workload"),
            ("--workload hot-set --fsync group", "--fsync and --workload"),
            (
                "--fast --workload hot-set --sweep --policy clock",
                "--policy and --sweep",
            ),
            ("--fast --only table2 --fsync group", "add it to --only"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(names), "{line}: {err}");
        }
    }
}
