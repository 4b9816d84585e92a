//! `pipes-benchmark`: CQL text in, tuples at the sink out — throughput and
//! latency on five workloads, with a per-layer cost table.
//!
//! ```text
//! pipes-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! pipes-benchmark suite [--seed N] [--quick] [--record] [--runs N] [workload…]
//! pipes-benchmark compare A.json B.json
//! ```

mod compare;
mod inputs;
mod json;
mod layers;
mod phase;
mod replay;
mod report;
mod run;
mod stats;
mod suite;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seed of a suite run that names none.
const DEFAULT_SEED: u64 = 20040613;

struct Cli {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Cli {
    /// `--flag` and `--key value` in any order; everything else positional.
    fn parse(args: &[String], flags: &[&str]) -> Cli {
        let mut cli = Cli {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if flags.contains(&key) => cli.options.push((key.to_string(), None)),
                Some(key) => cli.options.push((key.to_string(), it.next().cloned())),
                None => cli.positional.push(a.clone()),
            }
        }
        cli
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.flag(key) => Err(format!("--{key} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read '{v}'")),
        }
    }
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.value("workload").ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds: f64 = cli.number("seconds")?.ok_or("--seconds is required")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let trace = match cli.value("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: cannot read '{other}'")),
    };
    let args = run::Args {
        spec,
        seed: cli.number("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        quick: cli.flag("quick"),
        out_dir: PathBuf::from(cli.value("out").unwrap_or("benchmark/out")),
    };
    let result = run::run(&args);
    // Self-check against the contract before the result line goes out.
    let benchmark = report::load_benchmark(&PathBuf::from(
        cli.value("benchmark").unwrap_or("BENCHMARK.json"),
    ))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    report::self_check(&benchmark, section, &result.metrics)?;
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_suite(cli: &Cli) -> Result<ExitCode, String> {
    let dir = PathBuf::from(cli.value("dir").unwrap_or("benchmark"));
    suite::suite(&suite::SuiteArgs {
        seed: cli.number("seed")?.unwrap_or(DEFAULT_SEED),
        quick: cli.flag("quick"),
        record: cli.flag("record"),
        runs: cli.number("runs")?.unwrap_or(1),
        workloads: cli.positional.clone(),
        benchmark: PathBuf::from(cli.value("benchmark").unwrap_or("BENCHMARK.json")),
        out: cli.value("out").map(PathBuf::from),
        dir,
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(cli: &Cli) -> Result<ExitCode, String> {
    let [a, b] = &cli.positional[..] else {
        return Err("compare needs two result files".into());
    };
    let benchmark = report::load_benchmark(&PathBuf::from(
        cli.value("benchmark").unwrap_or("BENCHMARK.json"),
    ))?;
    let a = compare::load_runs(&PathBuf::from(a))?;
    let b = compare::load_runs(&PathBuf::from(b))?;
    Ok(if compare::compare(&benchmark, &a, &b)? {
        println!("regression beyond the bound");
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: pipes-benchmark run|suite|compare …  (see benchmark/README.md)");
        return ExitCode::from(64);
    };
    let cli = Cli::parse(rest, &["quick", "record"]);
    let outcome = match command.as_str() {
        "run" => cmd_run(&cli),
        "suite" => cmd_suite(&cli),
        "compare" => cmd_compare(&cli),
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pipes-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
