//! The whole suite: every workload in its own process, every metric printed
//! by name with its unit, checked against `BENCHMARK.json`, and written to
//! one result file.

use crate::json::{quote, Json};
use crate::report::Fingerprint;
use crate::workloads::SPECS;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub quick: bool,
    /// Append the result to `history.jsonl` (off by default so runs leave
    /// the tree clean).
    pub record: bool,
    /// Untraced runs per workload, on seeds `seed .. seed + runs`.
    pub runs: u64,
    pub workloads: Vec<String>,
    /// The benchmark's directory (holds `out/` and `history.jsonl`).
    pub dir: PathBuf,
    pub benchmark: PathBuf,
    /// Result file; default `<dir>/out/suite-seed<seed>.json`.
    pub out: Option<PathBuf>,
}

/// Phase seconds of a `--quick` run: 0.5 s per phase.
const QUICK_SECONDS: f64 = 3.0;

struct ChildRun {
    workload: String,
    seed: u64,
    trace: bool,
    /// The child's result line, verbatim.
    line: String,
    parsed: Json,
}

fn run_child(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(args.dir.join("out"))
        .arg("--benchmark")
        .arg(&args.benchmark);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("  {l}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}{}",
            u8::from(trace),
            out.status,
            last,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let parsed = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    Ok(ChildRun {
        workload: workload.to_string(),
        seed,
        trace,
        line: last.to_string(),
        parsed,
    })
}

pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let benchmark = crate::report::load_benchmark(&args.benchmark)?;
    let seconds = if args.quick {
        QUICK_SECONDS
    } else {
        benchmark
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?
    };
    let names: Vec<String> = if args.workloads.is_empty() {
        SPECS.iter().map(|s| s.name.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let host = Fingerprint::collect();
    println!(
        "pipes-benchmark: seed {}, {} s per run{}, host: {} x {}, commit {}, {}, {}",
        args.seed,
        seconds,
        if args.quick {
            " (--quick: sample-count floors relaxed)"
        } else {
            ""
        },
        host.nproc,
        host.cpu,
        host.commit,
        host.rustc,
        host.features
    );

    let mut runs = Vec::new();
    let mut wrong = Vec::new();
    for name in &names {
        let spec =
            crate::workloads::spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        println!("== {name}: {}", spec.why);
        for r in 0..args.runs.max(1) {
            for trace in [false, true] {
                // Repeated runs repeat the end-to-end side only.
                if trace && r > 0 {
                    continue;
                }
                let seed = args.seed + r;
                println!("-- {name}  seed {seed}  trace {}", u8::from(trace));
                let run = run_child(args, name, seed, seconds, trace)?;
                print_metrics(&run);
                if run.parsed.get("correct") != Some(&Json::Bool(true)) {
                    wrong.push(format!("{name} (seed {seed}, trace {})", u8::from(trace)));
                }
                runs.push(run);
            }
        }
    }

    let mut doc = format!(
        "{{\"host\": {}, \"seed\": {}, \"quick\": {}, \"seconds\": {}, \"runs\": [",
        host.to_json(),
        args.seed,
        args.quick,
        seconds
    );
    for (i, run) in runs.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}",
            if i > 0 { ", " } else { "" },
            quote(&run.workload),
            run.seed,
            u8::from(run.trace),
            // Splice the child's own keys in: its line is one JSON object.
            run.line.trim_start().strip_prefix('{').unwrap_or(&run.line)
        );
    }
    doc.push_str("]}");

    let out = args.out.clone().unwrap_or_else(|| {
        args.dir
            .join("out")
            .join(format!("suite-seed{}.json", args.seed))
    });
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if args.record {
        let path = args.dir.join("history.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{doc}").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("appended to {}", path.display());
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("incorrect output on: {}", wrong.join(", ")))
    }
}

fn print_metrics(run: &ChildRun) {
    let get = |k: &str| run.parsed.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "  correct {}  ops_attempted {}  ops_failed {}  failed_share {:.6}",
        run.parsed.get("correct") == Some(&Json::Bool(true)),
        get("attempted"),
        get("failed"),
        get("failed") / get("attempted").max(1.0)
    );
    if let Some(metrics) = run.parsed.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            println!(
                "  {:<34} {:>16.4} {}",
                name,
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }
}
