//! Experiment runner: regenerates every table/figure of the reproduction.
//!
//! ```text
//! experiments all            # full pass (minutes)
//! experiments all --quick    # small workloads (seconds)
//! experiments e5 e6          # selected experiments (e1..e19)
//! ```
//!
//! A full run of E14–E19 appends one line to
//! `bench-history/experiments.jsonl`; a `--quick` run writes nothing.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if ids.is_empty() {
        eprintln!("usage: experiments <e1..e19|all> [--quick]");
        eprintln!("running 'all --quick' by default\n");
        pipes_bench::experiments::run("all", true);
        return;
    }
    for id in ids {
        pipes_bench::experiments::run(id, quick);
    }
}
