//! The experiments E1–E19 (see `DESIGN.md` for the paper mapping). E14–E19
//! measure through the one shared method in [`method`].

mod ablation;
mod apps;
mod batching;
mod fusion;
mod join;
mod memory;
mod meta_overhead;
pub mod method;
mod monitoring;
mod mqo;
mod ops_runs;
mod plans;
mod rate;
mod reuse;
mod sched_layers;
mod scheduling;
mod trace_overhead;
mod window_agg;

/// An experiment's entry point; the flag asks for a quick run.
type Experiment = fn(bool);

/// Every experiment, by id.
const ALL: [(&str, Experiment); 19] = [
    ("e1", apps::e1_architecture),
    ("e2", plans::e2_query_plans),
    ("e3", monitoring::e3_monitoring),
    ("e4", fusion::e4_fusion),
    ("e5", scheduling::e5_scheduling),
    ("e6", join::e6_join_framework),
    ("e7", memory::e7_memory_manager),
    ("e8", mqo::e8_multi_query),
    ("e9", rate::e9_rate_reduction),
    ("e10", apps::e10_traffic),
    ("e11", apps::e11_nexmark),
    ("e12", reuse::e12_code_reuse),
    ("e13", ablation::e13_ablation),
    ("e14", batching::e14_batching),
    ("e15", trace_overhead::e15_trace_overhead),
    ("e16", sched_layers::e16_sched_layers),
    ("e17", ops_runs::e17_ops_runs),
    ("e18", window_agg::e18_window_agg),
    ("e19", meta_overhead::e19_meta_overhead),
];

/// Runs one experiment by id (`e1`..`e19`) or `all`. `quick` shrinks the
/// workloads so a full pass finishes in seconds and writes no record.
pub fn run(which: &str, quick: bool) {
    let all = which.eq_ignore_ascii_case("all");
    for (id, experiment) in ALL {
        if all || which.eq_ignore_ascii_case(id) {
            experiment(quick);
        }
    }
}
