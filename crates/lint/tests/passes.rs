//! The three structural passes each demonstrably fire on a committed
//! seeded-violation fixture (`tests/fixtures/seeded/`), and the real
//! workspace stays clean with the coverage counters proving the passes
//! saw real code rather than silently matching nothing.
//!
//! Fixtures are fed through [`pipes_lint::analyze`] under synthetic
//! `kernel/src/...` path labels: every pass family applies
//! ([`Config::all_paths`]), and the label avoids a `tests` component so
//! rule 4's test-file exemption does not kick in.

use pipes_lint::{analyze, collect_sources, Config, Outcome};
use std::path::PathBuf;

fn run(name: &str, src: &str) -> Outcome {
    let sources = vec![(PathBuf::from(name), src.to_string())];
    analyze(&sources, &Config::all_paths())
}

fn render(o: &Outcome) -> String {
    o.violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn lock_order_fires_on_seeded_inversion_and_self_loop() {
    let o = run(
        "kernel/src/lock_cycle.rs",
        include_str!("fixtures/seeded/lock_cycle.rs"),
    );
    assert_eq!(
        o.violations.len(),
        2,
        "exactly the seeded pair:\n{}",
        render(&o)
    );
    assert!(o.violations.iter().all(|v| v.rule == "lock-order"));
    let cycle = &o.violations[0];
    assert_eq!(cycle.line, 15, "cycle anchored at the first `a → b` hop");
    assert!(
        cycle.msg.contains("cycle over {a → b}"),
        "got: {}",
        cycle.msg
    );
    assert!(cycle.msg.contains("Pair::forward") && cycle.msg.contains("Pair::backward"));
    let reentrant = &o.violations[1];
    assert_eq!(reentrant.line, 29);
    assert!(
        reentrant.msg.contains("not reentrant"),
        "got: {}",
        reentrant.msg
    );
}

#[test]
fn atomic_pairing_fires_on_seeded_one_armed_fences() {
    let o = run(
        "kernel/src/atomic_unpaired.rs",
        include_str!("fixtures/seeded/atomic_unpaired.rs"),
    );
    assert_eq!(
        o.violations.len(),
        2,
        "both one-armed fields, nothing else:\n{}",
        render(&o)
    );
    assert!(o.violations.iter().all(|v| v.rule == "atomic-pairing"));
    let release_only = &o.violations[0];
    assert_eq!(release_only.line, 16);
    assert!(
        release_only.msg.contains("`published`"),
        "got: {}",
        release_only.msg
    );
    assert!(release_only.msg.contains("no Acquire"));
    let acquire_only = &o.violations[1];
    assert_eq!(acquire_only.line, 25);
    assert!(
        acquire_only.msg.contains("`consumed`"),
        "got: {}",
        acquire_only.msg
    );
    assert!(acquire_only.msg.contains("nothing to acquire"));
    // `ready` is paired and silent.
    assert!(!render(&o).contains("ready"));
}

#[test]
fn blocking_while_locked_fires_but_condvar_shape_is_exempt() {
    let o = run(
        "kernel/src/blocking_locked.rs",
        include_str!("fixtures/seeded/blocking_locked.rs"),
    );
    assert_eq!(
        o.violations.len(),
        2,
        "park + foreign-guard wait only (the guard-passing wait is exempt):\n{}",
        render(&o)
    );
    assert!(o
        .violations
        .iter()
        .all(|v| v.rule == "blocking-while-locked"));
    let park = &o.violations[0];
    assert_eq!(park.line, 17);
    assert!(
        park.msg.contains("`park()`") && park.msg.contains("`items`"),
        "got: {}",
        park.msg
    );
    let wait = &o.violations[1];
    assert_eq!(wait.line, 24);
    assert!(
        wait.msg.contains("`wait()`") && wait.msg.contains("`side`"),
        "got: {}",
        wait.msg
    );
    // The wait was passed `guard`, so `items` itself is not reported.
    assert!(!wait.msg.contains("`items`"), "got: {}", wait.msg);
}

#[test]
fn seeded_fixtures_are_committed_and_skipped_by_real_scans() {
    // The corpus must exist on disk (not only in include_str! history)...
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded");
    for f in ["lock_cycle.rs", "atomic_unpaired.rs", "blocking_locked.rs"] {
        assert!(dir.join(f).is_file(), "missing committed fixture {f}");
    }
    // ...and the workspace scan must never pick it up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root, &Config::default()).expect("scan workspace");
    assert!(
        sources
            .iter()
            .all(|(p, _)| !p.starts_with("crates/lint/tests/fixtures")),
        "fixture corpus leaked into the real scan"
    );
}

#[test]
fn workspace_is_clean_with_zero_waivers_and_real_coverage() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = Config::default();
    let sources = collect_sources(&root, &cfg).expect("scan workspace");
    let o = analyze(&sources, &cfg);
    assert!(
        o.violations.is_empty(),
        "workspace findings:\n{}",
        render(&o)
    );
    assert!(
        o.waivers.is_empty(),
        "workspace expectation is zero waivers"
    );
    // Coverage floor: the passes must keep seeing real code. If a parser
    // regression silently dropped every function, these would catch it.
    // Re-derived when telemetry became one snapshot of the graph: 1452 →
    // 1454 fns walked (floor stays 1400: `Monitor`'s registration methods,
    // three Prometheus entry points and the setters of the duplicated
    // counters went, the telemetry tests came), 26 → 25 lock fields (floor
    // 25 → 24: `Monitor` holds one series map instead of three parallel
    // vectors and `NodeStats` no name lock; the graph gained its latency
    // slot), 46 → 44 atomic fields (floor 44 → 42: `NodeStats` lost the
    // heartbeat, queue-length and memory cells, `NodeMeta` its state-bytes
    // cell; the splice test's gated source brought two), 17 → 6 nested
    // acquisitions (floor 15 → 5: the twelve that went were `Monitor`
    // taking nodes → metas → series in six places; `push_node` and
    // `enable_latency_tracking` now take the latency slot under `nodes`,
    // and `meta_snapshot`'s nodes → incoming moved behind a helper).
    // Exact sums (`ExactSum`, its fixed-point form, the combinable CQL
    // aggregate and their tests) took it to 1486 fns; the other three
    // counts did not move, so no floor changed.
    assert!(
        o.stats.functions > 1400,
        "only {} fns walked",
        o.stats.functions
    );
    assert!(
        o.stats.lock_fields >= 24,
        "only {} lock fields",
        o.stats.lock_fields
    );
    // The metadata plane's seqlock block (crates/meta/src/nodemeta.rs)
    // alone contributes eight atomic cells, and the hot-topology work added
    // the graph's topology epoch plus the work-stealing run's stop flag
    // and rebalance epoch, and the ready set its port mirrors, per-node
    // summaries and publication counter; losing sight of them would mean
    // the atomic passes stopped walking those crates.
    assert!(
        o.stats.atomic_fields >= 42,
        "only {} atomic fields",
        o.stats.atomic_fields
    );
    assert!(
        o.stats.nested_acquisitions >= 5,
        "only {} nested acquisitions",
        o.stats.nested_acquisitions
    );
    // Pin one real edge the walker must keep seeing: downstream_ids
    // acquires an `incoming` mutex under the `nodes` read lock.
    assert!(
        o.lock_edges
            .iter()
            .any(|e| e.from.key == "nodes" && e.to.key == "incoming"),
        "lost the nodes → incoming edge from QueryGraph::downstream_ids"
    );
    // And the telemetry registration: push_node reads the latency slot
    // under the `nodes` write lock (the same order
    // enable_latency_tracking sweeps in), so the lock-order pass must keep
    // seeing the one place a node enters the graph.
    assert!(
        o.lock_edges
            .iter()
            .any(|e| e.from.key == "nodes" && e.to.key == "latency"),
        "lost the nodes → latency edge from QueryGraph::push_node"
    );
}

#[test]
fn hot_topology_modules_stay_in_coverage() {
    // The dynamic re-planning machinery carries exactly the kind of state
    // the structural passes exist to guard: the growable group table's
    // slot vector behind a `RwLock`, the graph's topology epoch, and the
    // rebalance/claim words. Pin each module's coverage individually so a
    // path-matching regression cannot silently drop one of them from the
    // scan while the workspace totals still look healthy.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = Config::default();
    let sources = collect_sources(&root, &cfg).expect("scan workspace");
    let module = |suffix: &str| -> Outcome {
        let subset: Vec<_> = sources
            .iter()
            .filter(|(p, _)| p.ends_with(suffix))
            .cloned()
            .collect();
        assert_eq!(subset.len(), 1, "expected exactly one {suffix} in scan");
        analyze(&subset, &cfg)
    };

    // crates/sched/src/steal.rs: the group-ownership table. Its slot
    // vector lives behind a RwLock (grown under the write guard while
    // claim/steal transitions run under the read guard).
    let steal = module("crates/sched/src/steal.rs");
    assert!(steal.violations.is_empty() && steal.waivers.is_empty());
    assert!(
        steal.stats.lock_fields >= 1,
        "lost sight of GroupTable's states RwLock ({} lock fields)",
        steal.stats.lock_fields
    );

    // crates/sched/src/executor.rs: the one quantum routine and the
    // single-thread driver. It declares no lock of its own — the stop flag
    // is the caller's, the parker lives in steal.rs — so what is pinned is
    // that its functions are still walked and stay clean.
    let exec = module("crates/sched/src/executor.rs");
    assert!(exec.violations.is_empty() && exec.waivers.is_empty());
    assert!(
        exec.stats.functions >= 15,
        "lost sight of the quantum routine ({} fns walked)",
        exec.stats.functions
    );

    // crates/graph/src/graph.rs: the topology epoch is one of the graph's
    // atomics (with the edge-id counter and the removed flag), and the node
    // table keeps its nodes → incoming edge.
    let graph = module("crates/graph/src/graph.rs");
    assert!(graph.violations.is_empty() && graph.waivers.is_empty());
    assert!(
        graph.stats.atomic_fields >= 2,
        "lost the graph's topology-epoch/removed atomics ({} atomic fields)",
        graph.stats.atomic_fields
    );
    assert!(
        graph
            .lock_edges
            .iter()
            .any(|e| e.from.key == "nodes" && e.to.key == "incoming"),
        "lost the nodes → incoming edge inside graph.rs alone"
    );

    // crates/graph/src/ready.rs: the readiness cells are atomics end to end
    // — port mirrors (len, head, strict), per-node summaries (queued, head,
    // finished, memory), the ready bitmap, the publication counter and the
    // hub's unfinished count — behind one lock, the wake hook's. Every one
    // of their Relaxed orderings carries its justification, and every
    // Release side its Acquire.
    let ready = module("crates/graph/src/ready.rs");
    assert!(ready.violations.is_empty() && ready.waivers.is_empty());
    assert!(
        ready.stats.atomic_fields >= 10,
        "lost sight of the readiness cells ({} atomic fields)",
        ready.stats.atomic_fields
    );
    assert!(
        ready.stats.lock_fields >= 1,
        "lost the wake hook's RwLock ({} lock fields)",
        ready.stats.lock_fields
    );

    // crates/graph/src/node.rs and shuffle.rs: the step kernel (frontier
    // probe, emitters, the four node kinds) and the shuffle stages with the
    // resize protocol. node.rs declares no lock or atomic of its own — it
    // works through the edges' — so what is pinned is that its functions
    // are still walked and stay clean; shuffle.rs keeps the registry's
    // mutex and the merge → incoming nesting of a resize.
    let node = module("crates/graph/src/node.rs");
    assert!(node.violations.is_empty() && node.waivers.is_empty());
    assert!(
        node.stats.functions >= 60,
        "lost sight of the step kernel ({} fns walked)",
        node.stats.functions
    );
    let shuffle = module("crates/graph/src/shuffle.rs");
    assert!(shuffle.violations.is_empty() && shuffle.waivers.is_empty());
    assert!(
        shuffle.stats.functions >= 45,
        "lost sight of the shuffle stages ({} fns walked)",
        shuffle.stats.functions
    );
    assert!(
        shuffle.stats.lock_fields >= 1,
        "lost the shuffle registry's mutex ({} lock fields)",
        shuffle.stats.lock_fields
    );
    assert!(
        shuffle.stats.nested_acquisitions >= 1,
        "lost the merge → incoming nesting of Group::respawn"
    );

    // crates/sched/src/worker.rs: the leader's replan path re-derives the
    // plan and grows the table while workers run; its coordination words
    // (rebalance epoch, claim words) are atomics the pairing pass walks.
    let worker = module("crates/sched/src/worker.rs");
    assert!(worker.violations.is_empty() && worker.waivers.is_empty());
    assert!(
        worker.stats.atomic_fields >= 1,
        "lost the worker's rebalance/claim atomics ({} atomic fields)",
        worker.stats.atomic_fields
    );
}
