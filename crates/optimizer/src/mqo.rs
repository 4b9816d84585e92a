//! The multi-query optimizer.

use crate::catalog::Catalog;
use crate::compile::{compile, install_keys, output_schema, CompileContext};
use crate::cost::{estimate_with_sunk, PlanEstimate};
use crate::plan::LogicalPlan;
use crate::rules;
use crate::value::{Schema, Tuple};
use pipes_graph::{NodeId, QueryGraph, StreamHandle};
use std::collections::{HashMap, HashSet};

/// Outcome of installing one query into the running graph.
#[derive(Debug)]
pub struct InstallReport {
    /// Publication point of the query's result stream.
    pub handle: StreamHandle<Tuple>,
    /// Output schema.
    pub schema: Schema,
    /// The plan variant that was chosen.
    pub chosen: LogicalPlan,
    /// Its estimated marginal cost (shared subplans are free).
    pub estimate: PlanEstimate,
    /// Snapshot-equivalent variants that were considered.
    pub variants_considered: usize,
    /// Physical nodes newly created.
    pub created: usize,
    /// Existing subplans reused via publish–subscribe.
    pub reused: usize,
}

/// The rule-based multi-query optimizer of PIPES.
///
/// For every new query it heuristically enumerates snapshot-equivalent plan
/// variants, probes each against the currently running query graph (whose
/// installed subplans are keyed by their plan value: a node is shared only
/// with an equal plan), picks the best-matching plan by marginal cost, and
/// splices only the missing operators into the graph via the
/// publish–subscribe architecture.
pub struct Optimizer {
    installed: HashMap<LogicalPlan, StreamHandle<Tuple>>,
    /// The variant compiled for each installed plan, one per install,
    /// latest last.
    compiled: HashMap<LogicalPlan, Vec<LogicalPlan>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer {
    /// Creates an optimizer with an empty running-plan index.
    pub fn new() -> Self {
        Optimizer {
            installed: HashMap::new(),
            compiled: HashMap::new(),
        }
    }

    /// Number of installed (shareable) subplans.
    pub fn installed_count(&self) -> usize {
        self.installed.len()
    }

    /// Which subplans of `plan` already run.
    fn sunk<'p>(&self, plan: &'p LogicalPlan, out: &mut HashSet<&'p LogicalPlan>) {
        if self.installed.contains_key(plan) {
            out.insert(plan);
            // Children are covered by the shared node transitively.
            return;
        }
        for child in plan.inputs() {
            self.sunk(child, out);
        }
    }

    /// Dynamic re-optimization (the paper's "dynamic case"): retires a
    /// query's plan from the running graph. Walks every subplan an install
    /// of `plan` registers (`compile::install_keys`), consumers before what
    /// they consume, and removes each one's node once no consumer
    /// subscribes to it anymore — shared subplans survive as long as any
    /// other query uses them, and nodes no subplan of `plan` names are
    /// never touched. Pass the variant that was compiled
    /// ([`InstallReport::chosen`]), after unsubscribing the query's sinks
    /// (e.g. having installed a replacement plan and re-pointed the
    /// application). Returns the number of nodes removed.
    pub fn retire(&mut self, plan: &LogicalPlan, graph: &QueryGraph) -> usize {
        let mut removed = 0;
        for key in install_keys(plan) {
            let Some(node) = self.installed.get(&key).map(StreamHandle::node) else {
                continue;
            };
            // A removed node is an elided rename's input, freed earlier in the walk.
            if !graph.is_removed(node) {
                if graph.subscriber_count(node) > 0 {
                    continue;
                }
                graph.remove_node(node);
                removed += 1;
            }
            self.installed.remove(&key);
        }
        removed
    }

    /// Uninstalls a query live: removes its application sink (which
    /// unsubscribes the query from its result stream) and then
    /// [`Optimizer::retire`]s the variant its latest install of `plan`
    /// compiled. The whole path is safe to call while executors are
    /// running — each removal bumps the graph's topology epoch, and workers
    /// pick the shrunken topology up at their next re-plan; shared prefixes
    /// keep flowing (and keep their warm [`pipes_graph::NodeEstimate`]s)
    /// because the other subscribers hold them live. Returns the number of
    /// nodes removed, the sink included.
    pub fn uninstall(&mut self, plan: &LogicalPlan, sink: NodeId, graph: &QueryGraph) -> usize {
        graph.remove_node(sink);
        let chosen = self.compiled.get_mut(plan).and_then(Vec::pop);
        if self.compiled.get(plan).is_some_and(Vec::is_empty) {
            self.compiled.remove(plan);
        }
        1 + self.retire(chosen.as_ref().unwrap_or(plan), graph)
    }

    /// Installs a query into the running `graph`: enumerate variants, pick
    /// the cheapest under sharing, compile, and register new subplans.
    pub fn install(
        &mut self,
        plan: &LogicalPlan,
        graph: &QueryGraph,
        catalog: &Catalog,
    ) -> Result<InstallReport, String> {
        // Validate eagerly so errors carry the user's plan, not a variant.
        let schema = output_schema(plan, catalog)?;

        let variants = rules::enumerate(plan, catalog);
        let variants_considered = variants.len();
        let mut best: Option<(LogicalPlan, PlanEstimate)> = None;
        for v in variants {
            // A variant must still be valid (rules preserve this; verify).
            if output_schema(&v, catalog).is_err() {
                continue;
            }
            let mut sunk = HashSet::new();
            self.sunk(&v, &mut sunk);
            let est = estimate_with_sunk(&v, catalog, &sunk);
            let better = match &best {
                None => true,
                Some((_, b)) => est.cost < b.cost,
            };
            if better {
                best = Some((v, est));
            }
        }
        let (chosen, estimate) = best.ok_or_else(|| "no valid plan variant".to_string())?;

        let mut ctx = CompileContext::new(graph, catalog, &mut self.installed);
        let handle = compile(&chosen, &mut ctx)?;
        let (created, reused) = (ctx.created, ctx.reused);
        self.compiled
            .entry(plan.clone())
            .or_default()
            .push(chosen.clone());
        Ok(InstallReport {
            handle,
            schema,
            chosen,
            estimate,
            variants_considered,
            created,
            reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::plan::WindowSpec;
    use crate::value::{Schema, Value};
    use pipes_graph::io::{CollectSink, VecSource};
    use pipes_graph::NodeKind;
    use pipes_time::{Duration, Element, Timestamp};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_stream(
            "s",
            Schema::of(&["k", "v"]),
            500.0,
            Box::new(|| {
                let elems = (0..20i64)
                    .map(|i| {
                        Element::at(
                            vec![Value::Int(i % 4), Value::Int(i)],
                            Timestamp::new(i as u64),
                        )
                    })
                    .collect();
                Box::new(VecSource::new(elems))
            }),
        );
        cat
    }

    fn windowed() -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(LogicalPlan::Stream {
                name: "s".into(),
                alias: None,
            }),
            spec: WindowSpec::Time(Duration::from_ticks(8)),
        }
    }

    fn filter(plan: LogicalPlan, lo: i64) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: Expr::bin(Expr::col("v"), BinOp::Ge, Expr::lit(lo)),
        }
    }

    #[test]
    fn install_runs_and_produces_results() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let report = opt.install(&filter(windowed(), 15), &graph, &cat).unwrap();
        assert!(report.variants_considered >= 1);
        assert_eq!(report.schema.len(), 2);

        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &report.handle);
        graph.run_to_completion(16);
        let vals: Vec<i64> = buf
            .lock()
            .iter()
            .map(|e| e.payload[1].as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn overlapping_queries_share_subplans() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();

        let r1 = opt.install(&filter(windowed(), 10), &graph, &cat).unwrap();
        let nodes_after_first = graph.len();
        assert_eq!(r1.reused, 0);

        let r2 = opt.install(&filter(windowed(), 18), &graph, &cat).unwrap();
        // The second query shares at least the source scan; strictly fewer
        // nodes are created than a standalone install would need.
        assert!(r2.reused >= 1, "expected sharing, report: {r2:?}");
        assert!(r2.created < r1.created + r1.reused);
        assert!(graph.len() < 2 * nodes_after_first);
    }

    #[test]
    fn identical_query_is_fully_shared() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let q = filter(windowed(), 5);
        opt.install(&q, &graph, &cat).unwrap();
        let before = graph.len();
        let r = opt.install(&q, &graph, &cat).unwrap();
        assert_eq!(graph.len(), before, "no new nodes for identical query");
        assert_eq!(r.created, 0);
        assert!(r.estimate.cost == 0.0, "fully sunk: {:?}", r.estimate);
    }

    #[test]
    fn splicing_into_running_graph_yields_partial_results() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let r1 = opt.install(&filter(windowed(), 0), &graph, &cat).unwrap();
        let (s1, b1) = CollectSink::new();
        graph.add_sink("q1", s1, &r1.handle);

        // Let the graph run half-way, then splice in a second query.
        for _ in 0..6 {
            for id in graph.node_ids() {
                graph.step_node(id, 1);
            }
        }
        let r2 = opt.install(&filter(windowed(), 0), &graph, &cat).unwrap();
        let (s2, b2) = CollectSink::new();
        graph.add_sink("q2", s2, &r2.handle);
        graph.run_to_completion(16);

        assert_eq!(b1.lock().len(), 20);
        // The late query sees only the suffix produced after splicing.
        let late = b2.lock().len();
        assert!(late < 20, "late subscriber got {late}");
    }

    #[test]
    fn uninstall_retires_only_unshared_suffix_and_keeps_prefix_warm() {
        use pipes_graph::{Confidence, MetaConfig};

        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let q1 = filter(windowed(), 10);
        let q2 = filter(windowed(), 18);

        let r1 = opt.install(&q1, &graph, &cat).unwrap();
        let (s1, _b1) = CollectSink::new();
        let k1 = graph.add_sink("q1", s1, &r1.handle);
        let r2 = opt.install(&q2, &graph, &cat).unwrap();
        assert!(r2.reused >= 1, "queries must share a prefix: {r2:?}");
        let (s2, _b2) = CollectSink::new();
        let k2 = graph.add_sink("q2", s2, &r2.handle);

        // Warm the metadata plane: run a few quanta over every node.
        for _ in 0..6 {
            for id in graph.node_ids() {
                graph.step_node(id, 4);
            }
        }
        let installed_before = opt.installed_count();
        let live_before: Vec<_> = graph.node_ids().collect();

        // Uninstall q2 while q1 still subscribes to the shared prefix:
        // only q2's sink and its unshared suffix go away.
        let removed = opt.uninstall(&q2, k2, &graph);
        assert!(removed >= 2, "sink + at least the unshared filter");
        assert!(graph.is_removed(k2));
        assert!(graph.is_removed(r2.handle.node()));
        assert!(!graph.is_removed(k1));
        assert!(!graph.is_removed(r1.handle.node()));
        assert!(
            opt.installed_count() < installed_before,
            "q2's suffix left the sharing index"
        );
        assert!(
            graph.node_ids().count() < live_before.len(),
            "the graph shrank"
        );

        // The surviving prefix keeps its warm estimates: whatever was
        // Measured before the uninstall is still Measured after it.
        let snap = graph.meta_snapshot(&MetaConfig::default());
        for id in graph.node_ids() {
            if id == k1 {
                continue; // the sink consumes; it never measures output
            }
            let e = snap.get(id).expect("live node has an estimate");
            assert_eq!(
                e.confidence,
                Confidence::Measured,
                "node {id} ({}) went cold across the uninstall",
                e.name
            );
        }

        // Uninstalling the last query drains the whole graph.
        opt.uninstall(&q1, k1, &graph);
        assert_eq!(opt.installed_count(), 0);
        assert_eq!(graph.node_ids().count(), 0, "no orphans survive");
    }

    #[test]
    fn spliced_nodes_enter_snapshot_derived_from_warm_upstream() {
        use pipes_graph::{Confidence, MetaConfig};

        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let r1 = opt.install(&filter(windowed(), 10), &graph, &cat).unwrap();
        let (s1, _b1) = CollectSink::new();
        graph.add_sink("q1", s1, &r1.handle);

        // Warm the running prefix.
        for _ in 0..6 {
            for id in graph.node_ids() {
                graph.step_node(id, 4);
            }
        }

        // Splice a prefix-sharing query in: its new filter node has never
        // executed a quantum, but its upstream is warm, so the very first
        // snapshot already carries a Derived estimate (not a bare Prior).
        let r2 = opt.install(&filter(windowed(), 18), &graph, &cat).unwrap();
        assert!(r2.created >= 1);
        let snap = graph.meta_snapshot(&MetaConfig::default());
        let e = snap.get(r2.handle.node()).expect("spliced node visible");
        assert_eq!(
            e.confidence,
            Confidence::Derived,
            "fresh node below a warm upstream must enter Derived: {e:?}"
        );
        assert!(e.in_rate > 0.0, "derived in-rate follows the upstream");
    }

    /// `SELECT MAX(v), COUNT(*) FROM s [RANGE 8] GROUP BY k` (grouped) or
    /// its scalar form, with `EVERY 4` when `every`.
    fn max_query(grouped: bool, every: bool) -> LogicalPlan {
        use crate::plan::{AggFunc, AggSpec};
        let call = |func, name: &str| {
            let arg = Expr::col("v");
            (AggSpec { func, arg }, name.to_string())
        };
        let group_by = if grouped {
            vec![(Expr::col("k"), "k".to_string())]
        } else {
            Vec::new()
        };
        let mut exprs = vec![(Expr::col("hi"), "hi".to_string())];
        exprs.extend(group_by.iter().cloned());
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(windowed()),
                group_by,
                aggs: vec![call(AggFunc::Max, "hi"), call(AggFunc::Count, "n")],
            }),
            exprs,
        };
        if every {
            LogicalPlan::Every {
                input: Box::new(plan),
                period: Duration::from_ticks(4),
            }
        } else {
            plan
        }
    }

    /// The multiset of rows valid at each tick: the continuous twin's
    /// rows are cut at whichever watermarks its aggregate saw, so only
    /// its snapshots are fixed.
    type Rows = Vec<Vec<Tuple>>;

    fn sorted(buf: &pipes_graph::io::Collected<Tuple>) -> Rows {
        let out = buf.lock();
        (0..40)
            .map(|t| {
                let mut rows: Vec<Tuple> = out
                    .iter()
                    .filter(|e| e.interval.contains(Timestamp::new(t)))
                    .map(|e| e.payload.clone())
                    .collect();
                rows.sort();
                rows
            })
            .collect()
    }

    /// `plan`'s rows when it runs alone.
    fn solo(plan: &LogicalPlan) -> Rows {
        let cat = catalog();
        let graph = QueryGraph::new();
        let r = Optimizer::new().install(plan, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink("solo", sink, &r.handle);
        graph.run_to_completion(4);
        sorted(&buf)
    }

    fn names(graph: &QueryGraph) -> Vec<String> {
        graph
            .infos()
            .into_iter()
            .filter(|i| !i.removed)
            .map(|i| i.name)
            .collect()
    }

    /// Live nodes, sinks aside, that nothing consumes.
    fn orphans(graph: &QueryGraph) -> usize {
        (graph.infos().into_iter())
            .filter(|i| !i.removed && i.kind != NodeKind::Sink)
            .filter(|i| graph.subscriber_count(i.id) == 0)
            .count()
    }

    #[test]
    fn every_query_and_its_twin_share_in_both_orders_and_uninstall_cleanly() {
        for grouped in [false, true] {
            let every = max_query(grouped, true);
            let twin = max_query(grouped, false);
            let want = [solo(&every), solo(&twin)];
            assert!(want.iter().all(|rows| rows.iter().any(|r| !r.is_empty())));
            for every_first in [true, false] {
                for uninstall in [None, Some(0), Some(1)] {
                    let cat = catalog();
                    let graph = QueryGraph::new();
                    let mut opt = Optimizer::new();
                    let order = if every_first { [0, 1] } else { [1, 0] };
                    let plans = [&every, &twin];
                    let mut sinks = [None, None];
                    for q in order {
                        let r = opt.install(plans[q], &graph, &cat).unwrap();
                        let (sink, buf) = CollectSink::new();
                        let id = graph.add_sink("q", sink, &r.handle);
                        sinks[q] = Some((id, buf));
                    }
                    let sampled = names(&graph).iter().any(|n| n.contains("sampled"));
                    // The grid serves EVERY only when it compiles first;
                    // installed second, it reuses the twin's aggregate.
                    assert_eq!(sampled, every_first, "grouped {grouped}");
                    let Some(gone) = uninstall else {
                        graph.run_to_completion(4);
                        for q in 0..2 {
                            let (_, buf) = sinks[q].as_ref().unwrap();
                            assert_eq!(sorted(buf), want[q], "query {q}, grouped {grouped}");
                        }
                        continue;
                    };
                    // Mid-run: the survivor keeps producing everything.
                    for _ in 0..3 {
                        for id in graph.node_ids() {
                            graph.step_node(id, 2);
                        }
                    }
                    let (sink, _) = sinks[gone].take().unwrap();
                    opt.uninstall(plans[gone], sink, &graph);
                    assert_eq!(orphans(&graph), 0, "orphans survived");
                    if gone == 0 {
                        assert!(
                            names(&graph).iter().all(|n| !n.contains("sampled")),
                            "a grid node outlived its query: {:?}",
                            names(&graph)
                        );
                    }
                    graph.run_to_completion(4);
                    let keep = 1 - gone;
                    let (_, buf) = sinks[keep].as_ref().unwrap();
                    assert_eq!(
                        sorted(buf),
                        want[keep],
                        "survivor {keep}, grouped {grouped}"
                    );
                    // Uninstalling the survivor drains the graph.
                    let (sink, _) = sinks[keep].take().unwrap();
                    opt.uninstall(plans[keep], sink, &graph);
                    assert_eq!(graph.node_ids().count(), 0, "{:?}", names(&graph));
                    assert_eq!(opt.installed_count(), 0);
                }
            }
        }
    }

    #[test]
    fn unknown_stream_is_reported() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut opt = Optimizer::new();
        let bad = LogicalPlan::Stream {
            name: "missing".into(),
            alias: None,
        };
        let err = opt.install(&bad, &graph, &cat).unwrap_err();
        assert!(err.contains("missing"));
    }
}
