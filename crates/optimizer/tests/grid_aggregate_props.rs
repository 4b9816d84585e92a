//! Property tests for the sampled window aggregate that `compile` builds
//! for `EVERY` over an aggregate: `Every(p)` over `Project`/`Filter` over
//! an `Aggregate` of a `RANGE R` window, with
//! `⌈R/p⌉ ≤ TREE_CONVERT_WIDTH`, runs as those stateless nodes over the
//! aggregate on the grid layout.
//!
//! * The compiled plan and the old-shape graph hand-built from public
//!   `pipes_ops` parts — `(key, aggregates)` pairs → flatten `Map` →
//!   `Coalesce` → HAVING filter → projection → `Granularity` — give the
//!   same multiset of rows at every grid instant, for random rows (NULL,
//!   ints, non-integral floats, strings), random `R` and `p`, scalar and
//!   grouped `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, with and without HAVING, and
//!   for a reordering, computing select list as for one that only renames
//!   the aggregate's columns (which compiles to no `project` node). Plans
//!   past the width bound keep `Granularity` and must agree just the same.
//! * The compiled plan's output is byte-identical under default batching
//!   and `set_batch_limit(1)`, and a keyed-parallel copy of the grouped
//!   node (flat rows), widened mid-run with `parallelize`, reproduces it.

use pipes_graph::io::{CollectSink, Collected, VecSource};
use pipes_graph::{key_hash, NodeId, NodeKind, QueryGraph, StreamHandle};
use pipes_ops::aggregate::TREE_CONVERT_WIDTH;
use pipes_ops::{Coalesce, Granularity, GroupedAggregate, Map, ScalarAggregate, TimeWindow};
use pipes_optimizer::compile::{FlatRow, TupleAggs};
use pipes_optimizer::{
    compile, AggFunc, AggSpec, BinOp, BoundExpr, Catalog, CompileContext, Expr, LogicalPlan,
    Schema, Tuple, Value, WindowSpec,
};
use pipes_time::{Duration, Element, TimeInterval, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Pinned source budget: part of the observable input (punctuation).
const SRC_BUDGET: usize = 5;

/// One query over rows `(k, x)` of stream `s`.
#[derive(Clone, Debug)]
struct Case {
    rows: Vec<Element<Tuple>>,
    range: u64,
    period: u64,
    grouped: bool,
    having: bool,
    /// The select list only renames the aggregate's columns.
    renames: bool,
}

impl Case {
    fn sampled(&self) -> bool {
        self.range.div_ceil(self.period) <= TREE_CONVERT_WIDTH as u64
    }
}

/// `COUNT(*) AS cnt, SUM(x) AS sx, AVG(x) AS ax, MIN(x) AS mn, MAX(x) AS mx`.
fn calls() -> Vec<(AggSpec, String)> {
    [
        (AggFunc::Count, "cnt"),
        (AggFunc::Sum, "sx"),
        (AggFunc::Avg, "ax"),
        (AggFunc::Min, "mn"),
        (AggFunc::Max, "mx"),
    ]
    .into_iter()
    .map(|(func, name)| {
        let arg = Expr::col("x");
        (AggSpec { func, arg }, name.to_string())
    })
    .collect()
}

/// The aggregate's output schema.
fn agg_schema(grouped: bool) -> Schema {
    let mut cols: Vec<&str> = if grouped { vec!["k"] } else { vec![] };
    cols.extend(["cnt", "sx", "ax", "mn", "mx"]);
    Schema::of(&cols)
}

/// `HAVING COUNT(*) >= 2`.
fn having() -> Expr {
    Expr::bin(Expr::col("cnt"), BinOp::Ge, Expr::lit(2i64))
}

/// The select list: every column of the aggregate in order, renamed, if
/// `renames`; otherwise the aggregates in another order, one computed
/// column, and the key (when grouped) last.
fn select(grouped: bool, renames: bool) -> Vec<(Expr, String)> {
    if renames {
        return agg_schema(grouped)
            .columns()
            .iter()
            .map(|c| (Expr::col(c), format!("{c}_out")))
            .collect();
    }
    let mut exprs: Vec<(Expr, String)> = ["mx", "mn", "cnt", "ax", "sx"]
        .into_iter()
        .map(|c| (Expr::col(c), c.to_string()))
        .collect();
    exprs.push((
        Expr::bin(Expr::col("cnt"), BinOp::Mul, Expr::lit(10i64)),
        "cnt10".into(),
    ));
    if grouped {
        exprs.push((Expr::col("k"), "k".into()));
    }
    exprs
}

fn logical_plan(c: &Case) -> LogicalPlan {
    let window = LogicalPlan::Window {
        input: Box::new(LogicalPlan::Stream {
            name: "s".into(),
            alias: None,
        }),
        spec: WindowSpec::Time(Duration::from_ticks(c.range)),
    };
    let group_by = if c.grouped {
        vec![(Expr::col("k"), "k".to_string())]
    } else {
        Vec::new()
    };
    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(window),
        group_by,
        aggs: calls(),
    };
    if c.having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: having(),
        };
    }
    LogicalPlan::Every {
        input: Box::new(LogicalPlan::Project {
            input: Box::new(plan),
            exprs: select(c.grouped, c.renames),
        }),
        period: Duration::from_ticks(c.period),
    }
}

fn catalog(rows: &[Element<Tuple>]) -> Catalog {
    let rows = rows.to_vec();
    let mut cat = Catalog::new();
    cat.add_stream(
        "s",
        Schema::of(&["k", "x"]),
        100.0,
        Box::new(move || Box::new(VecSource::new(rows.clone()))),
    );
    cat
}

/// Steps the source first at the pinned budget, then every other node
/// with schedule-chosen rotation and budgets, until the graph drains.
fn drive(graph: &QueryGraph, src: NodeId, sched: &[usize]) {
    let pick = |i: usize| sched[i % sched.len()];
    let mut round = 0usize;
    while !graph.all_finished() {
        if !graph.is_finished(src) {
            graph.step_node(src, SRC_BUDGET);
        }
        let ids: Vec<NodeId> = graph.node_ids().filter(|&id| id != src).collect();
        let off = pick(round) % ids.len().max(1);
        for i in 0..ids.len() {
            let id = ids[(i + off) % ids.len()];
            if !graph.is_finished(id) {
                graph.step_node(id, 1 + pick(round + i) % 13);
            }
        }
        round += 1;
        assert!(round < 100_000, "graph wedged");
    }
}

fn source_of(graph: &QueryGraph) -> NodeId {
    graph
        .infos()
        .into_iter()
        .find(|i| i.kind == NodeKind::Source)
        .expect("a source")
        .id
}

/// The compiled plan's node names and its output, driven by `sched`.
fn run_compiled(
    c: &Case,
    batch_limit: Option<usize>,
    sched: &[usize],
) -> (Vec<String>, Vec<Element<Tuple>>) {
    let cat = catalog(&c.rows);
    let graph = QueryGraph::new();
    let mut installed = HashMap::new();
    let mut ctx = CompileContext::new(&graph, &cat, &mut installed);
    let handle = compile(&logical_plan(c), &mut ctx).expect("compiles");
    let names = graph.infos().into_iter().map(|i| i.name).collect();
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &handle);
    if let Some(limit) = batch_limit {
        graph.set_batch_limit(limit);
    }
    drive(&graph, source_of(&graph), sched);
    let out = out.lock().clone();
    (names, out)
}

fn bind(e: &Expr, grouped: bool) -> BoundExpr {
    e.bind(&agg_schema(grouped)).expect("binds")
}

fn tuple_aggs() -> TupleAggs {
    let calls = calls();
    TupleAggs::bind(calls.iter().map(|(a, _)| a), &Schema::of(&["k", "x"])).expect("binds")
}

fn group_key(t: &Tuple) -> Vec<Value> {
    vec![t[0].clone()]
}

/// An old-shape `(key, aggregates)` pair as one row.
fn flatten((mut k, aggs): (Vec<Value>, Tuple)) -> Tuple {
    k.extend(aggs);
    k
}

/// HAVING (if any) and the select list over aggregate rows, added to
/// `graph` the way the old plans ran them: a filter node, then a map.
fn add_select(graph: &QueryGraph, c: &Case, rows: &StreamHandle<Tuple>) -> StreamHandle<Tuple> {
    let rows = if c.having {
        let pred = bind(&having(), c.grouped);
        graph.add_unary(
            "having",
            pipes_ops::Filter::new(move |t: &Tuple| pred.eval(t).truthy()),
            rows,
        )
    } else {
        rows.clone()
    };
    let exprs: Vec<BoundExpr> = select(c.grouped, c.renames)
        .iter()
        .map(|(e, _)| bind(e, c.grouped))
        .collect();
    graph.add_unary(
        "project",
        Map::new(move |t: Tuple| exprs.iter().map(|b| b.eval(&t)).collect::<Tuple>()),
        &rows,
    )
}

/// The old plan shape: the unsampled aggregate (flattened when grouped),
/// `Coalesce`, HAVING, the select list, `Granularity`.
fn run_old_shape(c: &Case) -> Vec<Element<Tuple>> {
    let graph = QueryGraph::new();
    let src = graph.add_source("src", VecSource::new(c.rows.clone()));
    let win = graph.add_unary(
        "window",
        TimeWindow::new(Duration::from_ticks(c.range)),
        &src,
    );
    let rows = if c.grouped {
        let groups = graph.add_unary(
            "aggregate[grouped]",
            GroupedAggregate::new(group_key, tuple_aggs()),
            &win,
        );
        graph.add_unary("flatten", Map::new(flatten), &groups)
    } else {
        graph.add_unary("aggregate", ScalarAggregate::new(tuple_aggs()), &win)
    };
    let coalesced = graph.add_unary("coalesce", Coalesce::new(), &rows);
    let selected = add_select(&graph, c, &coalesced);
    let sampled = graph.add_unary(
        "every",
        Granularity::new(Duration::from_ticks(c.period)),
        &selected,
    );
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &sampled);
    graph.run_to_completion(7);
    let out = out.lock().clone();
    out
}

/// A grouped case hand-built with the sampled grouped aggregate behind a
/// keyed-parallel shuffle edge (one instance), publishing flat rows as the
/// compiled plan's does, under its HAVING and select list.
fn keyed_sampled(c: &Case) -> (QueryGraph, NodeId, Collected<Tuple>) {
    let graph = QueryGraph::new();
    let src = graph.add_source("src", VecSource::new(c.rows.clone()));
    let win = graph.add_unary(
        "window",
        TimeWindow::new(Duration::from_ticks(c.range)),
        &src,
    );
    let period = Duration::from_ticks(c.period);
    let rows = graph.add_keyed_unary(
        "aggregate[grouped, sampled]",
        move || GroupedAggregate::sampled(group_key, tuple_aggs(), period).with_rows(FlatRow),
        Arc::new(|t: &Tuple| key_hash(&group_key(t))),
        1,
        // The single instance emits instant by instant, keys in order
        // within an instant; a row starts with its one key column.
        Some(Arc::new(|a: &Element<Tuple>, b: &Element<Tuple>| {
            (a.start(), &a.payload[..1]).cmp(&(b.start(), &b.payload[..1]))
        })),
        &win,
    );
    let out_h = add_select(&graph, c, &rows);
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &out_h);
    let src = src.node();
    (graph, src, out)
}

/// Rows as a multiset per grid instant: sorted `(interval, payload)`.
fn per_instant(out: &[Element<Tuple>]) -> Vec<(TimeInterval, Tuple)> {
    let mut rows: Vec<(TimeInterval, Tuple)> = out
        .iter()
        .map(|e| (e.interval, e.payload.clone()))
        .collect();
    rows.sort();
    rows
}

/// Checks the compiled plan of `c` against the old shape and across
/// batching; returns its output.
fn check_case(c: &Case, sched: &[usize]) -> Result<Vec<Element<Tuple>>, TestCaseError> {
    let (names, batched) = run_compiled(c, None, sched);
    let has = |needle: &str| names.iter().any(|n| n.contains(needle));
    prop_assert_eq!(has("project"), !c.renames, "select list vs {:?}", names);
    prop_assert!(!has("flatten"), "a flatten node in {:?}", names);
    if c.sampled() {
        for banned in ["every[", "coalesce"] {
            prop_assert!(!has(banned), "{} in {:?}", banned, names);
        }
        prop_assert!(has("sampled"), "no sampled aggregate in {:?}", names);
    } else {
        prop_assert!(has("every["), "past the width bound: {:?}", names);
        prop_assert!(!has("sampled"), "past the width bound: {:?}", names);
    }
    let (_, per_message) = run_compiled(c, Some(1), sched);
    prop_assert_eq!(&per_message, &batched, "batch limit 1 vs default");
    prop_assert_eq!(
        per_instant(&batched),
        per_instant(&run_old_shape(c)),
        "compiled plan vs old shape"
    );
    Ok(batched)
}

/// One `x`: NULL, ints, non-integral floats, a float equal to an int, a
/// string.
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..100, -40i64..40, 0usize..4).prop_map(|(kind, n, f)| match kind {
        0..=11 => Value::Null,
        12..=41 => Value::Int(n),
        42..=81 => Value::Float(n as f64 * [0.1, 0.3, 1e-3, 7.7][f]),
        82..=91 => Value::Float(n as f64),
        _ => Value::str(["a", "b", "c", "ab"][f]),
    })
}

/// Start-ordered rows `(k, x)` on a 5-tick raster: many share a
/// timestamp (so a source batch often ends inside a burst and punctuates
/// at its timestamp), many start on a grid instant, and gaps leave grid
/// instants empty.
fn arb_rows() -> impl Strategy<Value = Vec<Element<Tuple>>> {
    prop::collection::vec((0i64..3, arb_value(), 0u64..80), 0..48).prop_map(|raw| {
        let mut ts: Vec<u64> = raw.iter().map(|r| 5 * r.2).collect();
        ts.sort_unstable();
        raw.into_iter()
            .zip(ts)
            .map(|((k, x, _), t)| Element::at(vec![Value::Int(k), x], Timestamp::new(t)))
            .collect()
    })
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        arb_rows(),
        1u64..150,
        1u64..60,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(rows, range, period, grouped, having, renames)| Case {
            rows,
            range,
            period,
            grouped,
            having,
            renames,
        })
}

fn arb_sched() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..97, 1..16)
}

/// Rows 3 ticks apart over `[0, 600)`, two keys, mixed values.
fn steady_rows() -> Vec<Element<Tuple>> {
    (0..200u64)
        .map(|i| {
            let x = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.1)
            };
            Element::at(vec![Value::Int((i % 2) as i64), x], Timestamp::new(3 * i))
        })
        .collect()
}

fn case(rows: Vec<Element<Tuple>>, range: u64, period: u64, grouped: bool) -> Case {
    Case {
        rows,
        range,
        period,
        grouped,
        having: false,
        renames: false,
    }
}

#[test]
fn period_longer_than_the_window() {
    for grouped in [false, true] {
        let c = case(steady_rows(), 10, 25, grouped);
        let out = check_case(&c, &[3]).unwrap();
        assert!(!out.is_empty());
        assert!(out.iter().all(|e| e.start().ticks() % 25 == 0));
    }
}

#[test]
fn empty_grid_instants_produce_no_row() {
    // Two bursts far apart: the instants between them hold nothing.
    let rows: Vec<Element<Tuple>> = [0u64, 1, 2, 500, 501]
        .into_iter()
        .map(|t| Element::at(vec![Value::Int(0), Value::Int(t as i64)], Timestamp::new(t)))
        .collect();
    for grouped in [false, true] {
        let out = check_case(&case(rows.clone(), 20, 10, grouped), &[5]).unwrap();
        let starts: Vec<u64> = out.iter().map(|e| e.start().ticks()).collect();
        assert_eq!(starts, vec![0, 10, 20, 500, 510, 520], "grouped {grouped}");
    }
}

#[test]
fn width_bound_is_forty_eight_instants() {
    let width = TREE_CONVERT_WIDTH as u64;
    assert_eq!(width, 48);
    for grouped in [false, true] {
        // ⌈R/p⌉ = 48: sampled. ⌈R/p⌉ = 49: Granularity. Both agree with
        // the old shape (`check_case` asserts the plan shape).
        let at_bound = case(steady_rows(), 48 * 4, 4, grouped);
        assert!(at_bound.sampled());
        check_case(&at_bound, &[2]).unwrap();
        let past = case(steady_rows(), 48 * 4 + 1, 4, grouped);
        assert!(!past.sampled());
        check_case(&past, &[2]).unwrap();
    }
}

#[test]
fn renaming_select_lists_compile_to_no_project() {
    for grouped in [false, true] {
        // Sampled, and past the width bound (`Granularity` over the
        // aggregate): `check_case` asserts there is no `project` node.
        for range in [48 * 4, 48 * 4 + 1] {
            let c = Case {
                renames: true,
                having: grouped,
                ..case(steady_rows(), range, 4, grouped)
            };
            assert!(!check_case(&c, &[2]).unwrap().is_empty());
        }
    }
}

#[test]
fn close_flushes_the_pending_instants() {
    // One row whose window outlives every heartbeat: only the close can
    // emit its instants.
    let rows = vec![Element::at(
        vec![Value::Int(1), Value::Float(2.5)],
        Timestamp::new(3),
    )];
    for grouped in [false, true] {
        let out = check_case(&case(rows.clone(), 40, 10, grouped), &[1]).unwrap();
        let starts: Vec<u64> = out.iter().map(|e| e.start().ticks()).collect();
        assert_eq!(starts, vec![10, 20, 30, 40], "grouped {grouped}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same rows per grid instant as the old shape; byte-identical across
    /// batch limits.
    #[test]
    fn sampled_plans_match_the_old_shape(c in arb_case(), sched in arb_sched()) {
        check_case(&c, &sched)?;
    }

    /// A keyed-parallel copy of the sampled grouped node, widened mid-run,
    /// reproduces the compiled plan byte for byte.
    #[test]
    fn parallelized_grouped_node_is_byte_identical(
        c in arb_case(),
        sched in arb_sched(),
        warm in 0usize..6,
        widen_to in 2usize..4,
    ) {
        let c = Case { grouped: true, period: c.period.max(c.range.div_ceil(48)), ..c };
        prop_assert!(c.sampled());
        let (_, want) = run_compiled(&c, None, &sched);
        let (graph, src, out) = keyed_sampled(&c);
        let group = graph.shuffle_groups().pop().expect("a keyed group");
        for _ in 0..warm {
            if !graph.is_finished(src) {
                graph.step_node(src, SRC_BUDGET);
            }
            for id in graph.node_ids().filter(|&id| id != src).collect::<Vec<_>>() {
                if !graph.is_finished(id) {
                    graph.step_node(id, 2);
                }
            }
        }
        graph.parallelize(group.handle, widen_to);
        drive(&graph, src, &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }
}
