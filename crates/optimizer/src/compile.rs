//! Physical compilation: logical plans → operators in a query graph.
//!
//! Two rewrites happen here rather than in [`crate::rules`], because they
//! change which physical operators run, not which logical plan does:
//!
//! * **Sampled aggregates.** `Every(p)` over `Project`/`Filter` nodes, over
//!   an `Aggregate` whose input rows live at most `R` (see
//!   `lifetime_bound`: a `RANGE R` window, under `Filter`/`Project` nodes
//!   and joins), with `⌈R/p⌉ ≤` [`TREE_CONVERT_WIDTH`], compiles to those
//!   `Project`/`Filter` nodes over the aggregate on the grid layout
//!   ([`ScalarAggregate::sampled`], [`GroupedAggregate::sampled`]): the
//!   same rows per grid instant as `Granularity` over the aggregate, with
//!   no `every` node or per-partial finalization. The window below stays
//!   shared. Every other `Every` keeps [`Granularity`], and so does one
//!   whose `Aggregate` already runs for another query: it is reused. Each
//!   node between the aggregate and the top publishes sampled rows, so it
//!   is registered as `Every { period, X }` for its plain subplan `X`;
//!   `install_keys` lists those keys with the rest.
//! * **Flat rows; rename-only projections elided.** A grouped aggregate
//!   builds each result row itself, key values then finalized aggregates
//!   in one allocation ([`FlatRow`]), so whatever consumes it reads plain
//!   rows. A `Project` whose select list is exactly the input's columns in
//!   order (`Col(0), …, Col(n-1)` over an `n`-wide input) only renames
//!   them: it adds no node, and its plan is registered under its input's
//!   publication point.

use crate::catalog::Catalog;
use crate::expr::{BinOp, BoundExpr, Expr};
use crate::plan::{AggFunc, AggSpec, LogicalPlan, WindowSpec};
use crate::value::{Schema, Tuple, Value};
use pipes_graph::{NodeId, QueryGraph, StreamHandle};
use pipes_ops::aggregate::{AggregateFn, ExactSum, TREE_CONVERT_WIDTH};
use pipes_ops::{
    CountWindow, Difference, Distinct, Filter, Granularity, GroupRow, GroupedAggregate, Map,
    NowWindow, PartitionedCountWindow, RippleJoin, ScalarAggregate, TimeWindow, Union,
};
use pipes_rel::RelationLookup;
use pipes_time::Duration;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Computes the output schema of a logical plan.
pub fn output_schema(plan: &LogicalPlan, catalog: &Catalog) -> Result<Schema, String> {
    match plan {
        LogicalPlan::Stream { name, alias } => {
            let def = catalog
                .stream(name)
                .ok_or_else(|| format!("unknown stream '{name}'"))?;
            Ok(def.schema.qualified(alias.as_deref().unwrap_or(name)))
        }
        LogicalPlan::Window { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Every { input, .. } => output_schema(input, catalog),
        LogicalPlan::Project { input, exprs } => {
            // Validate input columns resolve.
            let in_schema = output_schema(input, catalog)?;
            for (e, _) in exprs {
                e.bind(&in_schema)?;
            }
            Ok(Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect()))
        }
        LogicalPlan::Join { left, right, .. } => {
            Ok(output_schema(left, catalog)?.concat(&output_schema(right, catalog)?))
        }
        LogicalPlan::RelationJoin {
            input,
            relation,
            alias,
            ..
        } => {
            let def = catalog
                .relation(relation)
                .ok_or_else(|| format!("unknown relation '{relation}'"))?;
            let rel_schema = def.schema.qualified(alias.as_deref().unwrap_or(relation));
            Ok(output_schema(input, catalog)?.concat(&rel_schema))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_schema = output_schema(input, catalog)?;
            for (e, _) in group_by {
                e.bind(&in_schema)?;
            }
            for (a, _) in aggs {
                if a.func != AggFunc::Count {
                    a.arg.bind(&in_schema)?;
                }
            }
            let mut cols: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
            cols.extend(aggs.iter().map(|(_, n)| n.clone()));
            Ok(Schema::new(cols))
        }
        LogicalPlan::Union { inputs } => {
            let first = output_schema(
                inputs.first().ok_or_else(|| "empty union".to_string())?,
                catalog,
            )?;
            for other in &inputs[1..] {
                let s = output_schema(other, catalog)?;
                if s.len() != first.len() {
                    return Err(format!(
                        "union arity mismatch: {} vs {}",
                        first.len(),
                        s.len()
                    ));
                }
            }
            Ok(first)
        }
        LogicalPlan::Difference { left, right } => {
            let l = output_schema(left, catalog)?;
            let r = output_schema(right, catalog)?;
            if l.len() != r.len() {
                return Err("difference arity mismatch".into());
            }
            Ok(l)
        }
    }
}

// ---------------------------------------------------------------------------
// Tuple aggregation
// ---------------------------------------------------------------------------

/// Accumulator of one aggregate call.
///
/// Every variant merges exactly (see [`TupleAggs`]), so a window's result
/// does not depend on the order its rows were folded in.
#[derive(Clone, Debug)]
pub enum AggAcc {
    /// Running row count.
    Count(u64),
    /// Running exact sum; NULL and non-numeric values add 0.
    Sum(ExactSum),
    /// Running exact sum (as for `Sum`) and row count.
    Avg(ExactSum, u64),
    /// Running minimum (see [`TupleAggs`] for the order); NULL until a
    /// non-NULL value arrives.
    Min(Value),
    /// Running maximum (see [`TupleAggs`] for the order); NULL until a
    /// non-NULL value arrives.
    Max(Value),
}

impl AggAcc {
    /// Folds `other` (built from other rows of the same call) into `self`.
    fn merge(&mut self, other: &AggAcc) {
        match (self, other) {
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::Sum(a), AggAcc::Sum(b)) => a.merge(b),
            (AggAcc::Avg(a, n), AggAcc::Avg(b, m)) => {
                a.merge(b);
                *n += m;
            }
            (AggAcc::Min(a), AggAcc::Min(b)) => {
                if beats(b, a, Ordering::Less) {
                    *a = b.clone();
                }
            }
            (AggAcc::Max(a), AggAcc::Max(b)) => {
                if beats(b, a, Ordering::Greater) {
                    *a = b.clone();
                }
            }
            (a, b) => unreachable!("accumulators of different calls: {a:?} vs {b:?}"),
        }
    }
}

/// Whether `x` replaces the running extremum `cur` of MIN (`side` Less) or
/// MAX (Greater): NULL never does, any other value replaces NULL; otherwise
/// SQL comparison decides, and ties and incomparable pairs (Int 2 vs Float
/// 2.0, a number vs a string) fall back to `Value`'s own total order — so
/// the pick never depends on which value arrived first.
fn beats(x: &Value, cur: &Value, side: Ordering) -> bool {
    match (x, cur) {
        (Value::Null, _) => false,
        (_, Value::Null) => true,
        _ => {
            let order = x.sql_cmp(cur).unwrap_or(Ordering::Equal);
            order.then_with(|| x.cmp(cur)) == side
        }
    }
}

/// The combined aggregate over tuples: evaluates each call's argument and
/// folds all accumulators side by side; output is one value per call.
///
/// It is combinable, so CQL window aggregates run on the partial-aggregate
/// tree once their windows are wide ([`pipes_ops::aggregate::AggStrategy`]).
/// Every call folds exactly, so all layouts and batchings agree bit for bit:
///
/// * `COUNT` counts rows (NULLs included);
/// * `SUM` and `AVG` keep an [`ExactSum`] — rounded once, at finalization —
///   with NULL and non-numeric values adding 0 (`AVG` still counts them);
/// * `MIN` and `MAX` skip NULL and pick under one total order: SQL
///   comparison ([`Value::sql_cmp`]), with ties and incomparable pairs
///   broken by `Value`'s own [`Ord`]; a window holding only NULLs yields
///   NULL.
pub struct TupleAggs {
    specs: Vec<(AggFunc, Option<BoundExpr>)>,
}

impl TupleAggs {
    /// Binds the calls' arguments against the input `schema` (`COUNT`'s is
    /// ignored).
    pub fn bind<'a>(
        calls: impl IntoIterator<Item = &'a AggSpec>,
        schema: &Schema,
    ) -> Result<TupleAggs, String> {
        let specs = calls
            .into_iter()
            .map(|a| {
                let arg = match a.func {
                    AggFunc::Count => None,
                    _ => Some(a.arg.bind(schema)?),
                };
                Ok((a.func, arg))
            })
            .collect::<Result<_, String>>()?;
        Ok(TupleAggs { specs })
    }

    fn value(&self, i: usize, t: &Tuple) -> Value {
        match &self.specs[i].1 {
            Some(e) => e.eval(t),
            None => Value::Null,
        }
    }

    fn number(&self, i: usize, t: &Tuple) -> f64 {
        self.value(i, t).as_f64().unwrap_or(0.0)
    }

    /// Appends the finalized value of each call in `acc` to `row`.
    fn finalize_into(&self, acc: &[AggAcc], row: &mut Tuple) {
        row.extend(acc.iter().map(|a| match a {
            AggAcc::Count(c) => Value::Int(*c as i64),
            AggAcc::Sum(s) => Value::Float(s.value()),
            AggAcc::Avg(s, c) => Value::Float(s.value() / *c as f64),
            AggAcc::Min(v) | AggAcc::Max(v) => v.clone(),
        }));
    }
}

impl AggregateFn<Tuple> for TupleAggs {
    type Acc = Vec<AggAcc>;
    type Out = Tuple;

    fn init(&self, v: &Tuple) -> Vec<AggAcc> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, (f, _))| match f {
                AggFunc::Count => AggAcc::Count(1),
                AggFunc::Sum => AggAcc::Sum(ExactSum::of(self.number(i, v))),
                AggFunc::Avg => AggAcc::Avg(ExactSum::of(self.number(i, v)), 1),
                AggFunc::Min => AggAcc::Min(self.value(i, v)),
                AggFunc::Max => AggAcc::Max(self.value(i, v)),
            })
            .collect()
    }

    fn add(&self, acc: &mut Vec<AggAcc>, v: &Tuple) {
        for (i, a) in acc.iter_mut().enumerate() {
            match a {
                AggAcc::Count(c) => *c += 1,
                AggAcc::Sum(s) => s.add(self.number(i, v)),
                AggAcc::Avg(s, c) => {
                    s.add(self.number(i, v));
                    *c += 1;
                }
                AggAcc::Min(m) => {
                    let x = self.value(i, v);
                    if beats(&x, m, Ordering::Less) {
                        *m = x;
                    }
                }
                AggAcc::Max(m) => {
                    let x = self.value(i, v);
                    if beats(&x, m, Ordering::Greater) {
                        *m = x;
                    }
                }
            }
        }
    }

    fn finalize(&self, acc: &Vec<AggAcc>) -> Tuple {
        let mut row = Vec::with_capacity(acc.len());
        self.finalize_into(acc, &mut row);
        row
    }

    fn combinable(&self) -> bool {
        true
    }

    fn combine(&self, a: &Vec<AggAcc>, b: &Vec<AggAcc>) -> Vec<AggAcc> {
        let mut out = a.clone();
        self.combine_into(&mut out, b);
        out
    }

    fn combine_into(&self, acc: &mut Vec<AggAcc>, other: &Vec<AggAcc>) {
        acc.iter_mut().zip(other).for_each(|(x, y)| x.merge(y));
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// The result row of a CQL grouped aggregate: the group key's values, then
/// one finalized value per aggregate call, built in one allocation of
/// exact size. A one-column `GROUP BY` keys on its [`Value`] alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatRow;

impl GroupRow<Tuple, Vec<Value>, TupleAggs> for FlatRow {
    type Out = Tuple;

    fn row(&self, aggs: &TupleAggs, key: &Vec<Value>, acc: &Vec<AggAcc>) -> Tuple {
        let mut row = Vec::with_capacity(key.len() + acc.len());
        row.extend_from_slice(key);
        aggs.finalize_into(acc, &mut row);
        row
    }
}

impl GroupRow<Tuple, Value, TupleAggs> for FlatRow {
    type Out = Tuple;
    fn row(&self, aggs: &TupleAggs, key: &Value, acc: &Vec<AggAcc>) -> Tuple {
        let mut row = Vec::with_capacity(1 + acc.len());
        row.push(key.clone());
        aggs.finalize_into(acc, &mut row);
        row
    }
}

/// Mutable compilation state: the target graph, the catalog, and the map of
/// already-installed subplans (plan → publication point) that enables
/// multi-query sharing.
pub struct CompileContext<'a> {
    /// The running query graph being extended.
    pub graph: &'a QueryGraph,
    /// Stream and relation definitions.
    pub catalog: &'a Catalog,
    /// Already-running subplans, keyed by the plan each one publishes: a
    /// node is shared only with an equal plan.
    pub installed: &'a mut HashMap<LogicalPlan, StreamHandle<Tuple>>,
    /// Nodes newly created by this compilation.
    pub created: usize,
    /// Subplans reused from the running graph.
    pub reused: usize,
    /// The node the latest shared subplan resolved to.
    last_shared: Option<NodeId>,
}

impl<'a> CompileContext<'a> {
    /// Creates a context.
    pub fn new(
        graph: &'a QueryGraph,
        catalog: &'a Catalog,
        installed: &'a mut HashMap<LogicalPlan, StreamHandle<Tuple>>,
    ) -> Self {
        CompileContext {
            graph,
            catalog,
            installed,
            created: 0,
            reused: 0,
            last_shared: None,
        }
    }
}

/// Compiles `plan` into physical operators, reusing installed subplans;
/// returns the output publication point.
pub fn compile(
    plan: &LogicalPlan,
    ctx: &mut CompileContext<'_>,
) -> Result<StreamHandle<Tuple>, String> {
    shared(ctx, plan, |ctx| compile_new(plan, ctx))
}

/// The publication installed under `key`, or the one `build` returns
/// (registered under `key`).
fn shared(
    ctx: &mut CompileContext<'_>,
    key: &LogicalPlan,
    build: impl FnOnce(&mut CompileContext<'_>) -> Result<StreamHandle<Tuple>, String>,
) -> Result<StreamHandle<Tuple>, String> {
    if let Some(handle) = ctx.installed.get(key) {
        ctx.reused += 1;
        ctx.last_shared = Some(handle.node());
        return Ok(handle.clone());
    }
    let handle = build(ctx)?;
    // An elided projection hands back the subplan it was compiled over,
    // which a nested call resolved last; anything else is a new node.
    if ctx.last_shared != Some(handle.node()) {
        ctx.created += 1;
    }
    ctx.last_shared = Some(handle.node());
    ctx.installed.insert(key.clone(), handle.clone());
    Ok(handle)
}

/// A `Project` or `Filter`, bound against its input schema.
enum RowOp {
    Filter(String, BoundExpr),
    Project(Vec<BoundExpr>),
    /// A `Project` that keeps every input column in order.
    Rename,
}

impl RowOp {
    /// Binds `plan`, a `Project` or a `Filter`.
    fn bind(plan: &LogicalPlan, catalog: &Catalog) -> Result<RowOp, String> {
        Ok(match plan {
            LogicalPlan::Filter { input, predicate } => {
                let in_schema = output_schema(input, catalog)?;
                RowOp::Filter(format!("filter[{predicate}]"), predicate.bind(&in_schema)?)
            }
            LogicalPlan::Project { input, exprs } => {
                let in_schema = output_schema(input, catalog)?;
                let bound: Vec<BoundExpr> = exprs
                    .iter()
                    .map(|(e, _)| e.bind(&in_schema))
                    .collect::<Result<_, _>>()?;
                let renames = bound.len() == in_schema.len()
                    && (bound.iter().enumerate())
                        .all(|(i, b)| matches!(b, BoundExpr::Col(c) if *c == i));
                if renames {
                    RowOp::Rename
                } else {
                    RowOp::Project(bound)
                }
            }
            _ => unreachable!("RowOp::bind takes a Filter or a Project"),
        })
    }

    /// Adds the operator over `up`; a rename adds nothing and returns `up`.
    fn add(self, graph: &QueryGraph, up: &StreamHandle<Tuple>) -> StreamHandle<Tuple> {
        match self {
            RowOp::Filter(name, pred) => graph.add_unary(
                &name,
                Filter::new(move |t: &Tuple| pred.test(t) == Some(true)),
                up,
            ),
            RowOp::Project(exprs) => graph.add_unary(
                "project",
                Map::new(move |t: Tuple| {
                    (exprs.iter())
                        .map(|b| match b {
                            BoundExpr::Col(i) => t.get(*i).cloned().unwrap_or(Value::Null),
                            _ => b.eval(&t),
                        })
                        .collect::<Tuple>()
                }),
                up,
            ),
            RowOp::Rename => up.clone(),
        }
    }
}

/// How long a row of `plan` lives at most: the range of the time window
/// under its `Filter`/`Project` nodes. A join row lives in the
/// intersection of its inputs' rows, so at most as long as the shorter
/// bound; a relation join's row lives as long as its stream row.
fn lifetime_bound(plan: &LogicalPlan) -> Option<Duration> {
    match plan {
        LogicalPlan::Window {
            spec: WindowSpec::Time(range),
            ..
        } => Some(*range),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::RelationJoin { input, .. } => lifetime_bound(input),
        LogicalPlan::Join { left, right, .. } => {
            match (lifetime_bound(left), lifetime_bound(right)) {
                (Some(l), Some(r)) => Some(l.min(r)),
                (l, r) => l.or(r),
            }
        }
        _ => None,
    }
}

/// The `Filter`/`Project` nodes from `plan` down, top first, then the plan
/// below them.
fn row_chain(plan: &LogicalPlan) -> Vec<&LogicalPlan> {
    let (mut chain, mut node) = (vec![plan], plan);
    while let LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } = node {
        node = input;
        chain.push(node);
    }
    chain
}

/// `Every(period)` over `plan`: the key of a node that publishes `plan`'s
/// rows sampled every `period`.
fn sampled(plan: &LogicalPlan, period: Duration) -> LogicalPlan {
    LogicalPlan::Every {
        input: Box::new(plan.clone()),
        period,
    }
}

/// Every key under which an install of `plan` can register a node, each
/// before the keys of the nodes it consumes (a key can appear more than
/// once). This includes the `Every` keys of a sampled aggregate's
/// intermediate nodes (see the module docs), which are not subplans of
/// `plan`.
pub(crate) fn install_keys(plan: &LogicalPlan) -> Vec<LogicalPlan> {
    let mut keys = vec![plan.clone()];
    if let LogicalPlan::Every { input, period } = plan {
        let chain = row_chain(input);
        if let Some(LogicalPlan::Aggregate { .. }) = chain.last() {
            keys.extend(chain[1..].iter().map(|p| sampled(p, *period)));
        }
    }
    for child in plan.inputs() {
        keys.extend(install_keys(child));
    }
    keys
}

/// Compiles `Every(period)` over `input` onto a sampled aggregate (see
/// the module docs); `None` if `input` does not have that shape or its
/// aggregate already runs.
fn compile_sampled(
    input: &LogicalPlan,
    period: Duration,
    ctx: &mut CompileContext<'_>,
) -> Result<Option<StreamHandle<Tuple>>, String> {
    let mut chain = row_chain(input);
    let node = chain.pop().expect("a chain ends at the plan below it");
    let LogicalPlan::Aggregate { input: rows, .. } = node else {
        return Ok(None);
    };
    let narrow = lifetime_bound(rows)
        .is_some_and(|r| r.ticks().div_ceil(period.ticks()) <= TREE_CONVERT_WIDTH as u64);
    if !narrow || ctx.installed.contains_key(node) {
        return Ok(None);
    }
    let chain: Vec<(RowOp, &LogicalPlan)> = (chain.into_iter())
        .map(|plan| Ok((RowOp::bind(plan, ctx.catalog)?, plan)))
        .collect::<Result<_, String>>()?;
    // The top node is registered under the caller's `Every`.
    let mut chain = chain.into_iter();
    let Some((top, _)) = chain.next() else {
        return compile_aggregate(node, Some(period), ctx).map(Some);
    };
    let mut up = shared(ctx, &sampled(node, period), |ctx| {
        compile_aggregate(node, Some(period), ctx)
    })?;
    for (op, plan) in chain.rev() {
        up = shared(
            ctx,
            &sampled(plan, period),
            |ctx| Ok(op.add(ctx.graph, &up)),
        )?;
    }
    Ok(Some(top.add(ctx.graph, &up)))
}

/// Compiles an `Aggregate` plan; with `period`, on the grid layout.
fn compile_aggregate(
    plan: &LogicalPlan,
    period: Option<Duration>,
    ctx: &mut CompileContext<'_>,
) -> Result<StreamHandle<Tuple>, String> {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        unreachable!("compile_aggregate takes an Aggregate plan");
    };
    let in_schema = output_schema(input, ctx.catalog)?;
    let tuple_aggs = TupleAggs::bind(aggs.iter().map(|(a, _)| a), &in_schema)?;
    let keys: Vec<BoundExpr> = group_by
        .iter()
        .map(|(e, _)| e.bind(&in_schema))
        .collect::<Result<_, _>>()?;
    let up = compile(input, ctx)?;
    let graph = ctx.graph;
    Ok(match <[BoundExpr; 1]>::try_from(keys) {
        Err(keys) if keys.is_empty() => match period {
            None => graph.add_unary("aggregate", ScalarAggregate::new(tuple_aggs), &up),
            Some(p) => graph.add_unary(
                &format!("aggregate[sampled {p}]"),
                ScalarAggregate::sampled(tuple_aggs, p),
                &up,
            ),
        },
        Ok([key]) => add_grouped(graph, move |t| key.eval(t), tuple_aggs, period, &up),
        Err(keys) => {
            let key = move |t: &Tuple| keys.iter().map(|k| k.eval(t)).collect::<Vec<_>>();
            add_grouped(graph, key, tuple_aggs, period, &up)
        }
    })
}

/// Adds the grouped aggregate keyed by `key`; with `period`, on the grid.
fn add_grouped<K: Ord + Clone + Send + 'static>(
    graph: &QueryGraph,
    key: impl Fn(&Tuple) -> K + Send + 'static,
    aggs: TupleAggs,
    period: Option<Duration>,
    up: &StreamHandle<Tuple>,
) -> StreamHandle<Tuple>
where
    FlatRow: GroupRow<Tuple, K, TupleAggs, Out = Tuple>,
{
    let op = match period {
        None => GroupedAggregate::new(key, aggs),
        Some(p) => GroupedAggregate::sampled(key, aggs, p),
    };
    let name = period.map_or("aggregate[grouped]".into(), |p| {
        format!("aggregate[grouped, sampled {p}]")
    });
    graph.add_unary(&name, op.with_rows(FlatRow), up)
}

fn compile_new(
    plan: &LogicalPlan,
    ctx: &mut CompileContext<'_>,
) -> Result<StreamHandle<Tuple>, String> {
    match plan {
        LogicalPlan::Stream { name, .. } => {
            let def = ctx
                .catalog
                .stream(name)
                .ok_or_else(|| format!("unknown stream '{name}'"))?;
            let source = (def.factory)();
            Ok(ctx.graph.add_source(name, source))
        }
        LogicalPlan::Window { input, spec } => {
            let in_schema = output_schema(input, ctx.catalog)?;
            let up = compile(input, ctx)?;
            Ok(match spec {
                WindowSpec::Time(d) => {
                    ctx.graph
                        .add_unary(&format!("window[{d}]"), TimeWindow::new(*d), &up)
                }
                WindowSpec::Now => ctx.graph.add_unary("window[now]", NowWindow::new(), &up),
                WindowSpec::Rows(n) => {
                    ctx.graph
                        .add_unary(&format!("window[rows {n}]"), CountWindow::new(*n), &up)
                }
                WindowSpec::PartitionRows(cols, n) => {
                    let idx: Vec<usize> = cols
                        .iter()
                        .map(|c| in_schema.resolve(c))
                        .collect::<Result<_, _>>()?;
                    let key = move |t: &Tuple| -> Vec<Value> {
                        idx.iter().map(|&i| t[i].clone()).collect()
                    };
                    ctx.graph.add_unary(
                        &format!("window[partition rows {n}]"),
                        PartitionedCountWindow::new(*n, key),
                        &up,
                    )
                }
            })
        }
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            let op = RowOp::bind(plan, ctx.catalog)?;
            let up = compile(input, ctx)?;
            Ok(op.add(ctx.graph, &up))
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => Ok(compile_join(left, right, predicate, ctx)?),
        LogicalPlan::RelationJoin {
            input,
            relation,
            stream_key,
            ..
        } => {
            let in_schema = output_schema(input, ctx.catalog)?;
            let key = stream_key.bind(&in_schema)?;
            let def = ctx
                .catalog
                .relation(relation)
                .ok_or_else(|| format!("unknown relation '{relation}'"))?;
            let shared = def.relation.clone();
            let up = compile(input, ctx)?;
            Ok(ctx.graph.add_unary(
                &format!("reljoin[{relation}]"),
                RelationLookup::new(
                    shared,
                    move |t: &Tuple| key.eval(t),
                    |t: &Tuple, row: &Tuple| {
                        let mut out = t.clone();
                        out.extend(row.iter().cloned());
                        out
                    },
                ),
                &up,
            ))
        }
        LogicalPlan::Aggregate { .. } => compile_aggregate(plan, None, ctx),
        LogicalPlan::Distinct { input } => {
            let up = compile(input, ctx)?;
            Ok(ctx.graph.add_unary("distinct", Distinct::new(), &up))
        }
        LogicalPlan::Union { inputs } => {
            let handles: Vec<StreamHandle<Tuple>> = inputs
                .iter()
                .map(|p| compile(p, ctx))
                .collect::<Result<_, _>>()?;
            Ok(ctx
                .graph
                .add_nary("union", Union::new(handles.len()), &handles))
        }
        LogicalPlan::Difference { left, right } => {
            let l = compile(left, ctx)?;
            let r = compile(right, ctx)?;
            Ok(ctx
                .graph
                .add_binary("difference", Difference::new(), &l, &r))
        }
        LogicalPlan::Every { input, period } => {
            if let Some(sampled) = compile_sampled(input, *period, ctx)? {
                return Ok(sampled);
            }
            let up = compile(input, ctx)?;
            Ok(ctx
                .graph
                .add_unary(&format!("every[{period}]"), Granularity::new(*period), &up))
        }
    }
}

/// Splits a join predicate into equi-key pairs and a residual, then builds
/// a hash ripple join (plus residual filter) or a nested-loop theta join.
fn compile_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    predicate: &Expr,
    ctx: &mut CompileContext<'_>,
) -> Result<StreamHandle<Tuple>, String> {
    let ls = output_schema(left, ctx.catalog)?;
    let rs = output_schema(right, ctx.catalog)?;
    let combined = ls.concat(&rs);

    let mut left_keys: Vec<BoundExpr> = Vec::new();
    let mut right_keys: Vec<BoundExpr> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conjunct in predicate.conjuncts() {
        if let Expr::Binary(a, BinOp::Eq, b) = &conjunct {
            // `a = b` is an equi-key pair if each side binds against exactly
            // one input schema.
            let (la, ra) = (a.bind(&ls).is_ok(), a.bind(&rs).is_ok());
            let (lb, rb) = (b.bind(&ls).is_ok(), b.bind(&rs).is_ok());
            if la && !ra && rb && !lb {
                left_keys.push(a.bind(&ls)?);
                right_keys.push(b.bind(&rs)?);
                continue;
            }
            if ra && !la && lb && !rb {
                left_keys.push(b.bind(&ls)?);
                right_keys.push(a.bind(&rs)?);
                continue;
            }
        }
        residual.push(conjunct);
    }

    let lh = compile(left, ctx)?;
    let rh = compile(right, ctx)?;

    let combine = |l: &Tuple, r: &Tuple| -> Tuple {
        let mut out = l.clone();
        out.extend(r.iter().cloned());
        out
    };

    let joined = if left_keys.is_empty() {
        // Pure theta join over list sweep areas.
        let pred = Expr::conjoin(std::mem::take(&mut residual)).bind(&combined)?;
        let join: RippleJoin<Tuple, Tuple, Tuple> = RippleJoin::theta(
            move |l: &Tuple, r: &Tuple| {
                let mut t = l.clone();
                t.extend(r.iter().cloned());
                pred.test(&t) == Some(true)
            },
            combine,
        );
        ctx.graph.add_binary("join[theta]", join, &lh, &rh)
    } else {
        let lk = left_keys;
        let rk = right_keys;
        let join: RippleJoin<Tuple, Tuple, Tuple> = RippleJoin::equi(
            move |t: &Tuple| lk.iter().map(|k| k.eval(t)).collect::<Vec<Value>>(),
            move |t: &Tuple| rk.iter().map(|k| k.eval(t)).collect::<Vec<Value>>(),
            combine,
        );
        ctx.graph.add_binary("join[hash]", join, &lh, &rh)
    };

    if residual.is_empty() {
        Ok(joined)
    } else {
        let bound = Expr::conjoin(residual).bind(&combined)?;
        Ok(ctx.graph.add_unary(
            "join[residual]",
            Filter::new(move |t: &Tuple| bound.test(t) == Some(true)),
            &joined,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use pipes_graph::io::CollectSink;
    use pipes_graph::io::VecSource;
    use pipes_rel::{Relation, SharedRelation};
    use pipes_time::{Element, Timestamp};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_stream(
            "nums",
            Schema::of(&["k", "v"]),
            100.0,
            Box::new(|| {
                let elems = (0..10i64)
                    .map(|i| {
                        Element::at(
                            vec![Value::Int(i % 3), Value::Int(i)],
                            Timestamp::new(i as u64),
                        )
                    })
                    .collect();
                Box::new(VecSource::new(elems))
            }),
        );
        cat.add_stream(
            "other",
            Schema::of(&["k", "w"]),
            100.0,
            Box::new(|| {
                let elems = (0..6i64)
                    .map(|i| {
                        Element::at(
                            vec![Value::Int(i % 3), Value::Int(i * 100)],
                            Timestamp::new(i as u64),
                        )
                    })
                    .collect();
                Box::new(VecSource::new(elems))
            }),
        );
        let mut rel = Relation::new("dim", |t: &Tuple| t[0].clone());
        rel.bulk_load((0..3i64).map(|k| vec![Value::Int(k), Value::str(format!("name{k}"))]));
        cat.add_relation(
            "dim",
            Schema::of(&["id", "label"]),
            0,
            SharedRelation::new(rel),
        );
        cat
    }

    fn run(plan: &LogicalPlan, cat: &Catalog) -> Vec<Tuple> {
        let graph = QueryGraph::new();
        let mut installed = HashMap::new();
        let mut ctx = CompileContext::new(&graph, cat, &mut installed);
        let handle = compile(plan, &mut ctx).expect("compiles");
        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &handle);
        graph.run_to_completion(16);
        let res = buf.lock().iter().map(|e| e.payload.clone()).collect();
        res
    }

    fn windowed_stream(name: &str, secs: u64) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(LogicalPlan::Stream {
                name: name.into(),
                alias: None,
            }),
            spec: WindowSpec::Time(pipes_time::Duration::from_ticks(secs)),
        }
    }

    #[test]
    fn schema_computation() {
        let cat = catalog();
        let s = output_schema(
            &LogicalPlan::Stream {
                name: "nums".into(),
                alias: Some("n".into()),
            },
            &cat,
        )
        .unwrap();
        assert_eq!(s.columns(), &["n.k".to_string(), "n.v".to_string()]);
        assert!(output_schema(
            &LogicalPlan::Stream {
                name: "missing".into(),
                alias: None
            },
            &cat
        )
        .is_err());
    }

    #[test]
    fn filter_project_pipeline() {
        let cat = catalog();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(windowed_stream("nums", 5)),
                predicate: Expr::bin(Expr::col("v"), BinOp::Ge, Expr::lit(8i64)),
            }),
            exprs: vec![(
                Expr::bin(Expr::col("v"), BinOp::Mul, Expr::lit(2i64)),
                "doubled".into(),
            )],
        };
        let out = run(&plan, &cat);
        assert_eq!(out, vec![vec![Value::Int(16)], vec![Value::Int(18)]]);
    }

    #[test]
    fn equi_join_compiles_to_hash_join() {
        let cat = catalog();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "nums".into(),
                    alias: Some("n".into()),
                }),
                spec: WindowSpec::Time(pipes_time::Duration::from_ticks(100)),
            }),
            right: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "other".into(),
                    alias: Some("o".into()),
                }),
                spec: WindowSpec::Time(pipes_time::Duration::from_ticks(100)),
            }),
            predicate: Expr::col("n.k").eq(Expr::col("o.k")),
        };
        let out = run(&plan, &cat);
        // 10 nums × 6 others matching on k%3: |pairs| = Σ matches.
        assert!(!out.is_empty());
        for t in &out {
            assert_eq!(t.len(), 4);
            assert_eq!(t[0], t[2], "join keys must match");
        }
        // The physical node is a hash join (named so in the graph).
        let graph = QueryGraph::new();
        let mut installed = HashMap::new();
        let mut ctx = CompileContext::new(&graph, &cat, &mut installed);
        compile(&plan, &mut ctx).unwrap();
        let names: Vec<String> = graph.infos().iter().map(|i| i.name.clone()).collect();
        assert!(names.iter().any(|n| n == "join[hash]"), "{names:?}");
    }

    #[test]
    fn theta_join_with_residual() {
        let cat = catalog();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "nums".into(),
                    alias: Some("n".into()),
                }),
                spec: WindowSpec::Time(pipes_time::Duration::from_ticks(100)),
            }),
            right: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "other".into(),
                    alias: Some("o".into()),
                }),
                spec: WindowSpec::Time(pipes_time::Duration::from_ticks(100)),
            }),
            predicate: Expr::bin(Expr::col("n.v"), BinOp::Lt, Expr::col("o.w")),
        };
        let out = run(&plan, &cat);
        for t in &out {
            let v = t[1].as_i64().unwrap();
            let w = t[3].as_i64().unwrap();
            assert!(v < w);
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn grouped_aggregate_flattens() {
        let cat = catalog();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(windowed_stream("nums", 1000)),
            group_by: vec![(Expr::col("k"), "k".into())],
            aggs: vec![
                (
                    AggSpec {
                        func: AggFunc::Count,
                        arg: Expr::lit(0i64),
                    },
                    "cnt".into(),
                ),
                (
                    AggSpec {
                        func: AggFunc::Max,
                        arg: Expr::col("v"),
                    },
                    "maxv".into(),
                ),
            ],
        };
        let schema = output_schema(&plan, &cat).unwrap();
        assert_eq!(schema.columns(), &["k", "cnt", "maxv"]);
        let out = run(&plan, &cat);
        // Final snapshot (everything valid forever after windows of 1000):
        // group 0: {0,3,6,9} → cnt 4, max 9.
        let g0 = out
            .iter()
            .filter(|t| t[0] == Value::Int(0))
            .max_by_key(|t| t[1].clone())
            .unwrap();
        assert_eq!(g0[1], Value::Int(4));
        assert_eq!(g0[2], Value::Int(9));
    }

    #[test]
    fn renaming_projection_adds_no_node() {
        let cat = catalog();
        let agg = LogicalPlan::Aggregate {
            input: Box::new(windowed_stream("nums", 5)),
            group_by: vec![(Expr::col("k"), "k".into())],
            aggs: vec![(
                AggSpec {
                    func: AggFunc::Max,
                    arg: Expr::col("v"),
                },
                "maxv".into(),
            )],
        };
        let project = |cols: [(&str, &str); 2]| LogicalPlan::Project {
            input: Box::new(agg.clone()),
            exprs: cols.map(|(c, n)| (Expr::col(c), n.to_string())).to_vec(),
        };
        let renamed = project([("k", "key"), ("maxv", "top")]);
        let reordered = project([("maxv", "top"), ("k", "key")]);
        assert_eq!(run(&renamed, &cat), run(&agg, &cat));

        let graph = QueryGraph::new();
        let mut installed = HashMap::new();
        let mut ctx = CompileContext::new(&graph, &cat, &mut installed);
        let h = compile(&renamed, &mut ctx).unwrap();
        // Source, window, aggregate: the rename is registered, not built.
        assert_eq!((ctx.created, graph.len()), (3, 3));
        assert_eq!(compile(&renamed, &mut ctx).unwrap().node(), h.node());
        assert_eq!(compile(&agg, &mut ctx).unwrap().node(), h.node());
        assert_eq!(ctx.reused, 2);
        compile(&reordered, &mut ctx).unwrap();
        assert_eq!((ctx.created, graph.len()), (4, 4));
        assert_eq!(graph.info(3).name, "project");
    }

    /// `SELECT MIN(x), MAX(x) FROM xs [RANGE 10 TICKS]` over rows that all
    /// arrive at tick 0, in the given order.
    fn min_max_of(xs: &[Value]) -> Vec<Tuple> {
        let mut cat = Catalog::new();
        let rows: Vec<Element<Tuple>> = xs
            .iter()
            .map(|x| Element::at(vec![x.clone()], Timestamp::new(0)))
            .collect();
        cat.add_stream(
            "xs",
            Schema::of(&["x"]),
            1.0,
            Box::new(move || Box::new(VecSource::new(rows.clone()))),
        );
        let call = |func| {
            let spec = AggSpec {
                func,
                arg: Expr::col("x"),
            };
            (spec, format!("{func:?}"))
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(windowed_stream("xs", 10)),
            group_by: Vec::new(),
            aggs: vec![call(AggFunc::Min), call(AggFunc::Max)],
        };
        run(&plan, &cat)
    }

    #[test]
    fn min_max_skip_null_in_every_arrival_order() {
        let (null, one, three) = (Value::Null, Value::Int(1), Value::Int(3));
        let orders = [
            [&null, &three, &one],
            [&null, &one, &three],
            [&three, &null, &one],
            [&one, &null, &three],
            [&three, &one, &null],
            [&one, &three, &null],
        ];
        for order in orders {
            let xs: Vec<Value> = order.into_iter().cloned().collect();
            assert_eq!(
                min_max_of(&xs),
                vec![vec![one.clone(), three.clone()]],
                "arrival order {xs:?}"
            );
        }
        assert_eq!(
            min_max_of(&[Value::Null, Value::Null]),
            vec![vec![Value::Null, Value::Null]],
            "an all-NULL window yields NULL"
        );
        // Integers compare exactly, also above 2^53.
        let (big, next) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(
            min_max_of(&[big.clone(), next.clone()]),
            vec![vec![big, next]]
        );
        // Ties across types pick by `Value`'s order whatever arrives first:
        // Int sorts before Float.
        for xs in [
            [Value::Float(2.0), Value::Int(2)],
            [Value::Int(2), Value::Float(2.0)],
        ] {
            assert_eq!(
                min_max_of(&xs),
                vec![vec![Value::Int(2), Value::Float(2.0)]]
            );
        }
    }

    #[test]
    fn relation_join_lookup() {
        let cat = catalog();
        let plan = LogicalPlan::RelationJoin {
            input: Box::new(windowed_stream("nums", 5)),
            relation: "dim".into(),
            alias: None,
            stream_key: Expr::col("k"),
        };
        let schema = output_schema(&plan, &cat).unwrap();
        assert_eq!(schema.len(), 4);
        let out = run(&plan, &cat);
        assert_eq!(out.len(), 10); // every event has a dimension row
        for t in &out {
            let k = t[0].as_i64().unwrap();
            assert_eq!(t[3], Value::str(format!("name{k}")));
        }
    }

    #[test]
    fn sharing_reuses_subplans() {
        let cat = catalog();
        let graph = QueryGraph::new();
        let mut installed = HashMap::new();
        let base = windowed_stream("nums", 5);
        let q1 = LogicalPlan::Filter {
            input: Box::new(base.clone()),
            predicate: Expr::bin(Expr::col("v"), BinOp::Gt, Expr::lit(5i64)),
        };
        let q2 = LogicalPlan::Filter {
            input: Box::new(base),
            predicate: Expr::bin(Expr::col("v"), BinOp::Lt, Expr::lit(3i64)),
        };
        let mut ctx = CompileContext::new(&graph, &cat, &mut installed);
        compile(&q1, &mut ctx).unwrap();
        let first_created = ctx.created;
        assert_eq!(first_created, 3); // source, window, filter
        compile(&q2, &mut ctx).unwrap();
        assert_eq!(ctx.created, first_created + 1); // only the new filter
        assert_eq!(ctx.reused, 1); // the shared window subplan
        assert_eq!(graph.len(), 4);
    }
}
