//! The logical plan algebra.

use crate::expr::Expr;
use pipes_time::Duration;
use std::fmt;
use std::fmt::Write as _;

/// Window specification attached to a stream (CQL bracket syntax).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WindowSpec {
    /// `[RANGE d]` — time-based sliding window.
    Time(Duration),
    /// `[ROWS n]` — count-based sliding window.
    Rows(usize),
    /// `[PARTITION BY cols ROWS n]` — per-partition count window.
    PartitionRows(Vec<String>, usize),
    /// `[NOW]` — instantaneous validity.
    Now,
}

/// Aggregate functions of the CQL subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of a numeric expression.
    Sum,
    /// Mean of a numeric expression.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Surface syntax.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate call: function + argument expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Its argument (ignored by `COUNT`).
    pub arg: Expr,
}

/// A logical query plan over streams and relations.
///
/// The algebra is deliberately the paper's: windows assign validity
/// intervals, everything above them is the extended relational algebra with
/// snapshot semantics, plus the granularity operator (`Every`) for periodic
/// result reporting.
///
/// A plan value is also the identity of the subplan it describes: the
/// multi-query optimizer shares a running node only with an equal plan
/// (`Eq + Hash`, which keep `Int(2)` and `Float(2.0)` apart).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// A registered stream, optionally aliased.
    Stream {
        /// Catalog name.
        name: String,
        /// Alias for column qualification.
        alias: Option<String>,
    },
    /// Window assignment over a stream input.
    Window {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The window.
        spec: WindowSpec,
    },
    /// Selection.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Projection: output columns `(expr AS name)`.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions and names.
        exprs: Vec<(Expr, String)>,
    },
    /// Binary join with an arbitrary predicate.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate over the concatenated schema.
        predicate: Expr,
    },
    /// Stream–relation join: point lookups into a catalog relation.
    RelationJoin {
        /// Stream input.
        input: Box<LogicalPlan>,
        /// Catalog relation name.
        relation: String,
        /// Alias for the relation's columns.
        alias: Option<String>,
        /// Stream-side key expression matched against the relation's
        /// primary key.
        stream_key: Expr,
    },
    /// Grouped or scalar aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions with output names (empty = scalar).
        group_by: Vec<(Expr, String)>,
        /// Aggregate calls with output names.
        aggs: Vec<(AggSpec, String)>,
    },
    /// Snapshot duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Additive bag union.
    Union {
        /// Input plans (same schema).
        inputs: Vec<LogicalPlan>,
    },
    /// Snapshot bag difference (monus).
    Difference {
        /// Minuend.
        left: Box<LogicalPlan>,
        /// Subtrahend.
        right: Box<LogicalPlan>,
    },
    /// Granularity: sample results every `period` (CQL `EVERY`/`SLIDE`).
    Every {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sampling period.
        period: Duration,
    },
}

impl LogicalPlan {
    /// Children of this node.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Stream { .. } => vec![],
            LogicalPlan::Window { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::RelationJoin { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Every { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Difference { left, right } => {
                vec![left, right]
            }
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// One-line node label (for pretty-printing and Graphviz).
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::Stream { name, alias } => match alias {
                Some(a) => format!("Stream {name} AS {a}"),
                None => format!("Stream {name}"),
            },
            LogicalPlan::Window { spec, .. } => format!("Window {spec:?}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project {}", cols.join(", "))
            }
            LogicalPlan::Join { predicate, .. } => format!("Join on {predicate}"),
            LogicalPlan::RelationJoin {
                relation,
                stream_key,
                ..
            } => format!("RelJoin {relation} on {stream_key}"),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(|(e, _)| e.to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|(s, n)| format!("{}({}) AS {n}", s.func.name(), s.arg))
                    .collect();
                if g.is_empty() {
                    format!("Aggregate {}", a.join(", "))
                } else {
                    format!("Aggregate [{}] {}", g.join(", "), a.join(", "))
                }
            }
            LogicalPlan::Distinct { .. } => "Distinct".into(),
            LogicalPlan::Union { inputs } => format!("Union x{}", inputs.len()),
            LogicalPlan::Difference { .. } => "Difference".into(),
            LogicalPlan::Every { period, .. } => format!("Every {period}"),
        }
    }

    /// Indented multi-line rendering.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), self.label());
        for child in self.inputs() {
            child.pretty_into(out, depth + 1);
        }
    }

    /// Graphviz rendering of the plan DAG (the paper's visual plan GUI,
    /// reproduced as `dot` output).
    pub fn render_dot(&self) -> String {
        let mut out = String::from(
            "digraph plan {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        let mut counter = 0usize;
        self.dot_into(&mut out, &mut counter);
        out.push_str("}\n");
        out
    }

    fn dot_into(&self, out: &mut String, counter: &mut usize) -> usize {
        let me = *counter;
        *counter += 1;
        let label = self.label().replace('"', "'");
        let _ = writeln!(out, "  n{me} [label=\"{label}\"];");
        for child in self.inputs() {
            let c = child.dot_into(out, counter);
            let _ = writeln!(out, "  n{c} -> n{me};");
        }
        me
    }

    /// Number of nodes in the plan.
    pub fn node_count(&self) -> usize {
        1 + self.inputs().iter().map(|c| c.node_count()).sum::<usize>()
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "traffic".into(),
                    alias: None,
                }),
                spec: WindowSpec::Time(Duration::from_secs(60)),
            }),
            predicate: Expr::bin(Expr::col("speed"), crate::BinOp::Gt, Expr::lit(50i64)),
        }
    }

    #[test]
    fn pretty_shows_structure() {
        let p = demo_plan().pretty();
        let lines: Vec<&str> = p.lines().collect();
        assert!(lines[0].starts_with("Filter"));
        assert!(lines[1].trim_start().starts_with("Window"));
        assert!(lines[2].trim_start().starts_with("Stream traffic"));
    }

    #[test]
    fn dot_renders_every_node_and_edge() {
        let dot = demo_plan().render_dot();
        assert_eq!(dot.matches("label=").count(), 3);
        assert_eq!(dot.matches("->").count(), 2);
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn node_count() {
        assert_eq!(demo_plan().node_count(), 3);
    }
}
