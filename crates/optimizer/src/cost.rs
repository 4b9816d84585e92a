//! The rate/selectivity cost model.
//!
//! Stream plans run forever, so cost is *rate-based*: each operator's cost
//! is the work it performs per unit of time, driven by its input rates.
//! Rates start from catalog hints and shrink through selectivity estimates;
//! a multi-query installation additionally discounts subplans that already
//! run in the graph (their cost is sunk).
//!
//! When a [`LiveCostSource`] is supplied ([`estimate_live`]), rates come
//! from the running graph's metadata plane instead of static hints: a
//! bound stream or installed subplan whose [`MetaSnapshot`] estimate is
//! measured or topology-derived overrides the structural rate at that
//! plan node, and everything above it is costed from the observed value.
//! Prior-confidence estimates are ignored — a prior is the same static
//! guess the structural model already makes, so falling back keeps the
//! two models consistent.

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr};
use crate::plan::LogicalPlan;
use pipes_graph::{Confidence, MetaSnapshot, NodeId};
use std::collections::{HashMap, HashSet};

/// Estimated steady-state behaviour of a (sub)plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanEstimate {
    /// Output elements per time unit.
    pub rate: f64,
    /// Total processing cost per time unit (including children).
    pub cost: f64,
}

/// Heuristic selectivity of a predicate.
pub fn selectivity(pred: &Expr) -> f64 {
    match pred {
        Expr::Binary(l, BinOp::And, r) => selectivity(l) * selectivity(r),
        Expr::Binary(l, BinOp::Or, r) => (selectivity(l) + selectivity(r)).min(1.0),
        Expr::Binary(_, BinOp::Eq, _) => 0.1,
        Expr::Binary(_, BinOp::Ne, _) => 0.9,
        Expr::Binary(_, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _) => 0.4,
        Expr::Unary(crate::expr::UnOp::Not, e) => 1.0 - selectivity(e),
        _ => 0.5,
    }
}

/// Binds plan fragments to nodes of a running graph so the cost model can
/// read their observed rates from a [`MetaSnapshot`] instead of static
/// hints. Build one per costing round (snapshots are point-in-time).
pub struct LiveCostSource<'a> {
    snap: &'a MetaSnapshot,
    streams: HashMap<String, NodeId>,
    subplans: HashMap<LogicalPlan, NodeId>,
}

impl<'a> LiveCostSource<'a> {
    /// Creates a source over `snap` with no bindings.
    pub fn new(snap: &'a MetaSnapshot) -> Self {
        LiveCostSource {
            snap,
            streams: HashMap::new(),
            subplans: HashMap::new(),
        }
    }

    /// Binds catalog stream `name` to graph node `node` (its source node).
    pub fn bind_stream(&mut self, name: &str, node: NodeId) {
        self.streams.insert(name.to_string(), node);
    }

    /// Binds an installed subplan to the graph node publishing its result.
    pub fn bind_subplan(&mut self, plan: &LogicalPlan, node: NodeId) {
        self.subplans.insert(plan.clone(), node);
    }

    /// Observed output rate of a bound node, if its estimate carries any
    /// measurement (priors fall back to the structural model).
    fn observed_rate(&self, node: NodeId) -> Option<f64> {
        self.snap
            .get(node)
            .filter(|e| e.confidence != Confidence::Prior)
            .map(|e| e.out_rate)
    }

    /// Live output rate of catalog stream `name`, when bound and warm.
    pub fn stream_rate(&self, name: &str) -> Option<f64> {
        self.streams.get(name).and_then(|n| self.observed_rate(*n))
    }

    /// Live output rate of an installed subplan, when bound and warm.
    pub fn subplan_rate(&self, plan: &LogicalPlan) -> Option<f64> {
        self.subplans.get(plan).and_then(|n| self.observed_rate(*n))
    }
}

/// Estimates rate and cost of `plan`, treating subplans in `sunk` as
/// already running (zero cost, but their output rate still
/// feeds parents).
pub fn estimate_with_sunk(
    plan: &LogicalPlan,
    catalog: &Catalog,
    sunk: &HashSet<&LogicalPlan>,
) -> PlanEstimate {
    estimate_node(plan, catalog, sunk, None)
}

/// Estimates rate and cost of `plan` against the running graph: fragments
/// bound in `live` with warm estimates are costed at their observed output
/// rates; everything else falls back to the structural model.
pub fn estimate_live(
    plan: &LogicalPlan,
    catalog: &Catalog,
    sunk: &HashSet<&LogicalPlan>,
    live: &LiveCostSource<'_>,
) -> PlanEstimate {
    estimate_node(plan, catalog, sunk, Some(live))
}

fn estimate_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    sunk: &HashSet<&LogicalPlan>,
    live: Option<&LiveCostSource<'_>>,
) -> PlanEstimate {
    let mut est = estimate_structural(plan, catalog, sunk, live);
    if let Some(live) = live {
        // An installed fragment's observed rate beats every structural
        // guess below it; the cost of reaching that rate stays structural
        // (and is zeroed just below when the fragment is sunk).
        if let Some(rate) = live.subplan_rate(plan) {
            est.rate = rate;
        }
    }
    if sunk.contains(plan) {
        est.cost = 0.0;
    }
    est
}

fn estimate_structural(
    plan: &LogicalPlan,
    catalog: &Catalog,
    sunk: &HashSet<&LogicalPlan>,
    live: Option<&LiveCostSource<'_>>,
) -> PlanEstimate {
    let child = |p: &LogicalPlan| estimate_node(p, catalog, sunk, live);
    match plan {
        LogicalPlan::Stream { name, .. } => PlanEstimate {
            rate: live
                .and_then(|l| l.stream_rate(name))
                .unwrap_or_else(|| catalog.stream(name).map_or(1000.0, |s| s.rate_hint)),
            cost: 0.0,
        },
        LogicalPlan::Window { input, .. } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate,
                cost: i.cost + i.rate * 0.5,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate * selectivity(predicate),
                cost: i.cost + i.rate,
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate,
                cost: i.cost + i.rate * 0.2 * exprs.len() as f64,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let (l, r) = (child(left), child(right));
            let out = (l.rate * r.rate * selectivity(predicate) * 0.01).max(0.0);
            PlanEstimate {
                rate: out,
                cost: l.cost + r.cost + (l.rate + r.rate) * 2.0 + out,
            }
        }
        LogicalPlan::RelationJoin { input, .. } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate,
                cost: i.cost + i.rate * 1.5,
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let i = child(input);
            let factor = if group_by.is_empty() { 0.5 } else { 0.8 };
            PlanEstimate {
                rate: i.rate * factor,
                cost: i.cost + i.rate * 2.0,
            }
        }
        LogicalPlan::Distinct { input } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate * 0.5,
                cost: i.cost + i.rate,
            }
        }
        LogicalPlan::Union { inputs } => {
            let ests: Vec<PlanEstimate> = inputs.iter().map(child).collect();
            PlanEstimate {
                rate: ests.iter().map(|e| e.rate).sum(),
                cost: ests.iter().map(|e| e.cost + e.rate * 0.2).sum(),
            }
        }
        LogicalPlan::Difference { left, right } => {
            let (l, r) = (child(left), child(right));
            PlanEstimate {
                rate: l.rate,
                cost: l.cost + r.cost + (l.rate + r.rate) * 1.5,
            }
        }
        LogicalPlan::Every { input, .. } => {
            let i = child(input);
            PlanEstimate {
                rate: i.rate * 0.1,
                cost: i.cost + i.rate * 0.5,
            }
        }
    }
}

/// Estimates a plan with nothing sunk.
pub fn estimate(plan: &LogicalPlan, catalog: &Catalog) -> PlanEstimate {
    estimate_with_sunk(plan, catalog, &HashSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WindowSpec;
    use crate::value::Schema;
    use pipes_time::Duration;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_stream(
            "s",
            Schema::of(&["a"]),
            1000.0,
            Box::new(|| unreachable!("cost tests never build sources")),
        );
        cat
    }

    fn stream() -> LogicalPlan {
        LogicalPlan::Stream {
            name: "s".into(),
            alias: None,
        }
    }

    #[test]
    fn selectivity_heuristics() {
        let eq = Expr::col("a").eq(Expr::lit(1i64));
        assert!((selectivity(&eq) - 0.1).abs() < 1e-12);
        let both = eq.clone().and(eq.clone());
        assert!((selectivity(&both) - 0.01).abs() < 1e-12);
        let cmp = Expr::bin(Expr::col("a"), BinOp::Gt, Expr::lit(1i64));
        assert!((selectivity(&cmp) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn filter_early_is_cheaper_than_filter_late() {
        let cat = catalog();
        let pred = Expr::col("a").eq(Expr::lit(1i64));
        // filter below the window...
        let early = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(stream()),
                predicate: pred.clone(),
            }),
            spec: WindowSpec::Time(Duration::from_secs(1)),
        };
        // ...vs above it.
        let late = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Window {
                input: Box::new(stream()),
                spec: WindowSpec::Time(Duration::from_secs(1)),
            }),
            predicate: pred,
        };
        let (e, l) = (estimate(&early, &cat), estimate(&late, &cat));
        assert!(e.cost < l.cost, "early {} !< late {}", e.cost, l.cost);
        assert!((e.rate - l.rate).abs() < 1e-9, "same output rate");
    }

    #[test]
    fn sunk_subplans_cost_nothing() {
        let cat = catalog();
        let plan = LogicalPlan::Filter {
            input: Box::new(stream()),
            predicate: Expr::col("a").eq(Expr::lit(1i64)),
        };
        let full = estimate(&plan, &cat);
        let mut sunk = HashSet::new();
        sunk.insert(&plan);
        let discounted = estimate_with_sunk(&plan, &cat, &sunk);
        assert_eq!(discounted.cost, 0.0);
        assert_eq!(discounted.rate, full.rate);
    }

    #[test]
    fn unknown_stream_gets_default_rate() {
        let cat = Catalog::new();
        let e = estimate(&stream(), &cat);
        assert_eq!(e.rate, 1000.0);
    }
}
