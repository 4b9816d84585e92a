//! Snapshot-equivalence-preserving rewrite rules and variant enumeration.
//!
//! The optimizer is rule-based and heuristic, as in the paper: it takes a
//! new query and "heuristically produces a set of snapshot-equivalent query
//! plans as output". The rules here are the classic ones, restricted to
//! cases where the interval semantics provably commutes:
//!
//! * **split** — conjunctive filters split into cascades,
//! * **push-through-window** — filters commute with *time-based* windows
//!   (retiming is payload-independent); they do **not** commute with
//!   count-based windows, which the rule respects,
//! * **push-into-join** — a conjunct referencing only one join input moves
//!   below the join,
//! * **merge** — adjacent filters re-merge (canonicalization),
//! * **commute-join** — joins are symmetric up to column order; the variant
//!   keeps the output schema by re-projecting.

use crate::catalog::Catalog;
use crate::compile::output_schema;
use crate::expr::Expr;
use crate::plan::LogicalPlan;

/// Splits every conjunctive filter into a cascade of single-conjunct
/// filters (enables finer pushdown).
pub fn split_filters(plan: &LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, &split_filters);
    if let LogicalPlan::Filter { input, predicate } = &plan {
        let conjuncts = predicate.conjuncts();
        if conjuncts.len() > 1 {
            let mut cur = (**input).clone();
            for c in conjuncts {
                cur = LogicalPlan::Filter {
                    input: Box::new(cur),
                    predicate: c,
                };
            }
            return cur;
        }
    }
    plan
}

/// Merges directly adjacent filters into one conjunction (canonical form).
pub fn merge_filters(plan: &LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, &merge_filters);
    if let LogicalPlan::Filter { input, predicate } = &plan {
        if let LogicalPlan::Filter {
            input: inner,
            predicate: p2,
        } = &**input
        {
            return merge_filters(&LogicalPlan::Filter {
                input: inner.clone(),
                predicate: p2.clone().and(predicate.clone()),
            });
        }
    }
    plan
}

/// Pushes filters toward the sources: through time/now windows, through
/// projects they don't depend on (not attempted), and into join inputs.
pub fn push_filters(plan: &LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = map_children(plan, &|p| push_filters(p, catalog));
    let LogicalPlan::Filter { input, predicate } = &plan else {
        return plan;
    };
    match &**input {
        LogicalPlan::Window { input: below, spec } if window_commutes(spec) => {
            let pushed = push_filters(
                &LogicalPlan::Filter {
                    input: below.clone(),
                    predicate: predicate.clone(),
                },
                catalog,
            );
            LogicalPlan::Window {
                input: Box::new(pushed),
                spec: spec.clone(),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            predicate: join_pred,
        } => {
            // A conjunct that binds against exactly one side moves below.
            let ls = output_schema(left, catalog);
            let rs = output_schema(right, catalog);
            let (Ok(ls), Ok(rs)) = (ls, rs) else {
                return plan;
            };
            let mut stay = Vec::new();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            for c in predicate.conjuncts() {
                let on_left = c.bind(&ls).is_ok();
                let on_right = c.bind(&rs).is_ok();
                match (on_left, on_right) {
                    (true, false) => to_left.push(c),
                    (false, true) => to_right.push(c),
                    _ => stay.push(c),
                }
            }
            if to_left.is_empty() && to_right.is_empty() {
                return plan;
            }
            let wrap = |side: &LogicalPlan, preds: Vec<Expr>| -> LogicalPlan {
                if preds.is_empty() {
                    side.clone()
                } else {
                    push_filters(
                        &LogicalPlan::Filter {
                            input: Box::new(side.clone()),
                            predicate: Expr::conjoin(preds),
                        },
                        catalog,
                    )
                }
            };
            let new_join = LogicalPlan::Join {
                left: Box::new(wrap(left, to_left)),
                right: Box::new(wrap(right, to_right)),
                predicate: join_pred.clone(),
            };
            if stay.is_empty() {
                new_join
            } else {
                LogicalPlan::Filter {
                    input: Box::new(new_join),
                    predicate: Expr::conjoin(stay),
                }
            }
        }
        _ => plan,
    }
}

fn window_commutes(spec: &crate::plan::WindowSpec) -> bool {
    matches!(
        spec,
        crate::plan::WindowSpec::Time(_) | crate::plan::WindowSpec::Now
    )
}

/// Swaps the inputs of every join, preserving the output schema by
/// re-projecting columns back into the original order.
pub fn commute_joins(plan: &LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = map_children(plan, &|p| commute_joins(p, catalog));
    if let LogicalPlan::Join {
        left,
        right,
        predicate,
    } = &plan
    {
        let (Ok(ls), Ok(rs)) = (output_schema(left, catalog), output_schema(right, catalog)) else {
            return plan;
        };
        let mut exprs: Vec<(Expr, String)> = Vec::new();
        for c in ls.columns().iter().chain(rs.columns().iter()) {
            exprs.push((Expr::col(c.clone()), c.clone()));
        }
        return LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: right.clone(),
                right: left.clone(),
                predicate: predicate.clone(),
            }),
            exprs,
        };
    }
    plan
}

/// Rebuilds a node with children mapped through `f`.
fn map_children(plan: &LogicalPlan, f: &impl Fn(&LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    use LogicalPlan::*;
    match plan {
        Stream { .. } => plan.clone(),
        Window { input, spec } => Window {
            input: Box::new(f(input)),
            spec: spec.clone(),
        },
        Filter { input, predicate } => Filter {
            input: Box::new(f(input)),
            predicate: predicate.clone(),
        },
        Project { input, exprs } => Project {
            input: Box::new(f(input)),
            exprs: exprs.clone(),
        },
        Join {
            left,
            right,
            predicate,
        } => Join {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
            predicate: predicate.clone(),
        },
        RelationJoin {
            input,
            relation,
            alias,
            stream_key,
        } => RelationJoin {
            input: Box::new(f(input)),
            relation: relation.clone(),
            alias: alias.clone(),
            stream_key: stream_key.clone(),
        },
        Aggregate {
            input,
            group_by,
            aggs,
        } => Aggregate {
            input: Box::new(f(input)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Distinct { input } => Distinct {
            input: Box::new(f(input)),
        },
        Union { inputs } => Union {
            inputs: inputs.iter().map(f).collect(),
        },
        Difference { left, right } => Difference {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
        },
        Every { input, period } => Every {
            input: Box::new(f(input)),
            period: *period,
        },
    }
}

/// Heuristically enumerates snapshot-equivalent variants of `plan`
/// (including the plan itself), without duplicates.
pub fn enumerate(plan: &LogicalPlan, catalog: &Catalog) -> Vec<LogicalPlan> {
    let canonical = merge_filters(&push_filters(&split_filters(plan), catalog));
    let commuted = commute_joins(&canonical, catalog);
    let candidates = [plan.clone(), canonical, commuted];
    let mut variants = Vec::new();
    for p in candidates {
        if !variants.contains(&p) {
            variants.push(p);
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::plan::WindowSpec;
    use crate::value::Schema;
    use pipes_time::Duration;
    use std::collections::HashSet;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [("s", vec!["a", "b"]), ("t", vec!["c", "d"])] {
            cat.add_stream(
                name,
                Schema::new(cols.iter().map(|c| c.to_string()).collect()),
                100.0,
                Box::new(|| unreachable!("rule tests never build sources")),
            );
        }
        cat
    }

    fn stream(name: &str) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(LogicalPlan::Stream {
                name: name.into(),
                alias: None,
            }),
            spec: WindowSpec::Time(Duration::from_ticks(10)),
        }
    }

    #[test]
    fn split_and_merge_are_inverses_up_to_signature() {
        let pred = Expr::col("a").eq(Expr::lit(1i64)).and(Expr::bin(
            Expr::col("b"),
            BinOp::Gt,
            Expr::lit(2i64),
        ));
        let plan = LogicalPlan::Filter {
            input: Box::new(stream("s")),
            predicate: pred,
        };
        let split = split_filters(&plan);
        // Two stacked filters now.
        assert!(matches!(&split, LogicalPlan::Filter { input, .. }
            if matches!(**input, LogicalPlan::Filter { .. })));
        let merged = merge_filters(&split);
        assert!(matches!(&merged, LogicalPlan::Filter { input, .. }
            if !matches!(**input, LogicalPlan::Filter { .. })));
    }

    #[test]
    fn filter_pushes_through_time_window_only() {
        let cat = catalog();
        let plan = LogicalPlan::Filter {
            input: Box::new(stream("s")),
            predicate: Expr::col("a").eq(Expr::lit(1i64)),
        };
        let pushed = push_filters(&plan, &cat);
        assert!(
            matches!(&pushed, LogicalPlan::Window { input, .. }
                if matches!(**input, LogicalPlan::Filter { .. })),
            "expected Window over Filter, got:\n{pushed}"
        );

        // Rows windows must block the pushdown.
        let rows_plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Window {
                input: Box::new(LogicalPlan::Stream {
                    name: "s".into(),
                    alias: None,
                }),
                spec: WindowSpec::Rows(5),
            }),
            predicate: Expr::col("a").eq(Expr::lit(1i64)),
        };
        let unchanged = push_filters(&rows_plan, &cat);
        assert!(matches!(unchanged, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn one_sided_conjuncts_sink_into_join() {
        let cat = catalog();
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(stream("s")),
                right: Box::new(stream("t")),
                predicate: Expr::col("a").eq(Expr::col("c")),
            }),
            predicate: Expr::bin(Expr::col("b"), BinOp::Gt, Expr::lit(7i64)).and(Expr::bin(
                Expr::col("d"),
                BinOp::Lt,
                Expr::lit(3i64),
            )),
        };
        let pushed = push_filters(&split_filters(&plan), &cat);
        // The top node is the join; both filters have sunk.
        let LogicalPlan::Join { left, right, .. } = &pushed else {
            panic!("expected a join at the top, got:\n{pushed}");
        };
        fn contains_filter(p: &LogicalPlan) -> bool {
            matches!(p, LogicalPlan::Filter { .. }) || p.inputs().iter().any(|c| contains_filter(c))
        }
        assert!(contains_filter(left));
        assert!(contains_filter(right));
    }

    #[test]
    fn commuted_join_preserves_schema() {
        let cat = catalog();
        let plan = LogicalPlan::Join {
            left: Box::new(stream("s")),
            right: Box::new(stream("t")),
            predicate: Expr::col("a").eq(Expr::col("c")),
        };
        let orig = output_schema(&plan, &cat).unwrap();
        let commuted = commute_joins(&plan, &cat);
        let new = output_schema(&commuted, &cat).unwrap();
        assert_eq!(orig.columns(), new.columns());
        assert!(matches!(commuted, LogicalPlan::Project { .. }));
    }

    #[test]
    fn enumeration_is_deduplicated_and_contains_original() {
        let cat = catalog();
        let plan = LogicalPlan::Filter {
            input: Box::new(stream("s")),
            predicate: Expr::col("a").eq(Expr::lit(1i64)),
        };
        let variants = enumerate(&plan, &cat);
        assert!(!variants.is_empty());
        let sigs: HashSet<&LogicalPlan> = variants.iter().collect();
        assert_eq!(sigs.len(), variants.len(), "variants must be distinct");
        assert!(sigs.contains(&plan));
    }
}
