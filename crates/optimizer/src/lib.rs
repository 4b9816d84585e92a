//! # pipes-optimizer
//!
//! The relational layer and rule-based multi-query optimizer of PIPES.
//!
//! While the physical algebra of `pipes-ops` handles arbitrary objects, CQL
//! queries speak about tuples and schemas. This crate provides:
//!
//! * [`Value`] / [`Tuple`] / [`Schema`] — the dynamic relational payloads,
//! * [`Expr`] — scalar expressions over tuples (bound against a schema at
//!   compile time),
//! * [`LogicalPlan`] — the logical algebra produced by the CQL front end,
//!   with pretty-printing, Graphviz rendering and a textual serialization
//!   (the plan-persistence feature of the paper's plan GUI),
//! * [`rules`] — snapshot-equivalence-preserving rewrite rules that
//!   heuristically enumerate plan variants,
//! * [`cost`] — a rate/selectivity cost model fed by catalog defaults and,
//!   when available, observed secondary metadata,
//! * [`Catalog`] — registered streams and relations,
//! * [`compile()`] — translation of a logical plan into physical operators in
//!   a [`pipes_graph::QueryGraph`],
//! * [`Optimizer`] — the multi-query optimizer: it enumerates
//!   snapshot-equivalent variants of a new query, probes each against the
//!   *running* query graph, picks the best by cost (counting shared
//!   subplans as free), and splices only the missing nodes into the graph
//!   via publish–subscribe — extending multi-query optimization to streams
//!   exactly as the paper describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
pub mod compile;
pub mod cost;
mod expr;
mod mqo;
mod plan;
pub mod rules;
pub mod sexpr;
mod value;

pub use catalog::{Catalog, RelationDef, StreamDef, TupleSourceFactory};
pub use compile::{compile, CompileContext};
pub use expr::{BinOp, BoundExpr, Expr, UnOp};
pub use mqo::{InstallReport, Optimizer};
pub use plan::{AggFunc, AggSpec, LogicalPlan, WindowSpec};
pub use value::{Schema, Tuple, Value};
