//! # PIPES — a Public Infrastructure for Processing and Exploring Streams
//!
//! A Rust reproduction of the PIPES toolkit (Krämer & Seeger, SIGMOD 2004):
//! **not** a monolithic data stream management system, but a library of
//! fundamental, exchangeable building blocks from which a fully functional
//! DSMS prototype can be assembled.
//!
//! ## The blocks
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | time | [`time`] | timestamps, validity intervals, heartbeats, snapshot semantics |
//! | kernel | [`graph`] | publish–subscribe query graphs, typed edges, operator fusion |
//! | algebra | [`ops`] | the non-blocking temporal operator algebra (windows, joins over SweepAreas, aggregation, distinct, difference, rate reduction) |
//! | scheduling | [`sched`] | the 3-layer scheduler framework with exchangeable strategies |
//! | memory | [`mem`] | the adaptive memory manager with load shedding |
//! | metadata | [`meta`] | secondary-metadata estimators, decorator factory, performance monitor |
//! | observability | [`trace`] | always-on flight recorder, Chrome-trace / Prometheus exporters, source-to-sink latency pipeline |
//! | demand-driven | [`cursor`] | the cursor algebra and cursor⇄stream translation |
//! | persistence | [`rel`] | indexed relations, stream–relation joins, historical replay |
//! | relational | [`optimizer`] | tuples, expressions, logical plans, rewrite rules, multi-query optimization |
//! | language | [`cql`] | the CQL front end |
//! | scenarios | [`traffic`], [`nexmark`] | the demonstration applications |
//!
//! ## Quickstart
//!
//! ```
//! use pipes::prelude::*;
//!
//! // Register a stream, install a CQL query, run the graph.
//! let mut catalog = Catalog::new();
//! pipes::nexmark::register(
//!     &mut catalog,
//!     pipes::nexmark::generator::NexmarkConfig {
//!         max_events: 2_000,
//!         mean_inter_event_ms: 400.0,
//!         ..Default::default()
//!     },
//! );
//!
//! let plan = pipes::cql::compile_cql(
//!     "SELECT MAX(price) AS highest FROM bid [RANGE 10 MINUTES] EVERY 10 MINUTES",
//!     &catalog,
//! ).unwrap();
//!
//! let graph = QueryGraph::new();
//! let mut optimizer = Optimizer::new();
//! let installed = optimizer.install(&plan, &graph, &catalog).unwrap();
//!
//! let (sink, results) = CollectSink::new();
//! graph.add_sink("results", sink, &installed.handle);
//! graph.run_to_completion(256);
//! assert!(!results.lock().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pipes_cql as cql;
pub use pipes_cursor as cursor;
pub use pipes_graph as graph;
pub use pipes_mem as mem;
pub use pipes_meta as meta;
pub use pipes_nexmark as nexmark;
pub use pipes_ops as ops;
pub use pipes_optimizer as optimizer;
pub use pipes_rel as rel;
pub use pipes_sched as sched;
pub use pipes_time as time;
pub use pipes_trace as trace;
pub use pipes_traffic as traffic;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use pipes_cql::compile_cql;
    pub use pipes_cursor::{Cursor, CursorExt, VecCursor};
    pub use pipes_graph::io::{CollectSink, CountSink, FnSink, GenSource, VecSource};
    pub use pipes_graph::{
        key_hash, BinaryOperator, Collector, Confidence, KeyFn, KeyedState, MergeTie, MetaConfig,
        MetaSnapshot, NodeEstimate, NodeId, Operator, OperatorExt, QueryGraph, Rekey, ShuffleGroup,
        SinkOp, SourceOp, SourceStatus, StreamHandle,
    };
    pub use pipes_mem::{AssignmentStrategy, MemoryManager};
    pub use pipes_meta::{MetadataFactory, Monitor, NodeStats, SeriesView};
    pub use pipes_ops::aggregate::{
        AggStrategy, AvgAgg, CountAgg, MaxAgg, MinAgg, StatsAgg, SumAgg, WithCombine,
    };
    pub use pipes_ops::{
        Coalesce, CountWindow, Difference, Distinct, Filter, FlatMap, Granularity,
        GroupedAggregate, Map, MultiwayJoin, NowWindow, PartitionedCountWindow, RippleJoin,
        ScalarAggregate, TimeWindow, Union,
    };
    pub use pipes_optimizer::{
        Catalog, Expr, LogicalPlan, Optimizer, Schema, Tuple, Value, WindowSpec,
    };
    pub use pipes_sched::{
        ChainStrategy, ExecutionPlan, ExecutionReport, FifoStrategy, GreedyStrategy,
        RandomStrategy, RateBasedStrategy, RoundRobinStrategy, SingleThreadExecutor, Strategy,
        WorkStealingExecutor,
    };
    pub use pipes_time::{Duration, Element, Message, TimeInterval, Timestamp};
}
