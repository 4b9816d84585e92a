//! # pipes-graph
//!
//! The publish–subscribe query-graph kernel of PIPES.
//!
//! A query graph is a directed acyclic graph of three node kinds:
//!
//! 1. a **source** transfers its elements to a set of subscribed sinks,
//! 2. a **sink** subscribes (and unsubscribes) to multiple sources and
//!    consumes all incoming elements while its subscription holds,
//! 3. an **operator** (*pipe*) combines both: it consumes an incoming
//!    element, processes it, and transfers results to its subscribed sinks.
//!
//! Two transport modes realize a subscription:
//!
//! * **queued** — an edge with a message queue decouples producer and
//!   consumer; the scheduler (`pipes-sched`) drains queues according to an
//!   exchangeable strategy,
//! * **direct** — adjacent operators are *fused* into a virtual node
//!   ([`fuse::Fused`], built with [`OperatorExt::then`]); inside a virtual
//!   node results are handed over by plain function calls, with **no
//!   inter-operator queue** — the overhead reduction the paper claims for
//!   its "novel approach" of direct interoperability.
//!
//! Subscriptions can be added and removed while the graph runs; this is the
//! mechanism by which the multi-query optimizer (`pipes-optimizer`) splices
//! new queries into a running graph.
//!
//! The crate knows nothing about scheduling policies or operator semantics;
//! it provides the kernel on which `pipes-ops` (algebra), `pipes-sched`
//! (strategies), and `pipes-mem` (memory management) are built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edge;
pub mod fuse;
mod graph;
pub mod io;
pub mod meta;
mod node;
mod operator;
mod outputs;
mod ready;
pub mod run;
pub mod shuffle;
pub mod watermark;

pub use edge::{Edge, EdgeId};
pub use fuse::{Fused, OperatorExt};
pub use graph::{NodeInfo, NodeKind, QueryGraph, StreamHandle};
pub use meta::{Confidence, MetaConfig, MetaSnapshot, NodeEstimate};
pub use node::{Runnable, StepReport};
pub use operator::{BinaryOperator, Collector, NodeId, Operator, SinkOp, SourceOp, SourceStatus};
pub use outputs::{OutputPort, Outputs, PublishCollector};
pub use ready::{Marked, MarkedIter, ReadySet, WakeHook};
pub use shuffle::{key_hash, KeyFn, KeyedState, MergeTie, Rekey, ShuffleGroup};
