//! # pipes-meta
//!
//! The *secondary metadata* framework of PIPES.
//!
//! During runtime, each node of a query graph collects secondary metadata —
//! "a kind of synopses, represented by iteratively computed inferential
//! estimators similar to online aggregation" (PIPES, SIGMOD 2004): stream
//! rates, selectivity, memory size, and averages/variances thereof. Runtime
//! components (scheduler, memory manager, optimizer) are parameterized by
//! strategies that consume this metadata.
//!
//! This crate provides:
//!
//! * [`estimators`] — a package of iteratively computed online estimators
//!   (Welford mean/variance, EWMA, min/max, P² quantiles, reservoir samples).
//!   These are *processing-style agnostic*: the same estimators back the
//!   demand-driven cursor aggregates of `pipes-cursor` and the data-driven
//!   stream aggregates of `pipes-ops` (the paper's code-reusability claim).
//! * [`NodeStats`] — cheap, always-on per-node counters (atomics).
//! * [`MetricSet`] / [`MetadataFactory`] — the configurable decorator that
//!   attaches a chosen composition of estimators to a node; the composition
//!   can be altered at runtime.
//! * [`Telemetry`] — the one snapshot of what a query graph publishes
//!   (per live node: description, splice epoch, counters, queue depth,
//!   estimators; plus topology epoch and shuffle groups), as plain data.
//! * [`Monitor`] — the performance-monitoring tool: a time series of those
//!   snapshots keyed by node id, rendered as ASCII sparklines, a `top`
//!   table or CSV.
//! * [`NodeMeta`] — the live metadata plane's per-node block: graph-fed
//!   online rate/selectivity/variance estimators published through a
//!   seqlock so readers never block the stepping thread; compiled out
//!   under the `meta-off` feature (see [`META_COMPILED_OUT`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimators;
mod metrics;
mod monitor;
mod nodemeta;
mod stats;
mod telemetry;

pub use metrics::{EstimatorSpec, MetadataFactory, MetricSet, OnlineEstimator};
pub use monitor::{Monitor, SeriesView, TimeSeries};
pub use nodemeta::{
    meta_enabled, now_secs, set_meta_enabled, NodeMeta, NodeMetaSnapshot, META_COMPILED_OUT,
};
pub use stats::{LatencySummary, NodeStats, StatsSnapshot};
pub use telemetry::{NodeId, NodeInfo, NodeKind, NodeTelemetry, ShuffleGroup, Telemetry};
