//! The telemetry snapshot: everything a query graph publishes about
//! itself, as plain data.
//!
//! `QueryGraph::telemetry()` (in `pipes-graph`) is the one gather: it walks
//! the live nodes once and copies, per node, the static description, the
//! splice epoch, the always-on counters, the readiness cell's queue depth
//! and retained elements, and the metadata plane's estimator snapshot.
//! Every consumer — [`crate::Monitor`]'s time series, the Prometheus
//! renderer in `pipes-trace`, the graph's own estimate derivation — is a
//! function of this value and never touches a node handle. The types live
//! here because this is the lowest crate both `pipes-trace` and
//! `pipes-graph` depend on; `pipes-graph` re-exports the ones that describe
//! its topology.

use crate::{NodeMetaSnapshot, StatsSnapshot};

/// Index of a node within its query graph. Ids are dense, assigned in
/// subscription order and never reused.
pub type NodeId = usize;

/// The role a node plays in the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Produces data, consumes nothing.
    Source,
    /// Consumes and produces (a *pipe*).
    Operator,
    /// Consumes data, produces nothing.
    Sink,
}

/// Static description of a node, for topology-aware strategies and plan
/// rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node id.
    pub id: NodeId,
    /// Display name given at registration.
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// Ids of the nodes this node subscribes to.
    pub upstream: Vec<NodeId>,
    /// Whether the node has been removed from the graph.
    pub removed: bool,
}

/// One keyed-parallel (shuffle) group of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShuffleGroup {
    /// The name the group was registered under.
    pub name: String,
    /// The merge node's id — the handle `QueryGraph::parallelize` accepts
    /// and the node id on the group's output stream handle.
    pub handle: NodeId,
    /// The partition node ids (one for unary groups, two for binary).
    pub partition_ids: Vec<NodeId>,
    /// The current generation's instance node ids.
    pub instance_ids: Vec<NodeId>,
}

/// One live node's row of a [`Telemetry`] snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeTelemetry {
    /// Id, name, kind and upstream ids (the node cell's own fields).
    pub info: NodeInfo,
    /// The topology epoch the node entered the graph at.
    pub spliced_epoch: u64,
    /// The always-on counters and latency quantiles (the node's
    /// [`crate::NodeStats`]).
    pub stats: StatsSnapshot,
    /// Messages queued at the node's inputs right now (its readiness cell).
    pub queue_len: usize,
    /// Operator state in retained elements as of the node's last step (its
    /// readiness cell).
    pub memory: usize,
    /// The metadata plane's estimators (the node's [`crate::NodeMeta`]);
    /// `None` until the first productive quantum, or with the plane off.
    pub meta: Option<NodeMetaSnapshot>,
}

/// A point-in-time copy of what a query graph publishes: its live nodes in
/// id order, its topology epoch and its shuffle groups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// The graph's monotone topology epoch (bumps on splice and retire).
    pub topology_epoch: u64,
    /// One row per live (non-retired) node, ascending by id.
    pub nodes: Vec<NodeTelemetry>,
    /// The keyed-parallel groups.
    pub groups: Vec<ShuffleGroup>,
}

impl Telemetry {
    /// The row of node `id`, if it is live.
    pub fn node(&self, id: NodeId) -> Option<&NodeTelemetry> {
        let at = self.nodes.binary_search_by_key(&id, |n| n.info.id).ok()?;
        Some(&self.nodes[at])
    }
}
