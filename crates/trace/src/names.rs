//! Well-known event names used by the kernel's instrumentation points.
//!
//! Each constant documents the meaning of the event's `args` triple.
//! Instrumentation is not limited to these — any `&'static str` interns —
//! but sharing constants keeps the replay assertions and exporters in one
//! vocabulary.

/// Span around one `Runnable::step` call inside `QueryGraph::step_node`.
/// args: `[node_id, budget, 0]`.
pub const NODE_STEP: &str = "node.step";

/// Span around one scheduler quantum (strategy decision + node step) in
/// the executor loop. args: `[node_id, quanta_index, 0]`.
pub const QUANTUM: &str = "sched.quantum";

/// Instant when an idle worker parks. args: `[timeout_us, 0, 0]`.
pub const PARK: &str = "sched.park";

/// Instant when a parked worker resumes. args: `[0, 0, 0]`.
pub const UNPARK: &str = "sched.unpark";

/// Instant when a worker observes global completion and raises the stop
/// flag. args: `[0, 0, 0]`.
pub const STOP: &str = "sched.stop";

/// Instant after a multi-threaded run has joined all workers.
/// args: `[n_workers, 0, 0]`.
pub const SHUTDOWN: &str = "sched.shutdown";

/// Instant for a single-message edge push (rare on the batched path).
/// args: `[edge_id, queue_len_after, 0]`.
pub const EDGE_PUSH: &str = "graph.push";

/// Instant for a non-empty `Edge::pop_run` drain.
/// args: `[edge_id, drained, remaining]`.
pub const EDGE_DRAIN: &str = "graph.drain";

/// Instant for one run-level operator dispatch (`Operator::on_run` or the
/// binary pair), emitted after Close stripping and heartbeat coalescing.
/// args: `[run_len, port, coalesced_heartbeats]`.
pub const OP_RUN: &str = "graph.oprun";

/// Instant for one `Outputs::publish_batch` flush.
/// args: `[batch_len, n_subscribers, seq_base]`.
pub const FLUSH: &str = "graph.flush";

/// Instant for the first close broadcast of an output port.
/// args: `[0, 0, 0]`.
pub const CLOSE: &str = "graph.close";

/// Instant when a worker claims a free virtual-node group.
/// args: `[group_id, worker, 0]`.
pub const GROUP_CLAIM: &str = "sched.claim";

/// Instant when an idle worker steals a group from a loaded peer.
/// args: `[group_id, victim_worker, thief_worker]`.
pub const STEAL: &str = "sched.steal";

/// Instant when a worker releases a group back to the free pool (rebalance
/// hand-off). args: `[group_id, worker, epoch]`.
pub const GROUP_RELEASE: &str = "sched.release";

/// Instant when the rebalance leader publishes a new group placement.
/// args: `[epoch, groups_moved, 0]`.
pub const REBALANCE_PLAN: &str = "sched.rebalance";

/// Instant for a targeted owner wakeup: a node turned ready and its owner
/// was parked. args: `[ready_node, woken_worker, 0]`.
pub const WAKE: &str = "sched.wake";

/// Instant for a hot-topology mutation: a node spliced into or retired
/// from the running graph (bumping the topology epoch).
/// args: `[node_id, topology_epoch_after, is_retire]` — `is_retire` is 0
/// for an add, 1 for a retirement.
pub const GRAPH_SPLICE: &str = "graph.splice";

/// Instant when the work-stealing leader re-runs fusion analysis after
/// observing a newer topology epoch.
/// args: `[topology_epoch, new_groups, retired_groups]`.
pub const SCHED_REPLAN: &str = "sched.replan";

/// Instant for one partition-node routing pass over a drained run on a
/// shuffle edge. args: `[run_len, n_instances, routed_messages]` —
/// `routed_messages` counts every message pushed across the per-instance
/// edges (elements once, heartbeats/closes fanned out to all instances).
pub const SHUFFLE: &str = "graph.shuffle";

/// Instant for one aggregate run dispatch (`ScalarAggregate` /
/// `GroupedAggregate` `on_run`), after the burst-grouped inserts.
/// args: `[run_len, bursts, partials_after]` — `partials_after` is the
/// live partial count (summed over keys for the grouped operator), i.e.
/// the depth of the aggregation state after the run.
pub const AGG_INSERT_RUN: &str = "agg.insert_run";

/// Instant for one aggregate finalization sweep triggered by an in-run
/// heartbeat. args: `[heartbeat_ticks, partials_after, is_tree]` —
/// `is_tree` is 1 when the sub-linear partial-aggregate tree layout is
/// active (for the grouped operator: when any live group uses it).
pub const AGG_FINALIZE: &str = "agg.finalize";

/// Instant for one metadata-plane estimator update after a productive
/// quantum (`NodeMeta::record_quantum` on the node-step path).
/// args: `[node_id, consumed, produced]`.
pub const META_UPDATE: &str = "meta.update";

/// Span around one `MemoryManager::rebalance` round.
/// args: `[round, budget, n_subscribers]`.
pub const REBALANCE: &str = "mem.rebalance";

/// Instant for one operator actually shedding state during a rebalance.
/// args: `[round, node_id, shed_count]`.
pub const SHED: &str = "mem.shed";
