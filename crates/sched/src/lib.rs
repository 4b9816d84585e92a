//! # pipes-sched
//!
//! The scheduling framework of PIPES: a 3-layer architecture.
//!
//! 1. **Layer 1 — virtual nodes.** Adjacent operators become one scheduling
//!    unit, two ways: fused *before* graph construction
//!    (`pipes_graph::OperatorExt::then`, no inter-operator queue at all),
//!    or grouped *at launch* by [`ExecutionPlan::analyze`], which walks the
//!    assembled topology and fuses single-producer/single-consumer chains
//!    into [`VirtualGroup`]s that are scheduled and placed together, so
//!    intra-chain edges stay thread-local.
//! 2. **Layer 2 — intra-thread strategies.** Within one thread, an
//!    exchangeable [`Strategy`] decides which node runs its next quantum:
//!    round-robin, FIFO (global arrival order), greedy-by-queue, Chain
//!    (memory-minimizing, after Babcock et al.), rate-based (after
//!    Aurora/Urhan–Franklin), or random. All strategies consume only the
//!    type-erased node view (queue lengths, arrival sequences, observed
//!    selectivity), which is what makes the framework "powerful enough to
//!    compare most of the recent scheduling techniques … within a uniform
//!    framework" (PIPES, SIGMOD 2004). The view hands out the *ready*
//!    members of the candidate set ([`SchedView::ready`]) from the graph's
//!    lock-free ready set, so a pick touches the nodes with work, however
//!    many are installed.
//! 3. **Layer 3 — threads.** [`WorkStealingExecutor`] places the plan's
//!    groups on worker threads, each running its own layer-2 strategy, and
//!    keeps the placement dynamic: workers *own* groups through an atomic
//!    claim protocol ([`GroupTable`]), idle workers steal runnable groups
//!    from loaded peers, a periodic rebalance re-places groups from runtime
//!    queue depths, and a node turning ready wakes the worker that owns it
//!    (targeted unpark, once per transition) instead of relying on park
//!    timeouts.
//!
//! There are two drivers and one quantum routine. [`SingleThreadExecutor`]
//! (layer 2 alone, on the calling thread) and each work-stealing worker run
//! the same private per-thread routine — strategy pick, the quantum span
//! around the one `step_node` call, the report, queue sampling, the quantum
//! cap, the idle valve and the spin → yield → park ladder, none of which
//! locks a node it does not step — and add only
//! their own policy around it: a node list and an optional stop flag, or
//! group ownership, stealing and re-planning.
//!
//! Both collect an [`ExecutionReport`] (throughput, queue memory peaks and
//! averages) — the measurements behind the scheduler-comparison experiments
//! (E5, E16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod plan;
mod steal;
mod strategy;
mod worker;

pub use executor::{ExecutionReport, SingleThreadExecutor};
pub use plan::{ExecutionPlan, GroupId, VirtualGroup};
pub use steal::{GroupTable, Parker};
pub use strategy::{
    ChainStrategy, FifoStrategy, GreedyStrategy, RandomStrategy, RateBasedStrategy, Ready,
    RoundRobinStrategy, SchedView, Strategy,
};
pub use worker::{OwnershipView, WorkStealingExecutor};
