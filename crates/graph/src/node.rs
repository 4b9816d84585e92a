//! Type-erased runnable nodes wrapping typed operators — and the one place
//! a node's step loop is written.
//!
//! Every consuming node runs the same *batched* data path: it asks
//! [`frontier`] which input port goes next and how far a run from it may
//! reach, drains that run with [`Edge::pop_run`] (one lock per run, not per
//! message) into node-owned scratch, and hands it on. Three decisions vary
//! between node kinds, and nothing else does:
//!
//! 1. **Which port goes next** is not chosen by the node at all: it is
//!    *observed from the input edges*. A direct port (fed at publish time)
//!    that is empty is skipped; a *gated* port (fed by a shuffle stage that
//!    can lag behind the published stream) that is open and empty blocks
//!    the node — the strict frontier. [`frontier`] is the one locked
//!    function holding both rules; `ReadyCell::demand` is its lock-free
//!    mirror.
//! 2. **In what unit a drained run is dispatched** and
//! 3. **how output leaves** are the [`Emit`] policy, chosen statically:
//!    [`Published`] strips the terminal `Close`, coalesces adjacent
//!    heartbeats (see [`crate::run`]), dispatches the whole run and stamps
//!    output with a fresh sequence block through [`Outputs`]; [`Stamped`]
//!    dispatches chunks of consecutive arrival sequences and pushes output
//!    onto a raw edge under the chunk's own stamp (the keyed instances of
//!    [`crate::shuffle`]).
//!
//! [`OpNode`] and [`BinNode`] are generic over the emitter; the plain graph
//! builders instantiate them with [`Published`], the keyed builders with
//! [`Stamped`]. Sinks consume per message — they record every message
//! anyway, so heartbeat coalescing would change what tests observe for no
//! gain — and have no output side.
//!
//! **A closed input is at the horizon.** No element will ever arrive on a
//! port whose `Close` has been taken, so its function of time is known up
//! to `Timestamp::MAX`. When `OpNode` or `BinNode` takes a port's `Close`
//! while another port is still open, it hands the operator a heartbeat at
//! `Timestamp::MAX` on that port (under [`Stamped`], at the `Close`'s
//! stamp). A multi-input operator already combines per-port heartbeats
//! into its output progress, so this is all it needs to keep progressing
//! on the ports still open. The last `Close` goes to `on_close` alone.

use crate::edge::Edge;
use crate::operator::{BinaryOperator, Collector, Operator, SinkOp, SourceOp, SourceStatus};
use crate::outputs::{Outputs, PublishCollector, DEFAULT_FLUSH_CAP};
use crate::run::{coalesce_adjacent_heartbeats, take_trailing_close};
use pipes_meta::NodeStats;
use pipes_sync::Arc;
use pipes_time::{Element, Message, Timestamp};
use pipes_trace::LatencyTracker;

/// Sinks on the latency pipeline observe every Nth element rather than all
/// of them: the P² update and stamp lookup stay off the per-tuple path.
const LATENCY_SAMPLE_EVERY: u64 = 32;

/// What one scheduling quantum accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Messages consumed from input queues (sources: always 0).
    pub consumed: usize,
    /// Elements produced downstream.
    pub produced: usize,
    /// Input runs drained in one lock acquisition each (sources: always 0).
    /// `consumed / batches` is the mean batch size of the quantum.
    pub batches: usize,
    /// Largest single run (in messages) drained from one input edge this
    /// quantum (sources: always 0).
    pub peak_run: usize,
}

impl StepReport {
    /// Accounts one drained input run of `n` messages.
    pub(crate) fn drained(&mut self, n: usize) {
        self.batches += 1;
        self.consumed += n;
        self.peak_run = self.peak_run.max(n);
    }
}

/// The type-erased face of a node, as [`crate::QueryGraph::step_node`] and
/// the memory manager drive it. Payload types are hidden inside. What a
/// node has queued is not asked of it: its input edges publish that into
/// the graph's [`crate::ReadySet`], where schedulers read it.
pub trait Runnable: Send {
    /// Runs one scheduling quantum of at most `budget` messages.
    fn step(&mut self, budget: usize) -> StepReport;
    /// Whether the node will never produce work again.
    fn is_finished(&self) -> bool;
    /// Current operator state size in retained elements. Default: 0
    /// (stateless).
    fn memory(&self) -> usize {
        0
    }
    /// Estimated operator state footprint in bytes (see
    /// `Operator::state_bytes`). Default: 0 (unreported).
    fn state_bytes(&self) -> usize {
        0
    }
    /// Sheds operator state to roughly `target` elements; returns new size.
    /// Default: nothing to shed.
    fn shed(&mut self, target: usize) -> usize {
        let _ = target;
        0
    }
    /// Caps how many messages one input run may drain (and how many output
    /// messages are buffered before a flush). A limit of 1 degenerates to
    /// the per-message data path; the default is effectively unbounded.
    fn set_batch_limit(&mut self, limit: usize) {
        let _ = limit;
    }
    /// Joins the node to a source-to-sink latency pipeline. Sources stamp
    /// `(logical start, wall clock)` pairs into `tracker` as they produce;
    /// sinks look elements up against those stamps and record the observed
    /// latency into `stats`. Interior nodes ignore the call.
    fn attach_latency(&mut self, tracker: Arc<LatencyTracker>, stats: Arc<NodeStats>) {
        let _ = (tracker, stats);
    }
    /// Typed access for live reconfiguration: operator nodes and the
    /// shuffle stages (see [`crate::shuffle`]) return themselves so
    /// `QueryGraph::parallelize` can retarget routing tables and move keyed
    /// operator state while the graph runs. Everything else returns `None`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Wraps a collector to track the largest element-start timestamp that
/// passed through during one produce quantum, so the source can stamp the
/// latency tracker once per quantum instead of once per element.
struct StampingCollector<'a, 'b, T> {
    inner: &'a mut dyn Collector<T>,
    max_ticks: &'b mut Option<u64>,
}

impl<T> Collector<T> for StampingCollector<'_, '_, T> {
    fn element(&mut self, e: Element<T>) {
        let t = e.start().ticks();
        if self.max_ticks.is_none_or(|m| t > m) {
            *self.max_ticks = Some(t);
        }
        self.inner.element(e);
    }
    fn heartbeat(&mut self, t: Timestamp) {
        self.inner.heartbeat(t);
    }
}

/// Output flush cap for a given batch limit: batch-limit-1 must flush per
/// message; otherwise the cap bounds scratch growth for expansive operators.
fn flush_cap(batch_limit: usize) -> usize {
    batch_limit.min(DEFAULT_FLUSH_CAP)
}

// ---------------------------------------------------------------------------
// The input frontier
// ---------------------------------------------------------------------------

/// One input port as its consumer observes it under the queue lock (see
/// [`Edge::view`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PortView {
    /// Arrival sequence of the oldest queued message.
    pub(crate) head: Option<u64>,
    /// Messages queued.
    pub(crate) len: usize,
    /// The port holds a strict frontier: created gated, and its consumer
    /// has not taken its `Close` yet (a closed port is never gated).
    pub(crate) gated: bool,
}

/// The run a node takes next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Next {
    /// The port to drain.
    pub(crate) port: usize,
    /// Its head: the oldest message the node can take.
    pub(crate) seq: u64,
    /// The largest arrival sequence the run may include without overtaking
    /// another port's head.
    pub(crate) bound: u64,
}

/// What a node's input ports allow right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// Messages the node can get at: every port's, or 0 while it is
    /// blocked — reporting the backlog behind a blocked frontier would make
    /// seq-ordered strategies spin on this node while the one that feeds
    /// the empty port starves.
    pub(crate) queued: usize,
    /// `None` when every port is empty, or the node is blocked.
    pub(crate) next: Option<Next>,
}

/// The input-frontier rule, for every node kind.
///
/// *Earliest head first*: processing in global arrival order keeps
/// multi-port operators fair and lets watermarks advance promptly. *The
/// lower port index wins ties* (fan-out copies of one publish reaching two
/// ports of the same node), and the run is *bounded by the other heads*:
/// from the winning port it may take sequences up to the runner-up's —
/// inclusive if the runner-up would lose the tie, exclusive if it would win
/// — so cross-port arrival order is that of per-message processing.
///
/// *An open, empty, gated port blocks the node*: a direct port is fed at
/// publish time, so everything still to come outranks what is queued and
/// an empty one can be skipped; a gated port is fed by a partitioner or a
/// keyed instance that can lag behind the published stream, so a smaller
/// sequence may still be in transit and nothing may be taken until it has
/// a head or has delivered its `Close`. Liveness comes from broadcast
/// heartbeats: every shuffle stage forwards them to every port.
pub(crate) fn frontier(ports: impl Iterator<Item = PortView>) -> Frontier {
    let mut queued = 0;
    // The two smallest heads in (seq, port) order; ports ascend, so a later
    // port displaces an earlier one only with a strictly smaller sequence.
    let mut best: Option<(u64, usize)> = None;
    let mut runner_up: Option<(u64, usize)> = None;
    for (port, view) in ports.enumerate() {
        let Some(seq) = view.head else {
            if view.gated {
                return Frontier {
                    queued: 0,
                    next: None,
                };
            }
            continue;
        };
        queued += view.len;
        if best.is_none_or(|(s, _)| seq < s) {
            runner_up = best;
            best = Some((seq, port));
        } else if runner_up.is_none_or(|(s, _)| seq < s) {
            runner_up = Some((seq, port));
        }
    }
    let next = best.map(|(seq, port)| Next {
        port,
        seq,
        bound: match runner_up {
            None => u64::MAX,
            Some((s, other)) if port < other => s,
            Some((s, _)) => s.saturating_sub(1),
        },
    });
    Frontier { queued, next }
}

/// The frontier of a node whose ports all carry one payload type.
pub(crate) fn frontier_of<I>(inputs: &[Arc<Edge<I>>]) -> Frontier {
    frontier(inputs.iter().map(|edge| edge.view()))
}

// ---------------------------------------------------------------------------
// The emitter seam
// ---------------------------------------------------------------------------

/// How a node's output leaves it, and in what unit a drained run reaches
/// the operator. Statically dispatched: a node type names its emitter.
pub(crate) trait Emit<T>: Send + 'static {
    /// The output side of one quantum.
    type Quantum<'a>: Quantum<T>
    where
        Self: 'a;
    /// Opens the output side of a quantum of the given batch limit.
    fn quantum(&mut self, batch_limit: usize) -> Self::Quantum<'_>;
}

/// The output side of one scheduling quantum (see [`Emit`]).
pub(crate) trait Quantum<T> {
    /// Hands the drained run to `on_run` in this emitter's dispatch unit
    /// (`drained` and `run` are left empty). Returns the stamp of the
    /// `Close` that ended the run, if one did.
    fn dispatch<I>(
        &mut self,
        port: usize,
        drained: &mut Vec<(u64, Message<I>)>,
        run: &mut Vec<Message<I>>,
        on_run: impl FnMut(&mut Vec<Message<I>>, &mut dyn Collector<T>),
    ) -> Option<u64>;
    /// The collector for output caused by the input message stamped `stamp`.
    fn at(&mut self, stamp: u64) -> &mut dyn Collector<T>;
    /// Ends the stream, after everything emitted so far.
    fn close(&mut self, stamp: u64);
    /// Flushes; returns what the quantum handed downstream.
    fn end(self) -> usize;
}

/// Output through a regular [`Outputs`] port: buffered per quantum, stamped
/// with one fresh sequence block per flush. Input runs are dispatched
/// whole.
pub(crate) struct Published<T> {
    outputs: Arc<Outputs<T>>,
    buf: Vec<Message<T>>,
}

impl<T> Published<T> {
    pub(crate) fn new(outputs: Arc<Outputs<T>>) -> Self {
        Published {
            outputs,
            buf: Vec::new(),
        }
    }
}

impl<T: Clone + Send + 'static> Emit<T> for Published<T> {
    type Quantum<'a> = PublishCollector<'a, T>;
    fn quantum(&mut self, batch_limit: usize) -> PublishCollector<'_, T> {
        PublishCollector::new(&self.outputs, &mut self.buf).with_flush_cap(flush_cap(batch_limit))
    }
}

impl<T: Clone> Quantum<T> for PublishCollector<'_, T> {
    fn dispatch<I>(
        &mut self,
        port: usize,
        drained: &mut Vec<(u64, Message<I>)>,
        run: &mut Vec<Message<I>>,
        mut on_run: impl FnMut(&mut Vec<Message<I>>, &mut dyn Collector<T>),
    ) -> Option<u64> {
        let last = drained.last().map(|(seq, _)| *seq);
        run.extend(drained.drain(..).map(|(_, msg)| msg));
        let close = if take_trailing_close(run) { last } else { None };
        if !run.is_empty() {
            let coalesced = coalesce_adjacent_heartbeats(run);
            pipes_trace::instant_coarse(
                pipes_trace::names::OP_RUN,
                [run.len() as u64, port as u64, coalesced as u64],
            );
            on_run(run, self);
            run.clear();
        }
        close
    }
    fn at(&mut self, _stamp: u64) -> &mut dyn Collector<T> {
        self
    }
    fn close(&mut self, _stamp: u64) {
        self.publish_close();
    }
    fn end(mut self) -> usize {
        self.finish()
    }
}

/// Output onto one raw edge with **preserved stamps** — the keyed instances
/// behind a shuffle edge. An input run is dispatched in maximal chunks of
/// *consecutive* arrival sequences, and every emission carries its chunk's
/// first sequence: exact, because a consecutive-sequence chunk by
/// construction contains no message routed elsewhere, so the
/// single-instance plan would have processed exactly this chunk at this
/// point in arrival order. Heartbeats are always their own chunk, so flush
/// output triggered by a broadcast carries exactly the broadcast's stamp on
/// every instance, and `Close` goes out at its own stamp.
pub(crate) struct Stamped<T> {
    out: Arc<Edge<T>>,
    buf: Vec<(u64, Message<T>)>,
}

impl<T> Stamped<T> {
    pub(crate) fn new(out: Arc<Edge<T>>) -> Self {
        Stamped {
            out,
            buf: Vec::new(),
        }
    }
}

impl<T: Send + 'static> Emit<T> for Stamped<T> {
    type Quantum<'a> = StampedQuantum<'a, T>;
    fn quantum(&mut self, _batch_limit: usize) -> StampedQuantum<'_, T> {
        StampedQuantum {
            out: &self.out,
            buf: &mut self.buf,
            stamp: 0,
        }
    }
}

/// A [`Collector`] stamping every emission with one arrival sequence; the
/// buffer goes downstream with [`Edge::push_stamped_batch`] at the end of
/// the quantum.
pub(crate) struct StampedQuantum<'a, T> {
    out: &'a Edge<T>,
    buf: &'a mut Vec<(u64, Message<T>)>,
    stamp: u64,
}

impl<T> Collector<T> for StampedQuantum<'_, T> {
    fn element(&mut self, e: Element<T>) {
        self.buf.push((self.stamp, Message::Element(e)));
    }
    fn heartbeat(&mut self, t: Timestamp) {
        self.buf.push((self.stamp, Message::Heartbeat(t)));
    }
    fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }
}

impl<T> Quantum<T> for StampedQuantum<'_, T> {
    fn dispatch<I>(
        &mut self,
        _port: usize,
        drained: &mut Vec<(u64, Message<I>)>,
        run: &mut Vec<Message<I>>,
        mut on_run: impl FnMut(&mut Vec<Message<I>>, &mut dyn Collector<T>),
    ) -> Option<u64> {
        let mut chunk = |out: &mut Self, run: &mut Vec<Message<I>>, stamp| {
            out.stamp = stamp;
            on_run(run, out);
            run.clear();
        };
        let (mut start, mut next, mut close) = (0, 0, None);
        for (seq, msg) in drained.drain(..) {
            match msg {
                Message::Element(_) => {
                    if !run.is_empty() && seq != next {
                        chunk(self, run, start);
                    }
                    if run.is_empty() {
                        start = seq;
                    }
                    run.push(msg);
                    next = seq + 1;
                }
                Message::Heartbeat(_) => {
                    if !run.is_empty() {
                        chunk(self, run, start);
                    }
                    run.push(msg);
                    chunk(self, run, seq);
                }
                // The run's last message (`pop_run` stops at it).
                Message::Close => close = Some(seq),
            }
        }
        if !run.is_empty() {
            chunk(self, run, start);
        }
        close
    }
    fn at(&mut self, stamp: u64) -> &mut dyn Collector<T> {
        self.stamp = stamp;
        self
    }
    fn close(&mut self, stamp: u64) {
        self.buf.push((stamp, Message::Close));
    }
    /// Counts every message handed to the merge (forwarded heartbeats and
    /// `Close` included), not only elements.
    fn end(self) -> usize {
        let pushed = self.buf.len();
        self.out.push_stamped_batch(self.buf);
        pushed
    }
}

/// The buffers one drained run passes through on its way to the operator.
struct Scratch<I> {
    drained: Vec<(u64, Message<I>)>,
    run: Vec<Message<I>>,
}

impl<I> Default for Scratch<I> {
    fn default() -> Self {
        Scratch {
            drained: Vec::new(),
            run: Vec::new(),
        }
    }
}

/// Drains the run `next` allows (at most `max` messages) from `edge` and
/// dispatches it through `out`. `None` when nothing could be taken;
/// otherwise the stamp of the `Close` that ended the run, if one did.
fn drain_run<I, T>(
    edge: &Edge<I>,
    next: Next,
    max: usize,
    scratch: &mut Scratch<I>,
    out: &mut impl Quantum<T>,
    report: &mut StepReport,
    on_run: impl FnMut(&mut Vec<Message<I>>, &mut dyn Collector<T>),
) -> Option<Option<u64>> {
    let n = edge.pop_run(max, next.bound, &mut scratch.drained);
    if n == 0 {
        return None;
    }
    report.drained(n);
    let close = out.dispatch(next.port, &mut scratch.drained, &mut scratch.run, on_run);
    if close.is_some() {
        // The consumer took this port's `Close`: empty, it no longer blocks.
        edge.open_gate();
    }
    Some(close)
}

// ---------------------------------------------------------------------------
// Source node
// ---------------------------------------------------------------------------

/// Wraps a [`SourceOp`] as a runnable node.
pub(crate) struct SourceNode<S: SourceOp> {
    op: S,
    outputs: Arc<Outputs<S::Out>>,
    exhausted: bool,
    batch_limit: usize,
    out_scratch: Vec<Message<S::Out>>,
    latency: Option<Arc<LatencyTracker>>,
}

impl<S: SourceOp> SourceNode<S> {
    /// Creates a source node publishing to `outputs`.
    pub(crate) fn new(op: S, outputs: Arc<Outputs<S::Out>>) -> Self {
        SourceNode {
            op,
            outputs,
            exhausted: false,
            batch_limit: usize::MAX,
            out_scratch: Vec::new(),
            latency: None,
        }
    }
}

impl<S: SourceOp> Runnable for SourceNode<S> {
    fn step(&mut self, budget: usize) -> StepReport {
        if self.exhausted {
            return StepReport::default();
        }
        let mut collector = PublishCollector::new(&self.outputs, &mut self.out_scratch)
            .with_flush_cap(flush_cap(self.batch_limit));
        let status;
        if let Some(tracker) = &self.latency {
            let mut max_ticks = None;
            let mut stamping = StampingCollector {
                inner: &mut collector,
                max_ticks: &mut max_ticks,
            };
            status = self.op.produce(budget, &mut stamping);
            if let Some(logical) = max_ticks {
                // One stamp per quantum, taken before the final flush. The
                // stamp covers every element of the quantum, so per-element
                // latencies are slight overestimates (conservative for SLO
                // monitoring). Elements flushed mid-quantum by the output
                // cap may briefly outrun their stamp; sinks simply skip
                // samples with no covering stamp.
                tracker.stamp(logical, pipes_trace::now_ns());
            }
        } else {
            status = self.op.produce(budget, &mut collector);
        }
        let produced = collector.finish();
        drop(collector);
        if status == SourceStatus::Exhausted {
            self.exhausted = true;
            self.outputs.publish_close();
        }
        StepReport {
            consumed: 0,
            produced,
            batches: 0,
            peak_run: 0,
        }
    }

    fn is_finished(&self) -> bool {
        self.exhausted
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn attach_latency(&mut self, tracker: Arc<LatencyTracker>, _stats: Arc<NodeStats>) {
        self.latency = Some(tracker);
    }
}

// ---------------------------------------------------------------------------
// Operator node (n-ary, homogeneous input type)
// ---------------------------------------------------------------------------

/// Wraps an [`Operator`] with its input edges and its emitter.
pub(crate) struct OpNode<O: Operator, E> {
    pub(crate) op: O,
    inputs: Vec<Arc<Edge<O::In>>>,
    /// Ports that have not delivered their `Close` yet. Each edge carries
    /// exactly one `Close`, also when its subscription races the
    /// publisher's close (`Outputs` serialises the two on its `subs` lock).
    open: usize,
    emit: E,
    closed: bool,
    batch_limit: usize,
    scratch: Scratch<O::In>,
}

impl<O: Operator, E: Emit<O::Out>> OpNode<O, E> {
    /// Creates an operator node reading from `inputs` (one edge per port).
    pub(crate) fn new(op: O, inputs: Vec<Arc<Edge<O::In>>>, emit: E) -> Self {
        OpNode {
            op,
            open: inputs.len(),
            inputs,
            emit,
            closed: false,
            batch_limit: usize::MAX,
            scratch: Scratch::default(),
        }
    }
}

impl<O: Operator, E: Emit<O::Out>> Runnable for OpNode<O, E> {
    fn step(&mut self, budget: usize) -> StepReport {
        let mut report = StepReport::default();
        if self.closed {
            return report;
        }
        let mut out = self.emit.quantum(self.batch_limit);
        while report.consumed < budget {
            let Some(next) = frontier_of(&self.inputs).next else {
                break;
            };
            let max = (budget - report.consumed).min(self.batch_limit);
            let (op, port) = (&mut self.op, next.port);
            let drained = drain_run(
                &self.inputs[port],
                next,
                max,
                &mut self.scratch,
                &mut out,
                &mut report,
                |run, col| op.on_run(port, run, col),
            );
            let Some(close) = drained else { break };
            if let Some(stamp) = close {
                self.open -= 1;
                if self.open > 0 {
                    // A closed input is at the horizon (module docs).
                    self.op.on_heartbeat(port, Timestamp::MAX, out.at(stamp));
                } else {
                    self.op.on_close(out.at(stamp));
                    out.close(stamp);
                    self.closed = true;
                    break;
                }
            }
        }
        report.produced = out.end();
        report
    }

    fn is_finished(&self) -> bool {
        self.closed
    }

    fn memory(&self) -> usize {
        self.op.memory()
    }

    fn state_bytes(&self) -> usize {
        self.op.state_bytes()
    }

    fn shed(&mut self, target: usize) -> usize {
        self.op.shed(target)
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Binary operator node
// ---------------------------------------------------------------------------

/// Wraps a [`BinaryOperator`] with one edge per side and its emitter.
pub(crate) struct BinNode<B: BinaryOperator, E> {
    pub(crate) op: B,
    left: Arc<Edge<B::Left>>,
    right: Arc<Edge<B::Right>>,
    /// Sides that have not delivered their `Close` yet.
    open: usize,
    emit: E,
    closed: bool,
    batch_limit: usize,
    left_scratch: Scratch<B::Left>,
    right_scratch: Scratch<B::Right>,
}

impl<B: BinaryOperator, E: Emit<B::Out>> BinNode<B, E> {
    /// Creates a binary node reading from `left` (port 0) and `right`
    /// (port 1).
    pub(crate) fn new(
        op: B,
        left: Arc<Edge<B::Left>>,
        right: Arc<Edge<B::Right>>,
        emit: E,
    ) -> Self {
        BinNode {
            op,
            left,
            right,
            open: 2,
            emit,
            closed: false,
            batch_limit: usize::MAX,
            left_scratch: Scratch::default(),
            right_scratch: Scratch::default(),
        }
    }

    fn frontier(left: &Edge<B::Left>, right: &Edge<B::Right>) -> Frontier {
        frontier([left.view(), right.view()].into_iter())
    }
}

impl<B: BinaryOperator, E: Emit<B::Out>> Runnable for BinNode<B, E> {
    fn step(&mut self, budget: usize) -> StepReport {
        let mut report = StepReport::default();
        if self.closed {
            return report;
        }
        let mut out = self.emit.quantum(self.batch_limit);
        while report.consumed < budget {
            let Some(next) = Self::frontier(&self.left, &self.right).next else {
                break;
            };
            let max = (budget - report.consumed).min(self.batch_limit);
            let (op, is_left) = (&mut self.op, next.port == 0);
            let (out, report) = (&mut out, &mut report);
            let drained = if is_left {
                let scratch = &mut self.left_scratch;
                drain_run(&self.left, next, max, scratch, out, report, |run, col| {
                    op.on_run_left(run, col)
                })
            } else {
                let scratch = &mut self.right_scratch;
                drain_run(&self.right, next, max, scratch, out, report, |run, col| {
                    op.on_run_right(run, col)
                })
            };
            let Some(close) = drained else { break };
            if let Some(stamp) = close {
                self.open -= 1;
                if self.open > 0 {
                    // A closed input is at the horizon (module docs).
                    let out = out.at(stamp);
                    if is_left {
                        self.op.on_heartbeat_left(Timestamp::MAX, out);
                    } else {
                        self.op.on_heartbeat_right(Timestamp::MAX, out);
                    }
                } else {
                    self.op.on_close(out.at(stamp));
                    out.close(stamp);
                    self.closed = true;
                    break;
                }
            }
        }
        report.produced = out.end();
        report
    }

    fn is_finished(&self) -> bool {
        self.closed
    }

    fn memory(&self) -> usize {
        self.op.memory()
    }

    fn state_bytes(&self) -> usize {
        self.op.state_bytes()
    }

    fn shed(&mut self, target: usize) -> usize {
        self.op.shed(target)
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Sink node
// ---------------------------------------------------------------------------

/// Wraps a [`SinkOp`] with its input edges.
pub(crate) struct SinkNode<K: SinkOp> {
    op: K,
    inputs: Vec<Arc<Edge<K::In>>>,
    /// Ports that have not delivered their `Close` yet.
    open: usize,
    batch_limit: usize,
    in_scratch: Vec<(u64, Message<K::In>)>,
    latency: Option<(Arc<LatencyTracker>, Arc<NodeStats>)>,
    latency_ctr: u64,
}

impl<K: SinkOp> SinkNode<K> {
    /// Creates a sink node reading from `inputs` (one edge per port).
    pub(crate) fn new(op: K, inputs: Vec<Arc<Edge<K::In>>>) -> Self {
        SinkNode {
            op,
            open: inputs.len(),
            inputs,
            batch_limit: usize::MAX,
            in_scratch: Vec::new(),
            latency: None,
            latency_ctr: 0,
        }
    }
}

impl<K: SinkOp> Runnable for SinkNode<K> {
    fn step(&mut self, budget: usize) -> StepReport {
        let mut report = StepReport::default();
        let mut run = std::mem::take(&mut self.in_scratch);
        // Latency samples observed this quantum; folded into the node's
        // quantile estimators in one batch (one stats lock per quantum).
        let mut lat_samples: Vec<u64> = Vec::new();
        while report.consumed < budget {
            let Some(Next { port, bound, .. }) = frontier_of(&self.inputs).next else {
                break;
            };
            let max = (budget - report.consumed).min(self.batch_limit);
            let n = self.inputs[port].pop_run(max, bound, &mut run);
            if n == 0 {
                break;
            }
            report.drained(n);
            for (_, msg) in run.drain(..) {
                match &msg {
                    Message::Close => self.open -= 1,
                    Message::Element(e) => {
                        if let Some((tracker, _)) = &self.latency {
                            self.latency_ctr += 1;
                            // `== 1` so the very first element is sampled:
                            // short streams still produce a summary.
                            if self.latency_ctr % LATENCY_SAMPLE_EVERY == 1 {
                                let logical = e.start().ticks();
                                if let Some(lat) = tracker.observe(logical, pipes_trace::now_ns()) {
                                    lat_samples.push(lat);
                                }
                            }
                        }
                    }
                    Message::Heartbeat(_) => {}
                }
                self.op.on_message(port, msg);
            }
        }
        self.in_scratch = run;
        if let Some((_, stats)) = &self.latency {
            stats.record_latency_ns(&lat_samples);
        }
        report
    }

    /// `Close` is the last message of its edge: with every one taken,
    /// nothing is left to consume.
    fn is_finished(&self) -> bool {
        self.open == 0
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn attach_latency(&mut self, tracker: Arc<LatencyTracker>, stats: Arc<NodeStats>) {
        self.latency = Some((tracker, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frontier rules as the nodes spelled them inline before there was
    /// one probe (commit 053dbe0), kept verbatim as the oracle the probe is
    /// checked against.
    mod oracle {
        /// `earliest_port` + `run_bound`: `OpNode` and `SinkNode`.
        pub fn direct(heads: &[Option<u64>]) -> Option<(usize, u64)> {
            let mut best: Option<(u64, usize)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(seq) = *head {
                    if best.is_none_or(|(s, _)| seq < s) {
                        best = Some((seq, i));
                    }
                }
            }
            let (_, port) = best?;
            let mut bound = u64::MAX;
            for (i, head) in heads.iter().enumerate() {
                if i == port {
                    continue;
                }
                if let Some(seq) = *head {
                    let b = if port < i { seq } else { seq.saturating_sub(1) };
                    bound = bound.min(b);
                }
            }
            Some((port, bound))
        }

        fn side(take_left: bool, ls: Option<u64>, rs: Option<u64>) -> (usize, u64) {
            if take_left {
                // Left wins sequence ties: its run may include the right
                // head's sequence itself.
                (0, rs.unwrap_or(u64::MAX))
            } else {
                (1, ls.map_or(u64::MAX, |l| l.saturating_sub(1)))
            }
        }

        /// `BinNode::step`.
        pub fn bin(ls: Option<u64>, rs: Option<u64>) -> Option<(usize, u64)> {
            let take_left = match (ls, rs) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => l <= r,
            };
            Some(side(take_left, ls, rs))
        }

        /// `KeyedInstanceBin::step`: `(head, closed)` per side.
        pub fn keyed_bin(l: (Option<u64>, bool), r: (Option<u64>, bool)) -> Option<(usize, u64)> {
            let ls = if l.1 { None } else { l.0 };
            let rs = if r.1 { None } else { r.0 };
            let take_left = match (ls, rs) {
                (Some(l), Some(r)) => l <= r,
                (Some(_), None) if r.1 => true,
                (None, Some(_)) if l.1 => false,
                _ => return None,
            };
            Some(side(take_left, ls, rs))
        }

        /// `KeyedInstanceBin::queued` and `MergeNode::queued`: `(len, open)`
        /// per port.
        pub fn strict_queued(ports: &[(usize, bool)]) -> usize {
            let mut total = 0;
            for &(len, open) in ports {
                if !open {
                    continue;
                }
                if len == 0 {
                    return 0;
                }
                total += len;
            }
            total
        }

        /// `MergeNode::step`'s min-head scan: `(head, open)` per port.
        pub fn merge_min(ports: &[(Option<u64>, bool)]) -> Option<u64> {
            let mut min: Option<u64> = None;
            for &(head, open) in ports {
                if !open {
                    continue;
                }
                let s = head?;
                if min.is_none_or(|m| s < m) {
                    min = Some(s);
                }
            }
            min
        }
    }

    /// A port in one of the states the nodes can observe. A closed port is
    /// empty for good and — its consumer opened the gate — not gated.
    #[derive(Clone, Copy, Debug)]
    struct P {
        head: Option<u64>,
        open: bool,
    }

    impl P {
        fn len(&self, port: usize) -> usize {
            self.head.map_or(0, |_| port + 2)
        }
        fn view(&self, port: usize, gated: bool) -> PortView {
            PortView {
                head: self.head,
                len: self.len(port),
                gated: gated && self.open,
            }
        }
    }

    fn probe(ports: &[P], gated: bool) -> Frontier {
        frontier(ports.iter().enumerate().map(|(i, p)| p.view(i, gated)))
    }

    /// Every combination of empty / three distinct-or-tied heads / closed
    /// over `n` ports.
    fn states(n: usize) -> Vec<Vec<P>> {
        let one = [
            P {
                head: None,
                open: false,
            },
            P {
                head: None,
                open: true,
            },
            P {
                head: Some(0),
                open: true,
            },
            P {
                head: Some(4),
                open: true,
            },
            P {
                head: Some(7),
                open: true,
            },
        ];
        let mut all: Vec<Vec<P>> = vec![Vec::new()];
        for _ in 0..n {
            all = all
                .into_iter()
                .flat_map(|prefix| {
                    one.iter().map(move |p| {
                        let mut next = prefix.clone();
                        next.push(*p);
                        next
                    })
                })
                .collect();
        }
        all
    }

    #[test]
    fn named_cases() {
        let v = |head, len, gated| PortView { head, len, gated };
        let next = |port, seq, bound| Some(Next { port, seq, bound });
        // (ports, queued, next)
        let table = [
            // Nothing anywhere: idle, direct or gated-and-closed alike.
            (vec![v(None, 0, false), v(None, 0, false)], 0, None),
            // A lone head runs unbounded.
            (vec![v(Some(5), 3, false)], 3, next(0, 5, u64::MAX)),
            // Direct ports: an empty one is skipped.
            (
                vec![v(None, 0, false), v(Some(9), 2, false)],
                2,
                next(1, 9, u64::MAX),
            ),
            // Earliest head first; the run stops short of a lower-indexed
            // runner-up (it would win the tie at its own sequence) …
            (
                vec![v(Some(9), 1, false), v(Some(5), 2, false)],
                3,
                next(1, 5, 8),
            ),
            // … and includes a higher-indexed runner-up's sequence.
            (
                vec![v(Some(5), 1, false), v(Some(9), 2, false)],
                3,
                next(0, 5, 9),
            ),
            // Equal heads: the lower index wins, bounded by the tie itself.
            (
                vec![v(Some(7), 1, false), v(Some(7), 1, false)],
                2,
                next(0, 7, 7),
            ),
            // The bound is the runner-up's, not the third's.
            (
                vec![
                    v(Some(6), 1, false),
                    v(Some(3), 1, false),
                    v(Some(8), 1, false),
                ],
                3,
                next(1, 3, 5),
            ),
            (
                vec![v(Some(0), 1, false), v(Some(0), 1, false)],
                2,
                next(0, 0, 0),
            ),
            (
                vec![v(Some(1), 1, false), v(Some(0), 1, false)],
                2,
                next(1, 0, 0),
            ),
            // An open, empty, gated port blocks the node and hides the backlog.
            (vec![v(Some(5), 4, true), v(None, 0, true)], 0, None),
            (vec![v(None, 0, true), v(Some(5), 4, false)], 0, None),
            // Closed (gate opened), it no longer does.
            (
                vec![v(Some(5), 4, true), v(None, 0, false)],
                4,
                next(0, 5, u64::MAX),
            ),
            // Gated ports with heads order like direct ones.
            (
                vec![v(Some(9), 1, true), v(Some(5), 2, true)],
                3,
                next(1, 5, 8),
            ),
        ];
        for (ports, queued, next) in table {
            let got = frontier(ports.iter().copied());
            assert_eq!(got, Frontier { queued, next }, "ports {ports:?}");
        }
    }

    #[test]
    fn direct_ports_answer_what_op_sink_and_bin_nodes_answered() {
        for n in 1..=3 {
            for ports in states(n) {
                let heads: Vec<Option<u64>> = ports.iter().map(|p| p.head).collect();
                let got = probe(&ports, false);
                assert_eq!(
                    got.next.map(|nx| (nx.port, nx.bound)),
                    oracle::direct(&heads),
                    "{ports:?}"
                );
                if n == 2 {
                    assert_eq!(
                        got.next.map(|nx| (nx.port, nx.bound)),
                        oracle::bin(heads[0], heads[1]),
                        "{ports:?}"
                    );
                }
                // `queued` was the sum of the lengths, `oldest_pending_seq`
                // the smallest head.
                let lens: usize = ports.iter().enumerate().map(|(i, p)| p.len(i)).sum();
                assert_eq!(got.queued, lens, "{ports:?}");
                assert_eq!(
                    got.next.map(|nx| nx.seq),
                    heads.iter().flatten().min().copied(),
                    "{ports:?}"
                );
            }
        }
    }

    #[test]
    fn gated_ports_answer_what_keyed_instances_and_the_merge_answered() {
        for n in 1..=3 {
            for ports in states(n) {
                let got = probe(&ports, true);
                let lens: Vec<(usize, bool)> = ports
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.len(i), p.open))
                    .collect();
                let heads: Vec<(Option<u64>, bool)> =
                    ports.iter().map(|p| (p.head, p.open)).collect();
                let queued = oracle::strict_queued(&lens);
                assert_eq!(got.queued, queued, "{ports:?}");
                // Blocked exactly when an open gated port is empty.
                let blocked = ports.iter().any(|p| p.open && p.head.is_none());
                assert_eq!(got.next.is_none(), blocked || queued == 0, "{ports:?}");
                // The merge: its min-head scan, and `oldest_pending_seq`.
                assert_eq!(
                    got.next.map(|nx| nx.seq),
                    oracle::merge_min(&heads),
                    "{ports:?}"
                );
                if n == 2 {
                    let side = |p: &P| (p.head, !p.open);
                    assert_eq!(
                        got.next.map(|nx| (nx.port, nx.bound)),
                        oracle::keyed_bin(side(&ports[0]), side(&ports[1])),
                        "{ports:?}"
                    );
                }
            }
        }
    }
}
