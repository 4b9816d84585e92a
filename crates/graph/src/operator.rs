//! The node-type traits: sources, sinks and operators (pipes).
//!
//! Besides the per-message callbacks, operators expose a **run-level**
//! entry point ([`Operator::on_run`] and the
//! [`BinaryOperator::on_run_left`]/[`BinaryOperator::on_run_right`] pair):
//! the runtime hands an operator the whole run it drained from an input
//! edge in one call. The default implementations loop over the per-message
//! callbacks, so every operator works unmodified; hot operators override
//! the run entry point to amortize state lookups and allocations across
//! the run (see `DESIGN.md` § "Run-at-a-time algebra" for the contract).

use pipes_time::{Element, Message, Timestamp};

pub use pipes_meta::NodeId;

/// Receives the results an operator or source produces.
///
/// A collector is passed *into* the processing callbacks, so the same
/// operator code runs unchanged whether its results cross a queued edge, are
/// handed to a fused downstream operator in the same virtual node, or are
/// captured by a test harness.
pub trait Collector<T> {
    /// Emits a data element.
    fn element(&mut self, e: Element<T>);
    /// Emits a heartbeat: no element produced later will start before `t`.
    fn heartbeat(&mut self, t: Timestamp);
    /// Hints that roughly `additional` further messages are coming, so a
    /// buffering collector can grow its storage once per run instead of
    /// once per emission. Purely advisory; the default does nothing.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }
}

/// A [`Collector`] that appends into a `Vec<Message<T>>`; convenient for
/// tests and for driving operators outside a graph.
impl<T> Collector<T> for Vec<Message<T>> {
    fn element(&mut self, e: Element<T>) {
        self.push(Message::Element(e));
    }
    fn heartbeat(&mut self, t: Timestamp) {
        self.push(Message::Heartbeat(t));
    }
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// Result of one [`SourceOp::produce`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceStatus {
    /// Produced at least one message; call again for more.
    Active,
    /// Nothing available right now (e.g. rate-limited), but not finished.
    Idle,
    /// The source will never produce again.
    Exhausted,
}

/// A stream source: the origin of data in a query graph.
///
/// Sources are *pulled* by the scheduler in budgeted quanta, which is how
/// PIPES adapts source pressure to downstream capacity. A source must emit
/// elements non-decreasing in start timestamp and should interleave
/// heartbeats so that stateful downstream operators can make progress.
pub trait SourceOp: Send + 'static {
    /// Payload type of produced elements.
    type Out: Send + Clone + 'static;

    /// Produces up to `budget` messages into `out`.
    fn produce(&mut self, budget: usize, out: &mut dyn Collector<Self::Out>) -> SourceStatus;
}

/// An operator (*pipe*): consumes elements, processes them, produces results.
///
/// Operators are driven by the runtime: `on_element`/`on_heartbeat` are
/// invoked per incoming message, `on_close` once after **all** input ports
/// have delivered end-of-stream. A port that ends while another is still
/// open is at the horizon: the runtime delivers it a heartbeat at
/// [`Timestamp::MAX`] instead. The `port` argument identifies which
/// upstream subscription delivered the message (an n-ary operator such as
/// union has one port per upstream).
///
/// The default `on_heartbeat` forwards the punctuation unchanged, which is
/// correct for unary operators that do not reorder or retime elements.
/// Multi-input or retiming operators must override it (see
/// [`crate::watermark::Watermarks`]).
pub trait Operator: Send + 'static {
    /// Input payload type (all ports carry the same type; use
    /// [`BinaryOperator`] for heterogeneous inputs).
    type In: Send + Clone + 'static;
    /// Output payload type.
    type Out: Send + Clone + 'static;

    /// Processes one element from `port`.
    fn on_element(
        &mut self,
        port: usize,
        elem: Element<Self::In>,
        out: &mut dyn Collector<Self::Out>,
    );

    /// Processes a heartbeat from `port`. Default: forward.
    fn on_heartbeat(&mut self, port: usize, t: Timestamp, out: &mut dyn Collector<Self::Out>) {
        let _ = port;
        out.heartbeat(t);
    }

    /// Processes one whole drained run from `port`. The run is drained
    /// (emptied, capacity retained) by the callee.
    ///
    /// Contract (see `DESIGN.md` § "Run-at-a-time algebra"):
    ///
    /// * the run is in arrival order and never contains `Close`;
    /// * heartbeats inside the run are non-decreasing, and no element in
    ///   the run starts before a heartbeat that precedes it (the watermark
    ///   contract holds *within* the run);
    /// * a run is **not** necessarily start-ordered — only upstreams that
    ///   preserve start order (sources, stateless operators) produce
    ///   start-ordered runs, so stateful operators must not assume it;
    /// * processing the run must produce the same output sequence as
    ///   feeding its messages one by one through
    ///   `on_element`/`on_heartbeat` — the equivalence every override is
    ///   property-tested against.
    ///
    /// The default does exactly that loop, so existing operators work
    /// unmodified; overrides amortize lookups/allocations across the run.
    fn on_run(
        &mut self,
        port: usize,
        run: &mut Vec<Message<Self::In>>,
        out: &mut dyn Collector<Self::Out>,
    ) {
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.on_element(port, e, out),
                Message::Heartbeat(t) => self.on_heartbeat(port, t, out),
                Message::Close => {}
            }
        }
    }

    /// Flushes remaining state after all inputs closed. Default: nothing.
    fn on_close(&mut self, out: &mut dyn Collector<Self::Out>) {
        let _ = out;
    }

    /// Current state size in retained elements (for the memory manager).
    fn memory(&self) -> usize {
        0
    }

    /// Estimated byte footprint of the retained state (count × per-unit
    /// size estimate; see `pipes_meta::estimators::StateSize`). Unlike
    /// [`memory`](Operator::memory), which counts abstract units for
    /// shedding ratios, this is byte-denominated so heterogeneous
    /// operators are comparable. Default: 0 (unreported).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Sheds state down to approximately `target` retained elements using
    /// the operator's load-shedding strategy; returns the new state size.
    /// Stateless operators ignore this.
    fn shed(&mut self, target: usize) -> usize {
        let _ = target;
        self.memory()
    }
}

/// A two-input operator with heterogeneous input types (joins, difference).
pub trait BinaryOperator: Send + 'static {
    /// Payload type of the left input.
    type Left: Send + Clone + 'static;
    /// Payload type of the right input.
    type Right: Send + Clone + 'static;
    /// Output payload type.
    type Out: Send + Clone + 'static;

    /// Processes one element from the left input.
    fn on_left(&mut self, elem: Element<Self::Left>, out: &mut dyn Collector<Self::Out>);
    /// Processes one element from the right input.
    fn on_right(&mut self, elem: Element<Self::Right>, out: &mut dyn Collector<Self::Out>);
    /// Processes a heartbeat from the left input.
    fn on_heartbeat_left(&mut self, t: Timestamp, out: &mut dyn Collector<Self::Out>);
    /// Processes a heartbeat from the right input.
    fn on_heartbeat_right(&mut self, t: Timestamp, out: &mut dyn Collector<Self::Out>);

    /// Processes one whole drained run from the left input. Same contract
    /// as [`Operator::on_run`]; the default loops over
    /// `on_left`/`on_heartbeat_left`.
    fn on_run_left(
        &mut self,
        run: &mut Vec<Message<Self::Left>>,
        out: &mut dyn Collector<Self::Out>,
    ) {
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.on_left(e, out),
                Message::Heartbeat(t) => self.on_heartbeat_left(t, out),
                Message::Close => {}
            }
        }
    }

    /// Processes one whole drained run from the right input. Same contract
    /// as [`Operator::on_run`]; the default loops over
    /// `on_right`/`on_heartbeat_right`.
    fn on_run_right(
        &mut self,
        run: &mut Vec<Message<Self::Right>>,
        out: &mut dyn Collector<Self::Out>,
    ) {
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.on_right(e, out),
                Message::Heartbeat(t) => self.on_heartbeat_right(t, out),
                Message::Close => {}
            }
        }
    }

    /// Flushes remaining state after both inputs closed. The side that
    /// closed first was delivered a heartbeat at [`Timestamp::MAX`] when it
    /// did (see [`Operator`]). Default: nothing.
    fn on_close(&mut self, out: &mut dyn Collector<Self::Out>) {
        let _ = out;
    }

    /// Current state size in retained elements.
    fn memory(&self) -> usize {
        0
    }

    /// Estimated byte footprint of the retained state (see
    /// [`Operator::state_bytes`]). Default: 0 (unreported).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Sheds state down to approximately `target` retained elements.
    fn shed(&mut self, target: usize) -> usize {
        let _ = target;
        self.memory()
    }
}

impl<T: Send + Clone + 'static> SourceOp for Box<dyn SourceOp<Out = T>> {
    type Out = T;
    fn produce(&mut self, budget: usize, out: &mut dyn Collector<T>) -> SourceStatus {
        (**self).produce(budget, out)
    }
}

impl<I: Send + Clone + 'static, O: Send + Clone + 'static> Operator
    for Box<dyn Operator<In = I, Out = O>>
{
    type In = I;
    type Out = O;
    fn on_element(&mut self, port: usize, elem: Element<I>, out: &mut dyn Collector<O>) {
        (**self).on_element(port, elem, out)
    }
    fn on_heartbeat(&mut self, port: usize, t: Timestamp, out: &mut dyn Collector<O>) {
        (**self).on_heartbeat(port, t, out)
    }
    // Forwarded so a boxed operator keeps its native run path: without
    // this, planner-built graphs would silently fall back to the default
    // per-message loop of the blanket `Box` impl.
    fn on_run(&mut self, port: usize, run: &mut Vec<Message<I>>, out: &mut dyn Collector<O>) {
        (**self).on_run(port, run, out)
    }
    fn on_close(&mut self, out: &mut dyn Collector<O>) {
        (**self).on_close(out)
    }
    fn memory(&self) -> usize {
        (**self).memory()
    }
    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }
    fn shed(&mut self, target: usize) -> usize {
        (**self).shed(target)
    }
}

/// A terminal sink: consumes messages, produces nothing downstream.
pub trait SinkOp: Send + 'static {
    /// Input payload type.
    type In: Send + Clone + 'static;

    /// Consumes one message from `port`.
    fn on_message(&mut self, port: usize, msg: Message<Self::In>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_time::TimeInterval;

    struct Doubler;
    impl Operator for Doubler {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            out.element(e.map(|v| v * 2));
        }
    }

    #[test]
    fn vec_collector_and_default_heartbeat() {
        let mut op = Doubler;
        let mut out: Vec<Message<i64>> = Vec::new();
        op.on_element(0, Element::at(21, Timestamp::new(3)), &mut out);
        op.on_heartbeat(0, Timestamp::new(5), &mut out);
        op.on_close(&mut out);
        assert_eq!(
            out,
            vec![
                Message::Element(Element::new(
                    42,
                    TimeInterval::new(Timestamp::new(3), Timestamp::new(4))
                )),
                Message::Heartbeat(Timestamp::new(5)),
            ]
        );
        assert_eq!(op.memory(), 0);
        assert_eq!(op.shed(0), 0);
    }
}
