//! Deterministic single-operator drivers for tests and benchmarks.
//!
//! These run an operator over materialized inputs exactly as the graph
//! runtime would: elements are fed in start order, each followed by the
//! strongest valid heartbeat, and the stream is closed at the end. The
//! property-test suite feeds random temporal bags through an operator with
//! these drivers and checks the collected output against the naive snapshot
//! semantics.

use pipes_graph::run::coalesce_adjacent_heartbeats;
use pipes_graph::{BinaryOperator, Collector, Operator};
use pipes_time::{Element, Message, Timestamp};

/// Wraps an operator, suppressing its native [`Operator::on_run`]: the
/// wrapper forwards the per-message callbacks but *not* the run entry
/// point, so dispatch falls back to the trait's default per-message loop.
/// Equivalence proptests and the E17 benchmark use this to compare
/// run-native against element-at-a-time dispatch on the identical kernel.
pub struct ElementWise<O>(pub O);

impl<O: Operator> Operator for ElementWise<O> {
    type In = O::In;
    type Out = O::Out;
    fn on_element(&mut self, port: usize, e: Element<O::In>, out: &mut dyn Collector<O::Out>) {
        self.0.on_element(port, e, out)
    }
    fn on_heartbeat(&mut self, port: usize, t: Timestamp, out: &mut dyn Collector<O::Out>) {
        self.0.on_heartbeat(port, t, out)
    }
    // on_run deliberately not forwarded.
    fn on_close(&mut self, out: &mut dyn Collector<O::Out>) {
        self.0.on_close(out)
    }
    fn memory(&self) -> usize {
        self.0.memory()
    }
    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }
    fn shed(&mut self, target: usize) -> usize {
        self.0.shed(target)
    }
}

/// Binary-operator counterpart of [`ElementWise`]: forwards everything
/// except `on_run_left`/`on_run_right`.
pub struct BinaryElementWise<B>(pub B);

impl<B: BinaryOperator> BinaryOperator for BinaryElementWise<B> {
    type Left = B::Left;
    type Right = B::Right;
    type Out = B::Out;
    fn on_left(&mut self, e: Element<B::Left>, out: &mut dyn Collector<B::Out>) {
        self.0.on_left(e, out)
    }
    fn on_right(&mut self, e: Element<B::Right>, out: &mut dyn Collector<B::Out>) {
        self.0.on_right(e, out)
    }
    fn on_heartbeat_left(&mut self, t: Timestamp, out: &mut dyn Collector<B::Out>) {
        self.0.on_heartbeat_left(t, out)
    }
    fn on_heartbeat_right(&mut self, t: Timestamp, out: &mut dyn Collector<B::Out>) {
        self.0.on_heartbeat_right(t, out)
    }
    // The run pair deliberately not forwarded.
    fn on_close(&mut self, out: &mut dyn Collector<B::Out>) {
        self.0.on_close(out)
    }
    fn memory(&self) -> usize {
        self.0.memory()
    }
    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }
    fn shed(&mut self, target: usize) -> usize {
        self.0.shed(target)
    }
}

/// Runs a unary operator over `input`, returning all produced messages.
pub fn run_unary_messages<O: Operator>(
    mut op: O,
    mut input: Vec<Element<O::In>>,
) -> Vec<Message<O::Out>> {
    input.sort_by_key(Element::start);
    let mut out: Vec<Message<O::Out>> = Vec::new();
    for e in input {
        let hb = e.start();
        op.on_element(0, e, &mut out);
        op.on_heartbeat(0, hb, &mut out);
    }
    op.on_heartbeat(0, Timestamp::MAX, &mut out);
    op.on_close(&mut out);
    out
}

/// Feeds a recorded message trace to port 0 one message at a time through
/// the per-message callbacks, then closes; returns everything produced.
/// `Close` messages in the trace are skipped (the close comes at the end).
pub fn feed_messages<O>(mut op: O, msgs: &[Message<O::In>]) -> Vec<Message<O::Out>>
where
    O: Operator,
    O::In: Clone,
{
    let mut out: Vec<Message<O::Out>> = Vec::new();
    for m in msgs {
        match m.clone() {
            Message::Element(e) => op.on_element(0, e, &mut out),
            Message::Heartbeat(t) => op.on_heartbeat(0, t, &mut out),
            Message::Close => {}
        }
    }
    op.on_close(&mut out);
    out
}

/// Feeds the same trace as runs through [`Operator::on_run`], cut by the
/// chunk sizes in `sizes` (cycled), with the heartbeat coalescing the graph
/// node applies before dispatch; then closes. Against [`feed_messages`]
/// this is the batched-vs-per-message equivalence the run proptests pin.
pub fn feed_runs<O>(mut op: O, msgs: &[Message<O::In>], sizes: &[usize]) -> Vec<Message<O::Out>>
where
    O: Operator,
    O::In: Clone,
{
    let mut out: Vec<Message<O::Out>> = Vec::new();
    let mut run: Vec<Message<O::In>> = Vec::new();
    let (mut i, mut s) = (0, 0);
    while i < msgs.len() {
        let take = sizes[s % sizes.len()];
        s += 1;
        let end = (i + take).min(msgs.len());
        run.extend(msgs[i..end].iter().cloned());
        i = end;
        coalesce_adjacent_heartbeats(&mut run);
        op.on_run(0, &mut run, &mut out);
        run.clear();
    }
    op.on_close(&mut out);
    out
}

/// Runs a unary operator over `input`, returning the produced elements.
pub fn run_unary<O: Operator>(op: O, input: Vec<Element<O::In>>) -> Vec<Element<O::Out>> {
    elements(run_unary_messages(op, input))
}

/// Runs an n-ary operator; `inputs[i]` feeds port `i`. Elements are
/// interleaved across ports in global start order, as the arrival-ordered
/// graph runtime would deliver them.
pub fn run_nary<O: Operator>(mut op: O, inputs: Vec<Vec<Element<O::In>>>) -> Vec<Element<O::Out>> {
    let ports = inputs.len();
    let mut tagged: Vec<(usize, Element<O::In>)> = inputs
        .into_iter()
        .enumerate()
        .flat_map(|(port, elems)| elems.into_iter().map(move |e| (port, e)))
        .collect();
    tagged.sort_by_key(|(_, e)| e.start());
    let mut out: Vec<Message<O::Out>> = Vec::new();
    for (port, e) in tagged {
        let hb = e.start();
        op.on_element(port, e, &mut out);
        op.on_heartbeat(port, hb, &mut out);
    }
    // Drive every port's watermark to the horizon, then flush.
    for port in 0..ports {
        op.on_heartbeat(port, Timestamp::MAX, &mut out);
    }
    op.on_close(&mut out);
    elements(out)
}

/// Runs a binary operator over two inputs, interleaved in start order.
pub fn run_binary<B: BinaryOperator>(
    op: B,
    left: Vec<Element<B::Left>>,
    right: Vec<Element<B::Right>>,
) -> Vec<Element<B::Out>> {
    elements(run_binary_messages(op, left, right))
}

/// Runs a binary operator, returning all produced messages.
pub fn run_binary_messages<B: BinaryOperator>(
    mut op: B,
    mut left: Vec<Element<B::Left>>,
    mut right: Vec<Element<B::Right>>,
) -> Vec<Message<B::Out>> {
    left.sort_by_key(Element::start);
    right.sort_by_key(Element::start);
    let mut out: Vec<Message<B::Out>> = Vec::new();
    let (mut li, mut ri) = (0, 0);
    while li < left.len() || ri < right.len() {
        let take_left = match (left.get(li), right.get(ri)) {
            (Some(l), Some(r)) => l.start() <= r.start(),
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            let e = left[li].clone();
            li += 1;
            let hb = e.start();
            op.on_left(e, &mut out);
            op.on_heartbeat_left(hb, &mut out);
        } else {
            let e = right[ri].clone();
            ri += 1;
            let hb = e.start();
            op.on_right(e, &mut out);
            op.on_heartbeat_right(hb, &mut out);
        }
    }
    op.on_heartbeat_left(Timestamp::MAX, &mut out);
    op.on_heartbeat_right(Timestamp::MAX, &mut out);
    op.on_close(&mut out);
    out
}

/// Extracts the data elements from a message trace.
pub fn elements<T>(messages: Vec<Message<T>>) -> Vec<Element<T>> {
    messages
        .into_iter()
        .filter_map(Message::into_element)
        .collect()
}

/// Checks that heartbeats in a trace are strictly increasing and that no
/// element starts before the last heartbeat preceding it (the watermark
/// contract every operator must uphold).
pub fn check_watermark_contract<T>(messages: &[Message<T>]) -> Result<(), String> {
    let mut wm = Timestamp::ZERO;
    for (i, m) in messages.iter().enumerate() {
        match m {
            Message::Heartbeat(t) => {
                if *t < wm {
                    return Err(format!(
                        "heartbeat regressed to {t:?} at index {i} (wm {wm:?})"
                    ));
                }
                wm = *t;
            }
            Message::Element(e) => {
                if e.start() < wm {
                    return Err(format!(
                        "element starting at {:?} violates watermark {wm:?} at index {i}",
                        e.start()
                    ));
                }
            }
            Message::Close => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_graph::Collector;
    use pipes_time::TimeInterval;

    struct Identity;
    impl Operator for Identity {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            out.element(e);
        }
    }

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    #[test]
    fn run_unary_sorts_and_collects() {
        let out = run_unary(Identity, vec![el(2, 5, 9), el(1, 1, 3)]);
        assert_eq!(out, vec![el(1, 1, 3), el(2, 5, 9)]);
    }

    #[test]
    fn watermark_contract_checker() {
        let good: Vec<Message<i64>> = vec![
            Message::Heartbeat(Timestamp::new(2)),
            Message::Element(el(1, 2, 5)),
            Message::Heartbeat(Timestamp::new(4)),
        ];
        assert!(check_watermark_contract(&good).is_ok());
        let regress: Vec<Message<i64>> = vec![
            Message::Heartbeat(Timestamp::new(4)),
            Message::Heartbeat(Timestamp::new(2)),
        ];
        assert!(check_watermark_contract(&regress).is_err());
        let late: Vec<Message<i64>> = vec![
            Message::Heartbeat(Timestamp::new(4)),
            Message::Element(el(1, 2, 5)),
        ];
        assert!(check_watermark_contract(&late).is_err());
    }
}
