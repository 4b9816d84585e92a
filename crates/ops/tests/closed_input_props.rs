//! Property test: a multi-input operator keeps making progress after one of
//! its inputs ends. Once its node has taken one input's `Close`, the
//! node's output heartbeats reach the minimum over the inputs still open —
//! per message and batched alike — and its elements stay
//! snapshot-equivalent to the relational reference.

use pipes_graph::io::{FnSink, VecSource};
use pipes_graph::{QueryGraph, StreamHandle};
use pipes_ops::{Difference, MultiwayJoin, RippleJoin, Union};
use pipes_sync::{Arc, Mutex};
use pipes_time::{snapshot, Element, Message, TimeInterval, Timestamp};
use proptest::prelude::*;

type Recorded<T> = Arc<Mutex<Vec<Message<T>>>>;

/// A start-ordered bag over a small payload domain, starts below `span`.
fn arb_input(max_len: usize, span: u64) -> impl Strategy<Value = Vec<Element<i64>>> {
    prop::collection::vec(
        (0i64..6, 0..span, 1u64..20).prop_map(|(p, s, len)| {
            Element::new(
                p,
                TimeInterval::new(Timestamp::new(s), Timestamp::new(s + len)),
            )
        }),
        0..max_len,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|e| e.start());
        v
    })
}

/// One generated run: the inputs in port order, the port whose input is
/// short and ends first, how many elements the other sources produce per
/// step, and whether every node runs per message.
#[derive(Clone, Debug)]
struct Case {
    inputs: Vec<Vec<Element<i64>>>,
    closing: usize,
    stride: usize,
    per_message: bool,
}

/// A short, early input on a random one of `ports` ports; long ones on the
/// rest.
fn arb_case(ports: usize) -> impl Strategy<Value = Case> {
    (
        arb_input(6, 20),
        prop::collection::vec(arb_input(30, 200), ports - 1..ports),
        0..ports,
        1usize..8,
        any::<bool>(),
    )
        .prop_map(|(short, mut inputs, closing, stride, per_message)| {
            inputs.insert(closing, short);
            Case {
                inputs,
                closing,
                stride,
                per_message,
            }
        })
}

/// One source per input, in port order.
fn sources(g: &QueryGraph, case: &Case) -> Vec<StreamHandle<i64>> {
    case.inputs
        .iter()
        .map(|bag| g.add_source("in", VecSource::new(bag.clone())))
        .collect()
}

/// Records what `op` publishes, runs the input `case.closing` to its end,
/// then advances the other inputs `case.stride` elements at a time. After
/// every advance, while an input is still open, `op`'s output heartbeats
/// must have reached the smallest heartbeat the open inputs published (a
/// `VecSource` publishes the start of the last element it produced).
/// Returns the elements `op` published.
fn drive<T: Send + Sync + Clone + 'static>(
    g: &QueryGraph,
    srcs: &[StreamHandle<i64>],
    case: &Case,
    op: &StreamHandle<T>,
) -> Result<Vec<Element<T>>, TestCaseError> {
    let out: Recorded<T> = Arc::new(Mutex::new(Vec::new()));
    let into = Arc::clone(&out);
    let sink = g.add_sink("record", FnSink::new(move |m| into.lock().push(m)), op);
    if case.per_message {
        g.set_batch_limit(1);
    }
    let downstream = || {
        g.step_node(op.node(), usize::MAX);
        g.step_node(sink, usize::MAX);
    };
    let inputs = &case.inputs;
    g.step_node(srcs[case.closing].node(), usize::MAX);
    prop_assert!(g.is_finished(srcs[case.closing].node()));
    downstream();
    let mut produced = vec![0usize; inputs.len()];
    loop {
        let open: Vec<usize> = (0..inputs.len())
            .filter(|&i| !g.is_finished(srcs[i].node()))
            .collect();
        if open.is_empty() {
            break;
        }
        for &i in &open {
            g.step_node(srcs[i].node(), case.stride);
            produced[i] = (produced[i] + case.stride).min(inputs[i].len());
        }
        downstream();
        let still_open = open.iter().filter(|&&i| !g.is_finished(srcs[i].node()));
        let Some(want) = still_open
            .map(|&i| match produced[i] {
                0 => Timestamp::ZERO,
                n => inputs[i][n - 1].start(),
            })
            .min()
        else {
            continue;
        };
        let reached = out
            .lock()
            .iter()
            .filter_map(|m| match m {
                Message::Heartbeat(t) => Some(*t),
                _ => None,
            })
            .max()
            .unwrap_or(Timestamp::ZERO);
        prop_assert!(
            reached >= want,
            "output progress stuck at {:?} while the open inputs reached {:?}",
            reached,
            want
        );
    }
    g.run_to_completion(64);
    let msgs = out.lock();
    prop_assert!(matches!(msgs.last(), Some(Message::Close)));
    Ok(msgs
        .iter()
        .filter_map(|m| match m {
            Message::Element(e) => Some(e.clone()),
            _ => None,
        })
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn union_progresses_after_one_input_ends(case in arb_case(3)) {
        let g = QueryGraph::new();
        let srcs = sources(&g, &case);
        let u = g.add_nary("union", Union::new(3), &srcs);
        let got = drive(&g, &srcs, &case, &u)?;
        let all: Vec<Element<i64>> = case.inputs.concat();
        snapshot::check_unary(&all, &got, |s| s).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn multiway_join_progresses_after_one_input_ends(case in arb_case(3)) {
        let g = QueryGraph::new();
        let srcs = sources(&g, &case);
        let j = g.add_nary("mjoin", MultiwayJoin::new(3, |v: &i64| v % 3), &srcs);
        let got = drive(&g, &srcs, &case, &j)?;
        let bags = &case.inputs;
        let points = snapshot::merge_points(
            bags.iter().map(|bag| snapshot::event_points(bag)).chain([snapshot::event_points(&got)]),
        );
        for t in points {
            let [a, b, c] = [0, 1, 2].map(|i| snapshot::snapshot(&bags[i], t));
            let mut want = Vec::new();
            for x in &a {
                for y in b.iter().filter(|y| *y % 3 == x % 3) {
                    for z in c.iter().filter(|z| *z % 3 == x % 3) {
                        want.push(vec![*x, *y, *z]);
                    }
                }
            }
            let have = snapshot::snapshot(&got, t);
            prop_assert!(snapshot::multiset_eq(want, have), "snapshot mismatch at {:?}", t);
        }
    }

    #[test]
    fn ripple_join_progresses_after_one_input_ends(case in arb_case(2)) {
        let g = QueryGraph::new();
        let srcs = sources(&g, &case);
        let join = RippleJoin::equi(|x: &i64| x % 3, |y: &i64| y % 3, |x, y| (*x, *y));
        let j = g.add_binary("join", join, &srcs[0], &srcs[1]);
        let got = drive(&g, &srcs, &case, &j)?;
        snapshot::check_binary(&case.inputs[0], &case.inputs[1], &got, |a, b| {
            snapshot::rel::join(a, b, |x, y| x % 3 == y % 3, |x, y| (*x, *y))
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn difference_progresses_after_one_input_ends(case in arb_case(2)) {
        let g = QueryGraph::new();
        let srcs = sources(&g, &case);
        let d = g.add_binary("difference", Difference::new(), &srcs[0], &srcs[1]);
        let got = drive(&g, &srcs, &case, &d)?;
        snapshot::check_binary(&case.inputs[0], &case.inputs[1], &got, snapshot::rel::difference)
            .map_err(TestCaseError::fail)?;
    }
}
