//! The verify pass: the block's leading events through a fresh graph, sink
//! output (payload and interval, as an order-insensitive digest and a count)
//! held against a reference.

use crate::inputs::{element_hash, VERIFY_EVENTS};
use crate::phase;
use crate::replay::Limit;
use crate::workloads::{self, Built, Input, Kind, PhaseCfg, SinkMode, QUANTUM};
use pipes::prelude::*;

/// Count and order-insensitive digest of one sink's output.
pub type Tally = (u64, u64);

fn tally_of<T: std::hash::Hash>(elems: impl IntoIterator<Item = Element<T>>) -> Tally {
    elems.into_iter().fold((0, 0u64), |(n, d), e| {
        (n + 1, d.wrapping_add(element_hash(&e)))
    })
}

fn sink_tallies(built: &Built) -> Vec<Tally> {
    built
        .sinks
        .iter()
        .map(|s| {
            let t = s.tally.lock().expect("sink tally poisoned");
            (t.results, t.digest)
        })
        .collect()
}

/// Runs the verify pass of `kind`; `Err` names the first mismatch.
pub fn verify(kind: Kind, input: &Input) -> Result<(), String> {
    let events = VERIFY_EVENTS.min(input.paced_len());
    let cfg = PhaseCfg {
        sink_mode: SinkMode::Digest,
        ..PhaseCfg::saturate(Limit::Events(events as u64), 0)
    };

    // The engine under test: the workload's own executor and plan.
    let mut built = workloads::build(kind, input, &cfg);
    phase::execute(kind, &mut built, None);
    if !built.graph.all_finished() {
        return Err("verify: the graph did not finish".into());
    }
    let got = sink_tallies(&built);

    let want = match input {
        // Keyed and single-instance plans must agree, as E21 asserts.
        Input::Join { auctions, bids } => {
            let single = workloads::build_join(auctions, bids, &cfg, None);
            single.graph.run_to_completion(QUANTUM);
            sink_tallies(&single)
        }
        // The engine's own per-message, unfused path, whose byte identity
        // with the batched path the repo promises — overridden by a naive
        // in-benchmark evaluation where one exists.
        Input::Tuples { block, .. } => {
            let reference = workloads::build(kind, input, &cfg);
            reference.graph.set_batch_limit(1);
            reference.graph.run_to_completion(QUANTUM);
            let mut want = sink_tallies(&reference);
            let bids = &block.elems[..events];
            match kind {
                Kind::NexmarkStateless => {
                    want[0] = tally_of(naive_q1(bids));
                    want[1] = tally_of(naive_q2(bids));
                }
                Kind::NexmarkWindowAgg => want[0] = tally_of(naive_q3(bids)),
                _ => {}
            }
            want
        }
    };

    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g != w {
            return Err(format!(
                "verify: sink {i} delivered {} results (digest {:016x}), reference has {} ({:016x})",
                g.0, g.1, w.0, w.1
            ));
        }
        if g.0 == 0 {
            return Err(format!("verify: sink {i} delivered nothing"));
        }
    }
    if got.len() != want.len() {
        return Err("verify: sink counts differ".into());
    }
    Ok(())
}

fn col(e: &Element<Tuple>, i: usize) -> i64 {
    e.payload[i].as_i64().expect("bid columns are integers")
}

/// `SELECT auction, bidder, price * 0.908 AS price_eur FROM bid`
fn naive_q1(bids: &[Element<Tuple>]) -> Vec<Element<Tuple>> {
    bids.iter()
        .map(|e| {
            Element::new(
                vec![
                    Value::Int(col(e, 0)),
                    Value::Int(col(e, 1)),
                    Value::Float(col(e, 2) as f64 * 0.908),
                ],
                e.interval,
            )
        })
        .collect()
}

/// `SELECT auction, price FROM bid WHERE auction % 5 = 0`
fn naive_q2(bids: &[Element<Tuple>]) -> Vec<Element<Tuple>> {
    bids.iter()
        .filter(|e| col(e, 0) % 5 == 0)
        .map(|e| {
            Element::new(
                vec![Value::Int(col(e, 0)), Value::Int(col(e, 2))],
                e.interval,
            )
        })
        .collect()
}

/// `SELECT MAX(price) AS highest FROM bid [RANGE 10 MINUTES] EVERY 10
/// MINUTES`: at every grid instant `g`, the highest price among the bids
/// whose window `[ts, ts + 10 min)` contains `g`, valid for `[g, g + 10
/// min)`; empty snapshots produce no row.
fn naive_q3(bids: &[Element<Tuple>]) -> Vec<Element<Tuple>> {
    const RANGE: u64 = 600_000;
    const EVERY: u64 = 600_000;
    let mut out = Vec::new();
    let last = bids[bids.len() - 1].start().ticks();
    let mut g = 0u64;
    while g < last + RANGE {
        let highest = bids
            .iter()
            .filter(|e| {
                let ts = e.start().ticks();
                ts <= g && g < ts + RANGE
            })
            .map(|e| col(e, 2))
            .max();
        if let Some(price) = highest {
            out.push(Element::new(
                vec![Value::Int(price)],
                TimeInterval::new(Timestamp::new(g), Timestamp::new(g + EVERY)),
            ));
        }
        g += EVERY;
    }
    out
}
