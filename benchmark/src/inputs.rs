//! Input blocks, made from the seed by the in-repo scenario generators.
//! Generators run during set-up only; the engine receives the materialised
//! elements.

use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::Event;
use pipes::optimizer::Tuple;
use pipes::time::{Element, TimeInterval, Timestamp};
use pipes::traffic::generator::{FspConfig, FspGenerator};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Generator events per input block.
pub const BLOCK_EVENTS: usize = 65_536;
/// Leading events of the block the verify pass runs.
pub const VERIFY_EVENTS: usize = 8_192;

/// `(auction id, x)`: `x` is the category on the auctions stream and the
/// price on the bids stream (the payload of the hand-typed E17/E21 plan).
pub type Pair = (i64, i64);

/// NEXMark at E11's event spacing (≈ 2 400 live bids per 10-minute window).
pub fn nexmark_config(seed: u64, events: usize) -> NexmarkConfig {
    NexmarkConfig {
        seed,
        max_events: events as u64,
        mean_inter_event_ms: 250.0,
        ..Default::default()
    }
}

/// The `bid` stream of one generated NEXMark block of `events` events (the
/// only stream the workloads' queries read; about 46 events in 50 are bids).
pub fn nexmark_bids(seed: u64, events: usize) -> Vec<Element<Tuple>> {
    NexmarkGenerator::new(nexmark_config(seed, events))
        .filter_map(|ev| match ev {
            Event::Bid(b) => Some(Element::at(b.to_tuple(), b.ts)),
            _ => None,
        })
        .collect()
}

/// E10's highway: 5 sections, 2 vehicles per lane and minute off-peak
/// (≈ 42 readings per logical second). The duration only has to outlast the
/// block.
pub fn traffic_config(seed: u64) -> FspConfig {
    FspConfig {
        seed,
        duration_secs: 86_400,
        sections: 5,
        base_vehicles_per_min: 2.0,
        incidents_per_hour: 4.0,
        incident_duration_secs: 1200,
        ..Default::default()
    }
}

pub fn traffic_block(seed: u64, events: usize) -> Vec<Element<Tuple>> {
    FspGenerator::new(traffic_config(seed))
        .take(events)
        .map(|r| r.to_element())
        .collect()
}

/// splitmix64: the benchmark's own generator for the inputs the scenario
/// crates do not produce (the join plan's streams, the churn schedule).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Distinct auctions (the join's key domain), as E21.
pub const JOIN_AUCTIONS: u64 = 512;
/// Bids per burst: one auction, one timestamp (NEXMark-style flurries).
pub const JOIN_BURST: u64 = 16;
/// Aggregation categories.
pub const JOIN_CATEGORIES: i64 = 8;

/// Inputs of the E17/E21 plan, seeded: every auction is open for the whole
/// run; bids arrive in bursts on a random auction at rising prices.
pub fn join_block(seed: u64, bids: usize) -> (Vec<Element<Pair>>, Vec<Element<Pair>>) {
    let mut rng = SplitMix(seed ^ 0x6A6F_696E);
    let horizon = Timestamp::new(u64::MAX / 2);
    let auctions = (0..JOIN_AUCTIONS)
        .map(|id| {
            Element::new(
                (id as i64, rng.below(JOIN_CATEGORIES as u64) as i64),
                TimeInterval::new(Timestamp::ZERO, horizon),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(bids);
    let mut auction = 0;
    let mut price = 0;
    for i in 0..bids as u64 {
        if i % JOIN_BURST == 0 {
            auction = rng.below(JOIN_AUCTIONS) as i64;
            price = 100 + rng.below(900) as i64;
        }
        price += 1 + rng.below(5) as i64;
        out.push(Element::at(
            (auction, price),
            Timestamp::new(i / JOIN_BURST + 1),
        ));
    }
    (auctions, out)
}

/// Order-sensitive digest of a stream (payload and validity interval).
#[cfg(test)]
pub fn digest<T: Hash>(elems: &[Element<T>]) -> u64 {
    let mut h = DefaultHasher::new();
    for e in elems {
        element_hash(e).hash(&mut h);
    }
    h.finish()
}

/// Hash of one element: payload and validity interval. `DefaultHasher::new`
/// has fixed keys, so the value repeats across runs of one build.
pub fn element_hash<T: Hash>(e: &Element<T>) -> u64 {
    let mut h = DefaultHasher::new();
    e.payload.hash(&mut h);
    e.start().ticks().hash(&mut h);
    e.end().ticks().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let a = nexmark_bids(7, 4_000);
        assert_eq!(digest(&a), digest(&nexmark_bids(7, 4_000)));
        assert_ne!(digest(&a), digest(&nexmark_bids(8, 4_000)));
        assert!(a.len() > 3_000);

        assert_eq!(
            digest(&traffic_block(7, 2_000)),
            digest(&traffic_block(7, 2_000))
        );
        assert_ne!(
            digest(&traffic_block(7, 2_000)),
            digest(&traffic_block(8, 2_000))
        );

        let (a1, b1) = join_block(7, 2_000);
        let (a2, b2) = join_block(7, 2_000);
        let (a3, b3) = join_block(8, 2_000);
        assert_eq!((digest(&a1), digest(&b1)), (digest(&a2), digest(&b2)));
        assert_ne!(digest(&b1), digest(&b3));
        assert_ne!(digest(&a1), digest(&a3));
    }

    #[test]
    fn blocks_are_start_ordered() {
        let n = nexmark_bids(3, 4_000);
        assert!(n.windows(2).all(|w| w[0].start() <= w[1].start()));
        let t = traffic_block(3, 4_000);
        assert_eq!(t.len(), 4_000);
        assert!(t.windows(2).all(|w| w[0].start() <= w[1].start()));
        let (_, b) = join_block(3, 4_000);
        assert!(b.windows(2).all(|w| w[0].start() <= w[1].start()));
    }
}
