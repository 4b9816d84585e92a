//! The synthetic NEXMark event generator.
//!
//! Emits persons, auctions and bids in timestamp order with NEXMark's
//! 1 : 3 : 46 proportions. Bids are skewed toward *hot* auctions (most of
//! the action goes to a small set of recently opened auctions), prices
//! climb per auction, and auctions expire after a configurable lifetime —
//! the distributions that make windowed max-bid / hot-item queries
//! meaningful.

use crate::{Auction, Bid, Event, Person};
use pipes_time::{Duration, Timestamp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct NexmarkConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total events to generate.
    pub max_events: u64,
    /// Mean inter-event time in milliseconds.
    pub mean_inter_event_ms: f64,
    /// Auction lifetime.
    pub auction_lifetime: Duration,
    /// Number of item categories.
    pub categories: i64,
    /// Fraction of bids going to the hot-auction set.
    pub hot_bid_fraction: f64,
    /// Size of the hot-auction set (most recent auctions).
    pub hot_set_size: usize,
}

impl Default for NexmarkConfig {
    fn default() -> Self {
        NexmarkConfig {
            seed: 0x4E45584D,
            max_events: 50_000,
            mean_inter_event_ms: 10.0,
            auction_lifetime: Duration::from_mins(20),
            categories: 10,
            hot_bid_fraction: 0.8,
            hot_set_size: 4,
        }
    }
}

impl NexmarkConfig {
    /// Mean events per simulated second.
    pub fn events_per_sec(&self) -> f64 {
        1000.0 / self.mean_inter_event_ms.max(1e-6)
    }
}

/// Deterministic NEXMark event generator.
pub struct NexmarkGenerator {
    config: NexmarkConfig,
    rng: SmallRng,
    now_ms: u64,
    emitted: u64,
    next_person: i64,
    next_auction: i64,
    /// Open auctions: (id, expires_ms, current_price).
    open_auctions: Vec<(i64, u64, i64)>,
}

impl NexmarkGenerator {
    /// Creates a generator.
    pub fn new(config: NexmarkConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        NexmarkGenerator {
            config,
            rng,
            now_ms: 0,
            emitted: 0,
            next_person: 0,
            next_auction: 0,
            open_auctions: Vec::new(),
        }
    }

    fn advance_clock(&mut self) {
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let dt = (-u.ln() * self.config.mean_inter_event_ms).clamp(0.0, 60_000.0);
        self.now_ms += dt as u64;
    }

    fn make_person(&mut self) -> Person {
        const NAMES: [&str; 10] = [
            "ada", "bob", "cleo", "dev", "eve", "finn", "gus", "hana", "iris", "joe",
        ];
        const CITIES: [&str; 8] = [
            "oakland",
            "hayward",
            "berkeley",
            "fremont",
            "alameda",
            "san jose",
            "palo alto",
            "richmond",
        ];
        let id = self.next_person;
        self.next_person += 1;
        Person {
            id,
            name: format!("{}{}", NAMES[self.rng.gen_range(0..NAMES.len())], id),
            city: CITIES[self.rng.gen_range(0..CITIES.len())].to_string(),
            ts: Timestamp::new(self.now_ms),
        }
    }

    fn make_auction(&mut self) -> Auction {
        let id = self.next_auction;
        self.next_auction += 1;
        let seller = if self.next_person > 0 {
            self.rng.gen_range(0..self.next_person)
        } else {
            0
        };
        let initial_bid = self.rng.gen_range(100..10_000);
        let expires_ms = self.now_ms + self.config.auction_lifetime.ticks();
        self.open_auctions.push((id, expires_ms, initial_bid));
        Auction {
            id,
            seller,
            category: self.rng.gen_range(0..self.config.categories),
            initial_bid,
            ts: Timestamp::new(self.now_ms),
            expires: Timestamp::new(expires_ms),
        }
    }

    fn make_bid(&mut self) -> Option<Bid> {
        // Auctions open in clock order and all live equally long, so the
        // expired ones are a prefix.
        let expired = self
            .open_auctions
            .partition_point(|(_, exp, _)| *exp <= self.now_ms);
        self.open_auctions.drain(..expired);
        if self.open_auctions.is_empty() {
            return None;
        }
        // Hot bids go to the most recent auctions; the rest are uniform.
        let idx = if self.rng.gen_bool(self.config.hot_bid_fraction) {
            let hot = self.config.hot_set_size.min(self.open_auctions.len());
            self.open_auctions.len() - 1 - self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..self.open_auctions.len())
        };
        let (auction, _, price) = &mut self.open_auctions[idx];
        // Prices climb by 1-12%.
        *price += (*price as f64 * self.rng.gen_range(0.01..0.12)) as i64 + 1;
        let bidder = if self.next_person > 0 {
            self.rng.gen_range(0..self.next_person)
        } else {
            0
        };
        Some(Bid {
            auction: *auction,
            bidder,
            price: *price,
            ts: Timestamp::new(self.now_ms),
        })
    }

    /// Produces the next event in timestamp order, or `None` after
    /// `max_events`.
    pub fn next_event(&mut self) -> Option<Event> {
        while self.emitted < self.config.max_events {
            self.emitted += 1;
            self.advance_clock();
            // NEXMark proportions: 1 person : 3 auctions : 46 bids per 50.
            let slot = self.emitted % 50;
            let event = if slot == 0 || self.next_person == 0 {
                Some(Event::Person(self.make_person()))
            } else if slot % 16 == 1 || self.open_auctions.is_empty() {
                Some(Event::Auction(self.make_auction()))
            } else {
                self.make_bid().map(Event::Bid)
            };
            if let Some(ev) = event {
                return Some(ev);
            }
            // No bid possible (all auctions expired): loop and emit the
            // next scheduled event instead.
        }
        None
    }
}

impl Iterator for NexmarkGenerator {
    type Item = Event;
    fn next(&mut self) -> Option<Event> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(n: u64) -> Vec<Event> {
        NexmarkGenerator::new(NexmarkConfig {
            max_events: n,
            ..Default::default()
        })
        .collect()
    }

    #[test]
    fn proportions_are_nexmark_like() {
        let evs = events(20_000);
        let persons = evs.iter().filter(|e| matches!(e, Event::Person(_))).count();
        let auctions = evs
            .iter()
            .filter(|e| matches!(e, Event::Auction(_)))
            .count();
        let bids = evs.iter().filter(|e| matches!(e, Event::Bid(_))).count();
        assert!(
            bids > auctions && auctions > persons,
            "{persons}/{auctions}/{bids}"
        );
        let bid_share = bids as f64 / evs.len() as f64;
        assert!(
            (0.8..=0.97).contains(&bid_share),
            "bid share {bid_share} out of NEXMark range"
        );
    }

    /// `make_bid` drops the expired *prefix* of the open auctions: expiry
    /// must follow position, and nothing expired may survive a bid.
    #[test]
    fn open_auctions_expire_in_opening_order() {
        let mut gen = NexmarkGenerator::new(NexmarkConfig {
            max_events: 20_000,
            auction_lifetime: Duration::from_mins(1),
            ..Default::default()
        });
        let mut expired_some = false;
        while let Some(ev) = gen.next_event() {
            let open = &gen.open_auctions;
            assert!(open.windows(2).all(|w| w[0].1 <= w[1].1));
            if matches!(ev, Event::Bid(_)) {
                assert!(open.iter().all(|(_, exp, _)| *exp > gen.now_ms));
                expired_some |= (open[0].0 as usize) > 0;
            }
        }
        assert!(expired_some, "the run never outlived an auction");
    }

    #[test]
    fn timestamps_monotone() {
        let mut last = Timestamp::ZERO;
        for e in events(5_000) {
            assert!(e.ts() >= last);
            last = e.ts();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(events(1000), events(1000));
    }

    #[test]
    fn bids_reference_open_auctions() {
        let evs = events(10_000);
        let mut open: std::collections::HashMap<i64, (Timestamp, Timestamp)> =
            std::collections::HashMap::new();
        for e in &evs {
            match e {
                Event::Auction(a) => {
                    open.insert(a.id, (a.ts, a.expires));
                }
                Event::Bid(b) => {
                    let (opened, expires) = open
                        .get(&b.auction)
                        .unwrap_or_else(|| panic!("bid on unknown auction {}", b.auction));
                    assert!(b.ts >= *opened, "bid before auction opened");
                    assert!(b.ts < *expires, "bid after auction expired");
                }
                Event::Person(_) => {}
            }
        }
    }

    #[test]
    fn prices_climb_per_auction() {
        let evs = events(10_000);
        let mut last_price: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for e in &evs {
            if let Event::Bid(b) = e {
                if let Some(prev) = last_price.get(&b.auction) {
                    assert!(b.price > *prev, "prices must increase");
                }
                last_price.insert(b.auction, b.price);
            }
        }
    }

    #[test]
    fn bids_are_skewed_to_recently_opened_auctions() {
        // The hot set is *temporal*: most bids should target one of the few
        // most recently opened, still-open auctions at bid time.
        let evs = events(20_000);
        let mut open: Vec<(i64, Timestamp)> = Vec::new(); // (id, expires)
        let (mut hot, mut bids) = (0usize, 0usize);
        for e in &evs {
            match e {
                Event::Auction(a) => open.push((a.id, a.expires)),
                Event::Bid(b) => {
                    open.retain(|(_, exp)| *exp > b.ts);
                    bids += 1;
                    let recent: Vec<i64> = open.iter().rev().take(4).map(|(id, _)| *id).collect();
                    if recent.contains(&b.auction) {
                        hot += 1;
                    }
                }
                Event::Person(_) => {}
            }
        }
        let share = hot as f64 / bids.max(1) as f64;
        assert!(
            share > 0.6,
            "hot-set bid share {share:.2} below the configured skew"
        );
    }
}
