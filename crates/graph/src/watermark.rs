//! Multi-input watermark (heartbeat) bookkeeping.

use pipes_time::Timestamp;

/// Tracks per-port temporal progress for a multi-input operator.
///
/// An operator with several inputs may only certify downstream progress up to
/// the *minimum* progress across its inputs. `update` records a heartbeat for
/// one port and returns the new combined watermark if it advanced.
#[derive(Clone, Debug)]
pub struct Watermarks {
    per_port: Vec<Timestamp>,
    combined: Timestamp,
}

impl Watermarks {
    /// Creates bookkeeping for `ports` inputs, all starting at time zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "watermark tracking needs at least one port");
        Watermarks {
            per_port: vec![Timestamp::ZERO; ports],
            combined: Timestamp::ZERO,
        }
    }

    /// Records a heartbeat for `port`. Returns `Some(new_min)` when the
    /// combined watermark advanced, `None` otherwise. Regressing heartbeats
    /// are ignored (punctuations are promises; a weaker promise adds nothing).
    pub fn update(&mut self, port: usize, t: Timestamp) -> Option<Timestamp> {
        if t > self.per_port[port] {
            self.per_port[port] = t;
            let min = *self.per_port.iter().min().expect("at least one port");
            if min > self.combined {
                self.combined = min;
                return Some(min);
            }
        }
        None
    }

    /// The current combined watermark.
    pub fn combined(&self) -> Timestamp {
        self.combined
    }

    /// The progress recorded for one port.
    pub fn port(&self, port: usize) -> Timestamp {
        self.per_port[port]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_is_minimum() {
        let mut w = Watermarks::new(2);
        assert_eq!(w.update(0, Timestamp::new(10)), None); // port 1 still at 0
        assert_eq!(w.update(1, Timestamp::new(4)), Some(Timestamp::new(4)));
        assert_eq!(w.combined(), Timestamp::new(4));
        assert_eq!(w.update(1, Timestamp::new(20)), Some(Timestamp::new(10)));
        assert_eq!(w.port(0), Timestamp::new(10));
    }

    #[test]
    fn regressions_ignored() {
        let mut w = Watermarks::new(1);
        assert_eq!(w.update(0, Timestamp::new(5)), Some(Timestamp::new(5)));
        assert_eq!(w.update(0, Timestamp::new(3)), None);
        assert_eq!(w.combined(), Timestamp::new(5));
    }

    /// A closed port is delivered a heartbeat at the horizon, after which
    /// it stops constraining progress.
    #[test]
    fn port_at_the_horizon_stops_constraining() {
        let mut w = Watermarks::new(2);
        w.update(0, Timestamp::new(7));
        assert_eq!(w.update(1, Timestamp::MAX), Some(Timestamp::new(7)));
        assert_eq!(w.update(0, Timestamp::new(9)), Some(Timestamp::new(9)));
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Watermarks::new(0);
    }
}
