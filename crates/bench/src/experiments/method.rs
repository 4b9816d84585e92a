//! The one measurement method of E14–E19: a paired runner, the record each
//! full run appends to `bench-history/experiments.jsonl`, and the two plans
//! more than one experiment measures.
//!
//! **Paired runs.** Every rep runs the baseline and the treatment back to
//! back, the baseline first on even reps and the treatment first on odd
//! ones, so a pair shares whatever the machine is doing at that moment. The
//! per-rep ratio (treatment / baseline) cancels that drift; medians and
//! quartiles over the reps damp single-rep outliers and say how noisy the
//! host was. Both sides of a rep must produce the same output.
//!
//! **One record.** A full run appends one JSON line: the experiment, the
//! commit (`git describe --always --dirty`), the host CPU and core count,
//! the reps, and per row `case, metric, unit, median, q1, q3, n`. Lines
//! accumulate; nothing is overwritten. A quick run prints and writes
//! nothing.

use crate::{f, table};
use pipes::ops::drive::{BinaryElementWise, ElementWise};
use pipes::prelude::*;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median and quartiles of a sample, interpolating linearly between order
/// statistics (so the median of an even sample is the mean of its middle
/// two).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stats {
    /// The statistics of a non-empty sample.
    pub fn of(sample: &[f64]) -> Stats {
        let mut s = sample.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Stats {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: s.len(),
        }
    }

    /// The throughput cost, in percent, of a treatment/baseline ratio:
    /// `(1 - ratio) * 100`. The map is decreasing, so the quartiles swap.
    pub fn overhead_pct(self) -> Stats {
        let pct = |r: f64| (1.0 - r) * 100.0;
        Stats {
            median: pct(self.median),
            q1: pct(self.q3),
            q3: pct(self.q1),
            n: self.n,
        }
    }
}

/// What [`paired`] measured: each side's measurement (a throughput, or a
/// cost) and the per-rep ratio treatment / baseline.
pub struct Paired {
    pub base: Stats,
    pub treat: Stats,
    pub ratio: Stats,
}

/// Runs `reps` pairs of `run(false)` (the baseline) and `run(true)` (the
/// treatment) in alternating order. `run` returns a measurement and the
/// output it produced; the two outputs of every rep must be equal.
pub fn paired<O: PartialEq>(reps: usize, mut run: impl FnMut(bool) -> (f64, O)) -> Paired {
    let (mut base, mut treat, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (b, t) = if rep % 2 == 0 {
            let b = run(false);
            (b, run(true))
        } else {
            let t = run(true);
            (run(false), t)
        };
        assert!(
            b.1 == t.1,
            "baseline and treatment produced different output on rep {rep}"
        );
        base.push(b.0);
        treat.push(t.0);
        ratio.push(t.0 / b.0);
    }
    Paired {
        base: Stats::of(&base),
        treat: Stats::of(&treat),
        ratio: Stats::of(&ratio),
    }
}

/// The history every full run appends its record to, at the repository
/// root.
const HISTORY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench-history/experiments.jsonl"
);

/// The columns of a record's rows: three labels, then the statistics.
const COLUMNS: [&str; 7] = ["case", "metric", "unit", "median", "q1", "q3", "n"];

/// One run's rows of statistics: printed as the experiment's table, and
/// appended to the history as one JSON line.
pub struct Record {
    experiment: &'static str,
    reps: usize,
    rows: Vec<Vec<String>>,
}

impl Record {
    /// A record of `experiment` (`"e14"`…) at `reps` pairs per case; a row
    /// carries its own sample size where it differs.
    pub fn new(experiment: &'static str, reps: usize) -> Record {
        Record {
            experiment,
            reps,
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, case: &str, metric: &str, unit: &str, s: Stats) {
        let labels = [case, metric, unit].map(String::from);
        let stats = [s.median, s.q1, s.q3].map(|v| f(v, 4));
        let n = s.n.to_string();
        self.rows
            .push(labels.into_iter().chain(stats).chain([n]).collect());
    }

    /// Prints the rows as a table under `title`.
    pub fn print(&self, title: &str) {
        table(title, &COLUMNS, &self.rows);
    }

    /// Appends the record to the history — on a full run only.
    pub fn save(&self, quick: bool) {
        match self.save_to(quick, Path::new(HISTORY)) {
            Ok(true) => println!("appended to bench-history/experiments.jsonl"),
            Ok(false) => {}
            Err(e) => eprintln!("could not append to {HISTORY}: {e}"),
        }
    }

    /// Appends the record as one line to `path` unless `quick`; returns
    /// whether it wrote.
    fn save_to(&self, quick: bool, path: &Path) -> std::io::Result<bool> {
        if quick {
            return Ok(false);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = (COLUMNS.iter().zip(row).enumerate())
                    .map(|(i, (k, v))| {
                        // The three labels are strings, the statistics numbers.
                        let v = if i < 3 { json_str(v) } else { v.clone() };
                        format!("\"{k}\":{v}")
                    })
                    .collect();
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        let (host, cores, commit) = host_and_commit();
        let line = format!(
            "{{\"experiment\":{},\"commit\":{},\"host\":{},\"cores\":{cores},\"reps\":{},\"rows\":[{}]}}\n",
            json_str(self.experiment),
            json_str(&commit),
            json_str(&host),
            self.reps,
            rows.join(",")
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(line.as_bytes())?;
        Ok(true)
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `(cpu model, cores, commit)` of this run; the commit is
/// `git describe --always --dirty`.
fn host_and_commit() -> (String, usize, String) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    (cpu.to_string(), cores(), commit)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `n` elements `i` at instant `i`.
pub fn ticks(n: u64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| Element::at(i as i64, Timestamp::new(i)))
        .collect()
}

/// Maps in the queued chain of E14 and E15.
pub const CHAIN_OPS: usize = 4;

/// The queued chain of E14 and E15 — a source, [`CHAIN_OPS`] cheap maps,
/// a sink — over `n` elements under a batch limit (`None`: the kernel
/// default, unbounded). Returns Melem/s.
pub fn map_chain(n: u64, batch_limit: Option<usize>) -> f64 {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(ticks(n)));
    let mut cur = g.add_unary("op0", Map::new(|v: i64| v + 1), &src);
    for i in 1..CHAIN_OPS {
        cur = g.add_unary(&format!("op{i}"), Map::new(|v: i64| v ^ 7), &cur);
    }
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &cur);
    if let Some(limit) = batch_limit {
        g.set_batch_limit(limit);
    }
    let start = Instant::now();
    g.run_to_completion(256);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(buf.lock().len(), n as usize);
    n as f64 / secs / 1e6
}

/// Bids per burst of the join plan (one auction, one timestamp).
pub const BURST: u64 = 16;
/// Distinct auctions: the join's key domain.
pub const AUCTIONS: u64 = 512;
/// Categories the join plan groups by.
const CATEGORIES: i64 = 8;

/// `(auction_id, x)`: `x` is the category on the auctions stream and the
/// price on the bids stream.
type Pair = (i64, i64);

/// `n` bids in bursts of [`BURST`] that share one auction and one
/// timestamp; prices vary inside a burst.
pub fn bids(n: u64) -> Vec<Element<Pair>> {
    (0..n)
        .map(|i| {
            let burst = i / BURST;
            let auction = (burst * 7919) % AUCTIONS; // stride over the key domain
            let price = 100 + (i % BURST) as i64 * 3;
            Element::at((auction as i64, price), Timestamp::new(burst + 1))
        })
        .collect()
}

/// The join plan of E17 and E19 — auctions ⋈ `n_bids` bursty bids → fee
/// → max price per category — run to completion on the single-threaded
/// kernel. Every auction is open for the whole session, so each burst's
/// probe hits exactly one live match. `per_message` wraps every operator
/// so its native run entry point is suppressed. Returns Melem/s over both
/// inputs and the sink message count.
pub fn join_plan(n_bids: u64, per_message: bool) -> (f64, usize) {
    let session = TimeInterval::new(Timestamp::ZERO, Timestamp::new(u64::MAX / 2));
    let auctions = (0..AUCTIONS as i64).map(|id| Element::new((id, id % CATEGORIES), session));
    let g = QueryGraph::new();
    let a = g.add_source("auctions", VecSource::new(auctions.collect()));
    let b = g.add_source("bids", VecSource::new(bids(n_bids)));
    let join = RippleJoin::equi(|a: &Pair| a.0, |b: &Pair| b.0, |a, b| (a.1, b.1));
    let fee = Map::new(|p: Pair| (p.0, p.1 + p.1 / 50));
    let top = GroupedAggregate::new(|p: &Pair| p.0, MaxAgg(|p: &Pair| p.1));
    let top = if per_message {
        let joined = g.add_binary("join", BinaryElementWise(join), &a, &b);
        let mapped = g.add_unary("fee", ElementWise(fee), &joined);
        g.add_unary("top-price", ElementWise(top), &mapped)
    } else {
        let joined = g.add_binary("join", join, &a, &b);
        let mapped = g.add_unary("fee", fee, &joined);
        g.add_unary("top-price", top, &mapped)
    };
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &top);
    let start = Instant::now();
    g.run_to_completion(256);
    let secs = start.elapsed().as_secs_f64();
    let produced = buf.lock().len();
    assert!(produced > 0, "plan produced no aggregates");
    ((AUCTIONS + n_bids) as f64 / secs / 1e6, produced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_alternates_per_rep_and_ratio_is_treatment_over_baseline() {
        let mut calls = Vec::new();
        let p = paired(4, |treatment| {
            calls.push(treatment);
            (if treatment { 3.0 } else { 2.0 }, ())
        });
        assert_eq!(calls, [false, true, true, false, false, true, true, false]);
        assert_eq!(
            (p.base.median, p.treat.median, p.ratio.median),
            (2.0, 3.0, 1.5)
        );
    }

    #[test]
    #[should_panic(expected = "different output")]
    fn diverging_outputs_fail_the_rep() {
        paired(2, |treatment| (1.0, treatment));
    }

    #[test]
    fn median_and_quartiles_of_odd_and_even_samples() {
        let odd = Stats::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.median, odd.q1, odd.q3, odd.n), (3.0, 2.0, 4.0, 5));
        let even = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.median, even.q1, even.q3, even.n),
            (2.5, 1.75, 3.25, 4)
        );
        let overhead = Stats::of(&[0.9, 1.0, 0.95]).overhead_pct();
        assert!((overhead.median - 5.0).abs() < 1e-9);
        assert!(overhead.q1 < overhead.median && overhead.median < overhead.q3);
    }

    #[test]
    fn a_quick_run_appends_nothing_and_a_full_run_one_line() {
        let dir = std::env::temp_dir().join(format!("pipes-bench-history-{}", std::process::id()));
        let path = dir.join("experiments.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let mut record = Record::new("e0", 3);
        record.row("case", "throughput", "Melem/s", Stats::of(&[1.0, 2.0, 3.0]));
        assert!(!record.save_to(true, &path).unwrap());
        assert!(!path.exists(), "a quick run wrote the history");
        assert!(record.save_to(false, &path).unwrap());
        assert!(record.save_to(false, &path).unwrap());
        let history = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(history.lines().count(), 2);
        let line = history.lines().next().unwrap();
        assert!(
            line.starts_with("{\"experiment\":\"e0\",\"commit\":"),
            "{line}"
        );
        assert!(
            line.contains("\"host\":") && line.contains("\"cores\":"),
            "{line}"
        );
        assert!(line.contains("\"reps\":3,"), "{line}");
        assert!(line.contains(
            "{\"case\":\"case\",\"metric\":\"throughput\",\"unit\":\"Melem/s\",\
             \"median\":2.0000,\"q1\":1.5000,\"q3\":2.5000,\"n\":3}"
        ));
    }
}
