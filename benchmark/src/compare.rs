//! `pipes-benchmark compare A.json B.json`: the rule of the choosing-metrics
//! guide, section 8, over two sets of runs of the same benchmark.
//!
//! Per (workload, end-to-end metric): each side's median and quartiles, the
//! share of alternating pairs B wins, and a verdict — `regression` when B's
//! median is worse than A's by more than the metric's bound, `unresolved`
//! when either side's interquartile spread exceeds the bound (the data
//! cannot tell), `ok` otherwise. Exits non-zero on a regression.

use crate::json::Json;
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) → values, in run order.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads a result file: one suite document, or one per line (a history).
/// Only untraced runs carry end-to-end metrics; traced runs are skipped.
pub fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let docs: Vec<Json> = match Json::parse(&text) {
        Ok(doc) => vec![doc],
        Err(_) => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Json::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?,
    };
    let mut runs = Runs::new();
    for doc in &docs {
        for run in doc.get("runs").map(Json::as_arr).unwrap_or(&[]) {
            if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a run without a workload")?;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("a run without metrics")?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}/{name}: no value"))?;
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced runs", path.display()));
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// B's change as a share of A's median; positive is worse.
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// Share of pairs (i-th run of A, i-th run of B) B wins; ties count for
    /// neither.
    pub win_share_b: f64,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    let (spread_a, spread_b) = (spread(a), spread(b));
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| if lower_is_better { y < x } else { y > x })
        .count();
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        worse_by,
        spread_a,
        spread_b,
        win_share_b: wins as f64 / pairs.max(1) as f64,
        verdict,
    }
}

/// Compares the two sets and prints one row per (workload, metric).
/// Returns whether any pairing regressed.
pub fn compare(benchmark: &Json, a: &Runs, b: &Runs) -> Result<bool, String> {
    let mut regressed = false;
    println!(
        "{:<22} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "B wins", "bound"
    );
    for entry in benchmark.get("end_to_end").map(Json::as_arr).unwrap_or(&[]) {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let bound = entry
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        let lower = entry.get("better").and_then(Json::as_str) == Some("lower");
        for ((workload, metric), va) in a.iter().filter(|((_, m), _)| m == name) {
            let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
                return Err(format!(
                    "{workload}/{metric} is missing from the second set"
                ));
            };
            let row = judge(va, vb, lower, bound);
            regressed |= row.verdict == Verdict::Regression;
            let q = |v: &[f64]| {
                if v.len() >= 2 {
                    quartiles(v)
                } else {
                    [v[0]; 3]
                }
            };
            println!(
                "{:<22} {:<16} {:>12.5} {:>12.5} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}% {:>5.0}%  {}   A q1..q3 [{:.5}, {:.5}]  B q1..q3 [{:.5}, {:.5}]",
                workload,
                metric,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                row.win_share_b * 100.0,
                bound * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                },
                q(va)[0],
                q(va)[2],
                q(vb)[0],
                q(vb)[2],
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +20 % is a regression at a 10 % bound.
        let worse: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let row = judge(&a, &worse, true, 0.10);
        assert_eq!(row.verdict, Verdict::Regression);
        assert!((row.worse_by - 0.2).abs() < 1e-9);
        assert_eq!(row.win_share_b, 0.0);
        // The same change is a gain when higher is better.
        let row = judge(&a, &worse, false, 0.10);
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!(row.win_share_b, 1.0);
        // Within the bound.
        let near: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &near, true, 0.10).verdict, Verdict::Ok);
        // A spread wider than the bound cannot resolve anything.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&a, &noisy, true, 0.10).verdict, Verdict::Unresolved);
    }
}
