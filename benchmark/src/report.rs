//! What surrounds the numbers: the host fingerprint, the process's peak
//! memory, and the self-check of printed metrics against `BENCHMARK.json`.

use crate::json::{quote, Json};
use crate::run::Metric;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// `VmHWM` of this process so far, MB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build a result was taken on.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
    pub rustc: String,
    pub features: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            // A checkout that is not a git repository has no commit to name.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            features: format!(
                "meta-off={} trace-off={}",
                pipes::meta::META_COMPILED_OUT,
                pipes::trace::COMPILED_OUT
            ),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"commit\": {}, \"rustc\": {}, \"features\": {}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.commit),
            quote(&self.rustc),
            quote(&self.features)
        )
    }
}

/// The metric names `BENCHMARK.json` lists under `section`, with units.
pub fn listed(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

pub fn load_benchmark(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Output self-check: every name `BENCHMARK.json` lists under `section` is
/// printed exactly once, well-formed, finite and in the listed unit, and
/// nothing unlisted is printed.
pub fn self_check(benchmark: &Json, section: &str, metrics: &[Metric]) -> Result<(), String> {
    let listed = listed(benchmark, section);
    if listed.is_empty() {
        return Err(format!("BENCHMARK.json lists no {section} metrics"));
    }
    let mut seen = BTreeSet::new();
    for metric in metrics {
        if !well_formed(metric.name) {
            return Err(format!("metric name '{}' is malformed", metric.name));
        }
        if !seen.insert(metric.name) {
            return Err(format!("metric '{}' is printed twice", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric '{}' is not finite", metric.name));
        }
        match listed.iter().find(|(n, _)| n == metric.name) {
            None => return Err(format!("metric '{}' is not in BENCHMARK.json", metric.name)),
            Some((_, unit)) if unit != metric.unit => {
                return Err(format!(
                    "metric '{}' is printed in '{}', BENCHMARK.json says '{unit}'",
                    metric.name, metric.unit
                ))
            }
            Some(_) => {}
        }
    }
    match listed.iter().find(|(n, _)| !seen.contains(n.as_str())) {
        Some((missing, _)) => Err(format!("metric '{missing}' is missing from the output")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "throughput_eps", "unit": "1/s"}]}"#,
        )
        .unwrap()
    }

    fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    #[test]
    fn self_check_accepts_the_listed_set_only() {
        let ok = [
            metric("setup_s", 0.5, "s"),
            metric("throughput_eps", 10.0, "1/s"),
        ];
        assert!(self_check(&bench(), "end_to_end", &ok).is_ok());
        let missing = [metric("setup_s", 0.5, "s")];
        assert!(self_check(&bench(), "end_to_end", &missing)
            .unwrap_err()
            .contains("missing"));
        let twice = [
            metric("setup_s", 0.5, "s"),
            metric("setup_s", 0.5, "s"),
            metric("throughput_eps", 1.0, "1/s"),
        ];
        assert!(self_check(&bench(), "end_to_end", &twice)
            .unwrap_err()
            .contains("twice"));
        let nan = [
            metric("setup_s", f64::NAN, "s"),
            metric("throughput_eps", 1.0, "1/s"),
        ];
        assert!(self_check(&bench(), "end_to_end", &nan)
            .unwrap_err()
            .contains("finite"));
        let unit = [
            metric("setup_s", 0.5, "ms"),
            metric("throughput_eps", 1.0, "1/s"),
        ];
        assert!(self_check(&bench(), "end_to_end", &unit)
            .unwrap_err()
            .contains("printed in"));
        let extra = [
            metric("setup_s", 0.5, "s"),
            metric("throughput_eps", 1.0, "1/s"),
            metric("bad name", 1.0, "s"),
        ];
        assert!(self_check(&bench(), "end_to_end", &extra)
            .unwrap_err()
            .contains("malformed"));
        assert!(self_check(&bench(), "per_layer", &ok).is_err());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
