//! Prometheus text-exposition renderer.
//!
//! [`render`] is a pure function of a [`Telemetry`] snapshot (what
//! `QueryGraph::telemetry()` returns): node counters and gauges, the
//! metadata plane's estimator gauges, the graph-level topology gauges, the
//! keyed groups' instance counts and the sinks' latency quantiles, in the
//! Prometheus text exposition format — suitable for a file-based textfile
//! collector or an ad-hoc `curl`-style endpoint. HELP/TYPE headers are
//! emitted for every family whether or not the snapshot has samples for it,
//! so scrapers see a stable schema.

use std::fmt::Write as _;

use pipes_meta::{NodeTelemetry, Telemetry};

/// Renders `snapshot` in Prometheus text exposition format.
pub fn render(snapshot: &Telemetry) -> String {
    let nodes = &snapshot.nodes;
    let mut out = String::new();
    let mut per_node = |name: &str, help: &str, kind: &str, f: fn(&NodeTelemetry) -> u64| {
        header(&mut out, name, help, kind);
        for n in nodes {
            let _ = writeln!(out, "{name}{{node=\"{}\"}} {}", label(n), f(n));
        }
    };
    per_node(
        "pipes_node_in_total",
        "Elements consumed by the node.",
        "counter",
        |n| n.stats.in_count,
    );
    per_node(
        "pipes_node_out_total",
        "Elements produced by the node.",
        "counter",
        |n| n.stats.out_count,
    );
    per_node(
        "pipes_node_batches_total",
        "Scheduler quanta in which the node did work.",
        "counter",
        |n| n.stats.batch_count,
    );
    per_node(
        "pipes_node_queue_len",
        "Elements queued on the node's input edges.",
        "gauge",
        |n| n.queue_len as u64,
    );
    per_node(
        "pipes_node_memory_elements",
        "Elements held in the node's operator state.",
        "gauge",
        |n| n.memory as u64,
    );
    per_node(
        "pipes_node_state_bytes",
        "Estimated bytes held in the node's operator state.",
        "gauge",
        |n| n.stats.state_bytes as u64,
    );
    per_node(
        "pipes_node_subscribers",
        "Downstream edges subscribed to the node's output.",
        "gauge",
        |n| n.stats.subscribers as u64,
    );

    // Metadata-plane estimator gauges: samples only for nodes with a live
    // estimator snapshot.
    let warm = || nodes.iter().filter_map(|n| Some((label(n), n.meta?)));
    header(
        &mut out,
        "pipes_node_rate",
        "Live estimated message rate of the node (metadata plane).",
        "gauge",
    );
    for (node, m) in warm() {
        for (direction, v) in [("in", m.in_rate), ("out", m.out_rate)] {
            let _ = writeln!(
                out,
                "pipes_node_rate{{node=\"{node}\",direction=\"{direction}\"}} {}",
                fmt_value(v)
            );
        }
    }
    header(
        &mut out,
        "pipes_node_selectivity",
        "Live EWMA run-level selectivity of the node (metadata plane).",
        "gauge",
    );
    for (node, m) in warm() {
        let _ = writeln!(
            out,
            "pipes_node_selectivity{{node=\"{node}\"}} {}",
            fmt_value(m.selectivity)
        );
    }

    header(
        &mut out,
        "pipes_graph_nodes",
        "Live (non-retired) nodes in the query graph.",
        "gauge",
    );
    let _ = writeln!(out, "pipes_graph_nodes {}", nodes.len());
    header(
        &mut out,
        "pipes_topology_epoch",
        "Monotone topology epoch of the query graph (bumps on splice and retire).",
        "gauge",
    );
    let _ = writeln!(out, "pipes_topology_epoch {}", snapshot.topology_epoch);
    header(
        &mut out,
        "pipes_node_instances",
        "Live keyed-parallel instances behind the group's shuffle edge.",
        "gauge",
    );
    for g in &snapshot.groups {
        let _ = writeln!(
            out,
            "pipes_node_instances{{node=\"{}\"}} {}",
            escape_label(&g.name),
            g.instance_ids.len()
        );
    }

    header(
        &mut out,
        "pipes_node_latency_seconds",
        "Source-to-sink tuple latency observed at the node.",
        "summary",
    );
    for (node, l) in nodes
        .iter()
        .filter_map(|n| Some((label(n), n.stats.latency?)))
    {
        for (q, v) in [("0.5", l.p50_ns), ("0.95", l.p95_ns), ("0.99", l.p99_ns)] {
            let _ = writeln!(
                out,
                "pipes_node_latency_seconds{{node=\"{node}\",quantile=\"{q}\"}} {}",
                fmt_value(v / 1e9)
            );
        }
        let _ = writeln!(
            out,
            "pipes_node_latency_seconds_count{{node=\"{node}\"}} {}",
            l.count
        );
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The node's name as a label value.
fn label(n: &NodeTelemetry) -> String {
    escape_label(&n.info.name)
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an f64 without scientific notation surprises; NaN (no
/// observations yet) renders as the exposition format's `NaN`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_meta::{NodeInfo, NodeKind, NodeMetaSnapshot, NodeStats, ShuffleGroup};

    fn row(id: usize, name: &str, stats: &NodeStats) -> NodeTelemetry {
        NodeTelemetry {
            info: NodeInfo {
                id,
                name: name.to_string(),
                kind: NodeKind::Operator,
                upstream: Vec::new(),
                removed: false,
            },
            spliced_epoch: 1,
            stats: stats.snapshot(),
            queue_len: 0,
            memory: 0,
            meta: None,
        }
    }

    fn meta_snap(in_rate: f64, out_rate: f64, sel: f64) -> NodeMetaSnapshot {
        NodeMetaSnapshot {
            in_rate,
            out_rate,
            selectivity: sel,
            selectivity_var: 0.0,
            selectivity_samples: 4,
            interarrival_var: 0.0,
            age_secs: 0.0,
        }
    }

    /// Two nodes, one warm and one with latency quantiles and an awkward
    /// name, plus one keyed group of four instances.
    fn sample_snapshot() -> Telemetry {
        let a = NodeStats::new();
        a.record_in(10);
        a.record_out(8);
        let b = NodeStats::new();
        b.set_state_bytes(4096);
        b.record_latency_ns(&(1..=1000).map(|i| i * 1_000_000).collect::<Vec<_>>());
        let mut src = row(0, "src", &a);
        src.meta = Some(meta_snap(200.0, 50.0, 0.25));
        let mut sink = row(1, "sink \"q\"\\", &b);
        sink.queue_len = 3;
        sink.memory = 9;
        Telemetry {
            topology_epoch: 42,
            nodes: vec![src, sink],
            groups: vec![ShuffleGroup {
                name: "join".to_string(),
                handle: 9,
                partition_ids: vec![5],
                instance_ids: vec![6, 7, 8, 10],
            }],
        }
    }

    #[test]
    fn renders_every_block_of_the_snapshot() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE pipes_node_in_total counter"));
        assert!(text.contains("pipes_node_in_total{node=\"src\"} 10"));
        assert!(text.contains("pipes_node_out_total{node=\"src\"} 8"));
        // Counters, readiness-cell gauges and escaped labels.
        assert!(text.contains("pipes_node_state_bytes{node=\"sink \\\"q\\\"\\\\\"} 4096"));
        assert!(text.contains("pipes_node_queue_len{node=\"sink \\\"q\\\"\\\\\"} 3"));
        assert!(text.contains("pipes_node_memory_elements{node=\"sink \\\"q\\\"\\\\\"} 9"));
        // Estimator gauges only for the warm node.
        assert!(text.contains("pipes_node_rate{node=\"src\",direction=\"in\"} 200"));
        assert!(text.contains("pipes_node_rate{node=\"src\",direction=\"out\"} 50"));
        assert!(text.contains("pipes_node_selectivity{node=\"src\"} 0.25"));
        assert!(!text.contains("pipes_node_rate{node=\"sink"));
        // Graph-level gauges and the keyed group.
        assert!(text.contains("pipes_graph_nodes 2"));
        assert!(text.contains("pipes_topology_epoch 42"));
        assert!(text.contains("pipes_node_instances{node=\"join\"} 4"));
        // Latency summary only for the node that recorded samples.
        assert!(text
            .contains("pipes_node_latency_seconds{node=\"sink \\\"q\\\"\\\\\",quantile=\"0.95\"}"));
        assert!(text.contains("pipes_node_latency_seconds_count{node=\"sink \\\"q\\\"\\\\\"} 1000"));
        assert!(!text.contains("pipes_node_latency_seconds{node=\"src\""));
    }

    /// Text-format conformance of the one entry point, with and without
    /// samples: the whole dump must parse line by line — every family
    /// announces HELP and TYPE before its first sample, every sample
    /// belongs to an announced family (modulo the summary `_count` suffix),
    /// labels (when present — the graph-level gauges are bare) are
    /// well-formed, and values parse as f64 (Prometheus accepts `NaN`).
    /// Returns the announced families and the number of samples.
    fn check_exposition_format(text: &str) -> (Vec<String>, usize) {
        let mut announced: Vec<String> = Vec::new();
        let mut samples = 0;
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in the dump");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(!name.is_empty() && rest.len() > name.len(), "{line}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap();
                assert!(
                    ["counter", "gauge", "summary"].contains(&kind),
                    "unknown type in {line}"
                );
                assert!(
                    text.contains(&format!("# HELP {name} ")),
                    "TYPE without HELP: {name}"
                );
                announced.push(name);
                continue;
            }
            // A sample line: name{labels} value, or a bare name value.
            samples += 1;
            let (name, value) = match line.find('{') {
                Some(brace) => {
                    let close = line.rfind('}').unwrap();
                    let labels = &line[brace + 1..close];
                    for pair in split_label_pairs(labels) {
                        let (k, v) = pair
                            .split_once('=')
                            .unwrap_or_else(|| panic!("bad label {pair}"));
                        assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted: {pair}");
                    }
                    (&line[..brace], line[close + 1..].trim())
                }
                None => line
                    .split_once(' ')
                    .map(|(n, v)| (&line[..n.len()], v.trim()))
                    .unwrap_or_else(|| panic!("malformed sample: {line}")),
            };
            assert!(
                announced
                    .iter()
                    .any(|f| name == f || name == format!("{f}_count")),
                "sample for unannounced family: {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "NaN",
                "unparseable value in {line}"
            );
        }
        (announced, samples)
    }

    #[test]
    fn dump_conforms_to_text_exposition_format() {
        let (full, samples) = check_exposition_format(&render(&sample_snapshot()));
        assert!(samples > 10, "dump looked empty: {samples} samples");
        assert_eq!(full.len(), 13, "families: {full:?}");
        // Header-stable schema: an empty graph announces the same families
        // and carries only the two graph-level samples.
        let (empty, samples) = check_exposition_format(&render(&Telemetry::default()));
        assert_eq!(empty, full);
        assert_eq!(samples, 2);
        assert!(!full.contains(&"pipes_node_heartbeats_total".to_string()));
    }

    /// Splits `k1="v1",k2="v2"` on commas outside quotes (label values may
    /// contain escaped quotes and commas).
    fn split_label_pairs(labels: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        let mut escaped = false;
        for c in labels.chars() {
            if escaped {
                escaped = false;
                cur.push(c);
                continue;
            }
            match c {
                '\\' => {
                    escaped = true;
                    cur.push(c);
                }
                '"' => {
                    in_quotes = !in_quotes;
                    cur.push(c);
                }
                ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }
}
