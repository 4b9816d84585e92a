//! The metadata plane's derivation and consumption layer.
//!
//! [`QueryGraph::meta_snapshot`](crate::QueryGraph::meta_snapshot) takes
//! the graph's one telemetry snapshot
//! ([`QueryGraph::telemetry`](crate::QueryGraph::telemetry): every live
//! node's [`NodeMetaSnapshot`], queue depth and state bytes together with
//! the topology) and runs one topology-aware propagation pass over it that
//! fills in estimates for *cold* nodes — just spliced in by the optimizer, or idle so long their
//! measurements exceeded the staleness bound — from warm upstream ones:
//!
//! * a warm node (fresh measurement) keeps its measured values, tagged
//!   [`Confidence::Measured`];
//! * a cold operator inherits `in_rate = Σ upstream out_rate` and applies a
//!   selectivity prior (its own stale measurement when it has one, the
//!   configured default otherwise) to derive `out_rate`, tagged
//!   [`Confidence::Derived`] — unless every upstream contribution was
//!   itself a prior, in which case the value chain never touched a
//!   measurement and the tag degrades to [`Confidence::Prior`];
//! * a cold source falls back to [`MetaConfig::default_source_rate`],
//!   tagged [`Confidence::Prior`].
//!
//! Node ids are assigned in subscription order, so every upstream id is
//! smaller than its consumer's id and a single forward pass in id order
//! sees all upstream estimates before deriving from them.
//!
//! Consumers: `pipes-optimizer` costs candidate plans against a snapshot
//! (`LiveCostSource`), the work-stealing scheduler's rebalancer weighs
//! groups by measured rates, and [`MetaSnapshot::to_json`] is the
//! machine-readable introspection dump. (`Monitor`/`pipes-top` and the
//! Prometheus renderer read the same telemetry snapshot directly.)

use crate::graph::NodeKind;
use crate::operator::NodeId;
use pipes_meta::Telemetry;
pub use pipes_meta::{NodeMetaSnapshot, META_COMPILED_OUT};
use pipes_trace::chrome::json_string;

/// Tuning knobs for snapshot derivation.
#[derive(Clone, Copy, Debug)]
pub struct MetaConfig {
    /// A measurement older than this (seconds) is treated as cold and
    /// re-derived from upstream estimates.
    pub staleness_bound_secs: f64,
    /// Output rate assumed for a source with no fresh measurement,
    /// messages per second.
    pub default_source_rate: f64,
    /// Selectivity assumed for an operator that has never measured one.
    pub default_selectivity: f64,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            staleness_bound_secs: 1.0,
            default_source_rate: 1000.0,
            default_selectivity: 1.0,
        }
    }
}

/// How much a [`NodeEstimate`]'s values can be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Static prior only — no measurement anywhere in the value chain.
    Prior,
    /// Derived from at least one fresh upstream measurement.
    Derived,
    /// Fresh measurement of this node itself.
    Measured,
}

/// One node's estimates within a [`MetaSnapshot`].
#[derive(Clone, Debug)]
pub struct NodeEstimate {
    /// The node id.
    pub id: NodeId,
    /// Display name given at registration.
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// Input rate, messages per second.
    pub in_rate: f64,
    /// Output rate, messages per second.
    pub out_rate: f64,
    /// Run-level selectivity (output / input messages).
    pub selectivity: f64,
    /// Variance of the run-level selectivity samples (0 when derived).
    pub selectivity_var: f64,
    /// Variance of inter-quantum arrival gaps, s² (0 when derived).
    pub interarrival_var: f64,
    /// Messages queued at the node's inputs at snapshot time.
    pub queue_len: usize,
    /// Operator state footprint in bytes.
    pub state_bytes: usize,
    /// Age of the underlying measurement in seconds; `None` when the node
    /// has never measured anything.
    pub age_secs: Option<f64>,
    /// Trust level of the rate/selectivity values.
    pub confidence: Confidence,
}

/// A consistent point-in-time view of every node's estimates, indexed by
/// node id ([`None`] entries are removed nodes).
#[derive(Clone, Debug, Default)]
pub struct MetaSnapshot {
    estimates: Vec<Option<NodeEstimate>>,
}

impl MetaSnapshot {
    /// The estimate for `id`, if the node exists and is not removed.
    pub fn get(&self, id: NodeId) -> Option<&NodeEstimate> {
        self.estimates.get(id).and_then(|e| e.as_ref())
    }

    /// Iterates over the live nodes' estimates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeEstimate> {
        self.estimates.iter().flatten()
    }

    /// Number of id slots up to the highest live node (retired nodes below
    /// it count; ids are stable).
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether the snapshot covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// Renders the snapshot as a machine-readable JSON array (one object
    /// per live node, id order) for external introspection tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for e in self.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let kind = match e.kind {
                NodeKind::Source => "source",
                NodeKind::Operator => "operator",
                NodeKind::Sink => "sink",
            };
            let confidence = match e.confidence {
                Confidence::Measured => "measured",
                Confidence::Derived => "derived",
                Confidence::Prior => "prior",
            };
            out.push_str(&format!(
                "{{\"id\":{},\"name\":{},\"kind\":\"{}\",\"in_rate\":{},\
                 \"out_rate\":{},\"selectivity\":{},\"selectivity_var\":{},\
                 \"interarrival_var\":{},\"queue_len\":{},\"state_bytes\":{},\
                 \"age_secs\":{},\"confidence\":\"{}\"}}",
                e.id,
                json_string(&e.name),
                kind,
                json_num(e.in_rate),
                json_num(e.out_rate),
                json_num(e.selectivity),
                json_num(e.selectivity_var),
                json_num(e.interarrival_var),
                e.queue_len,
                e.state_bytes,
                e.age_secs.map_or("null".to_string(), json_num),
                confidence,
            ));
        }
        out.push(']');
        out
    }
}

/// JSON has no NaN/Infinity literals; clamp them to null-safe zero.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The propagation pass: one forward sweep in id order (topological — see
/// module docs) turning raw measurements into a complete estimate set.
pub(crate) fn derive(telemetry: &Telemetry, cfg: &MetaConfig) -> MetaSnapshot {
    let mut estimates: Vec<Option<NodeEstimate>> = Vec::new();
    for node in &telemetry.nodes {
        let (id, kind) = (node.info.id, node.info.kind);
        // Rows are live nodes in id order; retired ids stay holes.
        estimates.resize(id, None);
        let fresh = node
            .meta
            .as_ref()
            .filter(|m| m.is_fresh(cfg.staleness_bound_secs));
        let est = if let Some(m) = fresh {
            // Warm: trust the measurement as-is. A node without a single
            // consuming quantum yet reports the unit-selectivity
            // placeholder; sinks produce nothing by definition.
            NodeEstimate {
                id,
                name: node.info.name.clone(),
                kind,
                in_rate: m.in_rate,
                out_rate: if kind == NodeKind::Sink {
                    0.0
                } else {
                    m.out_rate
                },
                selectivity: m.selectivity,
                selectivity_var: m.selectivity_var,
                interarrival_var: m.interarrival_var,
                queue_len: node.queue_len,
                state_bytes: node.stats.state_bytes,
                age_secs: Some(m.age_secs),
                confidence: Confidence::Measured,
            }
        } else {
            // Cold: derive from upstream estimates (all already computed —
            // upstream ids are smaller). The selectivity prior prefers the
            // node's own stale measurement over the configured default.
            let mut in_rate = 0.0;
            let mut any_measured_chain = false;
            for up in &node.info.upstream {
                if let Some(Some(u)) = estimates.get(*up) {
                    in_rate += u.out_rate;
                    if u.confidence != Confidence::Prior {
                        any_measured_chain = true;
                    }
                }
            }
            let stale_sel = node
                .meta
                .as_ref()
                .filter(|m| m.selectivity_samples > 0)
                .map(|m| m.selectivity);
            let selectivity = stale_sel.unwrap_or(cfg.default_selectivity);
            let (in_rate, out_rate) = match kind {
                NodeKind::Source => (0.0, cfg.default_source_rate),
                NodeKind::Operator => (in_rate, in_rate * selectivity),
                NodeKind::Sink => (in_rate, 0.0),
            };
            let confidence = if kind != NodeKind::Source && any_measured_chain {
                Confidence::Derived
            } else {
                Confidence::Prior
            };
            NodeEstimate {
                id,
                name: node.info.name.clone(),
                kind,
                in_rate,
                out_rate,
                selectivity,
                selectivity_var: 0.0,
                interarrival_var: 0.0,
                queue_len: node.queue_len,
                state_bytes: node.stats.state_bytes,
                age_secs: node.meta.as_ref().map(|m| m.age_secs),
                confidence,
            }
        };
        estimates.push(Some(est));
    }
    MetaSnapshot { estimates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_meta::{NodeInfo, NodeTelemetry, StatsSnapshot};

    fn warm(in_rate: f64, out_rate: f64, sel: f64, samples: u64) -> Option<NodeMetaSnapshot> {
        Some(NodeMetaSnapshot {
            in_rate,
            out_rate,
            selectivity: sel,
            selectivity_var: 0.01,
            selectivity_samples: samples,
            interarrival_var: 0.0,
            age_secs: 0.0,
        })
    }

    fn stale(mut m: Option<NodeMetaSnapshot>) -> Option<NodeMetaSnapshot> {
        if let Some(s) = m.as_mut() {
            s.age_secs = 10.0;
        }
        m
    }

    type Raw = (NodeKind, Vec<NodeId>, Option<NodeMetaSnapshot>);

    fn raw(kind: NodeKind, upstream: Vec<NodeId>, meta: Option<NodeMetaSnapshot>) -> Raw {
        (kind, upstream, meta)
    }

    /// A snapshot whose live rows are the `Some` entries, at their index.
    fn rows(nodes: Vec<Option<Raw>>) -> Telemetry {
        let row = |(id, raw): (NodeId, Option<Raw>)| {
            let (kind, upstream, meta) = raw?;
            Some(NodeTelemetry {
                info: NodeInfo {
                    id,
                    name: format!("{kind:?}"),
                    kind,
                    upstream,
                    removed: false,
                },
                spliced_epoch: 0,
                stats: StatsSnapshot::default(),
                queue_len: 0,
                memory: 0,
                meta,
            })
        };
        Telemetry {
            nodes: nodes.into_iter().enumerate().filter_map(row).collect(),
            ..Telemetry::default()
        }
    }

    fn derive(nodes: Vec<Raw>, cfg: &MetaConfig) -> MetaSnapshot {
        super::derive(&rows(nodes.into_iter().map(Some).collect()), cfg)
    }

    #[test]
    fn warm_chain_is_all_measured() {
        let snap = derive(
            vec![
                raw(NodeKind::Source, vec![], warm(0.0, 100.0, 1.0, 0)),
                raw(NodeKind::Operator, vec![0], warm(100.0, 50.0, 0.5, 8)),
                raw(NodeKind::Sink, vec![1], warm(50.0, 50.0, 1.0, 8)),
            ],
            &MetaConfig::default(),
        );
        assert!(snap.iter().all(|e| e.confidence == Confidence::Measured));
        assert_eq!(snap.get(1).unwrap().out_rate, 50.0);
        assert_eq!(snap.get(2).unwrap().out_rate, 0.0, "sinks emit nothing");
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
    }

    #[test]
    fn cold_child_derives_from_warm_parent() {
        let snap = derive(
            vec![
                raw(NodeKind::Source, vec![], warm(0.0, 200.0, 1.0, 0)),
                raw(NodeKind::Operator, vec![0], None), // just spliced in
            ],
            &MetaConfig::default(),
        );
        let child = snap.get(1).unwrap();
        assert_eq!(child.confidence, Confidence::Derived);
        assert_eq!(child.in_rate, 200.0);
        assert_eq!(child.out_rate, 200.0, "default selectivity 1.0");
        assert_eq!(child.age_secs, None);
    }

    #[test]
    fn stale_node_reuses_own_selectivity_prior() {
        let snap = derive(
            vec![
                raw(NodeKind::Source, vec![], warm(0.0, 100.0, 1.0, 0)),
                raw(
                    NodeKind::Operator,
                    vec![0],
                    stale(warm(80.0, 20.0, 0.25, 50)),
                ),
            ],
            &MetaConfig::default(),
        );
        let op = snap.get(1).unwrap();
        assert_eq!(op.confidence, Confidence::Derived);
        assert_eq!(op.selectivity, 0.25, "stale measurement beats default");
        assert_eq!(op.out_rate, 25.0);
        assert_eq!(op.age_secs, Some(10.0), "staleness still reported");
    }

    #[test]
    fn all_cold_subgraph_degrades_to_priors() {
        let cfg = MetaConfig::default();
        let snap = derive(
            vec![
                raw(NodeKind::Source, vec![], None),
                raw(NodeKind::Operator, vec![0], None),
                raw(NodeKind::Sink, vec![1], None),
            ],
            &cfg,
        );
        assert!(snap.iter().all(|e| e.confidence == Confidence::Prior));
        assert_eq!(snap.get(0).unwrap().out_rate, cfg.default_source_rate);
        assert_eq!(snap.get(1).unwrap().out_rate, cfg.default_source_rate);
        assert_eq!(snap.get(2).unwrap().in_rate, cfg.default_source_rate);
    }

    #[test]
    fn diamond_cold_child_sums_both_parents() {
        let snap = derive(
            vec![
                raw(NodeKind::Source, vec![], warm(0.0, 100.0, 1.0, 0)),
                raw(NodeKind::Operator, vec![0], warm(100.0, 40.0, 0.4, 9)),
                raw(NodeKind::Operator, vec![0], warm(100.0, 70.0, 0.7, 9)),
                raw(NodeKind::Operator, vec![1, 2], None), // cold join
            ],
            &MetaConfig::default(),
        );
        let join = snap.get(3).unwrap();
        assert_eq!(join.confidence, Confidence::Derived);
        assert_eq!(join.in_rate, 110.0, "sum of both warm parents");
        assert_eq!(join.out_rate, 110.0);
    }

    #[test]
    fn removed_nodes_leave_holes_and_feed_nothing() {
        let snap = super::derive(
            &rows(vec![
                Some(raw(NodeKind::Source, vec![], warm(0.0, 100.0, 1.0, 0))),
                None, // retired: not in the telemetry
                Some(raw(NodeKind::Sink, vec![1], None)),
            ]),
            &MetaConfig::default(),
        );
        assert_eq!(snap.len(), 3);
        assert!(snap.get(1).is_none());
        let sink = snap.get(2).unwrap();
        assert_eq!(sink.in_rate, 0.0, "removed parent contributes nothing");
        assert_eq!(sink.confidence, Confidence::Prior);
    }

    #[test]
    fn json_dump_is_wellformed_and_escaped() {
        let mut named = rows(vec![Some(raw(
            NodeKind::Source,
            vec![],
            warm(0.0, 1.5, 1.0, 0),
        ))]);
        named.nodes[0].info.name = "we\"ird\\name".to_string();
        let snap = super::derive(&named, &MetaConfig::default());
        let js = snap.to_json();
        assert!(js.starts_with('[') && js.ends_with(']'));
        assert!(js.contains("\"name\":\"we\\\"ird\\\\name\""), "got {js}");
        assert!(js.contains("\"confidence\":\"measured\""));
        assert!(js.contains("\"out_rate\":1.5"));
        assert!(js.contains("\"age_secs\":0"));
    }
}
