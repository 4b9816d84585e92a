//! # pipes-ops
//!
//! The generic temporal operator algebra of PIPES.
//!
//! Every operation of the extended relational algebra is provided as a
//! **non-blocking, data-driven** stream operator with a precise semantics
//! over time intervals: the physical output is *snapshot-equivalent* to the
//! corresponding relational operation applied to the input snapshots at every
//! instant (see `pipes_time::snapshot`, which the property-test suite of this
//! crate uses as ground truth). The algebra abstracts from relational
//! schemas — payloads are arbitrary objects and operators are parameterized
//! by functions and predicates, in the library style of XXL/PIPES.
//!
//! Operator inventory:
//!
//! * windows — [`window::TimeWindow`], [`window::NowWindow`],
//!   [`window::CountWindow`], [`window::PartitionedCountWindow`],
//! * stateless — [`stateless::Filter`], [`stateless::Map`],
//!   [`stateless::FlatMap`],
//! * [`union::Union`] (n-ary, additive bag union),
//! * joins — the generalized ripple-join framework in [`join`],
//!   parameterized by exchangeable [`join::SweepArea`]s,
//! * aggregation — [`aggregate::ScalarAggregate`] and
//!   [`groupby::GroupedAggregate`] over pluggable [`aggregate::AggregateFn`]s,
//!   with sums kept exact by [`aggregate::ExactSum`],
//! * [`distinct::Distinct`] (snapshot duplicate elimination),
//! * [`difference::Difference`] (snapshot bag difference, monus),
//! * rate reduction — [`coalesce::Coalesce`] and
//!   [`granularity::Granularity`] (the "special mechanisms that
//!   substantially reduce stream rates" of the paper).
//!
//! All stateful operators are driven by heartbeats (punctuations): state
//! whose validity ends at or before the combined input watermark is
//! finalized, emitted and purged, so no operator ever blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod aggtree;
pub mod coalesce;
pub mod difference;
pub mod distinct;
pub mod drive;
mod exactsum;
pub mod granularity;
pub mod groupby;
pub mod join;
pub mod stateless;
pub mod union;
pub mod window;

pub use aggregate::{AggStrategy, AggregateFn, ScalarAggregate, WithCombine};
pub use coalesce::Coalesce;
pub use difference::Difference;
pub use distinct::Distinct;
pub use granularity::Granularity;
pub use groupby::{GroupRow, GroupedAggregate, KeyAndValue};
pub use join::{
    HashSweepArea, ListSweepArea, MultiwayJoin, OrderedSweepArea, RippleJoin, SweepArea,
};
pub use stateless::{Filter, FlatMap, Map};
pub use union::Union;
pub use window::{CountWindow, NowWindow, PartitionedCountWindow, TimeWindow};
