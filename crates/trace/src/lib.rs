//! # pipes-trace
//!
//! The flight recorder of the PIPES toolkit: an always-on, low-overhead
//! event-tracing facility for the kernel (`pipes-graph`), the scheduler
//! (`pipes-sched`) and the memory manager (`pipes-mem`).
//!
//! The PIPES demo's headline artifact is its performance monitor: live
//! metadata on arbitrary nodes driving runtime resource allocation. The
//! polling counters of `pipes-meta` answer *how much*; this crate answers
//! *when* and *why* — what the strategy ran in quantum N, where a tuple's
//! latency went, which rebalance round shed which operator.
//!
//! ## Architecture
//!
//! - Every thread that records owns a private **ring buffer** of
//!   fixed-size binary event slots ([`ring`]). A slot is six atomic words
//!   guarded by a per-slot sequence (a seqlock built from the `pipes-sync`
//!   atomics — no `unsafe` anywhere); the owning thread is the only
//!   writer, so the hot path is a handful of uncontended atomic stores:
//!   tens of nanoseconds, no locks, no allocation.
//! - Event **names** are `&'static str`s interned to small integers once
//!   per thread ([`names`] collects the well-known ones); the event itself
//!   stores only the id plus three `u64` arguments.
//! - A global registry keeps one handle per ring so [`snapshot`] can
//!   collect a process-wide [`Trace`] at any time, even while writers keep
//!   appending (torn slots are detected and dropped).
//! - Recording can be toggled at runtime ([`set_enabled`]) — one binary
//!   measures recorder-on vs recorder-off — and compiled out entirely with
//!   the `trace-off` feature (or under `cfg(pipes_model_check)`, where
//!   tracing atomics would only blow up the model checker's schedule
//!   space): every entry point becomes an inline empty function and
//!   [`SpanGuard`] is a zero-sized type.
//!
//! ## Consumers
//!
//! - [`chrome`] — export a [`Trace`] as Chrome `chrome://tracing` JSON,
//!   one track per recorded thread.
//! - [`prometheus`] — text-exposition rendering of a `pipes-meta`
//!   `Telemetry` snapshot (one entry point, a pure function of it).
//! - [`replay`] — rebuild the span tree per thread and assert causality
//!   in tests.
//! - [`latency`] — the source-to-sink tuple-latency pipeline: sources
//!   stamp logical timestamps, sinks look the stamps up and feed
//!   `NodeStats` P² quantiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod latency;
pub mod names;
pub mod prometheus;
pub mod replay;

#[cfg(not(any(feature = "trace-off", pipes_model_check)))]
mod recorder;
#[cfg(not(any(feature = "trace-off", pipes_model_check)))]
mod ring;

#[cfg(not(any(feature = "trace-off", pipes_model_check)))]
pub use recorder::{
    clear, enabled, instant, instant_coarse, now_ns, set_enabled, set_thread_name, snapshot, span,
    span_args, SpanGuard,
};

#[cfg(any(feature = "trace-off", pipes_model_check))]
mod noop;
#[cfg(any(feature = "trace-off", pipes_model_check))]
pub use noop::{
    clear, enabled, instant, instant_coarse, now_ns, set_enabled, set_thread_name, snapshot, span,
    span_args, SpanGuard,
};

pub use latency::LatencyTracker;

/// Whether the recorder was compiled out (the `trace-off` feature, or a
/// `pipes_model_check` build). When true every recording entry point is an
/// inline no-op and [`snapshot`] always returns an empty [`Trace`].
pub const COMPILED_OUT: bool = cfg!(any(feature = "trace-off", pipes_model_check));

/// Emits a counter sample (a named value over time).
#[inline]
pub fn counter(name: &'static str, value: u64) {
    instant_kind(EventKind::Counter, name, [value, 0, 0]);
}

#[cfg(not(any(feature = "trace-off", pipes_model_check)))]
#[inline]
fn instant_kind(kind: EventKind, name: &'static str, args: [u64; 3]) {
    recorder::record(kind, name, args);
}

#[cfg(any(feature = "trace-off", pipes_model_check))]
#[inline(always)]
fn instant_kind(_kind: EventKind, _name: &'static str, _args: [u64; 3]) {}

// ---------------------------------------------------------------------------
// Shared event model (compiled in every configuration; exporters and the
// replay reader operate on these regardless of whether recording is live).
// ---------------------------------------------------------------------------

/// The kind of a recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened ([`span`] / [`span_args`]).
    SpanBegin,
    /// A span closed ([`SpanGuard`] dropped).
    SpanEnd,
    /// A point event ([`instant`]).
    Instant,
    /// A counter sample ([`counter`]); the value is `args[0]`.
    Counter,
}

impl EventKind {
    /// Wire encoding of the kind (the value stored in a ring slot).
    pub fn code(self) -> u8 {
        match self {
            EventKind::SpanBegin => 1,
            EventKind::SpanEnd => 2,
            EventKind::Instant => 3,
            EventKind::Counter => 4,
        }
    }

    /// Decodes a wire kind; `None` for corrupt (torn) slots.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(EventKind::SpanBegin),
            2 => Some(EventKind::SpanEnd),
            3 => Some(EventKind::Instant),
            4 => Some(EventKind::Counter),
            _ => None,
        }
    }
}

/// One decoded event from the flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Index of the recording thread (dense, in registration order).
    pub thread: usize,
    /// Nanoseconds since the process's trace epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The interned event name, resolved back to a string.
    pub name: String,
    /// Free-form arguments (meaning is per-name; see [`names`]).
    pub args: [u64; 3],
}

/// Display name of one recording thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Dense thread index, as used by [`TraceEvent::thread`].
    pub index: usize,
    /// Name set via [`set_thread_name`], or `"thread-<index>"`.
    pub name: String,
}

/// A process-wide snapshot of the flight recorder: all surviving events of
/// every recording thread, in global timestamp order (ties keep per-thread
/// recording order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The events, sorted by [`TraceEvent::ts_ns`].
    pub events: Vec<TraceEvent>,
    /// One entry per recording thread.
    pub threads: Vec<ThreadInfo>,
}

impl Trace {
    /// Events recorded by one thread, in recording order.
    pub fn thread_events(&self, thread: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.thread == thread)
    }
}
