//! # g2pl-obs
//!
//! The engines' one event stream and what is built on it: per-phase
//! latency attribution, empirical sequential-round accounting, and a
//! JSONL structured export.
//!
//! The paper's whole argument is that *rounds of sequential message
//! passing*, not bytes, dominate transaction cost on high-latency links
//! (§3.1: s-2PL pays `3m` rounds for `m` single-item transactions where
//! g-2PL pays `2m + 1`). This crate measures that claim instead of
//! assuming it: the engines emit one typed [`tracelog::TraceEvent`] per
//! transition, and [`tracker::SpanRecorder`] streams them into a
//! [`tracker::PhaseBreakdown`] — mean/max time per [`span::Phase`], a
//! round-count histogram, and exact round totals — while keeping the
//! stream itself in a bounded [`tracelog::TraceLog`] when recording is
//! on. The engine kernel builds a recorder only for runs with
//! `trace_events` set, so only those runs report a breakdown and a flight
//! recorder in `RunMetrics`; an unrecorded run reports an empty `phases`
//! and `flight`. The same stream is what `g2pl-core`'s tracecheck
//! validates against P1–P10 and what [`export`] serialises to JSONL for
//! the `trace-explain` analyzer, so an exported file can be checked
//! offline.
//!
//! Layering: depends only on `g2pl-simcore` (ids, time) and `g2pl-stats`
//! (moments, histograms); the protocols crate depends on *it*.

pub mod export;
pub mod span;
pub mod tracelog;
pub mod tracker;

pub use export::{
    event_to_json, flight_markers, parse_jsonl, write_jsonl, RunMeta, TraceCheckOpts, TraceFile,
};
pub use span::Phase;
pub use tracelog::{TraceEvent, TraceKind, TraceLog, MAX_EVENTS};
pub use tracker::{ObsReport, PhaseBreakdown, SpanRecorder, TxnDetail, FLIGHT_K};
