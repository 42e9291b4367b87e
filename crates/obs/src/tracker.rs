//! Streaming critical-path tracker: turns the event stream into
//! per-phase latency attribution and empirical sequential-round counts.
//!
//! # Phase attribution
//!
//! Per transaction, the tracker keeps the time of its last
//! phase-opening event and a *mark* (that event's kind). When the next
//! one arrives, the elapsed interval is charged to the phase the mark
//! opened (see [`TraceKind::phase`]). Because every interval between
//! consecutive events is charged to exactly one phase, the five response
//! phases partition `[first request, commit]` exactly — the per-phase
//! sums add up to the response time with no residue. Zero-length
//! intervals are never charged, so several events at one instant leave
//! only the last one's mark.
//!
//! # Round accounting
//!
//! The paper's cost model counts *sequential rounds* of message passing
//! (§3.1: s-2PL pays `2n + 1` rounds for `n` items — `3` for the
//! single-item best case — while g-2PL pays `2m + 1` rounds *in total*
//! for a window of `m` single-item transactions). The tracker reproduces
//! that count empirically:
//!
//! * `+1` per request sent (the request hop);
//! * `+1` per grant delivered over the network (the data/grant hop; a
//!   c-2PL cache hit is local and counts nothing);
//! * `+1` per post-commit release that arrives **at a server** (the
//!   s-2PL commit round, or the g-2PL final return). Releases arriving at
//!   a *client* ride the very hop that is the successor's grant — already
//!   counted there — so they add nothing, which is precisely the §3.2
//!   "lock release merged with lock grant" overlap.
//!
//! A transaction's rounds are finalized when its expected release
//! arrivals (declared by `Committed`) have all landed.

use crate::span::Phase;
use crate::tracelog::{TraceEvent, TraceKind, TraceLog};
use g2pl_simcore::{SimTime, TxnId};
use g2pl_stats::{Histogram, RunningStats, TailSketch};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Flight-recorder capacity: the `FLIGHT_K` worst measured committed
/// transactions (by response time) are retained with their full phase
/// totals, whatever mode the recorder runs in.
pub const FLIGHT_K: usize = 16;

/// Width of the round-count histogram buckets (1 = exact counts).
const ROUND_BUCKETS: usize = 64;

/// Streaming per-phase aggregate over measured committed transactions.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseBreakdown {
    /// Per-phase statistics, indexed by [`Phase::index`]. The first
    /// [`Phase::RESPONSE_PHASES`] entries partition response time; the
    /// last is the post-commit return tail.
    pub per_phase: [RunningStats; 6],
    /// Per-phase quantile sketches over the same measured commits as
    /// [`per_phase`](Self::per_phase), so each phase reports its own
    /// p50/p90/p99/p999/max alongside the mean.
    pub tails: [TailSketch; 6],
    /// Histogram of per-transaction sequential round counts (bucket
    /// width 1, so bucket `r` counts transactions that took `r` rounds).
    pub rounds: Histogram,
    /// Sum of round counts over measured committed transactions.
    pub rounds_total: u64,
    /// Measured committed transactions seen by the tracker.
    pub measured_commits: u64,
    /// Run-wide count of release arrivals at the server (every s-2PL
    /// commit-release, every g-2PL item return) including warm-up.
    pub server_returns: u64,
    /// Events the bounded log dropped past its cap (aggregation is
    /// unaffected; only the recorded stream is incomplete).
    pub spans_dropped: u64,
}

impl Default for PhaseBreakdown {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        PhaseBreakdown {
            per_phase: std::array::from_fn(|_| RunningStats::new()),
            tails: std::array::from_fn(|_| TailSketch::new()),
            rounds: Histogram::new(1.0, ROUND_BUCKETS),
            rounds_total: 0,
            measured_commits: 0,
            server_returns: 0,
            spans_dropped: 0,
        }
    }

    /// Statistics for one phase.
    pub fn phase(&self, p: Phase) -> &RunningStats {
        &self.per_phase[p.index()]
    }

    /// Quantile sketch for one phase.
    pub fn tail(&self, p: Phase) -> &TailSketch {
        &self.tails[p.index()]
    }

    /// Sum of the mean response-phase times — equals the mean response
    /// time of the same transactions (up to f64 rounding).
    pub fn mean_phase_sum(&self) -> f64 {
        self.per_phase[..Phase::RESPONSE_PHASES]
            .iter()
            .map(RunningStats::mean)
            .sum()
    }

    /// Mean rounds per measured committed transaction (0 when none).
    pub fn mean_rounds(&self) -> f64 {
        if self.measured_commits == 0 {
            0.0
        } else {
            self.rounds_total as f64 / self.measured_commits as f64
        }
    }
}

/// A transaction between its first request and its commit.
#[derive(Clone, Debug)]
struct Open {
    start: SimTime,
    last: SimTime,
    mark: TraceKind,
    acc: [u64; Phase::RESPONSE_PHASES],
    rounds: u32,
    intervals: Vec<(Phase, SimTime, SimTime)>,
}

/// A committed transaction whose releases are still in flight.
#[derive(Clone, Debug)]
struct Post {
    start: SimTime,
    commit: SimTime,
    last: SimTime,
    left: u32,
    rounds: u32,
    measured: bool,
    acc: [u64; Phase::RESPONSE_PHASES],
    intervals: Vec<(Phase, SimTime, SimTime)>,
}

/// Fully attributed lifetime of one committed transaction (kept by the
/// flight recorder for the worst transactions, and for every commit in
/// detail mode). `intervals` are collected only in detail mode.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TxnDetail {
    /// The transaction.
    pub txn: TxnId,
    /// First request instant (response time starts here).
    pub start: SimTime,
    /// Client-local commit instant.
    pub commit: SimTime,
    /// Last release arrival (end of the commit-return tail).
    pub end: SimTime,
    /// Per-phase totals, indexed by [`Phase::index`] (the last entry is
    /// the commit-return tail).
    pub phases: [u64; 6],
    /// Empirical sequential rounds.
    pub rounds: u32,
    /// Whether the commit fell inside the measurement window.
    pub measured: bool,
    /// Contiguous attributed intervals, for timeline rendering.
    pub intervals: Vec<(Phase, SimTime, SimTime)>,
}

/// Everything a finished recorder reports.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// The streaming aggregate.
    pub breakdown: PhaseBreakdown,
    /// The recorded event stream, when recording was on.
    pub raw: Option<Vec<TraceEvent>>,
    /// Per-transaction detail, when detail mode was on.
    pub details: Vec<TxnDetail>,
    /// The flight recorder: up to [`FLIGHT_K`] worst measured committed
    /// transactions, worst (longest response) first. Always collected.
    pub flight: Vec<TxnDetail>,
}

/// The recorder the engines feed: the bounded log of the event stream
/// plus its always-on streaming aggregation. Recording is passive: it
/// perturbs no random draw and no simulation event.
#[derive(Debug)]
pub struct SpanRecorder {
    detail: bool,
    log: TraceLog,
    open: BTreeMap<TxnId, Open>,
    post: BTreeMap<TxnId, Post>,
    agg: PhaseBreakdown,
    details: Vec<TxnDetail>,
    flight: Vec<TxnDetail>,
}

impl SpanRecorder {
    /// A recorder; `record` keeps the event stream in a bounded log (for
    /// the checker and JSONL export) in addition to the always-on
    /// streaming aggregation.
    pub fn new(record: bool) -> Self {
        SpanRecorder {
            detail: false,
            log: TraceLog::new(record),
            open: BTreeMap::new(),
            post: BTreeMap::new(),
            agg: PhaseBreakdown::new(),
            details: Vec::new(),
            flight: Vec::new(),
        }
    }

    /// Keep per-transaction interval detail (used by `trace-explain`).
    pub fn with_detail(mut self) -> Self {
        self.detail = true;
        self
    }

    /// Rebuild a recorder's state from a recorded or exported stream.
    pub fn replay(events: &[TraceEvent]) -> Self {
        let mut r = SpanRecorder::new(false).with_detail();
        for ev in events {
            r.apply(ev);
        }
        r
    }

    /// Record one event: aggregate it and append it to the log.
    pub fn record(&mut self, ev: TraceEvent) {
        self.apply(&ev);
        self.log.push(ev);
    }

    /// Advance the tracker by one event (also the replay entry point).
    pub fn apply(&mut self, ev: &TraceEvent) {
        match ev.kind {
            // A transaction opens with its first request — or, when every
            // access so far hit the cache, with a local grant.
            TraceKind::RequestSent | TraceKind::CacheHit => {
                let Some(txn) = ev.txn else { return };
                let open = self.open.entry(txn).or_insert_with(|| Open {
                    start: ev.at,
                    last: ev.at,
                    mark: ev.kind,
                    acc: [0; Phase::RESPONSE_PHASES],
                    rounds: 0,
                    intervals: Vec::new(),
                });
                Self::charge(open, ev.at, self.detail);
                open.mark = ev.kind;
                if ev.kind == TraceKind::RequestSent {
                    open.rounds += 1; // the request hop
                } // a local grant never touches the network
            }
            TraceKind::RequestArrived
            | TraceKind::FlOrdered
            | TraceKind::FlExtended
            | TraceKind::HopDeparted
            | TraceKind::Granted => {
                let Some(txn) = ev.txn else { return };
                let Some(open) = self.open.get_mut(&txn) else {
                    return; // e.g. pass-through traffic of an aborted txn
                };
                Self::charge(open, ev.at, self.detail);
                open.mark = ev.kind;
                if ev.kind == TraceKind::Granted {
                    open.rounds += 1; // the delivering hop
                }
            }
            TraceKind::Committed => {
                let Some(txn) = ev.txn else { return };
                let mut open = self.open.remove(&txn).unwrap_or(Open {
                    start: ev.at,
                    last: ev.at,
                    mark: TraceKind::Granted,
                    acc: [0; Phase::RESPONSE_PHASES],
                    rounds: 0,
                    intervals: Vec::new(),
                });
                Self::charge(&mut open, ev.at, self.detail);
                if ev.measured {
                    self.agg.measured_commits += 1;
                    for (i, &a) in open.acc.iter().enumerate() {
                        self.agg.per_phase[i].record(a as f64);
                        self.agg.tails[i].record(a);
                    }
                }
                let post = Post {
                    start: open.start,
                    commit: ev.at,
                    last: ev.at,
                    left: ev.n,
                    rounds: open.rounds,
                    measured: ev.measured,
                    acc: open.acc,
                    intervals: open.intervals,
                };
                if ev.n == 0 {
                    self.finalize(txn, post);
                } else {
                    self.post.insert(txn, post);
                }
            }
            TraceKind::ReleaseArrived => {
                let at_server = ev.site.is_server();
                if at_server {
                    self.agg.server_returns += 1;
                }
                let Some(txn) = ev.txn else { return };
                let Some(post) = self.post.get_mut(&txn) else {
                    return; // release of an aborted or unseen transaction
                };
                if at_server {
                    post.rounds += 1; // a true sequential round home
                }
                post.last = ev.at;
                post.left = post.left.saturating_sub(1);
                if post.left == 0 {
                    if let Some(post) = self.post.remove(&txn) {
                        self.finalize(txn, post);
                    }
                }
            }
            TraceKind::Aborted => {
                let Some(txn) = ev.txn else { return };
                self.open.remove(&txn);
                self.post.remove(&txn);
            }
            // Off the critical path: the checker's possession,
            // forward-list, fault, recovery and 2PC events, and the
            // export-time flight markers.
            TraceKind::WindowClosed
            | TraceKind::DataArrived
            | TraceKind::Forwarded
            | TraceKind::FaultInjected
            | TraceKind::LeaseExpired
            | TraceKind::Redispatch
            | TraceKind::ServerCrashed
            | TraceKind::ServerRecovered
            | TraceKind::Reregister
            | TraceKind::Prepared
            | TraceKind::CommitApplied
            | TraceKind::SlowTxn => {}
        }
    }

    /// Charge the interval since the last event to the phase opened by
    /// the current mark.
    fn charge(open: &mut Open, at: SimTime, detail: bool) {
        let d = at.units().saturating_sub(open.last.units());
        if d > 0 {
            // Only phase-opening kinds ever become marks.
            let p = open.mark.phase().unwrap_or(Phase::ClientProc);
            open.acc[p.index()] += d;
            if detail {
                open.intervals.push((p, open.last, at));
            }
        }
        open.last = at;
    }

    fn finalize(&mut self, txn: TxnId, post: Post) {
        let tail = post.last.units().saturating_sub(post.commit.units());
        if post.measured {
            self.agg.per_phase[Phase::CommitReturn.index()].record(tail as f64);
            self.agg.tails[Phase::CommitReturn.index()].record(tail);
            self.agg.rounds.record(f64::from(post.rounds));
            self.agg.rounds_total += u64::from(post.rounds);
        }
        if !self.detail && !post.measured {
            return; // nothing retains warm-up commits outside detail mode
        }
        let mut phases = [0u64; 6];
        phases[..Phase::RESPONSE_PHASES].copy_from_slice(&post.acc);
        phases[Phase::CommitReturn.index()] = tail;
        let mut intervals = post.intervals;
        if tail > 0 && self.detail {
            intervals.push((Phase::CommitReturn, post.commit, post.last));
        }
        let d = TxnDetail {
            txn,
            start: post.start,
            commit: post.commit,
            end: post.last,
            phases,
            rounds: post.rounds,
            measured: post.measured,
            intervals,
        };
        if post.measured {
            self.offer_flight(&d);
        }
        if self.detail {
            self.details.push(d);
        }
    }

    /// Worst-first total order for flight entries: longest response
    /// first, ties broken by earlier start then lower transaction id —
    /// the id is unique, so the order (and hence the retained set) is
    /// independent of finalize order.
    fn flight_key(d: &TxnDetail) -> (Reverse<u64>, SimTime, TxnId) {
        let response = d.commit.units().saturating_sub(d.start.units());
        (Reverse(response), d.start, d.txn)
    }

    /// Consider a measured commit for the flight recorder's top-k.
    fn offer_flight(&mut self, d: &TxnDetail) {
        let key = Self::flight_key(d);
        if self.flight.len() >= FLIGHT_K {
            match self.flight.last() {
                Some(worst) if key >= Self::flight_key(worst) => return,
                _ => {}
            }
        }
        let pos = self.flight.partition_point(|e| Self::flight_key(e) < key);
        self.flight.insert(pos, d.clone());
        self.flight.truncate(FLIGHT_K);
    }

    /// Events the log dropped past its cap.
    pub fn dropped(&self) -> u64 {
        self.log.dropped()
    }

    /// Close the recorder: flush commits whose releases were still in
    /// flight at run end and return the report.
    pub fn finish(mut self) -> ObsReport {
        let in_flight: Vec<TxnId> = self.post.keys().copied().collect();
        for txn in in_flight {
            if let Some(post) = self.post.remove(&txn) {
                self.finalize(txn, post);
            }
        }
        self.agg.spans_dropped = self.log.dropped();
        ObsReport {
            breakdown: self.agg,
            raw: self.log.enabled().then(|| self.log.into_events()),
            details: self.details,
            flight: self.flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_simcore::{ClientId, ItemId, SiteId};

    fn t(u: u64) -> SimTime {
        SimTime::new(u)
    }
    const T0: TxnId = TxnId::new(0);
    const X0: ItemId = ItemId::new(0);
    const C0: SiteId = SiteId::Client(ClientId::new(0));

    /// Feed `kind` for `txn` on item `X0`, at the site an engine records
    /// it at (the server for arrivals and dispatch decisions, the client
    /// otherwise).
    fn on(r: &mut SpanRecorder, at: SimTime, kind: TraceKind, txn: TxnId) {
        let site = match kind {
            TraceKind::RequestArrived | TraceKind::FlOrdered => SiteId::SERVER0,
            _ => C0,
        };
        r.record(kind.at(at, Some(txn), Some(X0), site));
    }

    fn commit(r: &mut SpanRecorder, at: SimTime, txn: TxnId, releases: u32, measured: bool) {
        r.record(TraceEvent {
            n: releases,
            measured,
            ..TraceKind::Committed.at(at, Some(txn), None, C0)
        });
    }

    fn release(r: &mut SpanRecorder, at: SimTime, txn: TxnId, at_server: bool) {
        let site = if at_server { SiteId::SERVER0 } else { C0 };
        r.record(TraceKind::ReleaseArrived.at(at, Some(txn), None, site));
    }

    /// An s-2PL-like single-item transaction: request at 0, server at
    /// 100, grant issued at once, granted at 200, commit at 202, release
    /// home at 302.
    fn s2pl_like(r: &mut SpanRecorder, measured: bool) {
        on(r, t(0), TraceKind::RequestSent, T0);
        on(r, t(100), TraceKind::RequestArrived, T0);
        on(r, t(100), TraceKind::HopDeparted, T0);
        on(r, t(200), TraceKind::Granted, T0);
        commit(r, t(202), T0, 1, measured);
        release(r, t(302), T0, true);
    }

    #[test]
    fn phases_partition_response_exactly() {
        let mut r = SpanRecorder::new(false).with_detail();
        s2pl_like(&mut r, true);
        let rep = r.finish();
        let b = &rep.breakdown;
        assert_eq!(b.measured_commits, 1);
        assert_eq!(b.phase(Phase::ReqProp).mean(), 100.0);
        assert_eq!(b.phase(Phase::ServerQueue).mean(), 0.0);
        assert_eq!(b.phase(Phase::Migration).mean(), 0.0);
        assert_eq!(b.phase(Phase::DispatchProp).mean(), 100.0);
        assert_eq!(b.phase(Phase::ClientProc).mean(), 2.0);
        assert_eq!(b.phase(Phase::CommitReturn).mean(), 100.0);
        assert_eq!(b.mean_phase_sum(), 202.0, "phases sum to response");
        let d = &rep.details[0];
        assert_eq!(d.start, t(0));
        assert_eq!(d.commit, t(202));
        assert_eq!(d.end, t(302));
        assert_eq!(d.phases.iter().sum::<u64>(), 302);
    }

    #[test]
    fn s2pl_single_item_counts_three_rounds() {
        let mut r = SpanRecorder::new(false);
        s2pl_like(&mut r, true);
        let b = r.finish().breakdown;
        assert_eq!(b.rounds_total, 3, "request + grant + commit-release");
        assert_eq!(b.mean_rounds(), 3.0);
        assert_eq!(b.server_returns, 1);
    }

    #[test]
    fn client_bound_releases_add_no_rounds() {
        // A g-2PL mid-list transaction: its release rides the successor's
        // grant hop, so it stays at 2 rounds.
        let mut r = SpanRecorder::new(false);
        on(&mut r, t(0), TraceKind::RequestSent, T0);
        on(&mut r, t(100), TraceKind::RequestArrived, T0);
        on(&mut r, t(150), TraceKind::FlOrdered, T0); // window close
        on(&mut r, t(180), TraceKind::HopDeparted, T0); // predecessor forwards
        on(&mut r, t(280), TraceKind::Granted, T0);
        commit(&mut r, t(282), T0, 1, true);
        release(&mut r, t(382), T0, false); // arrives at the next client
        let b = r.finish().breakdown;
        assert_eq!(b.rounds_total, 2);
        assert_eq!(b.phase(Phase::ServerQueue).mean(), 50.0);
        assert_eq!(b.phase(Phase::Migration).mean(), 30.0);
        assert_eq!(b.phase(Phase::DispatchProp).mean(), 100.0);
        assert_eq!(b.phase(Phase::CommitReturn).mean(), 100.0);
        assert_eq!(b.server_returns, 0);
    }

    #[test]
    fn warmup_commits_do_not_aggregate() {
        let mut r = SpanRecorder::new(false);
        s2pl_like(&mut r, false);
        let b = r.finish().breakdown;
        assert_eq!(b.measured_commits, 0);
        assert_eq!(b.rounds.total(), 0);
        assert_eq!(b.rounds_total, 0);
        assert_eq!(b.server_returns, 1, "server returns count run-wide");
    }

    #[test]
    fn aborted_txn_leaves_no_trace_in_aggregates() {
        let mut r = SpanRecorder::new(false);
        on(&mut r, t(0), TraceKind::RequestSent, T0);
        on(&mut r, t(100), TraceKind::RequestArrived, T0);
        on(&mut r, t(150), TraceKind::Aborted, T0);
        // Pass-through traffic after the abort must be ignored.
        on(&mut r, t(200), TraceKind::Granted, T0);
        release(&mut r, t(300), T0, true);
        let b = r.finish().breakdown;
        assert_eq!(b.measured_commits, 0);
        assert_eq!(b.rounds_total, 0);
    }

    #[test]
    fn zero_commit_run_reports_empty_breakdown() {
        let r = SpanRecorder::new(false);
        let b = r.finish().breakdown;
        assert_eq!(b.measured_commits, 0);
        assert_eq!(b.mean_rounds(), 0.0);
        assert_eq!(b.mean_phase_sum(), 0.0);
        assert_eq!(b.rounds.quantile(0.5), None);
    }

    #[test]
    fn local_grants_count_zero_rounds() {
        let mut r = SpanRecorder::new(false);
        on(&mut r, t(0), TraceKind::CacheHit, T0);
        on(&mut r, t(2), TraceKind::CacheHit, T0);
        commit(&mut r, t(4), T0, 1, true);
        release(&mut r, t(104), T0, true);
        let b = r.finish().breakdown;
        assert_eq!(b.rounds_total, 1, "only the commit-release round");
        assert_eq!(b.phase(Phase::ClientProc).mean(), 4.0);
        assert_eq!(b.mean_phase_sum(), 4.0);
    }

    #[test]
    fn in_flight_releases_flush_at_finish() {
        let mut r = SpanRecorder::new(false);
        on(&mut r, t(0), TraceKind::RequestSent, T0);
        on(&mut r, t(100), TraceKind::RequestArrived, T0);
        on(&mut r, t(100), TraceKind::FlOrdered, T0);
        on(&mut r, t(100), TraceKind::HopDeparted, T0);
        on(&mut r, t(200), TraceKind::Granted, T0);
        commit(&mut r, t(202), T0, 1, true);
        // The release never arrives: the run ended. finish() still
        // reports the commit's rounds (2, without the return).
        let b = r.finish().breakdown;
        assert_eq!(b.measured_commits, 1);
        assert_eq!(b.rounds_total, 2);
    }

    /// One single-item commit for txn `id`, starting at `base` with the
    /// grant arriving `slow` ticks later (response = slow + 2).
    fn commit_with_response(r: &mut SpanRecorder, id: u32, base: u64, slow: u64, measured: bool) {
        let txn = TxnId::new(id);
        on(r, t(base), TraceKind::RequestSent, txn);
        on(r, t(base + 1), TraceKind::RequestArrived, txn);
        on(r, t(base + 1), TraceKind::FlOrdered, txn);
        on(r, t(base + 1), TraceKind::HopDeparted, txn);
        on(r, t(base + 1 + slow), TraceKind::Granted, txn);
        commit(r, t(base + 2 + slow), txn, 0, measured);
    }

    #[test]
    fn flight_recorder_keeps_worst_k_sorted() {
        let mut r = SpanRecorder::new(false);
        // 3*FLIGHT_K commits with responses 2, 12, 22, ... — the top-k
        // are the last k by response, not by arrival order.
        let n = 3 * FLIGHT_K as u64;
        for i in 0..n {
            // Interleave slow and fast arrivals.
            let slow = if i % 2 == 0 { i * 10 } else { i };
            commit_with_response(&mut r, i as u32, i * 10_000, slow, true);
        }
        let rep = r.finish();
        let flight = &rep.flight;
        assert_eq!(flight.len(), FLIGHT_K);
        let resp = |d: &TxnDetail| d.commit.units() - d.start.units();
        for w in flight.windows(2) {
            assert!(resp(&w[0]) >= resp(&w[1]), "flight must be worst-first");
        }
        // The single worst transaction is the largest even index.
        assert_eq!(flight[0].txn, TxnId::new((n - 2) as u32));
        assert_eq!(resp(&flight[0]), (n - 2) * 10 + 2);
        // Every retained entry beats every evicted response.
        assert!(resp(&flight[FLIGHT_K - 1]) > n);
    }

    #[test]
    fn flight_recorder_ignores_warmup_and_aborts() {
        let mut r = SpanRecorder::new(false);
        commit_with_response(&mut r, 0, 0, 100_000, false); // warm-up, huge
        on(&mut r, t(500_000), TraceKind::RequestSent, TxnId::new(1));
        on(&mut r, t(900_000), TraceKind::Aborted, TxnId::new(1));
        commit_with_response(&mut r, 2, 1_000_000, 5, true);
        let rep = r.finish();
        assert_eq!(rep.flight.len(), 1);
        assert_eq!(rep.flight[0].txn, TxnId::new(2));
        assert!(rep.flight[0].measured);
    }

    #[test]
    fn per_phase_tails_cover_every_measured_commit() {
        let mut r = SpanRecorder::new(false);
        for i in 0..10 {
            commit_with_response(&mut r, i, u64::from(i) * 1000, u64::from(i) * 7, true);
        }
        let b = r.finish().breakdown;
        for p in Phase::ALL {
            assert_eq!(
                b.tail(p).count(),
                b.measured_commits,
                "{p} sketch misses commits"
            );
            // The sketch's mean-free summary must bracket the mean.
            if let Some(max) = b.tail(p).max() {
                assert!(b.phase(p).mean() <= max as f64);
            }
        }
        // DispatchProp saw exactly `slow` = 7i ticks, i in 0..10.
        assert_eq!(b.tail(Phase::DispatchProp).max(), Some(63));
        assert_eq!(b.tail(Phase::DispatchProp).quantile(0.5), Some(4 * 7));
    }

    #[test]
    fn raw_log_caps_and_counts_drops() {
        use crate::tracelog::MAX_EVENTS;
        let mut r = SpanRecorder::new(true);
        // An off-critical-path kind: the log fills without the tracker
        // opening millions of transactions.
        for i in 0..(MAX_EVENTS + 7) {
            on(
                &mut r,
                t(i as u64),
                TraceKind::DataArrived,
                TxnId::new(i as u32),
            );
        }
        assert_eq!(r.dropped(), 7);
        let rep = r.finish();
        assert_eq!(rep.raw.map(|v| v.len()), Some(MAX_EVENTS));
        assert_eq!(rep.breakdown.spans_dropped, 7);
    }

    #[test]
    fn replay_matches_live_aggregation() {
        let mut live = SpanRecorder::new(true);
        s2pl_like(&mut live, true);
        let rep = live.finish();
        let raw = rep.raw.as_deref().unwrap_or(&[]);
        let replayed = SpanRecorder::replay(raw).finish();
        assert_eq!(
            replayed.breakdown.mean_phase_sum(),
            rep.breakdown.mean_phase_sum()
        );
        assert_eq!(replayed.breakdown.rounds_total, rep.breakdown.rounds_total);
        assert_eq!(replayed.details.len(), 1);
    }
}
