//! The span recorder's aggregation as it was before its state went
//! dense: open and returning transactions in two `BTreeMap`s. Test-only
//! reference; it keeps no log.

use g2pl_obs::{Phase, PhaseBreakdown, TraceEvent, TraceKind, TxnDetail, FLIGHT_K};
use g2pl_simcore::{SimTime, TxnId};
use std::cmp::Reverse;
use std::collections::BTreeMap;

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

/// The span recorder's aggregation, without its log.
#[derive(Debug)]
pub struct SpanRecorder {
    detail: bool,
    open: BTreeMap<TxnId, Open>,
    post: BTreeMap<TxnId, Post>,
    agg: PhaseBreakdown,
    details: Vec<TxnDetail>,
    flight: Vec<TxnDetail>,
}

impl SpanRecorder {
    /// A recorder without detail.
    pub fn new() -> Self {
        SpanRecorder {
            detail: false,
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
        let mut r = SpanRecorder::new().with_detail();
        for ev in events {
            r.apply(ev);
        }
        r
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

    /// Close the recorder: flush commits whose releases were still in
    /// flight at run end; return the breakdown, details and flight.
    pub fn finish(mut self) -> (PhaseBreakdown, Vec<TxnDetail>, Vec<TxnDetail>) {
        let in_flight: Vec<TxnId> = self.post.keys().copied().collect();
        for txn in in_flight {
            if let Some(post) = self.post.remove(&txn) {
                self.finalize(txn, post);
            }
        }
        (self.agg, self.details, self.flight)
    }
}
