//! Per-run metrics and the measurement collector.

use crate::history::History;
use g2pl_faults::FaultCounts;
use g2pl_netmodel::NetAccounting;
use g2pl_obs::{PhaseBreakdown, TraceEvent, TxnDetail};
use g2pl_simcore::SimTime;
use g2pl_stats::{Counter, RunningStats, TailSketch, TailSummary, WarmupFilter};
use g2pl_wal::LogMetrics;
use serde::Serialize;
use std::sync::Arc;

/// Everything one simulation run reports.
#[derive(Clone, Debug, Serialize)]
pub struct RunMetrics {
    /// Protocol label ("s-2PL", "g-2PL", "c-2PL").
    pub protocol: &'static str,
    /// Response-time statistics over *measured committed* transactions
    /// (start = transaction creation, end = client-local commit).
    pub response: RunningStats,
    /// Measured abort ratio: aborted / (aborted + committed) among
    /// measured completions — the quantity plotted in Figs 8–11, 13, 15.
    pub aborts: Counter,
    /// Aborts of read-only transactions among measured completions
    /// (the g-2PL read-deadlock signal of Fig 10).
    pub read_only_aborts: u64,
    /// Total committed transactions over the whole run (incl. warm-up).
    pub committed_total: u64,
    /// Total aborted transactions over the whole run (incl. warm-up).
    pub aborted_total: u64,
    /// Network message/byte counters over the whole run.
    pub net: NetAccounting,
    /// Simulation clock at the end of the run.
    pub end_time: SimTime,
    /// Commit history for serializability checking, when enabled.
    pub history: Option<History>,
    /// The run's event stream, when `trace_events` was set: every
    /// transition, as the checker validates it.
    pub trace: Option<Arc<[TraceEvent]>>,
    /// Observed maximum forward-list length at dispatch (g-2PL only; 0
    /// otherwise).
    pub max_fl_len: usize,
    /// Number of window closes (g-2PL dispatches; 0 for s-2PL).
    pub window_closes: u64,
    /// Deadlock searches requested over the whole run: one per trigger
    /// (s-2PL, c-2PL: a queued request or a new callback barrier; g-2PL:
    /// each live start of a probe).
    pub deadlock_searches: u64,
    /// Of those, the s-2PL and c-2PL searches skipped because nothing
    /// could wait for the trigger, so no cycle could pass through it.
    pub deadlock_searches_skipped: u64,
    /// Write-ahead-log accounting, when `enable_wal` was set.
    pub wal: Option<WalReport>,
    /// Deterministic quantile sketch over the same measured responses as
    /// [`response`](Self::response): the p50/p90/p99/p999 source.
    pub response_tail: TailSketch,
    /// The flight recorder: the run's worst measured committed
    /// transactions (up to [`g2pl_obs::FLIGHT_K`]), worst-first, with
    /// full per-phase attribution. Filled only when `trace_events` was
    /// set; empty otherwise.
    pub flight: Vec<TxnDetail>,
    /// Critical-path attribution: per-phase mean/max over measured
    /// commits, plus the empirical sequential-round histogram. Filled
    /// only when `trace_events` was set (the run builds no recorder
    /// otherwise); an unrecorded run reports an empty breakdown.
    pub phases: PhaseBreakdown,
    /// The same stream as [`trace`](Self::trace) (one shared
    /// allocation), named for the attribution replay and JSONL export;
    /// present only when `trace_events` was set.
    pub spans: Option<Arc<[TraceEvent]>>,
    /// Events the bounded [`g2pl_obs::TraceLog`] dropped (equal to
    /// `phases.spans_dropped`); nonzero means `trace` is a prefix and
    /// must not be validated.
    pub trace_dropped: u64,
    /// Simulation events processed by the engine's main loop — the
    /// denominator-free throughput counter the bench harness reports.
    pub events: u64,
    /// High-water mark of simultaneously pending calendar events.
    pub peak_calendar: usize,
    /// Wall-clock seconds the run took, stamped by the *caller* after the
    /// engine returns (the engines themselves are forbidden ambient time
    /// by lint rule L2, and a wall clock would be a determinism hazard
    /// inside them). Zero when nobody timed the run.
    pub wall_secs: f64,
    /// Fault-injection and recovery accounting (all-zero when the run had
    /// no active fault plan).
    pub faults: FaultSummary,
}

/// What the fault injector did to a run and what recovery cost.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct FaultSummary {
    /// Message-level faults injected by the lossy link.
    pub injected: FaultCounts,
    /// Client crash events executed.
    pub crashes: u64,
    /// Server-side lease expiries (presumed-dead holders).
    pub lease_expiries: u64,
    /// Forward-list suffixes reconstructed and re-dispatched (g-2PL) or
    /// lease-triggered server-side reclaims (s-2PL/c-2PL).
    pub redispatches: u64,
    /// Client-side retransmissions (request retries, commit retransmits,
    /// callback re-sends).
    pub retries: u64,
    /// Total simulated time between a hop's last observed progress and
    /// the lease expiry that recovered it — the stall the obs phase
    /// attribution charges to recovery rather than to migration.
    pub recovery_stall: f64,
    /// Server crash events executed.
    pub server_crashes: u64,
    /// Messages dropped because they reached a dead or still-recovering
    /// server.
    pub server_msgs_lost: u64,
    /// Client re-registration reports accepted during server recovery.
    pub reregistrations: u64,
    /// How each two-phase-commit and in-doubt branch fired: which
    /// recovery paths a run actually exercised.
    pub two_pc: TwoPcCounts,
}

/// Executions of each two-phase-commit and in-doubt resolution branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TwoPcCounts {
    /// In-doubt votes a peer's verdict resolved as committed.
    pub verdict_commits: u64,
    /// In-doubt votes a peer's verdict resolved as aborted.
    pub verdict_aborts: u64,
    /// In-doubt votes still unresolved when the handshake closed,
    /// resolved from the commit oracle.
    pub oracle_resolutions: u64,
    /// Duplicate prepares re-acknowledged without logging a second vote.
    pub prepare_reacks: u64,
    /// Prepares that raced an abort, answered with the abort notice.
    pub prepare_renotices: u64,
    /// Transactions of clients that stayed silent through a handshake,
    /// aborted when it closed.
    pub silent_victims: u64,
}

impl FaultSummary {
    /// True if any fault was injected or any recovery action taken.
    pub fn any(&self) -> bool {
        self.injected.total() > 0
            || self.crashes > 0
            || self.lease_expiries > 0
            || self.redispatches > 0
            || self.retries > 0
            || self.server_crashes > 0
            || self.server_msgs_lost > 0
            || self.reregistrations > 0
    }
}

/// Aggregated WAL statistics across every client site.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct WalReport {
    /// Total log bytes appended across sites.
    pub bytes_written: u64,
    /// Total synchronous forces (one per commit).
    pub forces: u64,
    /// The worst per-site live-bytes high-water mark — the log space a
    /// site must provision. Grows with how long committed versions stay
    /// un-permanent at the server (much longer under g-2PL migration).
    pub high_water_bytes_max: u64,
    /// The worst per-site live-record high-water mark.
    pub high_water_records_max: usize,
    /// Live records left across sites at run end (0 after a drain).
    pub end_live_records: usize,
}

impl WalReport {
    /// Fold one site's metrics into the aggregate.
    pub fn absorb(&mut self, m: LogMetrics, live_records: usize) {
        self.bytes_written += m.bytes_written;
        self.forces += m.forces;
        self.high_water_bytes_max = self.high_water_bytes_max.max(m.high_water_bytes);
        self.high_water_records_max = self.high_water_records_max.max(m.high_water_records);
        self.end_live_records += live_records;
    }
}

impl RunMetrics {
    /// Mean response time of measured committed transactions.
    pub fn mean_response(&self) -> f64 {
        self.response.mean()
    }

    /// Abort percentage among measured completions.
    pub fn abort_pct(&self) -> f64 {
        self.aborts.percentage()
    }

    /// The p50/p90/p99/p999/max response-time summary from the
    /// deterministic sketch (all zeros when nothing was measured).
    pub fn tail_summary(&self) -> TailSummary {
        self.response_tail.summary()
    }

    /// Whether the recorded event trace is incomplete (the bounded log
    /// overflowed and dropped events).
    pub fn trace_truncated(&self) -> bool {
        self.trace_dropped > 0
    }

    /// Messages per measured completion (throughput-normalised message
    /// cost).
    pub fn msgs_per_completion(&self) -> f64 {
        let n = self.aborts.trials();
        if n == 0 {
            0.0
        } else {
            self.net.messages() as f64 / n as f64
        }
    }

    /// Simulation events per wall-clock second, or 0 when the run was
    /// never timed (see [`RunMetrics::wall_secs`]).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Streaming measurement collector used by every engine: applies warm-up
/// elimination and decides when the run is done.
#[derive(Debug)]
pub struct Collector {
    filter: WarmupFilter,
    /// Quantile sketch over the same measured responses (in ticks).
    pub response_tail: TailSketch,
    /// Response times of measured commits.
    pub response: RunningStats,
    /// Measured completion outcomes (hit = aborted).
    pub aborts: Counter,
    /// Measured aborts of read-only transactions.
    pub read_only_aborts: u64,
    /// All commits, including warm-up.
    pub committed_total: u64,
    /// All aborts, including warm-up.
    pub aborted_total: u64,
    /// Deadlock searches requested, including warm-up.
    pub deadlock_searches: u64,
    /// Deadlock searches skipped by the no-waiter rule.
    pub deadlock_searches_skipped: u64,
}

impl Collector {
    /// Discard `warmup` completions, then measure the next `measured`.
    pub fn new(warmup: u64, measured: u64) -> Self {
        Collector {
            filter: WarmupFilter::new(warmup, Some(measured)),
            response_tail: TailSketch::new(),
            response: RunningStats::new(),
            aborts: Counter::new(),
            read_only_aborts: 0,
            committed_total: 0,
            aborted_total: 0,
            deadlock_searches: 0,
            deadlock_searches_skipped: 0,
        }
    }

    /// Record a commit with the given response time. Returns whether the
    /// commit fell inside the measurement window (callers label span
    /// aggregation with it).
    pub fn on_commit(&mut self, response: SimTime) -> bool {
        self.committed_total += 1;
        let measured = self.filter.admit();
        if measured {
            self.response.record(response.as_f64());
            self.response_tail.record(response.units());
            self.aborts.miss();
        }
        measured
    }

    /// Record an abort; `read_only` marks a read-only transaction.
    pub fn on_abort(&mut self, read_only: bool) {
        self.aborted_total += 1;
        if self.filter.admit() {
            self.aborts.hit();
            if read_only {
                self.read_only_aborts += 1;
            }
        }
    }

    /// True once the measurement window is full.
    pub fn done(&self) -> bool {
        self.filter.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_applies_warmup() {
        let mut c = Collector::new(2, 3);
        c.on_commit(SimTime::new(100)); // warm-up
        c.on_abort(false); // warm-up
        c.on_commit(SimTime::new(10));
        c.on_commit(SimTime::new(20));
        c.on_abort(true);
        assert!(c.done());
        assert_eq!(c.response.count(), 2);
        assert_eq!(c.response.mean(), 15.0);
        assert_eq!(c.aborts.trials(), 3);
        assert_eq!(c.aborts.hits(), 1);
        assert_eq!(c.read_only_aborts, 1);
        assert_eq!(c.committed_total, 3);
        assert_eq!(c.aborted_total, 2);
    }

    #[test]
    fn sketch_tracks_the_same_commits_as_the_mean() {
        let mut c = Collector::new(1, 4);
        c.on_commit(SimTime::new(9_999_999)); // warm-up, must not pollute
        for t in [100u64, 200, 300, 4000] {
            c.on_commit(SimTime::new(t));
        }
        assert_eq!(c.response_tail.count(), c.response.count());
        assert_eq!(c.response_tail.quantile(1.0), Some(4000));
        // The sketch's p50 upper edge sits within its error bound of the
        // true median position (200 is exact: 200 < 2^(6+1) is false, but
        // 200's bucket edge is within 1/64).
        let p50 = c.response_tail.quantile(0.5).unwrap();
        assert!((200..=204).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn completions_past_window_are_ignored_by_measurement() {
        let mut c = Collector::new(0, 1);
        c.on_commit(SimTime::new(5));
        assert!(c.done());
        c.on_commit(SimTime::new(500));
        assert_eq!(c.response.count(), 1);
        assert_eq!(c.committed_total, 2, "totals still accumulate");
    }
}
