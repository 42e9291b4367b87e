//! What the benchmark measures: its workloads and its metric catalogue.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! self-tests keep the two in step. Each per-layer entry states which
//! end-to-end metric it should move, on which workload — including the
//! workloads where the prediction is "no change".

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move, and
    /// where. For an end-to-end metric: what it is.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The workloads, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_writes",
        "fig2 + fig12, 3 engines, verified: exclusive-lock chains, s-2PL WFG, g-2PL FL reorders, \
         P1-P7; faults, WAL and PDES idle, so changes there predict no change",
    ),
    (
        "paper_reads",
        "fig4 + fig10 + fig14, 3 engines, verified: shared locks, MR1W, c-2PL caching, \
         read-only deadlocks; split from paper_writes shows read/write trade-offs",
    ),
    (
        "fault_recovery",
        "fig_faults + fig_shard_faults, drained, P1-P10: the only user of loss, WAL replay, \
         re-registration and 2PC; a shared fault core must move this and leave paper_* flat",
    ),
    (
        "scale_pdes",
        "10k x 4 and 40k x 8 clients x shards on run_scale_with_workers: the only PDES and \
         deep-calendar user; no tracecheck or forward lists, so those predict no change",
    ),
];

/// Metrics a user of the simulator sees, printed by the untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    m(
        "setup_s",
        "s",
        Lower,
        "process start until the first cell could start (median of several)",
    ),
    m(
        "wall_s",
        "s",
        Lower,
        "host seconds for one pass of the workload, verification on (median pass)",
    ),
    m(
        "commits_per_s",
        "1/s",
        Higher,
        "simulated commits incl. warm-up and drain per host second of wall_s",
    ),
    m(
        "events_per_s",
        "1/s",
        Higher,
        "simulated events per summed per-cell host second",
    ),
    m(
        "peak_rss_mb",
        "MB",
        Lower,
        "host memory high-water mark of the process",
    ),
    m(
        "sim_response_p50",
        "ticks",
        Lower,
        "pooled simulated response time, median",
    ),
    m(
        "sim_response_p99",
        "ticks",
        Lower,
        "pooled simulated response time, 99th percentile",
    ),
    m(
        "sim_commit_pct",
        "%",
        Higher,
        "share of measured completions that committed (100 - abort %)",
    ),
    m(
        "sim_msgs_per_commit",
        "count",
        Lower,
        "network messages per measured completion",
    ),
];

/// Metrics of single layers, printed by the traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    m(
        "core.grid.busy_frac",
        "frac",
        Higher,
        "wall_s on every engine workload, most on paper_writes where 150-client cells straggle",
    ),
    m(
        "core.grid.cell_ms_p50",
        "ms",
        Lower,
        "wall_s on every engine workload",
    ),
    m(
        "core.grid.cell_ms_p90",
        "ms",
        Lower,
        "wall_s, most on paper_writes",
    ),
    m(
        "core.tracecheck.busy_s",
        "s",
        Lower,
        "wall_s on paper_* and fault_recovery; no change on scale_pdes",
    ),
    m(
        "core.tracecheck.ns_per_event",
        "ns",
        Lower,
        "wall_s on paper_* and fault_recovery; no change on scale_pdes",
    ),
    m(
        "core.verify.busy_s",
        "s",
        Lower,
        "wall_s on paper_* and fault_recovery; no change on scale_pdes",
    ),
    m(
        "protocols.s2pl.busy_s",
        "s",
        Lower,
        "events_per_s and commits_per_s on every engine workload",
    ),
    m(
        "protocols.s2pl.ns_per_event",
        "ns",
        Lower,
        "events_per_s and commits_per_s on every engine workload",
    ),
    m(
        "protocols.g2pl.busy_s",
        "s",
        Lower,
        "events_per_s and commits_per_s on paper_* and fault_recovery",
    ),
    m(
        "protocols.g2pl.ns_per_event",
        "ns",
        Lower,
        "events_per_s and commits_per_s on paper_* and fault_recovery",
    ),
    m(
        "protocols.c2pl.busy_s",
        "s",
        Lower,
        "events_per_s and commits_per_s on paper_* and fault_recovery",
    ),
    m(
        "protocols.c2pl.ns_per_event",
        "ns",
        Lower,
        "events_per_s and commits_per_s on paper_* and fault_recovery",
    ),
    m(
        "protocols.events_per_commit",
        "count",
        Lower,
        "events_per_s and commits_per_s on every engine workload",
    ),
    m(
        "protocols.record.busy_s",
        "s",
        Lower,
        "wall_s on paper_* and fault_recovery; one event stream would shrink it",
    ),
    m(
        "protocols.record.trace_events",
        "count",
        Lower,
        "wall_s on paper_* and fault_recovery",
    ),
    m(
        "protocols.trace_dropped",
        "count",
        Lower,
        "wall_s on paper_* and fault_recovery; must stay 0",
    ),
    m(
        "protocols.scale.busy_s",
        "s",
        Lower,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "protocols.scale.ns_per_event",
        "ns",
        Lower,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "obs.recorder.ns_per_span",
        "ns",
        Lower,
        "events_per_s on paper_*, where span aggregation is always on",
    ),
    m("obs.span_events", "count", Lower, "events_per_s on paper_*"),
    m(
        "obs.spans_dropped",
        "count",
        Lower,
        "events_per_s on paper_*; must stay 0",
    ),
    m(
        "simcore.calendar.hold_ns_small",
        "ns",
        Lower,
        "events_per_s on paper_* (engine calendar depth)",
    ),
    m(
        "simcore.calendar.hold_ns_large",
        "ns",
        Lower,
        "events_per_s on scale_pdes (per-LP calendar depth)",
    ),
    m(
        "simcore.peak_calendar",
        "count",
        Lower,
        "events_per_s on the workload whose depth it is",
    ),
    m(
        "simcore.pdes.windows",
        "count",
        Lower,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "simcore.pdes.events_per_window",
        "count",
        Higher,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "simcore.pdes.cross_msg_frac",
        "frac",
        Lower,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "simcore.pdes.speedup",
        "ratio",
        Higher,
        "wall_s on scale_pdes; zero elsewhere",
    ),
    m(
        "lockmgr.acquire_ns",
        "ns",
        Lower,
        "events_per_s; differs between paper_writes and paper_reads",
    ),
    m(
        "lockmgr.wfg.find_cycle_ns",
        "ns",
        Lower,
        "events_per_s on paper_writes (s-2PL detection); smaller on paper_reads",
    ),
    m(
        "fwdlist.order_ns_per_req",
        "ns",
        Lower,
        "g-2PL events_per_s on paper_reads; zero on scale_pdes",
    ),
    m(
        "fwdlist.window_closes",
        "count",
        Lower,
        "g-2PL events_per_s on paper_*; zero on scale_pdes",
    ),
    m(
        "fwdlist.max_fl_len",
        "count",
        Lower,
        "g-2PL events_per_s on paper_reads; zero on scale_pdes",
    ),
    m(
        "faults.judge_ns",
        "ns",
        Lower,
        "events_per_s on fault_recovery; zero elsewhere",
    ),
    m(
        "faults.retries_per_commit",
        "count",
        Lower,
        "commits_per_s and sim_response_p99 on fault_recovery; zero elsewhere",
    ),
    m(
        "faults.lease_expiries",
        "count",
        Lower,
        "commits_per_s and sim_response_p99 on fault_recovery; zero elsewhere",
    ),
    m(
        "faults.redispatches",
        "count",
        Lower,
        "commits_per_s and sim_response_p99 on fault_recovery; zero elsewhere",
    ),
    m(
        "faults.reregistrations",
        "count",
        Lower,
        "commits_per_s and sim_response_p99 on fault_recovery; zero elsewhere",
    ),
    m(
        "faults.server_msgs_lost",
        "count",
        Lower,
        "commits_per_s and sim_response_p99 on fault_recovery; zero elsewhere",
    ),
    m(
        "wal.server.append_ns",
        "ns",
        Lower,
        "wall_s on fault_recovery; zero elsewhere",
    ),
    m(
        "wal.server.replay_ms",
        "ms",
        Lower,
        "wall_s on fault_recovery; zero elsewhere",
    ),
    m(
        "wal.bytes_per_commit",
        "bytes",
        Lower,
        "wall_s on fault_recovery; zero elsewhere",
    ),
    m(
        "wal.forces_per_commit",
        "count",
        Lower,
        "wall_s on fault_recovery; zero elsewhere",
    ),
    m(
        "stats.sketch.record_ns",
        "ns",
        Lower,
        "events_per_s on paper_* and the grid aggregation",
    ),
    m(
        "stats.sketch.merge_us",
        "us",
        Lower,
        "wall_s through the grid aggregation on every engine workload",
    ),
    m(
        "bench.trace_overhead_s",
        "s",
        Lower,
        "none: traced pass wall minus untraced pass wall, the cost of this profile",
    ),
    m(
        "bench.self.harness_s",
        "s",
        Lower,
        "none: benchmark time outside every measured call (span self time)",
    ),
];
