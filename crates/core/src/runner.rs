//! Replicated simulation runs and the grid scheduler.
//!
//! The paper computes every data point from 5 independent replications
//! with 95% confidence intervals (§5). [`run_replicated`] reproduces that
//! procedure; [`run_grid`] generalises it to a whole figure, flattening
//! every `(point, replication)` pair of a sweep onto one worker pool (the
//! engines are single-threaded and deterministic, so cells parallelise
//! trivially) while aggregating results in replication order, so a sweep
//! produces bit-identical output at any worker count.
//!
//! This module also owns the wall-clock instrumentation: the engine
//! crates are forbidden ambient time (lint rule L2), so runs are timed
//! *here* and the duration is stamped onto [`RunMetrics::wall_secs`]
//! after the engine returns. Process-wide totals accumulate in atomics
//! and are drained with [`take_perf`] for throughput reporting.

use crate::tracecheck::TraceCheckOpts;
use crate::verify::check_run;
use g2pl_protocols::{run, EngineConfig, RunMetrics};
use g2pl_stats::{ConfidenceInterval, Replications, TailSketch, TailSummary};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Whether [`run_replicated`] self-verifies (on by default).
static VERIFY: AtomicBool = AtomicBool::new(true);

/// Directory event traces are exported to, when set.
static TRACE_OUT: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Worker-count override for [`run_grid`] (0 = one per available core).
static GRID_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide engine-throughput accumulators, drained by [`take_perf`].
static PERF_RUNS: AtomicU64 = AtomicU64::new(0);
static PERF_EVENTS: AtomicU64 = AtomicU64::new(0);
static PERF_CPU_NANOS: AtomicU64 = AtomicU64::new(0);
static PERF_PEAK_CAL: AtomicU64 = AtomicU64::new(0);

/// Override how many worker threads [`run_grid`] uses (`None` restores
/// the default of one per available core). Worker count never affects
/// results — only scheduling — so this exists for benchmarking and for
/// the serial-vs-parallel determinism tests.
pub fn set_grid_workers(n: Option<usize>) {
    GRID_WORKERS.store(n.unwrap_or(0), Ordering::SeqCst);
}

fn grid_workers() -> usize {
    match GRID_WORKERS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

/// Engine-throughput totals accumulated since the last [`take_perf`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfTotals {
    /// Simulation runs timed.
    pub runs: u64,
    /// Simulation events processed across those runs.
    pub events: u64,
    /// Summed per-run wall-clock seconds. With parallel workers this is
    /// engine *CPU* time, which can exceed elapsed wall-clock.
    pub cpu_secs: f64,
    /// Largest calendar high-water mark seen in any run.
    pub peak_calendar: usize,
}

impl PerfTotals {
    /// Simulation events per engine-second (0 when nothing was timed).
    pub fn events_per_sec(&self) -> f64 {
        if self.cpu_secs > 0.0 {
            self.events as f64 / self.cpu_secs
        } else {
            0.0
        }
    }
}

/// Drain and reset the process-wide throughput accumulators.
pub fn take_perf() -> PerfTotals {
    PerfTotals {
        runs: PERF_RUNS.swap(0, Ordering::SeqCst),
        events: PERF_EVENTS.swap(0, Ordering::SeqCst),
        cpu_secs: PERF_CPU_NANOS.swap(0, Ordering::SeqCst) as f64 / 1e9,
        peak_calendar: PERF_PEAK_CAL.swap(0, Ordering::SeqCst) as usize,
    }
}

/// Stamp a run's duration onto its metrics and fold it into the
/// process-wide totals.
fn stamp(m: &mut RunMetrics, elapsed: std::time::Duration) {
    m.wall_secs = elapsed.as_secs_f64();
    PERF_RUNS.fetch_add(1, Ordering::SeqCst);
    PERF_EVENTS.fetch_add(m.events, Ordering::SeqCst);
    PERF_CPU_NANOS.fetch_add(
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        Ordering::SeqCst,
    );
    PERF_PEAK_CAL.fetch_max(m.peak_calendar as u64, Ordering::SeqCst);
}

/// Run one simulation, timing it (the engines themselves may not).
///
/// The runner's configs are composed programmatically (figure registry,
/// tests), so a [`ConfigError`](g2pl_protocols::ConfigError) here is a
/// caller bug and panics with the validator's diagnostic.
fn timed_run(cfg: &EngineConfig) -> RunMetrics {
    // lint:allow(L2): wall-clock stamps the host run duration into RunMetrics diagnostics
    let t = std::time::Instant::now();
    // lint:allow(L3): configs are composed programmatically; an invalid one is a caller bug (see fn docs)
    let mut m = run(cfg).unwrap_or_else(|e| panic!("invalid engine config: {e}"));
    stamp(&mut m, t.elapsed());
    m
}

/// Export replication 0 of every subsequent [`run_replicated`] call as a
/// JSONL event trace into `dir` (`None` turns exporting back off). The
/// files are the input of the `trace-explain` analyzer, which replays
/// their attribution and re-runs P1–P10 on them.
pub fn set_trace_out(dir: Option<PathBuf>) {
    // lint:allow(L3): a poisoned lock means a runner thread already panicked; propagate it
    *TRACE_OUT.lock().expect("trace-out mutex poisoned") = dir;
}

/// The configured trace export directory, if any.
pub fn trace_out() -> Option<PathBuf> {
    // lint:allow(L3): a poisoned lock means a runner thread already panicked; propagate it
    TRACE_OUT.lock().expect("trace-out mutex poisoned").clone()
}

/// Turn self-verification on or off process-wide.
///
/// When on (the default), every [`run_replicated`] call re-runs its first
/// replication with event tracing and history recording enabled, checks
/// the trace against protocol properties P1–P10 and the history against
/// conflict-serializability, and panics with diagnostics on any
/// violation. The verified run's metrics are reused as replication 0, so
/// the overhead is the recording and the checks, not an extra simulation.
pub fn set_verify(on: bool) {
    VERIFY.store(on, Ordering::SeqCst);
}

/// Whether self-verification is currently on.
pub fn verify_enabled() -> bool {
    VERIFY.load(Ordering::SeqCst)
}

/// Run one replication with recording on, check it, and return its
/// metrics stripped of the recordings.
fn run_verified(cfg: &EngineConfig) -> RunMetrics {
    let mut vc = cfg.clone();
    vc.trace_events = true;
    vc.record_history = true;
    // lint:allow(L2): wall-clock stamps the host run duration into RunMetrics diagnostics
    let t = std::time::Instant::now();
    // lint:allow(L3): configs are composed programmatically; an invalid one is a caller bug (see fn docs)
    let mut m = run(&vc).unwrap_or_else(|e| panic!("invalid engine config: {e}"));
    stamp(&mut m, t.elapsed());
    if verify_enabled() {
        if let Err(e) = check_run(&vc, &m) {
            // lint:allow(L3): a failed check is a simulator bug: abort loudly with the diagnostic
            panic!(
                "verification failed in a {} run (clients={}, latency={}, seed={}): {e}",
                m.protocol,
                vc.num_clients,
                vc.latency.nominal(),
                vc.seed
            );
        }
    }
    if let Some(dir) = trace_out() {
        export_trace(&dir, &vc, &m);
    }
    m.trace = None;
    m.history = None;
    m.spans = None;
    m
}

/// Write the run's event stream to
/// `DIR/<label>_c<n>_l<L>_pr<p>_s<seed>_<hash>.jsonl`: a readable
/// prefix, then the FNV-1a 64 hash of the config's `Debug` rendering, so
/// cells differing in any field (victim policy, g-2PL options, shard
/// count, fault plan, ...) get one file each and identical cells share
/// one.
fn export_trace(dir: &std::path::Path, cfg: &EngineConfig, m: &RunMetrics) {
    let Some(events) = &m.trace else { return };
    let meta = g2pl_obs::RunMeta {
        protocol: m.protocol.to_string(),
        clients: cfg.num_clients,
        latency: cfg.latency.nominal(),
        read_prob: cfg.profile.read_prob,
        seed: cfg.seed,
        committed: m.committed_total,
        aborted: m.aborted_total,
        measured: m.response.count(),
        mean_response: m.response.mean(),
        dropped: m.trace_dropped,
        lease_expiries: m.faults.lease_expiries,
        recovery_stall: m.faults.recovery_stall,
        server_crashes: m.faults.server_crashes,
        response_p99: m.response_tail.quantile(0.99).unwrap_or(0),
        response_p999: m.response_tail.quantile(0.999).unwrap_or(0),
        check: Some(TraceCheckOpts::for_config(cfg)),
    };
    let label: String = m
        .protocol
        .chars()
        .filter(|c| *c != '-')
        .collect::<String>()
        .to_lowercase();
    // FNV-1a rather than std's hasher, whose keys are random per process.
    let hash = format!("{cfg:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    let file = format!(
        "{label}_c{}_l{}_pr{}_s{}_{hash:016x}",
        cfg.num_clients,
        cfg.latency.nominal(),
        cfg.profile.read_prob,
        cfg.seed
    );
    // The flight-recorder markers ride at the end of the stream, after
    // the recorded events, so replaying the prefix stays byte-compatible
    // with pre-tail traces.
    let mut text = g2pl_obs::write_jsonl(&meta, events);
    for ev in g2pl_obs::flight_markers(&m.flight) {
        text.push_str(&g2pl_obs::event_to_json(&ev));
        text.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{file}.jsonl")), text))
    {
        eprintln!("warning: trace export to {} failed: {e}", dir.display());
    }
}

/// The outcome of `n` independent replications of one configuration.
#[derive(Debug)]
pub struct ReplicatedResult {
    /// Per-replication metrics, in replication order.
    pub runs: Vec<RunMetrics>,
    response: Replications,
    abort_pct: Replications,
    msgs_per_completion: Replications,
}

impl ReplicatedResult {
    /// Across-replication mean response time with 95% CI.
    pub fn response_ci(&self) -> ConfidenceInterval {
        self.response.interval_95()
    }

    /// Across-replication abort percentage with 95% CI.
    pub fn abort_pct_ci(&self) -> ConfidenceInterval {
        self.abort_pct.interval_95()
    }

    /// Across-replication messages per completed transaction with 95% CI.
    pub fn msgs_per_completion_ci(&self) -> ConfidenceInterval {
        self.msgs_per_completion.interval_95()
    }

    /// The pooled response-time sketch: every replication's per-commit
    /// sketch merged, so quantiles weight each measured commit equally.
    /// Present for every aggregated point (the engines always sketch).
    pub fn response_tail(&self) -> &TailSketch {
        self.response
            .pooled_sketch()
            // lint:allow(L3): aggregate() absorbs one sketch per replication, and reps >= 1 is asserted by run_grid
            .expect("aggregate pooled every replication's sketch")
    }

    /// The pooled p50/p90/p99/p999/max response summary.
    pub fn tail_summary(&self) -> TailSummary {
        self.response_tail().summary()
    }

    /// Number of replications.
    pub fn reps(&self) -> usize {
        self.runs.len()
    }
}

/// Derive the replication seeds from a base seed. Exposed so tests can
/// reproduce an individual replication.
pub fn replication_seed(base: u64, rep: u32) -> u64 {
    base ^ (0x5851_f42d_4c95_7f2d_u64.wrapping_mul(u64::from(rep) + 1))
}

/// One schedulable cell of a grid: a concrete config plus whether this
/// cell is its point's verified replication.
struct GridTask {
    cfg: EngineConfig,
    verify: bool,
}

fn run_task(t: &GridTask) -> RunMetrics {
    if t.verify {
        run_verified(&t.cfg)
    } else {
        timed_run(&t.cfg)
    }
}

/// Aggregate one point's replications (in replication order) into the
/// paper's across-replication statistics.
fn aggregate(runs: Vec<RunMetrics>) -> ReplicatedResult {
    let mut response = Replications::from_values(
        &runs
            .iter()
            .map(g2pl_protocols::RunMetrics::mean_response)
            .collect::<Vec<_>>(),
    );
    // Pool the per-replication quantile sketches. Sketch merging is
    // commutative, but replication order is fixed here anyway, so the
    // pooled sketch is bit-identical at any worker count.
    for m in &runs {
        response.absorb_sketch(&m.response_tail);
    }
    let abort_pct = Replications::from_values(
        &runs
            .iter()
            .map(g2pl_protocols::RunMetrics::abort_pct)
            .collect::<Vec<_>>(),
    );
    let msgs_per_completion = Replications::from_values(
        &runs
            .iter()
            .map(g2pl_protocols::RunMetrics::msgs_per_completion)
            .collect::<Vec<_>>(),
    );
    ReplicatedResult {
        runs,
        response,
        abort_pct,
        msgs_per_completion,
    }
}

/// Run `reps` replications of every point in `points` on one worker pool
/// and aggregate each point's metrics, in point order.
///
/// This is the sweep engine behind every figure: rather than finishing
/// one data point before starting the next, all `points.len() × reps`
/// cells are flattened into one task list that worker threads drain, so
/// a slow cell (high latency, many clients) overlaps with cheap ones.
/// Results land in a slot per `(point, replication)` and are aggregated
/// in replication order, so the output is bit-identical at any worker
/// count — including 1 (see [`set_grid_workers`]).
///
/// Unless disabled with [`set_verify`], replication 0 of every point
/// runs with recording on and is checked against properties P1–P10 and
/// conflict-serializability. Recording is passive — it perturbs no
/// random draw and no event — so the verified run's metrics stand in
/// for replication 0 exactly.
pub fn run_grid(points: &[EngineConfig], reps: u32) -> Vec<ReplicatedResult> {
    assert!(reps > 0, "need at least one replication");
    let verify_first = verify_enabled() || trace_out().is_some();
    let tasks: Vec<GridTask> = points
        .iter()
        .flat_map(|base| {
            (0..reps).map(move |r| {
                let mut cfg = base.clone();
                cfg.seed = replication_seed(base.seed, r);
                GridTask {
                    cfg,
                    verify: verify_first && r == 0,
                }
            })
        })
        .collect();

    let workers = grid_workers().min(tasks.len().max(1));
    let mut slots: Vec<Option<RunMetrics>> = tasks.iter().map(|_| None).collect();
    if workers <= 1 {
        for (slot, t) in slots.iter_mut().zip(&tasks) {
            *slot = Some(run_task(t));
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots_mtx = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= tasks.len() {
                        break;
                    }
                    let m = run_task(&tasks[i]);
                    // lint:allow(L3): a poisoned lock means a runner thread already panicked; propagate it
                    slots_mtx.lock().expect("runner mutex poisoned")[i] = Some(m);
                });
            }
        });
    }

    let mut results = Vec::with_capacity(points.len());
    let mut it = slots.into_iter();
    for _ in 0..points.len() {
        let runs: Vec<RunMetrics> = (0..reps)
            .map(|_| {
                it.next()
                    .flatten()
                    // lint:allow(L3): the pool drains every task before scope exit
                    .expect("every replication ran")
            })
            .collect();
        results.push(aggregate(runs));
    }
    results
}

/// Run `reps` independent replications of `base` (differing only in
/// seed) and aggregate the paper's metrics: a single-point [`run_grid`].
pub fn run_replicated(base: &EngineConfig, reps: u32) -> ReplicatedResult {
    run_grid(std::slice::from_ref(base), reps)
        .pop()
        // lint:allow(L3): one point in, one result out
        .expect("one result per point")
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_protocols::ProtocolKind;

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, 5, 50, 0.5);
        c.warmup_txns = 20;
        c.measured_txns = 150;
        c
    }

    #[test]
    fn replications_differ_but_aggregate_deterministically() {
        let a = run_replicated(&cfg(), 3);
        let b = run_replicated(&cfg(), 3);
        assert_eq!(a.reps(), 3);
        // Same inputs => identical aggregate.
        assert_eq!(a.response_ci(), b.response_ci());
        assert_eq!(a.abort_pct_ci(), b.abort_pct_ci());
        // Different seeds => replications are not all identical.
        let means: Vec<f64> = a
            .runs
            .iter()
            .map(g2pl_protocols::RunMetrics::mean_response)
            .collect();
        assert!(means.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn replication_seeds_are_distinct() {
        let s: Vec<u64> = (0..10).map(|r| replication_seed(42, r)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }

    #[test]
    fn ci_half_width_is_finite_and_positive() {
        let r = run_replicated(&cfg(), 3);
        let ci = r.response_ci();
        assert!(ci.mean > 0.0);
        assert!(ci.half_width.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_reps_panics() {
        run_replicated(&cfg(), 0);
    }

    #[test]
    fn grid_results_are_per_point_and_in_order() {
        let mut a = cfg();
        let mut b = cfg();
        b.num_clients = 8;
        a.seed = 7;
        b.seed = 9;
        let r = run_grid(&[a.clone(), b.clone()], 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].reps(), 2);
        // Each grid result equals the point run on its own.
        assert_eq!(r[0].response_ci(), run_replicated(&a, 2).response_ci());
        assert_eq!(r[1].response_ci(), run_replicated(&b, 2).response_ci());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = cfg();
        let mut b = cfg();
        b.num_clients = 9;
        let serial = {
            set_grid_workers(Some(1));
            run_grid(&[a.clone(), b.clone()], 3)
        };
        let parallel = {
            set_grid_workers(Some(4));
            run_grid(&[a, b], 3)
        };
        set_grid_workers(None);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.response_ci(), p.response_ci());
            assert_eq!(s.abort_pct_ci(), p.abort_pct_ci());
            assert_eq!(s.msgs_per_completion_ci(), p.msgs_per_completion_ci());
            assert_eq!(
                s.response_tail(),
                p.response_tail(),
                "pooled sketches must be identical at any worker count"
            );
            for (x, y) in s.runs.iter().zip(&p.runs) {
                assert_eq!(x.response.mean(), y.response.mean());
                assert_eq!(x.net.messages(), y.net.messages());
                assert_eq!(x.events, y.events);
                assert_eq!(x.response_tail, y.response_tail);
                assert_eq!(x.flight, y.flight);
            }
        }
    }

    #[test]
    fn pooled_sketch_counts_every_measured_commit() {
        let r = run_replicated(&cfg(), 3);
        let per_run: u64 = r.runs.iter().map(|m| m.response.count()).sum();
        let pooled = r.response_tail();
        assert_eq!(pooled.count(), per_run);
        let s = r.tail_summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        // The pooled max is the largest per-run max.
        let max = r
            .runs
            .iter()
            .filter_map(|m| m.response_tail.max())
            .max()
            .unwrap();
        assert_eq!(s.max, max);
    }

    #[test]
    fn trace_exports_get_one_file_per_distinct_config() {
        // Points that differ only in fields the readable prefix omits
        // export one file each; identical points share one. Exporting
        // straight into this test's own directory leaves the process-wide
        // trace-out setting alone.
        let dir = std::env::temp_dir().join(format!("g2pl-export-names-{}", std::process::id()));
        let mut s2pl = cfg();
        s2pl.trace_events = true;
        let mut oldest = s2pl.clone();
        oldest.victim = g2pl_lockmgr::VictimPolicy::Oldest;
        let mut g2pl = s2pl.clone();
        g2pl.protocol = ProtocolKind::g2pl_paper();
        let mut expanding = g2pl.clone();
        expanding.protocol = ProtocolKind::G2pl(g2pl_protocols::G2plOpts {
            expand_reads: true,
            ..Default::default()
        });
        for point in [&s2pl, &oldest, &s2pl, &g2pl, &expanding, &g2pl] {
            export_trace(&dir, point, &run(point).expect("valid config"));
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("export directory exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        assert_eq!(count("s2pl_"), 2, "victim policies share a file: {names:?}");
        assert_eq!(count("g2pl_"), 2, "g-2PL options share a file: {names:?}");
    }

    #[test]
    fn timed_runs_report_throughput() {
        let _ = take_perf(); // reset whatever other tests accumulated
        let m = timed_run(&cfg());
        assert!(m.wall_secs > 0.0, "caller stamps wall-clock time");
        assert!(m.events > 0);
        assert!(m.peak_calendar > 0);
        assert!(m.events_per_sec() > 0.0);
        let p = take_perf();
        assert!(p.runs >= 1);
        assert!(p.events >= m.events);
        assert!(p.events_per_sec() > 0.0);
        assert_eq!(take_perf().runs, 0, "take_perf drains the totals");
    }
}
