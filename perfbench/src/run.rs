//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::cells::{self, ratio, run_pass, CellSim, Pass, Totals};
use crate::layers::{self, median, quantile};
use crate::spans::{self, Tracer};
use crate::workload::{self, Plan, Sweep};
use g2pl_core::runner::replication_seed;
use g2pl_core::{check_serializable, check_trace_with, TraceCheckOpts};
use g2pl_obs::SpanRecorder;
use g2pl_protocols::{run, EngineConfig, ScaleCfg};
use g2pl_stats::TailSketch;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one run prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

/// The host memory high-water mark in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced run: one warm-up pass, then timed passes until `seconds`
/// have elapsed (at least three). Host metrics are medians over passes;
/// the `sim_*` metrics are identical on every pass, which is checked.
pub fn untraced(plan: &Plan, workers: usize, seconds: f64, setup_s: f64) -> Outcome {
    let warm = run_pass(plan, workers);
    let mut attempted = warm.outcomes.len() as u64;
    let mut failed = warm.failed();
    let reference = cells::totals(warm.ok_cells());
    let mut deterministic = true;
    let (mut walls, mut commit_rates, mut event_rates) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(plan, workers);
        attempted += pass.outcomes.len() as u64;
        failed += pass.failed();
        let t = cells::totals(pass.ok_cells());
        deterministic &= t == reference;
        walls.push(pass.wall);
        commit_rates.push(t.committed as f64 / pass.wall);
        event_rates.push(ratio(t.events as f64, pass.cell_secs_total));
    }
    // fail_frac is 0 on a healthy run and sim_abort_pct is 0 on the scale
    // engine, which never aborts; a regression bound relative to 0 means
    // nothing, so they print here and travel as `failed` and
    // `sim_commit_pct` in the result.
    let mut notes = vec![format!(
        "passes={} pass wall min/median/max={}/{}/{} cells_per_pass={} failed={failed} \
         fail_frac={} sim_abort_pct={} deterministic={deterministic}",
        walls.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
        plan.cells(),
        ratio(failed as f64, attempted as f64),
        100.0 - reference.commit_pct(),
    )];
    if !deterministic {
        notes.push("error: a pass's sim metrics differ from the warm-up pass's".into());
    }
    Outcome {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("wall_s", median(&walls)),
            ("commits_per_s", median(&commit_rates)),
            ("events_per_s", median(&event_rates)),
            ("peak_rss_mb", peak_rss_mb()),
            ("sim_response_p50", reference.response_quantile(0.5)),
            ("sim_response_p99", reference.response_quantile(0.99)),
            ("sim_commit_pct", reference.commit_pct()),
            ("sim_msgs_per_commit", reference.msgs_per_commit()),
        ],
        notes,
    }
}

/// Host time of one cell's layers in the traced pass.
#[derive(Clone, Debug, Default)]
struct CellProfile {
    engine: &'static str,
    raw_s: f64,
    events: u64,
    /// Recorded run minus raw run (verified replications only).
    record_s: f64,
    trace_events: u64,
    trace_dropped: u64,
    tracecheck_s: f64,
    verify_s: f64,
    replay_s: f64,
    replayed_spans: u64,
    /// Estimated server-log length of the crashed shard, if one crashed.
    crash_log_records: u64,
}

/// One traced cell: the digest (or `None` if it failed) and its profile.
type TracedCell = (Option<CellSim>, CellProfile);

/// Run one engine cell with each layer in its own span: the raw run
/// and, for the verified replication, the recorded run, tracecheck,
/// serializability and span-recorder replay. The digest must match the
/// untraced pass's and the recorded run's.
fn traced_engine_cell(
    tracer: &Tracer,
    parent: usize,
    label: &str,
    base: &EngineConfig,
    rep: u32,
    untraced: Option<&CellSim>,
) -> Result<TracedCell, String> {
    let mut cfg = base.clone();
    cfg.seed = replication_seed(base.seed, rep);
    let (raw, raw_s) = tracer.span(Some(parent), "raw_run", label, |_| run(&cfg));
    let raw = raw.map_err(|e| format!("invalid config: {e}"))?;
    cells::check_run(&cfg, &raw)?;
    let sim = CellSim::of_run(&raw);
    if untraced != Some(&sim) {
        return Err("traced raw run differs from the untraced pass".into());
    }
    let mut prof = CellProfile {
        engine: raw.protocol,
        raw_s,
        events: raw.events,
        ..CellProfile::default()
    };
    if rep != 0 {
        return Ok((Some(sim), prof));
    }
    let mut rc = cfg.clone();
    rc.trace_events = true;
    rc.record_history = true;
    let (rec, rec_s) = tracer.span(Some(parent), "recorded_run", label, |_| run(&rc));
    let rec = rec.map_err(|e| format!("invalid config: {e}"))?;
    cells::check_run(&rc, &rec)?;
    if CellSim::of_run(&rec) != sim {
        return Err("recording changed the run's metrics".into());
    }
    prof.record_s = rec_s - raw_s;
    prof.trace_dropped = rec.trace_dropped;
    if rec.trace_dropped > 0 {
        // A truncated trace cannot be verified: the cell fails, but its
        // drop count is still reported.
        eprintln!("failed traced cell {label}: the trace log dropped events");
        return Ok((None, prof));
    }
    let trace = rec.trace.as_deref().unwrap_or_default();
    prof.trace_events = trace.len() as u64;
    let (checked, tc_s) = tracer.span(Some(parent), "tracecheck", label, |_| {
        check_trace_with(trace, TraceCheckOpts::for_config(&rc))
    });
    checked.map_err(|e| format!("trace property: {e}"))?;
    prof.tracecheck_s = tc_s;
    if let Some(history) = &rec.history {
        let (ok, v_s) = tracer.span(Some(parent), "serializability", label, |_| {
            check_serializable(history)
        });
        ok.map_err(|e| format!("serializability: {e}"))?;
        prof.verify_s = v_s;
    }
    if let Some(span_events) = &rec.spans {
        let (r, replay_s) = tracer.span(Some(parent), "recorder_replay", label, |_| {
            SpanRecorder::replay(span_events)
        });
        std::hint::black_box(r.dropped());
        prof.replay_s = replay_s;
        prof.replayed_spans = span_events.len() as u64;
    }
    if cfg.active_faults().is_some_and(|p| p.has_server_crashes()) {
        // A grant per access plus a commit and a release per transaction,
        // spread over the shards (Table-1 transactions average 3 items).
        prof.crash_log_records =
            (raw.committed_total + raw.aborted_total) * 5 / u64::from(cfg.num_shards());
    }
    Ok((Some(sim), prof))
}

/// Every `(sweep, point, rep)` cell of the plan, traced on a pool of
/// `workers` threads, in grid order.
fn traced_engine_pass(
    tracer: &Tracer,
    root: usize,
    sweeps: &[Sweep],
    baseline: &Pass,
    workers: usize,
) -> Vec<TracedCell> {
    let mut jobs: Vec<(usize, &Sweep, usize, u32)> = Vec::new();
    for sweep in sweeps {
        for p in 0..sweep.points.len() {
            for r in 0..sweep.reps {
                jobs.push((jobs.len(), sweep, p, r));
            }
        }
    }
    let results: Mutex<Vec<Option<TracedCell>>> = Mutex::new(vec![None; jobs.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(index, sweep, p, r)) = jobs.get(i) else {
                    break;
                };
                let label = format!("{}/p{p}/r{r}", sweep.id);
                let untraced = baseline.outcomes[index].as_ref();
                let (res, _) = tracer.span(Some(root), "cell", &label, |cell| {
                    catch_unwind(AssertUnwindSafe(|| {
                        traced_engine_cell(tracer, cell, &label, &sweep.points[p], r, untraced)
                    }))
                });
                let cell = match res {
                    Ok(Ok(c)) => c,
                    Ok(Err(e)) => {
                        eprintln!("failed traced cell {label}: {e}");
                        (None, CellProfile::default())
                    }
                    Err(_) => (None, CellProfile::default()),
                };
                results
                    .lock()
                    .expect("a traced cell panicked holding the results")[index] = Some(cell);
            });
        }
    });
    results
        .into_inner()
        .expect("a traced cell panicked holding the results")
        .into_iter()
        .map(|c| c.expect("the pool drains every job"))
        .collect()
}

/// Scale-cell timings at one worker and at `workers`.
#[derive(Default)]
struct ScaleProfile {
    serial_s: f64,
    parallel_s: f64,
    events: u64,
}

fn traced_scale_pass(
    tracer: &Tracer,
    root: usize,
    cells: &[ScaleCfg],
    baseline: &Pass,
    workers: usize,
) -> (Vec<Option<CellSim>>, ScaleProfile) {
    let mut prof = ScaleProfile::default();
    let mut out = Vec::new();
    for (i, cfg) in cells.iter().enumerate() {
        let label = format!("scale/{}x{}", cfg.num_clients, cfg.items.num_shards);
        let (sim, _) = tracer.span(Some(root), "scale_cell", &label, |cell| {
            let (serial, serial_s) = tracer.span(Some(cell), "run_w1", &label, |_| {
                cells::run_scale_cell(cfg, 1)
            });
            let (parallel, parallel_s) = tracer.span(Some(cell), "run_wN", &label, |_| {
                cells::run_scale_cell(cfg, workers)
            });
            let serial = serial.map(|m| CellSim::of_scale(&m, cfg));
            let parallel = parallel.map(|m| CellSim::of_scale(&m, cfg));
            let agree = serial.is_some()
                && serial == parallel
                && parallel.as_ref() == baseline.outcomes[i].as_ref();
            if !agree {
                eprintln!("failed traced cell {label}: serial, parallel and untraced runs differ");
                return None;
            }
            prof.serial_s += serial_s;
            prof.parallel_s += parallel_s;
            prof.events += parallel.as_ref().map_or(0, |c| c.events);
            parallel
        });
        out.push(sim);
    }
    (out, prof)
}

/// Traced run: a warm-up pass, an untraced baseline pass, the same cells
/// again with every layer in its own span, then the substrate replays
/// sized from what the cells reported. A cell whose `sim_*` or count
/// digest differs between the traced and untraced runs fails.
pub fn traced(
    plan: &Plan,
    workers: usize,
    seconds: f64,
    seed: u64,
    spans_out: &std::path::Path,
) -> Outcome {
    let started = Instant::now();
    let warm = run_pass(plan, workers);
    let baseline = run_pass(plan, workers);
    let tracer = Tracer::default();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        metrics.insert(k, if v.is_finite() { v + 0.0 } else { 0.0 });
    };

    let ((traced_cells, engine_profiles, scale_prof), traced_wall) =
        tracer.span(None, "pass", "traced", |root| match plan {
            Plan::Engine(sweeps) => {
                let t = traced_engine_pass(&tracer, root, sweeps, &baseline, workers);
                let (sims, profs): (Vec<_>, Vec<_>) = t.into_iter().unzip();
                (sims, profs, ScaleProfile::default())
            }
            Plan::Scale(cells) => {
                let (sims, prof) = traced_scale_pass(&tracer, root, cells, &baseline, workers);
                (sims, Vec::new(), prof)
            }
        });

    let failed_traced = traced_cells.iter().filter(|c| c.is_none()).count() as u64;
    let ok: Vec<&CellSim> = traced_cells.iter().flatten().collect();
    let totals: Totals = cells::totals(ok.iter().copied());

    // core.grid: from the untraced baseline pass, as users run it.
    put(
        "core.grid.busy_frac",
        ratio(baseline.cell_secs_total, baseline.wall * workers as f64),
    );
    put(
        "core.grid.cell_ms_p50",
        1e3 * quantile(&baseline.cell_secs, 0.5),
    );
    put(
        "core.grid.cell_ms_p90",
        1e3 * quantile(&baseline.cell_secs, 0.9),
    );

    let sum = |f: fn(&CellProfile) -> f64| engine_profiles.iter().map(f).sum::<f64>();
    let tracecheck_s = sum(|p| p.tracecheck_s);
    let trace_events = sum(|p| p.trace_events as f64);
    put("core.tracecheck.busy_s", tracecheck_s);
    put(
        "core.tracecheck.ns_per_event",
        1e9 * ratio(tracecheck_s, trace_events),
    );
    put("core.verify.busy_s", sum(|p| p.verify_s));
    for (engine, busy, per_event) in [
        (
            "s-2PL",
            "protocols.s2pl.busy_s",
            "protocols.s2pl.ns_per_event",
        ),
        (
            "g-2PL",
            "protocols.g2pl.busy_s",
            "protocols.g2pl.ns_per_event",
        ),
        (
            "c-2PL",
            "protocols.c2pl.busy_s",
            "protocols.c2pl.ns_per_event",
        ),
    ] {
        let mine = engine_profiles.iter().filter(|p| p.engine == engine);
        let (s, ev) = mine.fold((0.0, 0u64), |(s, e), p| (s + p.raw_s, e + p.events));
        put(busy, s);
        put(per_event, 1e9 * ratio(s, ev as f64));
    }
    put(
        "protocols.events_per_commit",
        ratio(totals.events as f64, totals.committed as f64),
    );
    put("protocols.record.busy_s", sum(|p| p.record_s));
    put("protocols.record.trace_events", trace_events);
    put("protocols.trace_dropped", sum(|p| p.trace_dropped as f64));
    put("protocols.scale.busy_s", scale_prof.parallel_s);
    put(
        "protocols.scale.ns_per_event",
        1e9 * ratio(scale_prof.parallel_s, scale_prof.events as f64),
    );
    let replayed = sum(|p| p.replayed_spans as f64);
    put(
        "obs.recorder.ns_per_span",
        1e9 * ratio(sum(|p| p.replay_s), replayed),
    );
    put("obs.span_events", replayed);
    put(
        "obs.spans_dropped",
        ok.iter().map(|c| c.spans_dropped as f64).sum(),
    );

    let depths: Vec<u64> = ok.iter().map(|c| c.peak_calendar).collect();
    let small = depths.iter().copied().min().unwrap_or(0) as usize;
    let large = depths.iter().copied().max().unwrap_or(0) as usize;
    put("simcore.peak_calendar", large as f64);
    let windows: u64 = ok.iter().map(|c| c.pdes_windows).sum();
    put("simcore.pdes.windows", windows as f64);
    put(
        "simcore.pdes.events_per_window",
        ratio(totals.events as f64, windows as f64),
    );
    put(
        "simcore.pdes.cross_msg_frac",
        ratio(
            ok.iter().map(|c| c.cross_messages).sum::<u64>() as f64,
            totals.messages as f64,
        ),
    );
    put(
        "simcore.pdes.speedup",
        ratio(scale_prof.serial_s, scale_prof.parallel_s),
    );

    let max_fl = ok.iter().map(|c| c.max_fl_len).max().unwrap_or(0);
    put(
        "fwdlist.window_closes",
        ok.iter().map(|c| c.window_closes as f64).sum(),
    );
    put("fwdlist.max_fl_len", max_fl as f64);
    let count = |f: fn(&CellSim) -> u64| ok.iter().map(|c| f(c) as f64).sum::<f64>();
    put(
        "faults.retries_per_commit",
        ratio(count(|c| c.retries), totals.committed as f64),
    );
    put("faults.lease_expiries", count(|c| c.lease_expiries));
    put("faults.redispatches", count(|c| c.redispatches));
    put("faults.reregistrations", count(|c| c.reregistrations));
    put("faults.server_msgs_lost", count(|c| c.server_msgs_lost));

    // Substrate replays share what is left of the run's time.
    let left = (seconds - started.elapsed().as_secs_f64()).max(1.0);
    let budget = Duration::from_secs_f64((left / 8.0).clamp(0.05, 2.0));
    let prs = workload::read_probs(plan);
    let clients = max_clients(plan);
    let fault_plans = active_fault_plans(plan);
    let crash_log = engine_profiles
        .iter()
        .map(|p| p.crash_log_records)
        .max()
        .unwrap_or(0);
    let cell_sketches: Vec<TailSketch> = ok.iter().map(|c| c.response.clone()).collect();
    let timed =
        |name: &'static str, f: &dyn Fn() -> f64| tracer.span(None, name, "layers", |_| f()).0;
    put(
        "simcore.calendar.hold_ns_small",
        timed("calendar", &|| {
            layers::calendar_hold_ns(small, seed, budget)
        }),
    );
    put(
        "simcore.calendar.hold_ns_large",
        timed("calendar", &|| {
            layers::calendar_hold_ns(large, seed, budget)
        }),
    );
    put(
        "lockmgr.acquire_ns",
        timed("lockmgr", &|| {
            layers::lock_acquire_ns(&prs, clients, seed, budget)
        }),
    );
    // A 150-client graph: the largest client count of any paper sweep.
    put(
        "lockmgr.wfg.find_cycle_ns",
        timed("wfg", &|| {
            layers::wfg_find_cycle_ns(&prs, 150, seed, budget)
        }),
    );
    put(
        "fwdlist.order_ns_per_req",
        timed("fwdlist", &|| {
            layers::order_ns_per_req(max_fl as usize, &prs, seed, budget)
        }),
    );
    put(
        "faults.judge_ns",
        timed("faults", &|| layers::judge_ns(&fault_plans, seed, budget)),
    );
    let wal = tracer
        .span(None, "wal", "layers", |_| {
            layers::wal_server(crash_log as usize, &prs, seed, budget)
        })
        .0;
    put("wal.server.append_ns", wal.append_ns);
    put("wal.server.replay_ms", wal.replay_ms);
    put("wal.bytes_per_commit", wal.bytes_per_commit);
    put("wal.forces_per_commit", wal.forces_per_commit);
    let (record, merge) = tracer
        .span(None, "sketch", "layers", |_| {
            layers::sketch(&totals.response, &cell_sketches, seed, budget)
        })
        .0;
    put("stats.sketch.record_ns", record);
    put("stats.sketch.merge_us", merge);

    let spans = tracer.into_spans();
    let self_times = spans::self_times(&spans);
    put("bench.trace_overhead_s", traced_wall - baseline.wall);
    put(
        "bench.self.harness_s",
        ["pass", "cell", "scale_cell"]
            .iter()
            .map(|n| self_times.get(n).copied().unwrap_or(0.0))
            .sum(),
    );

    let mut notes = vec![
        format!(
            "traced pass: wall={traced_wall}s untraced wall={}s cells={} failed={failed_traced}",
            baseline.wall,
            traced_cells.len(),
        ),
        format!(
            "layer inputs: calendar depths {small}/{large}, read probs {prs:?}, {clients} clients, \
             forward lists of {max_fl}, {} fault plans, crashed-shard log of {crash_log} records",
            fault_plans.len()
        ),
    ];
    for (name, s) in &self_times {
        notes.push(format!("self time {name}: {s} s"));
    }
    match write_spans(spans_out, &spans) {
        Ok(()) => notes.push(format!("spans written to {}", spans_out.display())),
        Err(e) => notes.push(format!("warning: could not write spans: {e}")),
    }

    let failed = warm.failed() + baseline.failed() + failed_traced;
    let attempted = (warm.outcomes.len() + baseline.outcomes.len() + traced_cells.len()) as u64;
    let metrics = crate::spec::PER_LAYER
        .iter()
        .map(|m| (m.name, metrics.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn write_spans(path: &std::path::Path, spans: &[spans::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans::to_jsonl(spans))
}

fn max_clients(plan: &Plan) -> usize {
    match plan {
        Plan::Engine(sweeps) => sweeps
            .iter()
            .flat_map(|s| s.points.iter().map(|c| c.num_clients as usize))
            .max()
            .unwrap_or(0),
        Plan::Scale(_) => 150,
    }
}

fn active_fault_plans(plan: &Plan) -> Vec<g2pl_protocols::FaultPlan> {
    match plan {
        Plan::Engine(sweeps) => sweeps
            .iter()
            .flat_map(|s| s.points.iter().filter_map(|c| c.active_faults().cloned()))
            .collect(),
        Plan::Scale(_) => Vec::new(),
    }
}
