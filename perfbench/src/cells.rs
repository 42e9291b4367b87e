//! Running cells and reducing them to deterministic digests.
//!
//! A failed cell — a panic, a failed P1–P10 or serializability check, a
//! quiescence error, or a run that did not fill its measurement window —
//! is counted, never fatal.

use crate::workload::{Plan, Sweep};
use g2pl_core::runner::replication_seed;
use g2pl_core::{run_grid, take_perf};
use g2pl_protocols::c2pl::C2plEngine;
use g2pl_protocols::g2pl::G2plEngine;
use g2pl_protocols::s2pl::S2plEngine;
use g2pl_protocols::{
    run_scale_with_workers, EngineConfig, ProtocolKind, RunMetrics, ScaleCfg, ScaleMetrics,
};
use g2pl_stats::TailSketch;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything deterministic one cell reports: the `sim_*` inputs and
/// every count metric. Two runs of the same cell must agree exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellSim {
    pub events: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Measured completions (commits + aborts in the window).
    pub measured: u64,
    pub measured_aborts: u64,
    pub messages: u64,
    pub response: TailSketch,
    pub peak_calendar: u64,
    pub window_closes: u64,
    pub max_fl_len: u64,
    pub retries: u64,
    pub lease_expiries: u64,
    pub redispatches: u64,
    pub reregistrations: u64,
    pub server_msgs_lost: u64,
    pub spans_dropped: u64,
    pub pdes_windows: u64,
    pub cross_messages: u64,
}

impl CellSim {
    pub fn of_run(m: &RunMetrics) -> Self {
        CellSim {
            events: m.events,
            committed: m.committed_total,
            aborted: m.aborted_total,
            measured: m.aborts.trials(),
            measured_aborts: m.aborts.hits(),
            messages: m.net.messages(),
            response: m.response_tail.clone(),
            peak_calendar: m.peak_calendar as u64,
            window_closes: m.window_closes,
            max_fl_len: m.max_fl_len as u64,
            retries: m.faults.retries,
            lease_expiries: m.faults.lease_expiries,
            redispatches: m.faults.redispatches,
            reregistrations: m.faults.reregistrations,
            server_msgs_lost: m.faults.server_msgs_lost,
            spans_dropped: m.phases.spans_dropped,
            ..CellSim::default()
        }
    }

    pub fn of_scale(m: &ScaleMetrics, cfg: &ScaleCfg) -> Self {
        CellSim {
            events: m.events,
            committed: m.committed,
            // The scale engine never aborts and counts messages over the
            // whole run, so every commit is a completion.
            measured: m.committed,
            messages: m.messages,
            response: m.tail.clone(),
            // Every client keeps one timer or message pending, so a
            // shard's calendar is at least its client count deep (the
            // scale engine reports no high-water mark of its own).
            peak_calendar: u64::from(cfg.num_clients.div_ceil(cfg.items.num_shards)),
            pdes_windows: m.rounds,
            cross_messages: m.cross_messages,
            ..CellSim::default()
        }
    }
}

/// What every cell does before its first event, without running it:
/// validate the config and build the engine (clients, calendar, lock
/// table). Sharded cells build their logical processes inside the run,
/// so for them this is config validation only.
pub fn prepare(plan: &Plan) -> Result<(), String> {
    let Plan::Engine(sweeps) = plan else {
        return Ok(());
    };
    for sweep in sweeps {
        for point in &sweep.points {
            point.validate().map_err(|e| e.to_string())?;
            for rep in 0..sweep.reps {
                let mut cfg = point.clone();
                cfg.seed = replication_seed(point.seed, rep);
                match &cfg.protocol {
                    ProtocolKind::S2pl => drop(black_box(S2plEngine::new(cfg))),
                    ProtocolKind::G2pl(_) => drop(black_box(G2plEngine::new(cfg))),
                    ProtocolKind::C2pl => drop(black_box(C2plEngine::new(cfg))),
                }
            }
        }
    }
    Ok(())
}

/// A run that returned but is not a complete measurement.
pub fn check_run(cfg: &EngineConfig, m: &RunMetrics) -> Result<(), String> {
    if m.aborts.trials() != cfg.measured_txns {
        return Err(format!(
            "{} cell (seed {}) measured {} of {} completions",
            m.protocol,
            cfg.seed,
            m.aborts.trials(),
            cfg.measured_txns
        ));
    }
    Ok(())
}

/// Per-cell outcome, in grid order: the digest, or `None` if it failed.
pub type Outcomes = Vec<Option<CellSim>>;

/// One sweep through `run_grid`, the path `repro` takes. If the sweep
/// panics, its points are re-run one at a time to find the failed ones;
/// a failed point fails all of its replications.
pub fn run_sweep(sweep: &Sweep, cell_secs: &mut Vec<f64>) -> Outcomes {
    let reps = sweep.reps as usize;
    let per_point: Vec<Option<Vec<RunMetrics>>> =
        match catch_unwind(AssertUnwindSafe(|| run_grid(&sweep.points, sweep.reps))) {
            Ok(results) => results.into_iter().map(|r| Some(r.runs)).collect(),
            Err(_) => sweep
                .points
                .iter()
                .map(|p| {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_grid(std::slice::from_ref(p), sweep.reps)
                    }))
                    .ok()
                    .and_then(|mut r| r.pop())
                    .map(|r| r.runs)
                })
                .collect(),
        };
    let mut out = Vec::with_capacity(sweep.cells());
    for (cfg, runs) in sweep.points.iter().zip(per_point) {
        match runs {
            Some(runs) => {
                for m in &runs {
                    cell_secs.push(m.wall_secs);
                    out.push(match check_run(cfg, m) {
                        Ok(()) => Some(CellSim::of_run(m)),
                        Err(e) => {
                            eprintln!("failed cell in {}: {e}", sweep.id);
                            None
                        }
                    });
                }
            }
            None => out.extend((0..reps).map(|_| None)),
        }
    }
    out
}

/// One sharded cell on the PDES at `workers` workers.
pub fn run_scale_cell(cfg: &ScaleCfg, workers: usize) -> Option<ScaleMetrics> {
    match catch_unwind(AssertUnwindSafe(|| run_scale_with_workers(cfg, workers))) {
        Ok(Ok(m)) => Some(m),
        Ok(Err(e)) => {
            eprintln!("failed scale cell ({} clients): {e}", cfg.num_clients);
            None
        }
        Err(_) => None,
    }
}

/// One timed pass over every cell of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    pub wall: f64,
    /// Summed per-cell host seconds.
    pub cell_secs_total: f64,
    /// Per-cell host seconds, grid order.
    pub cell_secs: Vec<f64>,
    pub outcomes: Outcomes,
}

impl Pass {
    pub fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.is_none()).count() as u64
    }

    pub fn ok_cells(&self) -> impl Iterator<Item = &CellSim> {
        self.outcomes.iter().flatten()
    }
}

/// Run every cell of `plan` once, as a user would: sweeps through the
/// grid runner with verification on, sharded cells on the PDES.
pub fn run_pass(plan: &Plan, workers: usize) -> Pass {
    let _ = take_perf();
    let start = Instant::now();
    let mut cell_secs = Vec::new();
    let mut outcomes = Vec::new();
    let mut scale_secs = 0.0;
    match plan {
        Plan::Engine(sweeps) => {
            for sweep in sweeps {
                outcomes.extend(run_sweep(sweep, &mut cell_secs));
            }
        }
        Plan::Scale(cells) => {
            for cfg in cells {
                let m = run_scale_cell(cfg, workers);
                if let Some(m) = &m {
                    cell_secs.push(m.wall.as_secs_f64());
                    scale_secs += m.wall.as_secs_f64();
                }
                outcomes.push(m.map(|m| CellSim::of_scale(&m, cfg)));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cell_secs_total = match plan {
        Plan::Engine(_) => take_perf().cpu_secs,
        Plan::Scale(_) => scale_secs,
    };
    Pass {
        wall,
        cell_secs_total,
        cell_secs,
        outcomes,
    }
}

/// The workload's deterministic totals over the cells that succeeded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    pub events: u64,
    pub committed: u64,
    pub measured: u64,
    pub measured_aborts: u64,
    pub messages: u64,
    pub response: TailSketch,
}

pub fn totals<'a>(cells: impl IntoIterator<Item = &'a CellSim>) -> Totals {
    let mut t = Totals::default();
    for c in cells {
        t.events += c.events;
        t.committed += c.committed;
        t.measured += c.measured;
        t.measured_aborts += c.measured_aborts;
        t.messages += c.messages;
        t.response.merge(&c.response);
    }
    t
}

impl Totals {
    pub fn commit_pct(&self) -> f64 {
        ratio(
            100.0 * (self.measured - self.measured_aborts) as f64,
            self.measured as f64,
        )
    }

    pub fn msgs_per_commit(&self) -> f64 {
        ratio(self.messages as f64, self.measured as f64)
    }

    pub fn response_quantile(&self, q: f64) -> f64 {
        self.response.quantile(q).unwrap_or(0) as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
