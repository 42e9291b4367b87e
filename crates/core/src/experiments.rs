//! The experiment registry: every figure of the paper, and every study
//! beyond it, as data.
//!
//! Each chart is one [`FigureSpec`] row of [`FIGURES`]: its caption and
//! axes, the x values and series labels it sweeps, the [`Metric`] it
//! plots and one function from `(series, x, scale)` to the engine config
//! of that cell. [`FigureSpec::build`] turns any row into its series × x
//! configs, runs them on one [`run_grid`] and reduces each point by the
//! metric. The `repro` binary lists and dispatches straight from the
//! registry; the smoke output of every row is pinned byte for byte
//! (`tests/registry_fixtures.rs`). The paper's qualitative claims (who
//! wins, where the crossover falls) are the rows of a second table,
//! [`CLAIMS`]: each one names the figures it reads and checks their
//! built data, and [`check_claims`] judges them all for `repro
//! scorecard` and the tests alike. Prose artifacts (tables, the Fig 1
//! timeline, the headline table) remain functions.
//!
//! | id | artifact |
//! |----|----------|
//! | `table1` | simulation parameters |
//! | `table2` | networking environments |
//! | `fig1`   | example execution, 3 exclusive transactions |
//! | `fig2`–`fig4` | response time vs latency, pr ∈ {0.0, 0.6, 1.0} |
//! | `fig5`–`fig7` | response time vs read probability (ss-LAN, MAN, l-WAN) |
//! | `fig8`–`fig9` | abort %, vs latency, pr ∈ {0.6, 0.8} |
//! | `fig10` | abort % vs latency, read-only system |
//! | `fig11` | abort % vs forward-list length cap, read-only ss-LAN |
//! | `fig12`–`fig15` | response time / abort % vs number of clients, s-WAN |
//! | `fig_faults` | response time vs message-loss probability, 3 engines |
//! | `fig_faults_aborts` | abort % vs message-loss probability, 3 engines |
//! | `fig_server_faults` | response time vs server outage duration, 3 engines |
//! | `fig_shard_faults` | commit rate & p99 vs per-shard outage duration, 1–8 shards |
//! | `fig_tail` | p99/p999 response time vs number of clients, 3 engines |
//! | `fig_scale` | response time vs clients × shard count, PDES scale-out |
//! | `ext-*` | ten extension studies (below) |
//! | `headline` | the 20–25% response-time improvement claim |
//! | `scorecard` | every [`CLAIMS`] entry, checked on the rows it reads |
//!
//! The `ext-*` rows go beyond the paper's figures. The paper's conclusion
//! lists future work — comparing against more caching protocols, exploring
//! forward-list ordering disciplines, and the read-only optimization —
//! and its §2 and footnote 1 make claims (message size stops mattering;
//! window tuning gains little) that it never plots. Each row's comment
//! gives the claim it tests; `repro list` prints their one-line
//! summaries.

use crate::figure::{FigureData, Series, TailPoint, TailSeries};
use crate::runner::{run_grid, ReplicatedResult};
use g2pl_faults::FaultPlan;
use g2pl_fwdlist::OrderingRule;
use g2pl_lockmgr::VictimPolicy;
use g2pl_netmodel::NetworkEnv;
use g2pl_protocols::{
    run, run_scale, AbortEffect, EngineConfig, G2plOpts, ItemSpace, LatencyCfg, ProtocolKind,
    ScaleCfg, ShardMix, TraceEvent, TraceKind,
};
use g2pl_stats::{ConfidenceInterval, Replications};
use g2pl_workload::AccessDistribution;
use std::fmt::Write as _;

/// How much compute to spend per experiment.
///
/// The paper ran 50 000 measured transactions per replication and 5
/// replications per point (34 CPU-hours per curve in 1997). The shapes
/// stabilise far earlier; `Smoke` is enough for CI assertions, `Full`
/// matches the paper's methodology. Scales order by cost, so a claim's
/// [`Claim::from_scale`] compares against the scale it is checked at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// ~1k measured transactions, 2 replications: seconds per figure.
    Smoke,
    /// ~5k measured transactions, 3 replications: default for `repro`.
    Default,
    /// 50k measured transactions, 5 replications: the paper's methodology.
    Full,
}

impl Scale {
    /// (warm-up transactions, measured transactions, replications).
    pub fn params(self) -> (u64, u64, u32) {
        match self {
            Scale::Smoke => (200, 1_000, 2),
            Scale::Default => (500, 5_000, 3),
            Scale::Full => (2_000, 50_000, 5),
        }
    }
}

/// The latency sweep of Figs 2–4 and 8–9 (Table 2 environments).
pub const LATENCY_SWEEP: [u64; 6] = [1, 50, 100, 250, 500, 750];

/// The read-probability sweep of Figs 5–7.
pub const PR_SWEEP: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The client-count sweep of Figs 12–15.
pub const CLIENT_SWEEP: [u32; 6] = [10, 25, 50, 75, 100, 150];

/// The message-loss sweep of the fault experiments (`fig_faults*`).
pub const LOSS_SWEEP: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.08, 0.10];

/// The server-outage-duration sweep of `fig_server_faults`, in simulated
/// time units per outage (two outages per run; 0 = no crash, the inert
/// anchor point).
pub const OUTAGE_SWEEP: [u64; 5] = [0, 200, 500, 1_000, 2_000];

/// The shard counts swept by `fig_shard_faults`: one series each. The
/// hot set stays 24 items total so the series differ only in how the
/// directory is partitioned into fault domains.
pub const SHARD_FAULT_SHARDS: [u32; 4] = [1, 2, 4, 8];

/// An integer sweep as plotted x values.
macro_rules! xs_of {
    ($sweep:expr) => {{
        let mut xs = [0.0; $sweep.len()];
        let mut i = 0;
        while i < xs.len() {
            xs[i] = $sweep[i] as f64;
            i += 1;
        }
        xs
    }};
}

const LATENCY_XS: [f64; LATENCY_SWEEP.len()] = xs_of!(LATENCY_SWEEP);
const CLIENT_XS: [f64; CLIENT_SWEEP.len()] = xs_of!(CLIENT_SWEEP);
const OUTAGE_XS: [f64; OUTAGE_SWEEP.len()] = xs_of!(OUTAGE_SWEEP);

/// The Table 1 system at the scale's warm-up and measured counts.
fn base_cfg(
    protocol: ProtocolKind,
    clients: u32,
    latency: u64,
    pr: f64,
    scale: Scale,
) -> EngineConfig {
    let (warmup, measured, _) = scale.params();
    let mut cfg = EngineConfig::table1(protocol, clients, latency, pr);
    cfg.warmup_txns = warmup;
    cfg.measured_txns = measured;
    cfg
}

/// The paper's g-2PL with one option changed.
fn g2pl_with(f: impl FnOnce(&mut G2plOpts)) -> ProtocolKind {
    let mut opts = G2plOpts::default();
    f(&mut opts);
    ProtocolKind::G2pl(opts)
}

/// The engine of series `s` in every engine-comparison row: g-2PL,
/// s-2PL, then c-2PL.
fn engine(s: usize) -> ProtocolKind {
    match s {
        0 => ProtocolKind::g2pl_paper(),
        1 => ProtocolKind::S2pl,
        _ => ProtocolKind::C2pl,
    }
}

/// Series labels of the rows comparing the first two or all three
/// [`engine`]s.
const G2PL: &str = "g-2PL";
const S2PL: &str = "s-2PL";
const BOTH_LABELS: &[&str] = &[G2PL, S2PL];
const TRIO_LABELS: &[&str] = &[G2PL, S2PL, "c-2PL"];

/// The deadlock victim policies of `ext-victims`, in series order.
const VICTIMS: [VictimPolicy; 3] = [
    VictimPolicy::Youngest,
    VictimPolicy::Oldest,
    VictimPolicy::FewestLocks,
];

// ---- the figure registry ----

/// What a figure plots, and how one grid point's replications reduce to
/// its y values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Mean transaction response time over measured commits, ± 95% CI;
    /// the pooled tail quantiles ride along in the `_tail.csv`.
    Response,
    /// Percentage of measured completions that aborted, ± 95% CI.
    AbortPct,
    /// Worst per-site live WAL high-water mark in KiB, ± 95% CI. The
    /// row's configs must enable the WAL.
    WalKib,
    /// Two series per label: measured commits per 1 000 simulated time
    /// units (sensitive to outage dead time and atomic-commitment round
    /// trips) and the pooled p99 response, plus the tail columns.
    CommitRate,
    /// Two series per label: pooled p99 and p999 response time, plus the
    /// tail columns. Exact sketch bucket edges, so no error bars.
    TailQuantiles,
}

impl Metric {
    fn y_label(self) -> &'static str {
        match self {
            Metric::Response => "mean response time",
            Metric::AbortPct => "% aborted",
            Metric::WalKib => "live log high-water (KiB)",
            Metric::CommitRate => "commits per 1k units / p99 response",
            Metric::TailQuantiles => "response time quantile",
        }
    }

    /// The plotted series per row label, by label suffix.
    fn suffixes(self) -> &'static [&'static str] {
        match self {
            Metric::CommitRate => &[" commit rate", " p99"],
            Metric::TailQuantiles => &[" p99", " p999"],
            Metric::Response | Metric::AbortPct | Metric::WalKib => &[""],
        }
    }

    /// Whether the figure writes pooled tail quantiles.
    fn has_tails(self) -> bool {
        !matches!(self, Metric::AbortPct | Metric::WalKib)
    }

    /// One grid point's `(y, ci)` per suffix.
    fn reduce(self, r: &ReplicatedResult) -> Vec<(f64, f64)> {
        let mean_ci = |ci: ConfidenceInterval| vec![(ci.mean, ci.half_width)];
        match self {
            Metric::Response => mean_ci(r.response_ci()),
            Metric::AbortPct => mean_ci(r.abort_pct_ci()),
            Metric::WalKib => {
                let kib: Vec<f64> = r
                    .runs
                    .iter()
                    // lint:allow(L3): a WalKib row enables the WAL, so every run carries WAL metrics
                    .map(|m| m.wal.expect("wal enabled").high_water_bytes_max as f64 / 1024.0)
                    .collect();
                mean_ci(Replications::from_values(&kib).interval_95())
            }
            Metric::CommitRate => {
                let rate: Vec<f64> = r
                    .runs
                    .iter()
                    .map(|m| 1_000.0 * m.committed_total as f64 / m.end_time.units() as f64)
                    .collect();
                let mean = rate.iter().sum::<f64>() / rate.len() as f64;
                vec![(mean, 0.0), (r.tail_summary().p99 as f64, 0.0)]
            }
            Metric::TailQuantiles => {
                let t = r.tail_summary();
                vec![(t.p99 as f64, 0.0), (t.p999 as f64, 0.0)]
            }
        }
    }
}

/// Where a registered figure's cells run.
#[derive(Clone, Copy, Debug)]
pub enum Cells {
    /// The engine config of series `s` at `x`: every (series, x) cell of
    /// the figure runs on one [`run_grid`].
    Grid(fn(usize, f64, Scale) -> EngineConfig),
    /// `fig_scale`'s clients × shard-count grid on the PDES scale engine
    /// ([`scale_cell`]), whose axes grow with the scale. The row's `xs`
    /// and `series` are empty.
    ScaleOut,
}

/// One registered figure. The whole chart is data —
/// [`FigureSpec::build`] interprets it.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Artifact id, e.g. `"fig2"` (what `repro <id>` dispatches on).
    pub id: &'static str,
    /// One-line summary shown by `repro list`.
    pub blurb: &'static str,
    /// The caption.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// The swept x values, in plot order.
    pub xs: &'static [f64],
    /// Series labels, in legend order.
    pub series: &'static [&'static str],
    /// Quantity plotted on the y-axis.
    pub metric: Metric,
    /// The cells behind every point.
    pub cells: Cells,
}

/// Every registered figure: the paper's in paper order, then the
/// extension studies. `repro list`, `repro all`/`ext` and the figure
/// dispatch all read this table; adding a chart means adding a row.
pub static FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "fig2",
        blurb: "response time vs latency, write-only (pr=0.0)",
        title: "Mean transaction response time vs network latency, pr=0",
        x_label: "network latency",
        xs: &LATENCY_XS,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 0.0, scale)),
    },
    FigureSpec {
        id: "fig3",
        blurb: "response time vs latency, mixed (pr=0.6)",
        title: "Mean transaction response time vs network latency, pr=0.6",
        x_label: "network latency",
        xs: &LATENCY_XS,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 0.6, scale)),
    },
    FigureSpec {
        id: "fig4",
        blurb: "response time vs latency, read-only (pr=1.0)",
        title: "Mean transaction response time vs network latency, pr=1",
        x_label: "network latency",
        xs: &LATENCY_XS,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 1.0, scale)),
    },
    FigureSpec {
        id: "fig5",
        blurb: "response time vs read probability, ss-LAN (latency 1)",
        title: "Mean response time vs read probability in ss-LAN (latency 1)",
        x_label: "read probability",
        xs: &PR_SWEEP,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, 1, x, scale)),
    },
    FigureSpec {
        id: "fig6",
        blurb: "response time vs read probability, MAN (latency 250)",
        title: "Mean response time vs read probability in MAN (latency 250)",
        x_label: "read probability",
        xs: &PR_SWEEP,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, 250, x, scale)),
    },
    FigureSpec {
        id: "fig7",
        blurb: "response time vs read probability, l-WAN (latency 750)",
        title: "Mean response time vs read probability in l-WAN (latency 750)",
        x_label: "read probability",
        xs: &PR_SWEEP,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, 750, x, scale)),
    },
    FigureSpec {
        id: "fig8",
        blurb: "abort % vs latency, pr=0.6",
        title: "Percentage of transactions aborted vs latency, pr=0.6, 50 clients, 25 items",
        x_label: "network latency",
        xs: &LATENCY_XS,
        series: BOTH_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 0.6, scale)),
    },
    FigureSpec {
        id: "fig9",
        blurb: "abort % vs latency, pr=0.8",
        title: "Percentage of transactions aborted vs latency, pr=0.8, 50 clients, 25 items",
        x_label: "network latency",
        xs: &LATENCY_XS,
        series: BOTH_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 0.8, scale)),
    },
    // g-2PL's unique read-only deadlocks, over the short latencies
    // where they occur.
    FigureSpec {
        id: "fig10",
        blurb: "abort % vs latency, read-only system",
        title: "Percentage of transactions aborted vs latency, read-only system",
        x_label: "network latency",
        xs: &[1.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        series: BOTH_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, x as u64, 1.0, scale)),
    },
    FigureSpec {
        id: "fig11",
        blurb: "abort % vs forward-list length cap, read-only ss-LAN",
        title: "Percentage of transactions aborted vs forward-list length, pr=1.0, ss-LAN",
        x_label: "forward list length cap",
        xs: &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
        series: &["g-2PL"],
        metric: Metric::AbortPct,
        cells: Cells::Grid(|_, x, scale| {
            let capped = g2pl_with(|o| o.fl_cap = Some(x as usize));
            base_cfg(capped, 50, 1, 1.0, scale)
        }),
    },
    FigureSpec {
        id: "fig12",
        blurb: "response time vs number of clients, pr=0.25, s-WAN",
        title: "Mean response time vs number of clients: 25 items, pr=0.25, s-WAN",
        x_label: "number of clients",
        xs: &CLIENT_XS,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), x as u32, 500, 0.25, scale)),
    },
    FigureSpec {
        id: "fig13",
        blurb: "abort % vs number of clients, pr=0.25, s-WAN",
        title: "Percentage aborted vs number of clients: 25 items, pr=0.25, s-WAN",
        x_label: "number of clients",
        xs: &CLIENT_XS,
        series: BOTH_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), x as u32, 500, 0.25, scale)),
    },
    FigureSpec {
        id: "fig14",
        blurb: "response time vs number of clients, pr=0.75, s-WAN",
        title: "Mean response time vs number of clients: 25 items, pr=0.75, s-WAN",
        x_label: "number of clients",
        xs: &CLIENT_XS,
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), x as u32, 500, 0.75, scale)),
    },
    FigureSpec {
        id: "fig15",
        blurb: "abort % vs number of clients, pr=0.75, s-WAN",
        title: "Percentage aborted vs number of clients: 25 items, pr=0.75, s-WAN",
        x_label: "number of clients",
        xs: &CLIENT_XS,
        series: BOTH_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), x as u32, 500, 0.75, scale)),
    },
    // The fault-injection subsystem on every engine. The x = 0 plan is
    // inert, so the curve anchors to the reliable-network figures, and
    // every run drains: recovery liveness is part of what the figure
    // shows, so every non-aborted transaction must finish.
    FigureSpec {
        id: "fig_faults",
        blurb: "response time vs message-loss probability, 3 engines",
        title: "Mean response time vs message-loss probability, pr=0.6, MAN",
        x_label: "message loss probability",
        xs: &LOSS_SWEEP,
        series: TRIO_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(lossy_cell),
    },
    FigureSpec {
        id: "fig_faults_aborts",
        blurb: "abort % vs message-loss probability, 3 engines",
        title: "Percentage of transactions aborted vs message-loss probability, pr=0.6, MAN",
        x_label: "message loss probability",
        xs: &LOSS_SWEEP,
        series: TRIO_LABELS,
        metric: Metric::AbortPct,
        cells: Cells::Grid(lossy_cell),
    },
    // Two fixed server outages per run, WAL replay plus the
    // re-registration handshake on each restart. Every run drains:
    // every non-aborted transaction must finish despite losing the
    // server twice — recovery liveness is the point of the figure.
    FigureSpec {
        id: "fig_server_faults",
        blurb: "response time vs server outage duration, 3 engines",
        title: "Mean response time vs server outage duration, pr=0.6, latency 50",
        x_label: "server outage duration",
        xs: &OUTAGE_XS,
        series: TRIO_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), 50, 50, 0.6, scale);
            cfg.drain = true;
            cfg.faults = Some(FaultPlan::server_outage(x as u64));
            cfg
        }),
    },
    // Shard fault domains under s-2PL, one series per shard count in
    // SHARD_FAULT_SHARDS. Beyond one shard the workload mixes 30%
    // multi-home transactions (θ = 0.5 shard popularity), so a crash
    // strands in-doubt prepare votes that recovery must resolve.
    FigureSpec {
        id: "fig_shard_faults",
        blurb: "commit rate & p99 vs per-shard outage duration, 1/2/4/8 shards",
        title: "Commit rate and p99 response vs per-shard outage duration, \
                s-2PL, 30% multi-home beyond one shard",
        x_label: "outage duration per crash",
        xs: &OUTAGE_XS,
        series: &["1 shard", "2 shards", "4 shards", "8 shards"],
        metric: Metric::CommitRate,
        cells: Cells::Grid(|s, x, scale| {
            let shards = SHARD_FAULT_SHARDS[s];
            let mut cfg = base_cfg(ProtocolKind::S2pl, 50, 50, 0.6, scale);
            // Hold the hot set at 24 items however it is partitioned,
            // so the series differ only in fault-domain layout.
            cfg.items = ItemSpace::sharded(shards, 24 / shards);
            if shards > 1 {
                cfg.profile.shard_mix = Some(ShardMix {
                    cross_frac: 0.3,
                    shard_theta: 0.5,
                });
            }
            // Acknowledged commits must survive the outage: drain so
            // every non-aborted transaction finishes and is counted.
            cfg.drain = true;
            // x = 0 carries no plan at all — the inert anchor runs the
            // pristine code path (no WAL forcing, no 2PC). Otherwise
            // both crashes land on the *highest* shard, a non-zero fault
            // domain whenever one exists.
            if x > 0.0 {
                cfg.faults = Some(FaultPlan::shard_outage(shards - 1, x as u64));
            }
            cfg
        }),
    },
    // Every run drains: stragglers must finish and be counted — the
    // tail is the point.
    FigureSpec {
        id: "fig_tail",
        blurb: "p99/p999 response time vs number of clients, 3 engines",
        title: "Tail response time (p99/p999) vs number of clients, pr=0.6, MAN",
        x_label: "number of clients",
        xs: &CLIENT_XS,
        series: TRIO_LABELS,
        metric: Metric::TailQuantiles,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), x as u32, 250, 0.6, scale);
            cfg.drain = true;
            cfg
        }),
    },
    FigureSpec {
        id: "fig_scale",
        blurb: "response time vs clients x shard count, sharded PDES scale-out",
        title: "Response time vs number of clients per shard count, pr=0.6, \
                20% multi-home, sharded scale-out",
        x_label: "number of clients",
        xs: &[],
        series: &[],
        metric: Metric::Response,
        cells: Cells::ScaleOut,
    },
    // "Compare with more caching protocols": c-2PL converges towards
    // s-2PL at low read probabilities (callbacks eat the cache) and
    // beats both on read-mostly hot data.
    FigureSpec {
        id: "ext-protocols",
        blurb: "s-2PL vs g-2PL vs c-2PL across the read-probability sweep",
        title: "s-2PL vs g-2PL vs c-2PL across read probabilities, MAN",
        x_label: "read probability",
        xs: &PR_SWEEP,
        series: TRIO_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| base_cfg(engine(s), 50, 250, x, scale)),
    },
    // A Zipf-distributed item choice concentrates load on a few
    // scorching items. The paper predicts "the more a certain data item
    // is requested … more is the performance gain" for g-2PL.
    FigureSpec {
        id: "ext-skew",
        blurb: "Zipf access skew: the hotter the hot set, the bigger the grouping win",
        title: "Zipf access skew vs response time, pr=0.25, s-WAN",
        x_label: "zipf theta",
        xs: &[0.0, 0.4, 0.8, 1.2, 1.6],
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), 50, 500, 0.25, scale);
            cfg.profile.access = AccessDistribution::Zipf { theta: x };
            cfg
        }),
    },
    // §2's claim: at low data rates the transmission term dominates and
    // g-2PL's bigger messages (data migration plus forward lists) cost
    // real time; as the rate grows the latency term takes over and the
    // round savings win. x is payload bytes per simulation time unit.
    FigureSpec {
        id: "ext-bandwidth",
        blurb: "finite bandwidth: g-2PL's bigger messages vs fewer rounds",
        title: "Finite bandwidth: response time vs data rate, pr=0.25, MAN",
        x_label: "bytes per time unit",
        xs: &[64.0, 256.0, 1024.0, 4096.0, 16384.0],
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), 50, 250, 0.25, scale);
            cfg.latency = LatencyCfg::Bandwidth {
                latency: 250,
                bytes_per_unit: x as u64,
            };
            cfg
        }),
    },
    // The reproduction finding: `g-2PL (instant)` reproduces the paper;
    // `g-2PL (messaged)` charges the real notice + migration cost of
    // each deadlock abort and loses its advantage at high contention.
    FigureSpec {
        id: "ext-abort-effect",
        blurb: "the reproduction finding: instant vs messaged abort recovery",
        title: "Abort-effect semantics: instant (paper) vs messaged (faithful), pr=0.6",
        x_label: "network latency",
        xs: &[50.0, 250.0, 500.0, 750.0],
        series: &["g-2PL (instant)", "g-2PL (messaged)", "s-2PL"],
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            // Series 0 and 1 run g-2PL, series 2 s-2PL.
            let mut cfg = base_cfg(engine(s / 2), 50, x as u64, 0.6, scale);
            if s == 1 {
                cfg.abort_effect = AbortEffect::Messaged;
            }
            cfg
        }),
    },
    // Footnote 1: holding a returned item for up to two latencies to
    // gather a bigger window "does not produce significant performance
    // gains".
    FigureSpec {
        id: "ext-window-hold",
        blurb: "footnote 1: holding windows open buys little",
        title: "Collection-window hold time vs response, pr=0.25, s-WAN (footnote 1)",
        x_label: "window hold (time units)",
        xs: &[0.0, 125.0, 250.0, 500.0, 1000.0],
        series: &["g-2PL"],
        metric: Metric::Response,
        cells: Cells::Grid(|_, x, scale| {
            let hold = g2pl_with(|o| o.dispatch_delay = (x > 0.0).then_some(x as u64));
            base_cfg(hold, 50, 500, 0.25, scale)
        }),
    },
    // §6 future work: "the various ordering disciplines in forming the
    // forward lists".
    FigureSpec {
        id: "ext-ordering",
        blurb: "forward-list ordering disciplines",
        title: "Forward-list ordering disciplines, MAN",
        x_label: "read probability",
        xs: &[0.0, 0.3, 0.6, 0.9],
        series: &["fifo+avoidance (paper)", "fifo only", "coalesce readers"],
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let rule = g2pl_with(|o| match s {
                1 => o.ordering = OrderingRule::fifo(),
                2 => o.ordering.coalesce_readers = true,
                _ => {}
            });
            base_cfg(rule, 50, 250, x, scale)
        }),
    },
    // Both engines at the contended s-WAN cell, one series per
    // (engine, policy) in VICTIMS order.
    FigureSpec {
        id: "ext-victims",
        blurb: "deadlock victim policies",
        title: "Victim policies vs response time, s-WAN",
        x_label: "read probability",
        xs: &[0.0, 0.3, 0.6],
        series: &[
            "g-2PL / youngest",
            "g-2PL / oldest",
            "g-2PL / fewest-locks",
            "s-2PL / youngest",
            "s-2PL / oldest",
            "s-2PL / fewest-locks",
        ],
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s / 3), 50, 500, x, scale);
            cfg.victim = VICTIMS[s % 3];
            cfg
        }),
    },
    // "Expanding a dispatched forward list to include new read
    // requests", which the paper leaves as future work: it removes the
    // read penalty at high read probabilities.
    FigureSpec {
        id: "ext-read-expansion",
        blurb: "the §3.3 read-expansion variant at high read probabilities",
        title: "Read-expansion variant at high read probabilities, MAN",
        x_label: "read probability",
        xs: &[0.6, 0.8, 0.9, 1.0],
        series: &["g-2PL", "g-2PL + read expansion", "s-2PL"],
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let protocol = match s {
                0 => ProtocolKind::g2pl_paper(),
                1 => g2pl_with(|o| o.expand_reads = true),
                _ => ProtocolKind::S2pl,
            };
            base_cfg(protocol, 50, 250, x, scale)
        }),
    },
    // The §1 recovery substrate. Under s-2PL a committed version is
    // permanent as soon as the commit message lands, so logs stay
    // shallow; under g-2PL it only becomes permanent when the item
    // finishes migrating home, so sites must provision log space that
    // grows with the forward-list pipelines.
    FigureSpec {
        id: "ext-log-retention",
        blurb: "WAL log-space high-water marks (§1's recovery substrate)",
        title: "Worst per-site live WAL (KiB) vs latency, pr=0.25",
        x_label: "network latency",
        xs: &[50.0, 250.0, 500.0, 750.0],
        series: BOTH_LABELS,
        metric: Metric::WalKib,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), 50, x as u64, 0.25, scale);
            cfg.enable_wal = true;
            cfg
        }),
    },
    // §3.3 argues the forward-list reordering computations overlap
    // communication and "do not increase the transaction blocking
    // time". A serial per-message server CPU cost shows how much
    // headroom that claim has, and where the server becomes each
    // protocol's bottleneck (s-2PL pushes roughly 3 messages per
    // transaction through it; g-2PL offloads data migration to the
    // clients).
    FigureSpec {
        id: "ext-server-cpu",
        blurb: "§3.3's \"server computation overlaps communication\" claim",
        title: "Server CPU cost per message vs response, pr=0.6, s-WAN",
        x_label: "server cpu per message (time units)",
        xs: &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0],
        series: BOTH_LABELS,
        metric: Metric::Response,
        cells: Cells::Grid(|s, x, scale| {
            let mut cfg = base_cfg(engine(s), 50, 500, 0.6, scale);
            cfg.server_cpu_per_op = x as u64;
            cfg
        }),
    },
];

/// The cell of both `fig_faults*` rows: loss probability `x` on every
/// link, drained.
fn lossy_cell(s: usize, x: f64, scale: Scale) -> EngineConfig {
    let mut cfg = base_cfg(engine(s), 50, 250, 0.6, scale);
    cfg.drain = true;
    cfg.faults = Some(FaultPlan::message_loss(x));
    cfg
}

/// Look up a registered figure by id.
pub fn figure(id: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The registry as a markdown table (the body of `repro list`).
pub fn list_figures() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| id | figure |");
    let _ = writeln!(out, "|---|---|");
    for f in FIGURES {
        let _ = writeln!(out, "| {} | {} |", f.id, f.blurb);
    }
    out
}

impl FigureSpec {
    /// Regenerate the figure's data at the given scale. Replication 0
    /// of every point is trace-verified (P1–P10 plus serializability)
    /// by the grid runner unless verification is off.
    pub fn build(&self, scale: Scale) -> FigureData {
        let Cells::Grid(cell) = self.cells else {
            return self.build_scale(scale);
        };
        let (_, _, reps) = scale.params();
        let configs: Vec<EngineConfig> = (0..self.series.len())
            .flat_map(|s| self.xs.iter().map(move |&x| cell(s, x, scale)))
            .collect();
        let mut results = run_grid(&configs, reps).into_iter();
        let mut fig = self.empty_figure(self.metric.y_label());
        for label in self.series {
            let mut columns: Vec<Series> = self
                .metric
                .suffixes()
                .iter()
                .map(|suffix| Series {
                    label: format!("{label}{suffix}"),
                    points: Vec::with_capacity(self.xs.len()),
                })
                .collect();
            let mut tail = Vec::with_capacity(self.xs.len());
            for &x in self.xs {
                // lint:allow(L3): run_grid returns one result per config
                let r = results.next().expect("one result per grid point");
                for (column, (y, ci)) in columns.iter_mut().zip(self.metric.reduce(&r)) {
                    column.points.push((x, y, ci));
                }
                if self.metric.has_tails() {
                    tail.push(TailPoint::new(x, r.tail_summary()));
                }
            }
            fig.series.extend(columns);
            if self.metric.has_tails() {
                fig.tails.push(TailSeries {
                    label: label.to_string(),
                    points: tail,
                });
            }
        }
        fig
    }

    fn empty_figure(&self, y_label: &str) -> FigureData {
        FigureData {
            id: self.id.into(),
            title: self.title.into(),
            x_label: self.x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// `fig_scale`: mean response time over a clients × shard-count
    /// grid of the sharded scale-out engine. Each cell is one PDES run
    /// (one LP per shard, link latency as the lookahead) that drains to
    /// quiescence and verifies its lock tables before reporting, so
    /// every plotted point is backed by a clean multi-home history. The
    /// per-LP statistics merge deterministically, making the whole
    /// figure bit-identical at any worker count.
    fn build_scale(&self, scale: Scale) -> FigureData {
        let (clients_axis, shard_axis): (&[u32], &[u32]) = match scale {
            Scale::Smoke => (&[64, 128, 256], &[1, 2, 4]),
            Scale::Default => (&[1_000, 10_000, 100_000], &[1, 4, 8]),
            Scale::Full => (&[100_000, 400_000, 1_000_000], &[4, 16, 64]),
        };
        let mut fig = self.empty_figure("response time");
        for &shards in shard_axis {
            let label = if shards == 1 {
                "1 shard".to_string()
            } else {
                format!("{shards} shards")
            };
            let mut points = Vec::with_capacity(clients_axis.len());
            let mut tail = Vec::with_capacity(clients_axis.len());
            for &clients in clients_axis {
                let mut cfg = scale_cell(clients, shards);
                if scale == Scale::Smoke {
                    cfg.warmup = 50;
                    cfg.measured = 200;
                }
                // lint:allow(L3): the registry grid is valid by construction
                let m = run_scale(&cfg).unwrap_or_else(|e| panic!("fig_scale cell: {e}"));
                let x = clients as f64;
                points.push((x, m.response.mean(), 0.0));
                tail.push(TailPoint::new(x, m.tail.summary()));
            }
            fig.series.push(Series {
                label: label.clone(),
                points,
            });
            fig.tails.push(TailSeries {
                label,
                points: tail,
            });
        }
        fig
    }
}

// ---- the paper's claims ----

/// The verdict a [`Claim`] is expected to reach in this reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The reproduction agrees with the paper.
    Holds,
    /// A known divergence; the argument names the EXPERIMENTS.md note
    /// that documents the gap.
    Diverges(&'static str),
}

/// One qualitative claim of the paper's evaluation, as a check over the
/// built data of the registry rows it reads.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// Short id, e.g. `"fig5-crossover"`.
    pub id: &'static str,
    /// The paper's wording.
    pub statement: &'static str,
    /// The [`FIGURES`] ids the check reads, in the order it receives
    /// their data.
    pub rows: &'static [&'static str],
    /// `Ok` when the claim holds on the rows' data, `Err` when it does
    /// not; the measured detail rides along either way.
    pub check: fn(&[&FigureData]) -> Result<String, String>,
    /// The verdict this reproduction reaches.
    pub expect: Expect,
    /// The smallest scale at which `expect` is the verdict. Below it the
    /// claim is reported but not gated.
    pub from_scale: Scale,
}

/// Every qualitative claim of the paper's evaluation (§5) that a registry
/// row plots, in paper order, then the claims of the extension studies.
/// A known divergence is an expectation too: a change that closes one
/// fails the check until its entry and EXPERIMENTS.md say so.
pub static CLAIMS: &[Claim] = &[
    Claim {
        id: "headline",
        statement: "20–25% response-time improvement of g-2PL over s-2PL with updates \
                    (paper: 19.50–26.92%)",
        rows: &["fig3"],
        check: |f| {
            let imps: Vec<f64> = gaps(f[0], G2PL, S2PL)?
                .iter()
                .map(|g| g.improvement())
                .collect();
            let mean = imps.iter().sum::<f64>() / imps.len() as f64;
            let (lo, hi) = span(imps);
            holds_if(
                (10.0..=35.0).contains(&mean),
                format!("mean improvement {mean:.1}% (needs 10–35%), {lo:.1}–{hi:.1}% per latency"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "wan-improvement",
        statement: "with updates, g-2PL beats s-2PL in the s-WAN by a margin near the \
                    headline's (Figs 2–3)",
        rows: &["fig2", "fig3"],
        check: |f| {
            let mut within = true;
            let mut imps = Vec::new();
            for fig in f {
                let imp = gap_at(fig, G2PL, S2PL, 500.0)?.improvement();
                within &= imp > 10.0 && imp < 40.0;
                imps.push(format!("{} {imp:.1}%", fig.id));
            }
            holds_if(
                within,
                format!("at latency 500: {} (needs 10–40%)", imps.join(", ")),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "latency-growth",
        statement: "response time grows with latency for both protocols (Figs 2–3)",
        rows: &["fig2", "fig3"],
        check: |f| {
            let (mut steps, mut flat) = (0, Vec::new());
            for fig in f {
                for &label in BOTH_LABELS {
                    for w in series_of(fig, label)?.points.windows(2) {
                        steps += 1;
                        if w[1].1 <= w[0].1 {
                            flat.push(format!("{} {label} at {}", fig.id, w[1].0));
                        }
                    }
                }
            }
            if flat.is_empty() {
                Ok(format!("all {steps} latency steps rise"))
            } else {
                Err(format!("flat or falling: {}", flat.join(", ")))
            }
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig2-winner",
        statement: "g-2PL below s-2PL at every latency for pure updates (Fig 2)",
        rows: &["fig2"],
        check: |f| wins(f[0], G2PL, S2PL, 0.0),
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig3-winner",
        statement: "g-2PL below s-2PL at every latency with pr = 0.6 (Fig 3)",
        rows: &["fig3"],
        check: |f| wins(f[0], G2PL, S2PL, 0.0),
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig4-winner",
        statement: "s-2PL better than g-2PL in read-only systems (Fig 4)",
        rows: &["fig4"],
        check: |f| {
            let g = gap_at(f[0], S2PL, G2PL, 500.0)?;
            let ratio = g.b / g.a;
            let ratio = format!("g-2PL {ratio:.1}× s-2PL at latency 500 (needs > 1.2×)");
            match wins(f[0], S2PL, G2PL, 0.0) {
                Ok(d) if g.b > g.a * 1.2 => Ok(format!("{d}; {ratio}")),
                Ok(d) | Err(d) => Err(format!("{d}; {ratio}")),
            }
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig5-crossover",
        statement: "crossover around pr ≈ 0.85 in the ss-LAN (Fig 5)",
        rows: &["fig5"],
        check: |f| {
            let x = crossover(f[0])?;
            holds_if(
                (0.65..=0.95).contains(&x),
                format!("crossover at pr ≈ {x:.2} (needs 0.65–0.95)"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig6-crossover",
        statement: "g-2PL wins at low read probabilities and s-2PL near pr = 1.0 in the MAN \
                    (Fig 6)",
        rows: &["fig6"],
        check: |f| {
            let low = gap_at(f[0], G2PL, S2PL, 0.2)?;
            let high = gap_at(f[0], G2PL, S2PL, 1.0)?;
            holds_if(
                low.a < low.b && high.a >= high.b,
                format!(
                    "g-2PL {:.0} vs s-2PL {:.0} at pr 0.2, {:.0} vs {:.0} at pr 1.0",
                    low.a, low.b, high.a, high.b
                ),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "crossover-shift",
        statement: "the crossover shifts right as latency grows (Figs 6–7 against Fig 5)",
        rows: &["fig5", "fig6", "fig7"],
        check: |f| {
            let (lan, man, wan) = (crossover(f[0])?, crossover(f[1])?, crossover(f[2])?);
            holds_if(
                man > lan && wan > lan,
                format!("crossover at pr ≈ {lan:.2} (ss-LAN), {man:.2} (MAN), {wan:.2} (l-WAN)"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig8-flat",
        statement: "abort percentage fairly constant in latency above the ss-LAN, and close \
                    between the protocols (Fig 8)",
        rows: &["fig8"],
        check: |f| {
            let (lo, hi) = y_span(f[0], G2PL, 1.0)?;
            let g = gap_at(f[0], G2PL, S2PL, 250.0)?;
            holds_if(
                hi - lo < 10.0 && (g.a - g.b).abs() < 15.0,
                format!(
                    "g-2PL spread {:.1} points past the ss-LAN (needs < 10); {:.1}% vs s-2PL's \
                     {:.1}% at latency 250 (needs within 15)",
                    hi - lo,
                    g.a,
                    g.b
                ),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "aborts-fall-with-pr",
        statement: "aborts decrease as the read probability rises (Fig 9 against Fig 8)",
        rows: &["fig8", "fig9"],
        check: |f| {
            let (at_06, at_08) = (y_at(f[0], S2PL, 250.0)?, y_at(f[1], S2PL, 250.0)?);
            holds_if(
                at_08 < at_06,
                format!("s-2PL at latency 250: {at_08:.1}% at pr 0.8, {at_06:.1}% at pr 0.6"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig8-order",
        statement: "g-2PL aborts slightly fewer transactions than s-2PL at pr = 0.6 (Fig 8)",
        rows: &["fig8"],
        check: |f| wins(f[0], G2PL, S2PL, 0.0),
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig9-level",
        statement: "about 20–22.5% aborted at pr = 0.8, with a g-2PL spike at the ss-LAN \
                    only (Fig 9)",
        rows: &["fig9"],
        check: |f| {
            let (_, hi) = y_span(f[0], G2PL, 1.0)?;
            holds_if(
                hi <= 22.5,
                format!("g-2PL up to {hi:.1}% past the ss-LAN (needs ≤ 22.5%)"),
            )
        },
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig10-level",
        statement: "read-only aborts at most 5%, decreasing in latency (Fig 10)",
        rows: &["fig10"],
        check: |f| {
            let (_, hi) = y_span(f[0], G2PL, 0.0)?;
            holds_if(hi <= 5.0, format!("g-2PL up to {hi:.1}% (needs ≤ 5%)"))
        },
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig10-s2pl",
        statement: "read-only deadlocks are specific to g-2PL: s-2PL never aborts in a \
                    read-only system (Fig 10)",
        rows: &["fig10"],
        check: |f| {
            let (_, hi) = y_span(f[0], S2PL, 0.0)?;
            holds_if(hi <= 0.0, format!("s-2PL up to {hi:.1}% (needs 0%)"))
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig11-trend",
        statement: "aborts fall as the forward-list length cap grows (Fig 11)",
        rows: &["fig11"],
        check: |f| {
            let [(x0, y0, _), .., (xn, yn, _)] = series_of(f[0], G2PL)?.points[..] else {
                return Err(format!("{}: fewer than two caps", f[0].id));
            };
            holds_if(
                yn < y0,
                format!("{y0:.1}% at cap {x0} → {yn:.1}% at cap {xn}"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig11-floor",
        statement: "aborts below 1% once forward lists are longer than 5 (Fig 11)",
        rows: &["fig11"],
        check: |f| {
            let (_, hi) = y_span(f[0], G2PL, 5.0)?;
            holds_if(
                hi < 1.0,
                format!("up to {hi:.1}% at caps above 5 (needs < 1%)"),
            )
        },
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig12-winner",
        statement: "g-2PL wins across client counts at pr = 0.25 in the s-WAN (Fig 12)",
        rows: &["fig12"],
        check: |f| wins(f[0], G2PL, S2PL, 0.0),
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "fig13-crossover",
        statement: "abort rates close, s-2PL's overtaking g-2PL's at high load (Fig 13)",
        rows: &["fig13"],
        check: s2pl_aborts_more_at_150,
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    // At smoke scale g-2PL still wins at 100 and 150 clients; from
    // default scale on it loses there.
    Claim {
        id: "fig14-winner",
        statement: "g-2PL wins at high load at pr = 0.75 in the s-WAN (Fig 14)",
        rows: &["fig14"],
        check: |f| wins(f[0], G2PL, S2PL, 100.0),
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Default,
    },
    Claim {
        id: "fig15-crossover",
        statement: "abort rates cross at high load at pr = 0.75 (Fig 15)",
        rows: &["fig15"],
        check: s2pl_aborts_more_at_150,
        expect: Expect::Diverges("note 3"),
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "messaged-aborts",
        statement: "this reproduction's finding: charging the messages of abort recovery \
                    costs g-2PL dearly",
        rows: &["ext-abort-effect"],
        check: |f| {
            let g = gap_at(f[0], "g-2PL (instant)", "g-2PL (messaged)", 500.0)?;
            let ratio = g.b / g.a;
            holds_if(
                g.b > g.a * 1.2,
                format!("messaged {ratio:.2}× instant at latency 500 (needs > 1.2×)"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    Claim {
        id: "c2pl-read-only",
        statement: "caching (c-2PL) beats both s-2PL and g-2PL on read-only hot data",
        rows: &["ext-protocols"],
        check: |f| {
            let c = y_at(f[0], "c-2PL", 1.0)?;
            let (s, g) = (y_at(f[0], S2PL, 1.0)?, y_at(f[0], G2PL, 1.0)?);
            holds_if(
                c < s && c < g,
                format!("at pr 1.0: c-2PL {c:.0}, s-2PL {s:.0}, g-2PL {g:.0}"),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Smoke,
    },
    // At smoke scale s-2PL's response moves 16.7% between the two costs.
    Claim {
        id: "server-cpu-hidden",
        statement: "server computation overlaps communication: a small per-message CPU cost \
                    barely moves response at WAN latency (§3.3)",
        rows: &["ext-server-cpu"],
        check: |f| {
            let mut hidden = true;
            let mut moves = Vec::new();
            for &label in BOTH_LABELS {
                let (free, costly) = (y_at(f[0], label, 0.0)?, y_at(f[0], label, 2.0)?);
                hidden &= (costly - free).abs() / free < 0.1;
                moves.push(format!("{label} {:+.1}%", 100.0 * (costly - free) / free));
            }
            holds_if(
                hidden,
                format!("cost 0 → 2 moves {} (needs within 10%)", moves.join(", ")),
            )
        },
        expect: Expect::Holds,
        from_scale: Scale::Default,
    },
];

/// The check of Figs 13 and 15: s-2PL aborts more than g-2PL at 150
/// clients.
fn s2pl_aborts_more_at_150(f: &[&FigureData]) -> Result<String, String> {
    let g = gap_at(f[0], S2PL, G2PL, 150.0)?;
    holds_if(
        g.a > g.b,
        format!("s-2PL {:.1}% vs g-2PL {:.1}% at 150 clients", g.a, g.b),
    )
}

/// The verdicts of a set of claims at one scale.
#[derive(Clone, Debug)]
pub struct Scorecard {
    /// The markdown verdict table, one row per claim.
    pub table: String,
    /// The ids of the gated claims whose verdict disagrees with their
    /// [`Expect`].
    pub mismatches: Vec<&'static str>,
}

/// The registry rows `claims` read, each built once at `scale`, in order
/// of first use.
pub fn claim_rows<'a>(
    claims: impl IntoIterator<Item = &'a Claim>,
    scale: Scale,
) -> Vec<FigureData> {
    let mut ids: Vec<&str> = Vec::new();
    for claim in claims {
        for &row in claim.rows {
            if !ids.contains(&row) {
                ids.push(row);
            }
        }
    }
    ids.iter()
        // lint:allow(L3): claims name registered rows, checked by a unit test
        .map(|id| figure(id).expect("registered row").build(scale))
        .collect()
}

/// Check `claims` against `figs`, the built rows they read, at `scale`.
/// A claim whose `from_scale` is above `scale` is reported but not gated.
pub fn check_claims<'a>(
    claims: impl IntoIterator<Item = &'a Claim>,
    figs: &[FigureData],
    scale: Scale,
) -> Scorecard {
    let scale_name = format!("{scale:?}").to_lowercase();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "### Scorecard — the paper's claims at {scale_name} scale"
    );
    let _ = writeln!(table, "| claim | statement | expected | verdict | detail |");
    let _ = writeln!(table, "|---|---|---|---|---|");
    let (mut agreed, mut ungated) = (0, 0);
    let mut mismatches = Vec::new();
    for claim in claims {
        let data: Vec<&FigureData> = claim
            .rows
            .iter()
            .map(|row| {
                figs.iter().find(|f| f.id == *row).unwrap_or_else(|| {
                    // lint:allow(L3): callers build every row the claims read (claim_rows)
                    panic!("claim {} reads {row}, which was not built", claim.id)
                })
            })
            .collect();
        let verdict = (claim.check)(&data);
        let (holds, detail) = match &verdict {
            Ok(d) => (true, d),
            Err(d) => (false, d),
        };
        let expected = match claim.expect {
            Expect::Holds => "holds".to_string(),
            Expect::Diverges(note) => format!("diverges ({note})"),
        };
        let outcome = if holds { "holds" } else { "diverges" };
        let mark = if claim.from_scale > scale {
            ungated += 1;
            let from = format!("{:?}", claim.from_scale).to_lowercase();
            format!("{outcome} (not gated below {from} scale)")
        } else if holds == (claim.expect == Expect::Holds) {
            agreed += 1;
            format!("✅ {outcome}")
        } else {
            mismatches.push(claim.id);
            format!("❌ {outcome} (MISMATCH)")
        };
        let _ = writeln!(
            table,
            "| {} | {} | {expected} | {mark} | {detail} |",
            claim.id, claim.statement
        );
    }
    let gated = agreed + mismatches.len();
    let _ = write!(
        table,
        "\n{agreed}/{gated} gated claims agree with their expectation"
    );
    if ungated > 0 {
        let _ = write!(table, "; {ungated} not gated at {scale_name} scale");
    }
    if !mismatches.is_empty() {
        let _ = write!(table, "; mismatched: {}", mismatches.join(", "));
    }
    let _ = writeln!(table);
    Scorecard { table, mismatches }
}

/// Series `a` against series `b` of one figure at one x.
#[derive(Clone, Copy, Debug)]
struct Gap {
    x: f64,
    a: f64,
    b: f64,
}

impl Gap {
    /// How much lower `a` is than `b`, in percent of `b`.
    fn improvement(self) -> f64 {
        100.0 * (self.b - self.a) / self.b
    }
}

fn series_of<'f>(fig: &'f FigureData, label: &str) -> Result<&'f Series, String> {
    fig.series(label)
        .ok_or_else(|| format!("{}: no series {label:?}", fig.id))
}

fn y_at(fig: &FigureData, label: &str, x: f64) -> Result<f64, String> {
    series_of(fig, label)?
        .y_at(x)
        .ok_or_else(|| format!("{}: {label} has no point at x = {x}", fig.id))
}

/// `a` against `b` at every x of `a`, in plot order. A series or an x
/// the figure lacks is an error naming it.
fn gaps(fig: &FigureData, a: &str, b: &str) -> Result<Vec<Gap>, String> {
    series_of(fig, a)?
        .points
        .iter()
        .map(|&(x, ya, _)| {
            Ok(Gap {
                x,
                a: ya,
                b: y_at(fig, b, x)?,
            })
        })
        .collect()
}

fn gap_at(fig: &FigureData, a: &str, b: &str, x: f64) -> Result<Gap, String> {
    Ok(Gap {
        x,
        a: y_at(fig, a, x)?,
        b: y_at(fig, b, x)?,
    })
}

/// Series `a` below series `b` at every x from `from_x` on.
fn wins(fig: &FigureData, a: &str, b: &str, from_x: f64) -> Result<String, String> {
    let gaps: Vec<Gap> = gaps(fig, a, b)?
        .into_iter()
        .filter(|g| g.x >= from_x)
        .collect();
    let (lo, hi) = span(gaps.iter().map(|g| g.improvement()));
    let scope = if from_x > 0.0 {
        format!("x ≥ {from_x}")
    } else {
        "every x".into()
    };
    let losses: Vec<String> = gaps
        .iter()
        .filter(|g| g.a >= g.b)
        .map(|g| g.x.to_string())
        .collect();
    if losses.is_empty() {
        Ok(format!("{a} {lo:.1}–{hi:.1}% below {b} at {scope}"))
    } else {
        Err(format!(
            "{a} not below {b} at x = {}; improvement {lo:.1}% to {hi:.1}% at {scope}",
            losses.join(", ")
        ))
    }
}

/// The x at which s-2PL first becomes faster than g-2PL, interpolated to
/// the midpoint of the two sweep points around it.
fn crossover(fig: &FigureData) -> Result<f64, String> {
    let mut g_won_at = None;
    for g in gaps(fig, G2PL, S2PL)? {
        let g_wins = g.a <= g.b;
        if let (Some(px), false) = (g_won_at, g_wins) {
            return Ok((px + g.x) / 2.0);
        }
        g_won_at = g_wins.then_some(g.x);
    }
    Err(format!("{}: s-2PL never overtakes g-2PL", fig.id))
}

/// The smallest and largest y of series `label` past `x0`.
fn y_span(fig: &FigureData, label: &str, x0: f64) -> Result<(f64, f64), String> {
    let points = &series_of(fig, label)?.points;
    Ok(span(points.iter().filter(|p| p.0 > x0).map(|p| p.1)))
}

/// The smallest and largest of `values`.
fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
}

fn holds_if(holds: bool, detail: String) -> Result<String, String> {
    if holds {
        Ok(detail)
    } else {
        Err(detail)
    }
}

// ---- tables ----

/// Table 1: the simulation parameters, as configured in this
/// reproduction.
pub fn table1() -> String {
    let cfg = EngineConfig::table1(ProtocolKind::S2pl, 50, 500, 0.6);
    let mut out = String::new();
    let _ = writeln!(out, "### Table 1 — Simulation parameters");
    let _ = writeln!(out, "| Parameter | Value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| Number of servers | 1 |");
    let _ = writeln!(out, "| Number of clients | varying (50 in Figs 2–11) |");
    let _ = writeln!(out, "| Number of hot data items | {} |", cfg.num_items());
    let _ = writeln!(out, "| Transaction execution pattern | Sequential |");
    let _ = writeln!(
        out,
        "| Items accessed per transaction | {}–{} (uniform) |",
        cfg.profile.min_items, cfg.profile.max_items
    );
    let _ = writeln!(out, "| Percentage of read accesses | 0.00–1.00 |");
    let _ = writeln!(out, "| Network latency | 1–750 time units (Table 2) |");
    let _ = writeln!(
        out,
        "| Computation time per operation | {}–{} time units |",
        cfg.profile.think_min, cfg.profile.think_max
    );
    let _ = writeln!(
        out,
        "| Idle time between transactions | {}–{} time units |",
        cfg.profile.idle_min, cfg.profile.idle_max
    );
    let _ = writeln!(out, "| Multiprogramming level at clients | 1 |");
    out
}

/// Table 2: the simulated networking environments.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### Table 2 — Networking environments simulated");
    let _ = writeln!(out, "| Network type | Abbrev. | Latency |");
    let _ = writeln!(out, "|---|---|---|");
    for env in NetworkEnv::ALL {
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            env.name(),
            env.abbrev(),
            env.latency()
        );
    }
    out
}

// ---- figure 1: the worked example ----

/// Fig 1: deterministic trace of three single-item exclusive
/// transactions under both protocols, plus the timelines and the relative
/// improvement.
///
/// Setup: 3 clients, 1 item, every access exclusive, think time pinned to
/// 1 unit, idle pinned so that all three first requests are issued
/// simultaneously, latency 2 units — the paper's example configuration.
pub fn fig1() -> String {
    fn trace_of(protocol: ProtocolKind) -> (std::sync::Arc<[TraceEvent]>, Vec<u64>, u64) {
        let mut cfg = EngineConfig::table1(protocol, 3, 2, 0.0);
        cfg.items = g2pl_protocols::ItemSpace::single(1);
        cfg.profile.min_items = 1;
        cfg.profile.max_items = 1;
        cfg.profile.think_min = 1;
        cfg.profile.think_max = 1;
        // Pin the start-up idle so all three requests leave at t = 2.
        cfg.profile.idle_min = 2;
        cfg.profile.idle_max = 2;
        cfg.warmup_txns = 0;
        cfg.measured_txns = 3;
        cfg.trace_events = true;
        // lint:allow(L3): the config is assembled immediately above and statically valid
        let m = run(&cfg).expect("valid config");
        // lint:allow(L3): trace_events is set two lines up, so the trace is present
        let trace = m.trace.expect("trace enabled");
        let mut commits: Vec<u64> = trace
            .iter()
            .filter(|e| e.kind == TraceKind::Committed)
            .map(|e| e.at.units())
            .take(3)
            .collect();
        commits.sort_unstable();
        let last = commits.last().copied().unwrap_or(0);
        (trace, commits, last)
    }

    let (gt, gc, glast) = trace_of(ProtocolKind::g2pl_paper());
    let (st, sc, slast) = trace_of(ProtocolKind::S2pl);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Fig 1 — Example execution: 3 clients, exclusive access, latency 2, processing 1"
    );
    let _ = writeln!(
        out,
        "\n**g-2PL timeline** (all requests leave at t=2):\n```"
    );
    for e in gt.iter().take(40) {
        let _ = writeln!(out, "{e}");
    }
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "\n**s-2PL timeline:**\n```");
    for e in st.iter().take(40) {
        let _ = writeln!(out, "{e}");
    }
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "\ncommit instants: g-2PL {gc:?}, s-2PL {sc:?}");
    let g_span = glast - 2;
    let s_span = slast - 2;
    let improvement = 100.0 * (s_span as f64 - g_span as f64) / s_span as f64;
    let _ = writeln!(
        out,
        "total execution (first request → last commit): g-2PL {g_span} vs s-2PL {s_span} \
         units → {improvement:.1}% reduction"
    );
    let _ = writeln!(
        out,
        "(the paper's idealised example, with all three requests landing in one pre-existing \
         collection window, gives 12 vs 15 units = 20%; our simulated start-up serves the \
         first request from an empty window, so the first hop costs one extra round trip)"
    );
    out
}

/// One `fig_scale` grid cell: Table-1-flavored workload at pr = 0.6,
/// link latency 10 (the PDES lookahead), and — beyond one shard — 20%
/// multi-home transactions over mildly skewed (θ = 0.5) shard
/// popularity.
pub fn scale_cell(clients: u32, shards: u32) -> ScaleCfg {
    let mut cfg = ScaleCfg::cell(clients, shards, 10, 0.6);
    if shards > 1 {
        cfg.profile.shard_mix = Some(ShardMix {
            cross_frac: 0.2,
            shard_theta: 0.5,
        });
    }
    cfg
}

// ---- the headline claim ----

/// The headline claim: "20–25% improvement in the response time of the
/// g-2PL protocol over that of the s-2PL protocol" in the presence of
/// updates. Computed over the WAN latencies of the fig-3 configuration
/// (pr = 0.6).
pub fn headline(scale: Scale) -> String {
    // lint:allow(L3): fig3 is a registry constant, present by construction
    let fig = figure("fig3").expect("registered").build(scale);
    // lint:allow(L3): both series of fig3 are built over the same x sweep
    let gaps = gaps(&fig, G2PL, S2PL).expect("same sweep");
    let mut out = String::new();
    let _ = writeln!(out, "### Headline — response-time improvement, pr=0.6");
    let _ = writeln!(out, "| latency | s-2PL | g-2PL | improvement |");
    let _ = writeln!(out, "|---|---|---|---|");
    for g in &gaps {
        let (x, sy, gy, imp) = (g.x, g.b, g.a, g.improvement());
        let _ = writeln!(out, "| {x} | {sy:.0} | {gy:.0} | {imp:.1}% |");
    }
    let (min, max) = span(gaps.iter().map(|g| g.improvement()));
    let _ = writeln!(
        out,
        "\nobserved improvement range: {min:.1}%–{max:.1}% (paper: 19.50%–26.92%)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_params_grow() {
        let (w1, m1, r1) = Scale::Smoke.params();
        let (w2, m2, r2) = Scale::Full.params();
        assert!(w1 < w2 && m1 < m2 && r1 < r2);
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("| Number of hot data items | 25 |"));
        let t2 = table2();
        assert!(t2.contains("ss-LAN"));
        assert!(t2.contains("| Large Wide Area Network | l-WAN | 750 |"));
    }

    #[test]
    fn fig1_reports_improvement() {
        let s = fig1();
        assert!(s.contains("g-2PL timeline"));
        assert!(s.contains("% reduction"), "{s}");
    }

    #[test]
    fn registry_ids_are_unique_and_listed() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate figure id in the registry");
        let listing = list_figures();
        for f in FIGURES {
            assert!(listing.contains(f.id), "{} missing from list", f.id);
            assert!(
                listing.contains(f.blurb),
                "{} blurb missing from list",
                f.id
            );
        }
    }

    #[test]
    fn registry_covers_the_paper_figures() {
        for n in 2..=15 {
            let id = format!("fig{n}");
            assert!(figure(&id).is_some(), "{id} not registered");
        }
        assert!(figure("fig_faults").is_some());
        assert!(figure("fig_faults_aborts").is_some());
        assert!(figure("fig_server_faults").is_some());
        assert!(figure("fig_shard_faults").is_some());
        assert!(figure("fig_tail").is_some());
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn registry_ends_with_the_ten_extension_studies() {
        // `repro ext` runs the ext-* rows in registry order.
        let ext: Vec<&str> = FIGURES
            .iter()
            .map(|f| f.id)
            .filter(|id| id.starts_with("ext-"))
            .collect();
        assert_eq!(
            ext,
            [
                "ext-protocols",
                "ext-skew",
                "ext-bandwidth",
                "ext-abort-effect",
                "ext-window-hold",
                "ext-ordering",
                "ext-victims",
                "ext-read-expansion",
                "ext-log-retention",
                "ext-server-cpu",
            ]
        );
        assert_eq!(FIGURES.len(), 30);
        assert!(FIGURES[20..].iter().all(|f| f.id.starts_with("ext-")));
    }

    #[test]
    fn grid_rows_label_every_series_and_engine_labels_match() {
        for f in FIGURES {
            match f.cells {
                Cells::Grid(_) => assert!(
                    !f.series.is_empty() && !f.xs.is_empty(),
                    "{} sweeps nothing",
                    f.id
                ),
                Cells::ScaleOut => assert!(f.series.is_empty() && f.xs.is_empty()),
            }
        }
        let labels: Vec<&str> = (0..3).map(|s| engine(s).label()).collect();
        assert_eq!(labels, TRIO_LABELS);
        assert_eq!(TRIO_LABELS[..2], *BOTH_LABELS);
    }

    fn two_series(ga: &[(f64, f64)], sa: &[(f64, f64)]) -> FigureData {
        let series = |label: &str, pts: &[(f64, f64)]| Series {
            label: label.into(),
            points: pts.iter().map(|&(x, y)| (x, y, 0.0)).collect(),
        };
        FigureData {
            series: vec![series(G2PL, ga), series(S2PL, sa)],
            ..figure("fig2").expect("registered").empty_figure("y")
        }
    }

    #[test]
    fn mean_improvement_math() {
        let fig = two_series(&[(1.0, 80.0), (2.0, 60.0)], &[(1.0, 100.0), (2.0, 100.0)]);
        let imps: Vec<f64> = gaps(&fig, G2PL, S2PL)
            .expect("same sweep")
            .iter()
            .map(|g| g.improvement())
            .collect();
        assert_eq!(imps, [20.0, 40.0]);
        let headline = CLAIMS.iter().find(|c| c.id == "headline").expect("claim");
        let detail = (headline.check)(&[&fig]).expect("a 30% mean is in the band");
        assert!(detail.starts_with("mean improvement 30.0%"), "{detail}");
    }

    #[test]
    fn crossover_detection() {
        let fig = two_series(
            &[(0.0, 50.0), (0.5, 40.0), (1.0, 30.0)],
            &[(0.0, 60.0), (0.5, 45.0), (1.0, 10.0)],
        );
        let x = crossover(&fig).expect("crossover");
        assert!((x - 0.75).abs() < 1e-9);
    }

    #[test]
    fn no_crossover_when_dominant() {
        let fig = two_series(&[(0.0, 1.0), (1.0, 1.0)], &[(0.0, 2.0), (1.0, 2.0)]);
        let err = crossover(&fig).expect_err("g-2PL wins everywhere");
        assert!(err.contains("never overtakes"), "{err}");
    }

    #[test]
    fn a_missing_point_is_named_not_read_as_no_crossover() {
        let fig = two_series(
            &[(0.0, 50.0), (0.5, 40.0), (1.0, 30.0)],
            &[(0.0, 60.0), (1.0, 10.0)],
        );
        let err = crossover(&fig).expect_err("s-2PL lacks x = 0.5");
        assert!(err.contains("s-2PL has no point at x = 0.5"), "{err}");
    }

    #[test]
    fn a_failing_holds_claim_is_a_mismatch() {
        // g-2PL above s-2PL at one latency: fig2-winner fails, and it is
        // expected to hold.
        let claim = CLAIMS
            .iter()
            .find(|c| c.id == "fig2-winner")
            .expect("claim");
        assert_eq!(claim.expect, Expect::Holds);
        let fig = two_series(
            &[(1.0, 90.0), (50.0, 120.0)],
            &[(1.0, 100.0), (50.0, 110.0)],
        );
        let card = check_claims([claim], std::slice::from_ref(&fig), Scale::Smoke);
        assert_eq!(card.mismatches, ["fig2-winner"]);
        assert!(
            card.table.contains("❌ diverges (MISMATCH)"),
            "{}",
            card.table
        );
        assert!(
            card.table.contains("not below s-2PL at x = 50"),
            "{}",
            card.table
        );
        // Below its from_scale the same verdict is reported, not gated.
        let ungated = Claim {
            from_scale: Scale::Default,
            ..*claim
        };
        let card = check_claims([&ungated], &[fig], Scale::Smoke);
        assert!(card.mismatches.is_empty());
        assert!(
            card.table.contains("not gated below default scale"),
            "{}",
            card.table
        );
    }

    #[test]
    fn claims_are_well_formed() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate claim id");
        for claim in CLAIMS {
            assert!(!claim.rows.is_empty(), "{} reads no row", claim.id);
            for row in claim.rows {
                let spec =
                    figure(row).unwrap_or_else(|| panic!("{}: {row} unregistered", claim.id));
                assert!(
                    matches!(spec.cells, Cells::Grid(_)),
                    "{}: {row} is not a grid row",
                    claim.id
                );
            }
        }
    }

    #[test]
    fn loss_sweep_starts_fault_free() {
        // The x = 0 point of fig_faults must take the pristine code path,
        // anchoring the curve to the reliable-network figures.
        assert_eq!(LOSS_SWEEP[0], 0.0);
        let plan = FaultPlan::message_loss(LOSS_SWEEP[0]);
        assert!(!plan.is_active(), "zero-loss plan must be inert");
    }

    #[test]
    fn outage_sweep_starts_fault_free() {
        // The x = 0 point of fig_server_faults must take the pristine
        // code path: no server log, no leases, no crash schedule.
        assert_eq!(OUTAGE_SWEEP[0], 0);
        let plan = FaultPlan::server_outage(OUTAGE_SWEEP[0]);
        assert!(!plan.is_active(), "zero-outage plan must be inert");
        let active = FaultPlan::server_outage(OUTAGE_SWEEP[1]);
        assert!(active.has_server_crashes());
        assert!(active.validate().is_ok());
    }

    #[test]
    fn shard_fault_sweep_targets_the_highest_shard() {
        // The x = 0 point of every fig_shard_faults series must take the
        // pristine code path, and every crash must land on the last
        // fault domain of its series.
        for &shards in &SHARD_FAULT_SHARDS {
            assert_eq!(24 % shards, 0, "the 24-item hot set must partition evenly");
            let inert = FaultPlan::shard_outage(shards - 1, OUTAGE_SWEEP[0]);
            assert!(!inert.is_active(), "zero-outage plan must be inert");
            let active = FaultPlan::shard_outage(shards - 1, OUTAGE_SWEEP[1]);
            assert!(active.has_server_crashes());
            assert!(active.validate().is_ok());
            assert!(active.server_crashes.iter().all(|w| w.shard == shards - 1));
        }
    }
}
