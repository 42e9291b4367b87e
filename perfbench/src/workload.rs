//! The workloads as config grids, built from the benchmark seed.
//!
//! Every grid mirrors a row of the figure registry
//! (`g2pl_core::experiments`) at smoke scale, except that all three
//! engines run every engine sweep and each point gets its own seed
//! derived from the benchmark seed. The program under test sees only
//! these configs.

use g2pl_core::experiments::{
    scale_cell, Scale, CLIENT_SWEEP, LATENCY_SWEEP, LOSS_SWEEP, OUTAGE_SWEEP, SHARD_FAULT_SHARDS,
};
use g2pl_protocols::{EngineConfig, FaultPlan, ItemSpace, ProtocolKind, ScaleCfg, ShardMix};

/// One figure sweep: its points, each run `reps` times by `run_grid`.
#[derive(Clone, Debug)]
pub struct Sweep {
    pub id: &'static str,
    pub points: Vec<EngineConfig>,
    pub reps: u32,
}

impl Sweep {
    pub fn cells(&self) -> usize {
        self.points.len() * self.reps as usize
    }
}

/// A workload's cells: engine sweeps on the grid runner, or sharded
/// cells on the PDES.
#[derive(Clone, Debug)]
pub enum Plan {
    Engine(Vec<Sweep>),
    Scale(Vec<ScaleCfg>),
}

impl Plan {
    pub fn cells(&self) -> usize {
        match self {
            Plan::Engine(sweeps) => sweeps.iter().map(Sweep::cells).sum(),
            Plan::Scale(cells) => cells.len(),
        }
    }
}

/// The sizes the benchmark runs at; tests shrink them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Registry rows at smoke scale; mid-size sharded scale cells.
    Bench,
    /// Few transactions per cell, for the self-tests.
    Tiny,
}

const ENGINES: [fn() -> ProtocolKind; 3] = [
    ProtocolKind::g2pl_paper,
    || ProtocolKind::S2pl,
    || ProtocolKind::C2pl,
];

/// splitmix64: a cell's seed from the benchmark seed and the cell's
/// position, so a different benchmark seed changes every cell's streams.
fn cell_seed(seed: u64, sweep: &str, index: usize) -> u64 {
    let tag = sweep.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut z = seed ^ tag ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sizes(size: Size) -> (u64, u64, u32) {
    match size {
        Size::Bench => Scale::Smoke.params(),
        Size::Tiny => (20, 100, 2),
    }
}

fn cell(protocol: ProtocolKind, clients: u32, latency: u64, pr: f64, size: Size) -> EngineConfig {
    let (warmup, measured, _) = sizes(size);
    let mut cfg = EngineConfig::table1(protocol, clients, latency, pr);
    cfg.warmup_txns = warmup;
    cfg.measured_txns = measured;
    cfg
}

/// A three-engine sweep over `xs`, seeded per point.
fn sweep(
    id: &'static str,
    seed: u64,
    size: Size,
    xs: &[u64],
    mut cfg_of: impl FnMut(ProtocolKind, u64) -> EngineConfig,
) -> Sweep {
    let mut points = Vec::with_capacity(ENGINES.len() * xs.len());
    for engine in ENGINES {
        for &x in xs {
            let mut cfg = cfg_of(engine(), x);
            cfg.seed = cell_seed(seed, id, points.len());
            points.push(cfg);
        }
    }
    Sweep {
        id,
        points,
        reps: sizes(size).2,
    }
}

/// Loss probabilities in basis points, so sweeps share one integer axis.
fn loss_bp() -> Vec<u64> {
    LOSS_SWEEP
        .iter()
        .map(|p| (p * 10_000.0).round() as u64)
        .collect()
}

fn shard_faults(seed: u64, size: Size) -> Sweep {
    let mut points = Vec::new();
    for &shards in &SHARD_FAULT_SHARDS {
        for &down_for in &OUTAGE_SWEEP {
            let mut cfg = cell(ProtocolKind::S2pl, 50, 50, 0.6, size);
            cfg.items = ItemSpace::sharded(shards, 24 / shards);
            if shards > 1 {
                cfg.profile.shard_mix = Some(ShardMix {
                    cross_frac: 0.3,
                    shard_theta: 0.5,
                });
            }
            cfg.drain = true;
            if down_for > 0 {
                cfg.faults = Some(FaultPlan::shard_outage(shards - 1, down_for));
            }
            cfg.seed = cell_seed(seed, "fig_shard_faults", points.len());
            points.push(cfg);
        }
    }
    Sweep {
        id: "fig_shard_faults",
        points,
        reps: sizes(size).2,
    }
}

/// Build workload `name`'s cells from `seed`, or `None` for an unknown
/// name.
pub fn plan(name: &str, seed: u64, size: Size) -> Option<Plan> {
    let read_only_latencies = [1, 2, 4, 6, 8, 10];
    Some(match name {
        "paper_writes" => Plan::Engine(vec![
            sweep("fig2", seed, size, &LATENCY_SWEEP, |p, l| {
                cell(p, 50, l, 0.0, size)
            }),
            sweep("fig12", seed, size, &CLIENT_SWEEP.map(u64::from), |p, c| {
                cell(p, c as u32, 500, 0.25, size)
            }),
        ]),
        "paper_reads" => Plan::Engine(vec![
            sweep("fig4", seed, size, &LATENCY_SWEEP, |p, l| {
                cell(p, 50, l, 1.0, size)
            }),
            sweep("fig10", seed, size, &read_only_latencies, |p, l| {
                cell(p, 50, l, 1.0, size)
            }),
            sweep("fig14", seed, size, &CLIENT_SWEEP.map(u64::from), |p, c| {
                cell(p, c as u32, 500, 0.75, size)
            }),
        ]),
        "fault_recovery" => Plan::Engine(vec![
            sweep("fig_faults", seed, size, &loss_bp(), |p, bp| {
                let mut cfg = cell(p, 50, 250, 0.6, size);
                cfg.drain = true;
                cfg.faults = Some(FaultPlan::message_loss(bp as f64 / 10_000.0));
                cfg
            }),
            shard_faults(seed, size),
        ]),
        "scale_pdes" => {
            let shape: &[(u32, u32)] = match size {
                Size::Bench => &[(10_000, 4), (40_000, 8)],
                Size::Tiny => &[(256, 2), (512, 4)],
            };
            Plan::Scale(
                shape
                    .iter()
                    .enumerate()
                    .map(|(i, &(clients, shards))| {
                        let mut cfg = scale_cell(clients, shards);
                        cfg.seed = cell_seed(seed, "fig_scale", i);
                        if size == Size::Tiny {
                            cfg.warmup = 50;
                            cfg.measured = 200;
                        }
                        cfg
                    })
                    .collect(),
            )
        }
        _ => return None,
    })
}

/// The read probabilities a workload's transactions are drawn at, for
/// the layer replays.
pub fn read_probs(plan: &Plan) -> Vec<f64> {
    let mut prs: Vec<f64> = match plan {
        Plan::Engine(sweeps) => sweeps
            .iter()
            .flat_map(|s| s.points.iter().map(|c| c.profile.read_prob))
            .collect(),
        Plan::Scale(cells) => cells.iter().map(|c| c.profile.read_prob).collect(),
    };
    prs.sort_by(f64::total_cmp);
    prs.dedup();
    prs
}
