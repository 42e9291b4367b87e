//! Metamorphic relations of the model: changes to the network that must
//! leave a run's decisions exactly as they were.
//!
//! P1–P10 and the serializability check judge the protocols, not the
//! numbers. A message priced wrong, or a timer on the wrong clock, passes
//! both and still moves every figure. The two relations below hold bit
//! for bit on fault-free runs, so they pin the numbers themselves:
//!
//! 1. **Latency invariance.** Past a small latency, a run's events,
//!    commits, aborts and messages stop depending on the latency, and its
//!    mean response becomes affine in it.
//! 2. **Bandwidth limit.** A bandwidth so high that every message's
//!    transmission term rounds up to one unit is a constant latency one
//!    unit longer.
//!
//! Every cell runs 50 clients, 200 warm-up and 1,000 measured
//! transactions at seeds 1 to 3, on every engine, with no fault plan:
//! lease and retry periods are priced from the nominal latency, so a
//! fault plan would break relation 2 by construction.

use g2pl_core::prelude::*;

const SEEDS: [u64; 3] = [1, 2, 3];

fn cell(protocol: &ProtocolKind, pr: f64, latency: LatencyCfg, seed: u64) -> RunMetrics {
    let mut cfg = EngineConfig::table1(protocol.clone(), 50, latency.nominal(), pr);
    cfg.latency = latency;
    cfg.warmup_txns = 200;
    cfg.measured_txns = 1_000;
    cfg.seed = seed;
    run(&cfg).expect("valid config")
}

/// The counts a relation must leave unchanged.
fn counts(m: &RunMetrics) -> [u64; 4] {
    [
        m.events,
        m.committed_total,
        m.aborted_total,
        m.net.messages(),
    ]
}

/// Relation 1. Every delay in a fault-free run is either one hop of
/// exactly the latency `L` or a think or idle draw, and each client draws
/// from its own stream in its own order. So an event's time is `a·L + b`,
/// where `a` counts the hops on its causal chain and `b` sums its draws.
/// Once one hop outlasts the think (1–3) and idle (2–10) times, those
/// draws stop reordering events against hops: the calendar pops the same
/// events in the same `(time, seq)` order at every such `L`, the run makes
/// the same decisions, and only the times scale. Each measured
/// response is then `hops·L + draws` for the same transaction at every
/// `L`, so the mean response is affine in `L`: its slope (mean hops per
/// measured commit) is the same between any two latencies. Where the
/// order settles is found, not derived: from latency 10 to 20 on these
/// cells, so 20 is the smallest latency checked.
///
/// Read-only s-2PL and c-2PL are left out: with no conflict to fix the
/// order of their requests, their event counts still move within this
/// range of latencies (c-2PL's up to 500).
#[test]
fn counts_are_latency_invariant_and_response_is_affine() {
    const LATENCIES: [u64; 4] = [20, 50, 100, 500];
    let cells = [
        (ProtocolKind::S2pl, 0.0),
        (ProtocolKind::S2pl, 0.6),
        (ProtocolKind::C2pl, 0.0),
        (ProtocolKind::C2pl, 0.6),
        (ProtocolKind::g2pl_paper(), 0.0),
        (ProtocolKind::g2pl_paper(), 0.6),
        (ProtocolKind::g2pl_paper(), 1.0),
    ];
    for (protocol, pr) in &cells {
        for seed in SEEDS {
            let runs: Vec<RunMetrics> = LATENCIES
                .iter()
                .map(|&l| cell(protocol, *pr, LatencyCfg::Constant(l), seed))
                .collect();
            let tag = format!("{} pr {pr} seed {seed}", runs[0].protocol);
            for (l, m) in LATENCIES.iter().zip(&runs) {
                assert_eq!(
                    counts(m),
                    counts(&runs[0]),
                    "{tag}: [events, commits, aborts, messages] at latency {l} \
                     differ from latency {}",
                    LATENCIES[0]
                );
            }
            let slopes: Vec<f64> = LATENCIES
                .windows(2)
                .zip(runs.windows(2))
                .map(|(l, m)| (m[1].response.mean() - m[0].response.mean()) / (l[1] - l[0]) as f64)
                .collect();
            for (i, s) in slopes.iter().enumerate() {
                assert!(
                    (s - slopes[0]).abs() <= 1e-9 * slopes[0].abs(),
                    "{tag}: mean response is not affine in latency: slope {s} between \
                     latencies {} and {} against {} between {} and {}",
                    LATENCIES[i],
                    LATENCIES[i + 1],
                    slopes[0],
                    LATENCIES[0],
                    LATENCIES[1]
                );
            }
        }
    }
}

/// Relation 2. The bandwidth model delays a message by its latency plus
/// `ceil(bytes / bytes_per_unit)`. Every message carries a control
/// header and no message comes near 2^40 bytes, so at `bytes_per_unit`
/// = 2^40 the transmission term is exactly 1 for every message: each
/// delivery lands when it would under `Constant(51)`, and the two runs
/// are the same run. Nothing else in a fault-free run reads the latency
/// model.
#[test]
fn unbounded_bandwidth_is_one_more_unit_of_latency() {
    let bandwidth = LatencyCfg::Bandwidth {
        latency: 50,
        bytes_per_unit: 1 << 40,
    };
    for protocol in [
        ProtocolKind::S2pl,
        ProtocolKind::C2pl,
        ProtocolKind::g2pl_paper(),
    ] {
        for pr in [0.0, 0.6, 1.0] {
            for seed in SEEDS {
                let a = cell(&protocol, pr, bandwidth, seed);
                let b = cell(&protocol, pr, LatencyCfg::Constant(51), seed);
                let tag = format!("{} pr {pr} seed {seed}", a.protocol);
                assert_eq!(counts(&a), counts(&b), "{tag}: counts differ");
                assert_eq!(a.net.bytes(), b.net.bytes(), "{tag}: bytes differ");
                assert_eq!(
                    a.response.mean().to_bits(),
                    b.response.mean().to_bits(),
                    "{tag}: mean response differs"
                );
            }
        }
    }
}
