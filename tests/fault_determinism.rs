//! Workspace-level acceptance tests for the fault-injection subsystem.
//!
//! Two properties anchor the whole design:
//!
//! 1. **Determinism** — a run is a pure function of `(config, seed)`,
//!    fault plan included. Same seed and plan must reproduce the exact
//!    event trace, not just the same aggregate numbers.
//! 2. **Inertness** — a present-but-empty `FaultPlan` takes the
//!    fault-free code path everywhere, so every pre-fault artifact
//!    (figures, tables, traces) stays byte-identical.

use g2pl_core::prelude::*;
use g2pl_faults::{CrashWindow, FaultPlan, ServerCrashWindow};

fn trio() -> [ProtocolKind; 3] {
    [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ]
}

fn lossy_cfg(p: ProtocolKind, loss: f64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(p, 8, 50, 0.4);
    cfg.warmup_txns = 20;
    cfg.measured_txns = 250;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.faults = Some(FaultPlan::message_loss(loss));
    cfg
}

#[test]
fn same_seed_and_plan_reproduce_the_exact_trace() {
    for p in trio() {
        let cfg = lossy_cfg(p.clone(), 0.05);
        let a = run(&cfg).expect("valid config");
        let b = run(&cfg).expect("valid config");
        assert!(a.faults.injected.total() > 0, "{p:?}: no faults fired");
        assert_eq!(a.committed_total, b.committed_total, "{p:?}");
        assert_eq!(a.aborted_total, b.aborted_total, "{p:?}");
        assert_eq!(a.events, b.events, "{p:?}");
        assert_eq!(a.net.messages(), b.net.messages(), "{p:?}");
        assert_eq!(a.faults.injected, b.faults.injected, "{p:?}");
        assert_eq!(
            a.trace.as_deref(),
            b.trace.as_deref(),
            "{p:?}: traces diverged under an identical plan"
        );
    }
}

#[test]
fn different_seeds_draw_different_faults() {
    let mut a_cfg = lossy_cfg(ProtocolKind::S2pl, 0.05);
    let mut b_cfg = a_cfg.clone();
    a_cfg.seed = 7;
    b_cfg.seed = 8;
    let a = run(&a_cfg).expect("valid config");
    let b = run(&b_cfg).expect("valid config");
    // The loss lottery is seeded from the master seed; distinct seeds
    // must not share a coin sequence (equal totals would be a one-in-
    // thousands coincidence over ~5% of all messages).
    assert_ne!(
        (a.faults.injected, a.net.messages()),
        (b.faults.injected, b.net.messages())
    );
}

#[test]
fn inert_plan_is_byte_identical_to_no_plan() {
    for p in trio() {
        let mut pristine = EngineConfig::table1(p.clone(), 10, 100, 0.5);
        pristine.warmup_txns = 20;
        pristine.measured_txns = 300;
        pristine.trace_events = true;
        let mut inert = pristine.clone();
        inert.faults = Some(FaultPlan::default());
        let a = run(&pristine).expect("valid config");
        let b = run(&inert).expect("valid config");
        assert_eq!(a.events, b.events, "{p:?}");
        assert_eq!(a.net.messages(), b.net.messages(), "{p:?}");
        assert_eq!(a.response.mean(), b.response.mean(), "{p:?}");
        assert_eq!(a.trace.as_deref(), b.trace.as_deref(), "{p:?}");
        assert!(!b.faults.any(), "{p:?}: inert plan counted faults");
    }
}

#[test]
fn zero_loss_plan_reproduces_fault_free_numbers() {
    // fig_faults' leftmost sweep point carries `message_loss(0.0)`; it
    // must reproduce the fault-free column of the corresponding
    // latency figure exactly, or the loss sweep has no baseline.
    assert_eq!(experiments::LOSS_SWEEP[0], 0.0);
    for p in trio() {
        let mut pristine = EngineConfig::table1(p.clone(), 12, 250, 0.6);
        pristine.warmup_txns = 20;
        pristine.measured_txns = 300;
        pristine.drain = true;
        let mut zero = pristine.clone();
        zero.faults = Some(FaultPlan::message_loss(0.0));
        let a = run(&pristine).expect("valid config");
        let b = run(&zero).expect("valid config");
        assert_eq!(a.response.mean(), b.response.mean(), "{p:?}");
        assert_eq!(a.events, b.events, "{p:?}");
        assert!(!b.faults.any(), "{p:?}");
    }
}

#[test]
fn crash_recovery_is_deterministic_and_commits() {
    for p in trio() {
        let mk = || {
            let mut cfg = EngineConfig::table1(p.clone(), 6, 50, 0.3);
            cfg.warmup_txns = 10;
            cfg.measured_txns = 150;
            cfg.drain = true;
            cfg.trace_events = true;
            cfg.faults = Some(FaultPlan {
                crashes: vec![CrashWindow {
                    client: 2,
                    at: 4_000,
                    down_for: 2_000,
                }],
                ..FaultPlan::default()
            });
            run(&cfg).expect("valid config")
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.faults.crashes, 1, "{p:?}: crash did not fire");
        assert_eq!(a.committed_total, b.committed_total, "{p:?}");
        assert_eq!(a.trace.as_deref(), b.trace.as_deref(), "{p:?}");
        assert!(a.committed_total > 0, "{p:?}: nothing committed");
    }
}

#[test]
fn lossy_runs_pass_every_trace_property() {
    for p in trio() {
        let cfg = lossy_cfg(p.clone(), 0.05);
        let m = run(&cfg).expect("valid config");
        let trace = m.trace.as_deref().expect("trace recorded");
        let opts = TraceCheckOpts::for_config(&cfg);
        check_trace_with(trace, opts).unwrap_or_else(|e| panic!("{p:?} under 5% loss: {e}"));
    }
}

/// What a pinned cell reproduces: run length, wire totals, every
/// fault and recovery counter, and a digest of the event stream.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    messages: u64,
    bytes: u64,
    /// `FaultSummary` in declaration order: the injected drops,
    /// duplicates, delays and partition drops, client crashes, lease
    /// expiries, redispatches, retries, the recovery stall, server
    /// crashes, server messages lost, re-registrations, then the six
    /// `TwoPcCounts`.
    faults: [u64; 18],
    /// FNV-1a 64 of the trace's JSONL event lines, newline-terminated.
    trace_fnv: u64,
}

fn pin_of(m: &RunMetrics) -> Pin {
    let f = &m.faults;
    let i = &f.injected;
    let t = &f.two_pc;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in m.trace.as_deref().expect("trace recorded") {
        for b in g2pl_obs::event_to_json(ev).bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Pin {
        events: m.events,
        messages: m.net.messages(),
        bytes: m.net.bytes(),
        faults: [
            i.dropped,
            i.duplicated,
            i.delayed,
            i.partition_drops,
            f.crashes,
            f.lease_expiries,
            f.redispatches,
            f.retries,
            f.recovery_stall as u64,
            f.server_crashes,
            f.server_msgs_lost,
            f.reregistrations,
            t.verdict_commits,
            t.verdict_aborts,
            t.oracle_resolutions,
            t.prepare_reacks,
            t.prepare_renotices,
            t.silent_victims,
        ],
        trace_fnv: h,
    }
}

/// `shard_fault_recovery`'s cell: 4 shards, 30% multi-home, shard 2
/// crashing twice.
fn shard_crash_cell(p: ProtocolKind) -> EngineConfig {
    let mut cfg = EngineConfig::table1(p, 8, 50, 0.4);
    cfg.items = ItemSpace::sharded(4, 7);
    cfg.profile.shard_mix = Some(ShardMix {
        cross_frac: 0.3,
        shard_theta: 0.5,
    });
    cfg.warmup_txns = 50;
    cfg.measured_txns = 300;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.enable_wal = true;
    cfg.faults = Some(FaultPlan {
        server_crashes: vec![
            ServerCrashWindow::on_shard(2, 4_000, 1_200),
            ServerCrashWindow::on_shard(2, 15_000, 800),
        ],
        ..FaultPlan::default()
    });
    cfg
}

/// A drained cell under 5% message loss.
fn loss_cell(p: ProtocolKind) -> EngineConfig {
    let mut cfg = EngineConfig::table1(p, 10, 50, 0.4);
    cfg.warmup_txns = 50;
    cfg.measured_txns = 300;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.faults = Some(FaultPlan::message_loss(0.05));
    cfg
}

/// The recovery paths every engine shares with another (grant
/// bookkeeping, commit shipment, commit-phase acks, shard recovery, and
/// g-2PL's lease-expiry and post-recovery redispatch) reproduce these
/// exact runs. On g-2PL the loss cell redispatches stalled lists to
/// survivors and sends items home after lease expiries; the shard cell
/// does both after a recovery.
#[test]
fn recovery_paths_reproduce_pinned_runs() {
    let pins: [(ProtocolKind, Pin, Pin); 3] = [
        (ProtocolKind::S2pl, PIN_S2PL_SHARD, PIN_S2PL_LOSS),
        (ProtocolKind::C2pl, PIN_C2PL_SHARD, PIN_C2PL_LOSS),
        (ProtocolKind::g2pl_paper(), PIN_G2PL_SHARD, PIN_G2PL_LOSS),
    ];
    for (p, shard, loss) in pins {
        let m = run(&shard_crash_cell(p.clone())).expect("valid config");
        assert!(!m.trace_truncated(), "{p:?}: trace truncated");
        assert_eq!(pin_of(&m), shard, "{p:?}: shard-crash cell moved");
        let m = run(&loss_cell(p.clone())).expect("valid config");
        assert!(!m.trace_truncated(), "{p:?}: trace truncated");
        assert_eq!(pin_of(&m), loss, "{p:?}: 5%-loss cell moved");
    }
}

const PIN_S2PL_SHARD: Pin = Pin {
    events: 7535,
    messages: 3802,
    bytes: 6_913_580,
    faults: [0, 0, 0, 0, 0, 0, 0, 271, 0, 2, 32, 16, 0, 0, 0, 0, 0, 0],
    trace_fnv: 4_548_477_547_304_989_186,
};
const PIN_S2PL_LOSS: Pin = Pin {
    events: 7034,
    messages: 3491,
    bytes: 7_633_088,
    faults: [189, 0, 0, 0, 0, 0, 0, 618, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    trace_fnv: 15_503_064_258_893_967_196,
};
const PIN_C2PL_SHARD: Pin = Pin {
    events: 10_527,
    messages: 5973,
    bytes: 6_864_420,
    faults: [0, 0, 0, 0, 0, 0, 0, 687, 0, 2, 23, 16, 0, 0, 0, 0, 0, 0],
    trace_fnv: 11_833_575_909_393_563_147,
};
const PIN_C2PL_LOSS: Pin = Pin {
    events: 9914,
    messages: 5557,
    bytes: 7_302_464,
    faults: [284, 0, 0, 0, 0, 2, 2, 1098, 6912, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    trace_fnv: 2_430_836_696_668_314_212,
};
const PIN_G2PL_SHARD: Pin = Pin {
    events: 8103,
    messages: 4215,
    bytes: 7_992_320,
    faults: [0, 0, 0, 0, 0, 0, 1, 319, 0, 2, 40, 16, 1, 0, 0, 0, 0, 0],
    trace_fnv: 4_075_516_690_528_303_720,
};
const PIN_G2PL_LOSS: Pin = Pin {
    events: 7570,
    messages: 3764,
    bytes: 6_701_152,
    faults: [
        184, 0, 0, 0, 0, 185, 185, 1098, 639_360, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ],
    trace_fnv: 16_264_125_638_577_384_515,
};
