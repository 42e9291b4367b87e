//! The s-2PL and c-2PL deadlock search skips a trigger nothing waits for.
//!
//! On the contended cell of Fig 12 (150 clients, latency 500, pr 0.25)
//! the skip must fire, and the run must still pass P1–P10 and the
//! serializability check, fault-free, under message loss and across a
//! shard crash. c-2PL also runs Fig 14's read-heavy cell (pr 0.75), where
//! callback barriers wait on pinned cached reads. Dev-profile builds
//! re-run every skipped search in full and assert it finds no cycle, so
//! these runs check the skip rule itself on each skipped trigger.

use g2pl_core::prelude::*;
use g2pl_faults::{FaultPlan, ServerCrashWindow};

fn contended(protocol: ProtocolKind, pr: f64, faults: Option<FaultPlan>) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 150, 500, pr);
    cfg.warmup_txns = 100;
    cfg.measured_txns = 400;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.faults = faults;
    cfg
}

#[test]
fn contended_lock_servers_skip_searches_and_verify() {
    let plans = [
        ("fault-free", None),
        ("5% loss", Some(FaultPlan::message_loss(0.05))),
        (
            "shard crash",
            Some(FaultPlan {
                server_crashes: vec![ServerCrashWindow::fixed(8_000, 2_000)],
                ..FaultPlan::default()
            }),
        ),
    ];
    let cells = [
        (ProtocolKind::S2pl, 0.25),
        (ProtocolKind::C2pl, 0.25),
        (ProtocolKind::C2pl, 0.75),
    ];
    for (protocol, pr) in cells {
        for (what, plan) in &plans {
            let cfg = contended(protocol.clone(), pr, plan.clone());
            let m = run(&cfg).expect("valid config");
            let tag = format!("{} pr {pr} {what}", m.protocol);
            assert!(
                m.deadlock_searches_skipped > 0,
                "{tag}: no search was skipped"
            );
            assert!(
                m.deadlock_searches_skipped < m.deadlock_searches,
                "{tag}: every search was skipped"
            );
            assert!(m.aborted_total > 0, "{tag}: the cell must deadlock");
            if plan.is_some() {
                assert!(m.faults.any(), "{tag}: the plan injected nothing");
            }
            assert!(!m.trace_truncated(), "{tag}: trace truncated");
            let trace = m.trace.as_ref().expect("trace recorded");
            check_trace_with(trace, TraceCheckOpts::for_config(&cfg))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            check_serializable(m.history.as_ref().expect("history recorded"))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
        }
    }
}
