//! Every engine's deadlock search skips the searches that cannot find a
//! cycle.
//!
//! s-2PL and c-2PL skip a trigger nothing waits for. g-2PL skips a
//! request-time search whose requester nothing waits for, and a
//! dispatch-time search when no member of the new list waits off it. On
//! the contended cell of Fig 12 (150 clients, latency 500, pr 0.25) the
//! skips must fire, and the run must still pass P1–P10 and the
//! serializability check, fault-free, under message loss and across a
//! shard crash. c-2PL also runs Fig 14's read-heavy cell (pr 0.75), where
//! callback barriers wait on pinned cached reads, and g-2PL a read-only
//! cell (pr 1.0, 50 clients), whose cycles are the cross-window read-only
//! deadlocks. Dev-profile builds re-run every skipped search in full and
//! assert it finds no cycle, so these runs check the skip rules
//! themselves on each skipped search.

use g2pl_core::prelude::*;
use g2pl_faults::{FaultPlan, ServerCrashWindow};

fn contended(
    protocol: ProtocolKind,
    clients: u32,
    pr: f64,
    faults: Option<FaultPlan>,
) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, clients, 500, pr);
    cfg.warmup_txns = 100;
    cfg.measured_txns = 400;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.faults = faults;
    cfg
}

/// Run the cell fault-free, under 5% message loss and across a shard
/// crash; each run must skip some searches but not all, deadlock, and
/// verify. Returns the runs' metrics.
fn skips_and_verifies(protocol: &ProtocolKind, clients: u32, pr: f64) -> Vec<RunMetrics> {
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
    let mut runs = Vec::new();
    for (what, plan) in plans {
        let cfg = contended(protocol.clone(), clients, pr, plan.clone());
        let m = run(&cfg).expect("valid config");
        let tag = format!("{} {clients} clients pr {pr} {what}", m.protocol);
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
        runs.push(m);
    }
    runs
}

#[test]
fn contended_lock_servers_skip_searches_and_verify() {
    for (protocol, pr) in [
        (ProtocolKind::S2pl, 0.25),
        (ProtocolKind::C2pl, 0.25),
        (ProtocolKind::C2pl, 0.75),
    ] {
        for m in skips_and_verifies(&protocol, 150, pr) {
            assert_eq!(
                m.dispatch_searches_skipped, 0,
                "lock servers never dispatch"
            );
        }
    }
}

#[test]
fn contended_g2pl_skips_searches_by_both_rules_and_verifies() {
    for (clients, pr) in [(150, 0.25), (50, 1.0)] {
        for m in skips_and_verifies(&ProtocolKind::g2pl_paper(), clients, pr) {
            let tag = format!("g-2PL {clients} clients pr {pr}");
            assert!(
                m.dispatch_searches_skipped > 0,
                "{tag}: no dispatch-time search skipped"
            );
            assert!(
                m.dispatch_searches_skipped < m.deadlock_searches_skipped,
                "{tag}: no request-time search skipped"
            );
        }
    }
}
