//! End-to-end server crash-recovery checks across all three engines.
//!
//! Each test runs a drained simulation under a plan that kills the
//! server twice mid-run, then verifies the full contract: the run
//! completes (drain = recovery liveness), the trace passes P1–P9, the
//! history is conflict-serializable, the WAL drains to empty, the same
//! `(seed, plan)` replays bit-for-bit, and an *inert* plan leaves the
//! pristine code path byte-identical to having no plan at all.

use g2pl_core::check_run;
use g2pl_protocols::{run, EngineConfig, FaultPlan, ProtocolKind, RunMetrics, ServerCrashWindow};

fn engines() -> [ProtocolKind; 3] {
    [
        ProtocolKind::g2pl_paper(),
        ProtocolKind::S2pl,
        ProtocolKind::C2pl,
    ]
}

fn crash_cfg(protocol: ProtocolKind) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
    cfg.warmup_txns = 50;
    cfg.measured_txns = 300;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.enable_wal = true;
    cfg.faults = Some(FaultPlan {
        server_crashes: vec![
            ServerCrashWindow::fixed(4_000, 1_200),
            ServerCrashWindow::fixed(15_000, 800),
        ],
        ..FaultPlan::default()
    });
    cfg
}

/// Run `cfg` and verify it: P1–P10 and serializability.
fn run_checked(cfg: &EngineConfig) -> RunMetrics {
    let m = run(cfg).expect("valid config");
    check_run(cfg, &m).unwrap_or_else(|e| panic!("{}: {e}", m.protocol));
    m
}

#[test]
fn crash_recovery_verifies_end_to_end() {
    for protocol in engines() {
        let cfg = crash_cfg(protocol);
        let m = run_checked(&cfg);
        assert_eq!(
            m.faults.server_crashes, 2,
            "{}: both scheduled crashes must fire",
            m.protocol
        );
        assert!(
            m.faults.reregistrations > 0,
            "{}: recovery must hear from surviving clients",
            m.protocol
        );
        let wal = m.wal.as_ref().expect("wal enabled");
        assert_eq!(
            wal.end_live_records, 0,
            "{}: WAL must drain after recovery (every version home)",
            m.protocol
        );
    }
}

#[test]
fn crash_recovery_replays_bit_for_bit() {
    for protocol in engines() {
        let cfg = crash_cfg(protocol);
        let a = run_checked(&cfg);
        let b = run_checked(&cfg);
        assert_eq!(a.trace, b.trace, "{}: trace diverged on replay", a.protocol);
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.faults.server_crashes, b.faults.server_crashes);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }
}

#[test]
fn inert_plan_is_byte_identical_to_no_plan() {
    // A plan that schedules nothing must leave the engine on its
    // fault-free code path: same trace, same clock, same totals as a
    // run with no plan at all. This anchors the x = 0 point of
    // fig_server_faults to the reliable-network figures.
    for protocol in engines() {
        let mut pristine = crash_cfg(protocol);
        pristine.faults = None;
        let mut inert = pristine.clone();
        inert.faults = Some(FaultPlan::default());
        let a = run_checked(&pristine);
        let b = run_checked(&inert);
        assert_eq!(
            a.trace, b.trace,
            "{}: inert plan perturbed the run",
            a.protocol
        );
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.faults.server_crashes, 0);
        assert_eq!(b.faults.server_crashes, 0);
    }
}

#[test]
fn crash_recovery_composes_with_message_loss() {
    // Loss, duplication and a client crash layered on top of the server
    // outages: the full fault surface at once, still fully verified.
    for protocol in engines() {
        let mut cfg = crash_cfg(protocol);
        let plan = cfg.faults.as_mut().expect("plan set");
        plan.drop_prob = 0.02;
        plan.dup_prob = 0.01;
        plan.crashes.push(g2pl_protocols::CrashWindow {
            client: 3,
            at: 8_000,
            down_for: 2_000,
        });
        let m = run_checked(&cfg);
        assert_eq!(m.faults.server_crashes, 2, "{}", m.protocol);
    }
}
