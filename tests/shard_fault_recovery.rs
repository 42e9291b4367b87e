//! End-to-end shard fault-domain checks across all three engines.
//!
//! The sharded sibling of `server_fault_recovery`: every test runs a
//! drained simulation over a 4-shard directory with 30% multi-home
//! transactions while a plan kills a *non-zero* shard twice — once early
//! enough to land mid multi-home commitment. Verified contract: the run
//! completes (drain = recovery liveness), the trace passes P1–P10
//! (including cross-shard atomicity), the history is
//! conflict-serializable, the WAL drains to empty, crash events name the
//! actual crashed shard, the same `(seed, plan)` replays bit-for-bit,
//! and an inert plan leaves the sharded pristine path byte-identical to
//! having no plan at all.

use g2pl_core::{check_serializable, check_trace_with, TraceCheckOpts};
use g2pl_netmodel::accounting::Direction;
use g2pl_protocols::{
    run, CrashWindow, EngineConfig, FaultPlan, ItemSpace, LinkPartition, ProtocolKind, RunMetrics,
    ServerCrashWindow, ShardMix, TraceKind, TwoPcCounts,
};
use g2pl_simcore::SiteId;

const CRASHED_SHARD: u32 = 2;

fn engines() -> [ProtocolKind; 3] {
    [
        ProtocolKind::g2pl_paper(),
        ProtocolKind::S2pl,
        ProtocolKind::C2pl,
    ]
}

fn shard_crash_cfg(protocol: ProtocolKind) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
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
            ServerCrashWindow::on_shard(CRASHED_SHARD, 4_000, 1_200),
            ServerCrashWindow::on_shard(CRASHED_SHARD, 15_000, 800),
        ],
        ..FaultPlan::default()
    });
    cfg
}

fn run_checked(cfg: &EngineConfig) -> RunMetrics {
    let m = run(cfg).expect("valid config");
    assert!(!m.trace_truncated(), "trace truncated; cannot verify");
    m
}

fn count(m: &RunMetrics, kind: TraceKind) -> usize {
    m.trace
        .as_ref()
        .expect("trace enabled")
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

#[test]
fn shard_crash_mid_multi_home_commit_verifies_end_to_end() {
    for protocol in engines() {
        let cfg = shard_crash_cfg(protocol);
        let m = run_checked(&cfg);
        assert_eq!(
            m.faults.server_crashes, 2,
            "{}: both scheduled shard crashes must fire",
            m.protocol
        );
        assert!(
            m.faults.reregistrations > 0,
            "{}: recovery must hear from surviving clients",
            m.protocol
        );
        assert!(m.committed_total > 0, "{}", m.protocol);
        // The 30% multi-home mix must actually exercise atomic
        // commitment: prepare votes recorded and commits applied at the
        // voted shards.
        assert!(
            count(&m, TraceKind::Prepared) > 0,
            "{}: no prepare votes — 2PC never engaged",
            m.protocol
        );
        assert!(
            count(&m, TraceKind::CommitApplied) > 0,
            "{}: no applied commits at prepared shards",
            m.protocol
        );
        // The crash events must name the shard that actually went down,
        // not the paper's single server.
        let trace = m.trace.as_ref().expect("trace enabled");
        let crashed: Vec<SiteId> = trace
            .iter()
            .filter(|e| e.kind == TraceKind::ServerCrashed)
            .map(|e| e.site)
            .collect();
        assert_eq!(
            crashed,
            vec![SiteId::server(CRASHED_SHARD); 2],
            "{}: crash events must carry the crashed shard",
            m.protocol
        );
        if let Err(e) = check_trace_with(trace, TraceCheckOpts::for_config(&cfg)) {
            panic!("{}: P1-P10 violated under shard crashes: {e}", m.protocol);
        }
        let history = m.history.as_ref().expect("history enabled");
        if let Err(e) = check_serializable(history) {
            panic!("{}: serializability violated: {e}", m.protocol);
        }
        let wal = m.wal.as_ref().expect("wal enabled");
        assert_eq!(
            wal.end_live_records, 0,
            "{}: WAL must drain after recovery (every version home)",
            m.protocol
        );
    }
}

#[test]
fn shard_crash_replays_bit_for_bit() {
    for protocol in engines() {
        let cfg = shard_crash_cfg(protocol);
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
fn inert_plan_is_byte_identical_on_sharded_runs() {
    // A plan that schedules nothing must leave the sharded engine on its
    // fault-free code path — no WAL forcing, no prepare round trips —
    // so the multi-home figures are unperturbed by the fault subsystem.
    // This anchors the x = 0 point of fig_shard_faults.
    for protocol in engines() {
        let mut pristine = shard_crash_cfg(protocol);
        pristine.faults = None;
        let mut inert = pristine.clone();
        inert.faults = Some(FaultPlan::default());
        let a = run_checked(&pristine);
        let b = run_checked(&inert);
        assert_eq!(
            a.trace, b.trace,
            "{}: inert plan perturbed the sharded run",
            a.protocol
        );
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.faults.server_crashes, 0);
        assert_eq!(b.faults.server_crashes, 0);
        // Without faults armed there is no 2PC detour at all.
        assert_eq!(count(&a, TraceKind::Prepared), 0, "{}", a.protocol);
    }
}

#[test]
fn shard_crash_composes_with_client_faults_and_partitions() {
    // The full fault surface at once: message loss and duplication, a
    // client crash, an inter-shard partition, and the shard outages —
    // still drained, still fully verified under P1–P10.
    for protocol in engines() {
        let mut cfg = shard_crash_cfg(protocol);
        let plan = cfg.faults.as_mut().expect("plan set");
        plan.drop_prob = 0.02;
        plan.dup_prob = 0.01;
        plan.crashes.push(CrashWindow {
            client: 3,
            at: 8_000,
            down_for: 2_000,
        });
        plan.partitions.push(LinkPartition::between_shards(
            1,
            CRASHED_SHARD,
            6_000,
            9_000,
        ));
        let m = run_checked(&cfg);
        assert_eq!(m.faults.server_crashes, 2, "{}", m.protocol);
        let trace = m.trace.as_ref().expect("trace enabled");
        if let Err(e) = check_trace_with(trace, TraceCheckOpts::for_config(&cfg)) {
            panic!("{}: P1-P10 violated under combined faults: {e}", m.protocol);
        }
        let history = m.history.as_ref().expect("history enabled");
        if let Err(e) = check_serializable(history) {
            panic!("{}: serializability violated: {e}", m.protocol);
        }
    }
}

#[test]
fn shard_crash_message_kinds_are_pinned() {
    // Per-kind message counts of the crash scenario, captured before the
    // engines shared one fault and commit core. Any reordering of sends,
    // schedules or RNG draws in recovery or 2PC shifts these counts.
    let want: [&[(&str, u64)]; 3] = [
        &[
            ("abort_notice", 59),
            ("commit_query", 1),
            ("commit_verdict", 1),
            ("data", 969),
            ("decide", 225),
            ("decide_ack", 221),
            ("lock_request", 1336),
            ("prepare", 221),
            ("prepare_ack", 221),
            ("reader_release", 398),
            ("reregister", 16),
            ("reregister_req", 16),
            ("return", 531),
        ],
        &[
            ("abort_notice", 35),
            ("commit_ack", 454),
            ("commit_release", 454),
            ("grant", 1073),
            ("lock_request", 1317),
            ("prepare", 220),
            ("prepare_ack", 217),
            ("reregister", 16),
            ("reregister_req", 16),
        ],
        &[
            ("abort_notice", 39),
            ("callback", 1062),
            ("callback_ack", 1062),
            ("commit_ack", 460),
            ("commit_release", 463),
            ("grant", 1026),
            ("lock_request", 1363),
            ("prepare", 236),
            ("prepare_ack", 230),
            ("reregister", 16),
            ("reregister_req", 16),
        ],
    ];
    // Wire bytes of the same runs: prepares with their write slices,
    // re-registration reports, callbacks and forward lists riding `data`
    // hops all price in here, so a size that moves shows up even when
    // every count above holds.
    let want_bytes: [u64; 3] = [7_992_320, 6_913_580, 6_864_420];
    for ((protocol, want), bytes) in engines().into_iter().zip(want).zip(want_bytes) {
        let m = run_checked(&shard_crash_cfg(protocol));
        let kinds: Vec<(&str, u64)> = m.net.kinds().collect();
        assert_eq!(kinds, want, "{}: per-kind message counts moved", m.protocol);
        assert_eq!(m.net.bytes(), bytes, "{}: wire bytes moved", m.protocol);
    }
}

/// Fault plans that steer multi-home commitment into its rare branches.
#[derive(Clone, Copy, Debug)]
enum BranchPlan {
    /// Shard 2 stays down longer than a lease while four clients crash
    /// with it. A coordinator that dies mid-vote leaves a prepared vote
    /// on the dead shard; its transaction is decided (committed, or
    /// aborted by the lease) while the shard is down, and a peer's
    /// verdict resolves the vote after the restart.
    CoordinatorsDie,
    /// The same, with shard 2 cut off from its peers through the whole
    /// handshake: no verdict arrives, and the deadline falls back to
    /// the commit oracle.
    PeersCutOff,
    /// Shard 0, which coordinates the transaction leases, crashes while
    /// three clients stay down past the handshake deadline: their
    /// transactions stay active but unreported, and are aborted when
    /// the handshake closes.
    SilentClients,
    /// 2% message loss and 2% duplication: prepares arrive twice, and
    /// retried prepares race their transaction's abort.
    LossyLinks,
}

fn branch_cfg(protocol: ProtocolKind, plan: BranchPlan, seed: u64) -> EngineConfig {
    let mut cfg = shard_crash_cfg(protocol);
    cfg.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if let Some(mix) = cfg.profile.shard_mix.as_mut() {
        mix.cross_frac = 0.6;
    }
    let faults = cfg.faults.as_mut().expect("plan set");
    let crash_clients = |faults: &mut FaultPlan, n: u32, at: u64, down_for: u64| {
        for client in 0..n {
            faults.crashes.push(CrashWindow {
                client,
                at,
                down_for,
            });
        }
    };
    match plan {
        BranchPlan::CoordinatorsDie | BranchPlan::PeersCutOff => {
            faults.server_crashes = vec![ServerCrashWindow::on_shard(CRASHED_SHARD, 4_000, 5_000)];
            crash_clients(faults, 4, 4_000, 20_000);
            if matches!(plan, BranchPlan::PeersCutOff) {
                for peer in [0, 1, 3] {
                    faults.partitions.push(LinkPartition::between_shards(
                        peer,
                        CRASHED_SHARD,
                        4_000,
                        15_000,
                    ));
                }
            }
        }
        BranchPlan::SilentClients => {
            faults.server_crashes = vec![ServerCrashWindow::on_shard(0, 4_000, 1_200)];
            crash_clients(faults, 3, 3_900, 9_000);
        }
        BranchPlan::LossyLinks => {
            faults.drop_prob = 0.02;
            faults.dup_prob = 0.02;
        }
    }
    cfg
}

/// Every two-phase-commit and in-doubt branch, in [`branch_counts`]
/// order.
const BRANCHES: [&str; 6] = [
    "peer verdict resolves a vote as committed",
    "peer verdict resolves a vote as aborted",
    "vote falls back to the oracle at the deadline",
    "duplicate prepare is re-acked",
    "prepare that raced an abort is re-noticed",
    "silent client is aborted at handshake end",
];

fn branch_counts(t: &TwoPcCounts) -> [u64; 6] {
    [
        t.verdict_commits,
        t.verdict_aborts,
        t.oracle_resolutions,
        t.prepare_reacks,
        t.prepare_renotices,
        t.silent_victims,
    ]
}

#[test]
fn every_two_pc_and_in_doubt_branch_executes() {
    // Each plan targets some branches; a branch that needs a rare
    // interleaving (a coordinator dying between its vote and its
    // decision) is searched over seeds. Every run must still verify.
    let targets: [(BranchPlan, &[usize]); 4] = [
        (BranchPlan::CoordinatorsDie, &[0, 1]),
        (BranchPlan::PeersCutOff, &[2]),
        (BranchPlan::SilentClients, &[5]),
        (BranchPlan::LossyLinks, &[3, 4]),
    ];
    for protocol in engines() {
        let mut seen = [0u64; 6];
        let mut name = "";
        for (plan, wanted) in targets {
            for seed in 0..64 {
                let cfg = branch_cfg(protocol.clone(), plan, seed);
                let m = run_checked(&cfg);
                let trace = m.trace.as_ref().expect("trace enabled");
                if let Err(e) = check_trace_with(trace, TraceCheckOpts::for_config(&cfg)) {
                    panic!("{} {plan:?} seed {seed}: P1-P10 violated: {e}", m.protocol);
                }
                let history = m.history.as_ref().expect("history enabled");
                if let Err(e) = check_serializable(history) {
                    panic!("{} {plan:?} seed {seed}: not serializable: {e}", m.protocol);
                }
                let t = m.faults.two_pc;
                if t.verdict_commits + t.verdict_aborts > 0 {
                    // Commit-status queries and verdicts travel shard to
                    // shard.
                    assert!(
                        m.net.in_direction(Direction::ServerToServer) > 0,
                        "{}: verdicts without shard-to-shard traffic",
                        m.protocol
                    );
                }
                name = m.protocol;
                for (slot, n) in seen.iter_mut().zip(branch_counts(&t)) {
                    *slot += n;
                }
                if wanted.iter().all(|&b| seen[b] > 0) {
                    break;
                }
            }
        }
        for (branch, n) in BRANCHES.iter().zip(seen) {
            assert!(n > 0, "{name}: branch never executed: {branch}");
        }
    }
}
