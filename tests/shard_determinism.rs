//! Sharded scale-out invariants.
//!
//! Multi-shard runs of every engine must preserve the single-server
//! guarantees: conflict-serializable committed histories, a clean trace
//! (P1–P9), drain to quiescence, and bit-determinism under a fixed
//! seed. A one-shard item space stays *byte-identical* to the
//! pre-sharding engine: `tests/registry_fixtures.rs` pins fig2's smoke
//! output, written before the directory-sharding refactor.

use g2pl_core::prelude::*;

fn sharded_cfg(protocol: ProtocolKind, shards: u32, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 10, 50, 0.5);
    cfg.items = ItemSpace::sharded(shards, 8);
    cfg.profile.max_items = 4;
    if shards > 1 {
        // Exercise the placement-aware generator: 40% multi-home
        // transactions over mildly skewed shard popularity.
        cfg.profile.shard_mix = Some(ShardMix {
            cross_frac: 0.4,
            shard_theta: 0.7,
        });
    }
    cfg.warmup_txns = 30;
    cfg.measured_txns = 250;
    cfg.seed = seed;
    cfg.drain = true;
    cfg.record_history = true;
    cfg.trace_events = true;
    cfg
}

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::S2pl,
        ProtocolKind::C2pl,
        ProtocolKind::g2pl_paper(),
    ]
}

#[test]
fn multi_shard_histories_are_serializable() {
    for p in protocols() {
        for shards in [2, 4, 7] {
            let cfg = sharded_cfg(p.clone(), shards, 11 + u64::from(shards));
            let m = run(&cfg).expect("valid config");
            check_run(&cfg, &m).unwrap_or_else(|e| panic!("{} @ {shards} shards: {e}", m.protocol));
            assert_eq!(m.aborts.trials(), cfg.measured_txns);
            assert!(m.committed_total > 0);
        }
    }
}

#[test]
fn multi_shard_traces_pass_p_properties() {
    for p in protocols() {
        let cfg = sharded_cfg(p.clone(), 4, 99);
        let m = run(&cfg).expect("valid config");
        check_run(&cfg, &m).unwrap_or_else(|e| panic!("{}: {e}", m.protocol));
    }
}

#[test]
fn multi_shard_runs_are_bit_deterministic() {
    for p in protocols() {
        let cfg = sharded_cfg(p.clone(), 4, 7);
        let a = run(&cfg).expect("valid config");
        let b = run(&cfg).expect("valid config");
        assert_eq!(a.response.mean(), b.response.mean(), "{}", a.protocol);
        assert_eq!(a.net.messages(), b.net.messages(), "{}", a.protocol);
        assert_eq!(a.net.bytes(), b.net.bytes(), "{}", a.protocol);
        assert_eq!(a.committed_total, b.committed_total, "{}", a.protocol);
    }
}

#[test]
fn multi_shard_commit_splits_are_visible_in_message_kinds() {
    // With one shard a transaction sends exactly one commit-release; at
    // many shards a multi-home transaction sends one per involved
    // shard, so the per-committed-txn commit-message rate must rise.
    let one = run(&sharded_cfg(ProtocolKind::S2pl, 1, 5)).expect("valid config");
    let eight = {
        let mut cfg = sharded_cfg(ProtocolKind::S2pl, 8, 5);
        cfg.items = ItemSpace::sharded(8, 1); // every item on its own shard
        cfg.profile.max_items = 4;
        run(&cfg).expect("valid config")
    };
    let rate_one = one.net.of_kind("commit_release") as f64 / one.committed_total as f64;
    let rate_eight = eight.net.of_kind("commit_release") as f64 / eight.committed_total as f64;
    assert!(
        (rate_one - 1.0).abs() < 1e-9,
        "single shard must send exactly one commit per txn, got {rate_one}"
    );
    assert!(
        rate_eight > 1.2,
        "distinct-shard items must split commits, got {rate_eight}"
    );
}

#[test]
fn scale_engine_is_identical_serial_parallel_and_across_reruns() {
    // One PDES worker is the serial reference; any other worker count —
    // and any rerun — must reproduce the exact same trajectory.
    let cfg = experiments::scale_cell(128, 4);
    let serial = run_scale_with_workers(&cfg, 1).expect("cell runs");
    for m in [
        run_scale_with_workers(&cfg, 2).expect("cell runs"),
        run_scale_with_workers(&cfg, 4).expect("cell runs"),
        run_scale_with_workers(&cfg, 1).expect("cell runs"),
    ] {
        assert_eq!(serial.committed, m.committed);
        assert_eq!(serial.multi_home, m.multi_home);
        assert_eq!(serial.events, m.events);
        assert_eq!(serial.messages, m.messages);
        assert_eq!(serial.rounds, m.rounds);
        assert_eq!(serial.cross_messages, m.cross_messages);
        assert!(serial.response.mean() == m.response.mean());
        assert_eq!(serial.tail.summary(), m.tail.summary());
    }
    assert!(serial.multi_home > 0, "the grid workload must cross shards");
}

#[test]
fn fig_scale_builds_bit_identical_figure_data() {
    // The registry figure runs with auto worker count; two builds must
    // serialize byte-for-byte, including the tail CSV the CI smoke
    // checks.
    let spec = experiments::figure("fig_scale").expect("fig_scale registered");
    let a = spec.build(Scale::Smoke);
    let b = spec.build(Scale::Smoke);
    assert_eq!(a.to_csv(), b.to_csv());
    let tail_a = a.to_tail_csv().expect("fig_scale has tail data");
    let tail_b = b.to_tail_csv().expect("fig_scale has tail data");
    assert_eq!(tail_a, tail_b);
    assert!(tail_a.starts_with("x,series,p50,p90,p99,p999,max,count\n"));
    assert_eq!(a.series.len(), 3, "one series per shard count");
    assert!(a.series.iter().all(|s| s.points.len() == 3));
}
