//! Sharded scale-out invariants.
//!
//! Multi-shard runs of every engine must preserve the single-server
//! guarantees: conflict-serializable committed histories, a clean trace
//! (P1–P9), drain to quiescence, and bit-determinism under a fixed
//! seed. A one-shard item space must stay *byte-identical* to the
//! pre-sharding engine (verified against the committed PR 7 fig2
//! fixture), so the directory-sharding refactor is provably
//! behavior-preserving for every figure that predates it.

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
            let history = m.history.as_ref().expect("history enabled");
            check_serializable(history)
                .unwrap_or_else(|e| panic!("{} @ {shards} shards: {e}", m.protocol));
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
        let trace = m.trace.as_ref().expect("trace enabled");
        check_trace(trace).unwrap_or_else(|e| panic!("{}: {e}", m.protocol));
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
    let rate_one = one.net.of_kind("s2pl.commit_release") as f64 / one.committed_total as f64;
    let rate_eight = eight.net.of_kind("s2pl.commit_release") as f64 / eight.committed_total as f64;
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
fn full_mesh_topology_is_inert_and_link_overrides_take_effect() {
    let base = sharded_cfg(ProtocolKind::g2pl_paper(), 2, 3);

    // The explicit full mesh must be byte-identical to no topology.
    let mut mesh = base.clone();
    mesh.topology = Some(Topology::full_mesh(mesh.latency));
    let plain = run(&base).expect("valid config");
    let meshed = run(&mesh).expect("valid config");
    assert_eq!(plain.response.mean(), meshed.response.mean());
    assert_eq!(plain.net.messages(), meshed.net.messages());
    assert_eq!(plain.net.bytes(), meshed.net.bytes());

    // Slowing only the client↔client class must show up in g-2PL, whose
    // data migrates on exactly those links.
    let mut slow_cc = base.clone();
    slow_cc.topology =
        Some(Topology::full_mesh(slow_cc.latency).with_client_client(LatencyCfg::Constant(400)));
    let slowed = run(&slow_cc).expect("valid config");
    assert!(
        slowed.response.mean() > plain.response.mean(),
        "slower forwarding links must slow g-2PL: {} vs {}",
        slowed.response.mean(),
        plain.response.mean()
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

#[test]
fn one_shard_fig2_matches_pr7_fixture_byte_for_byte() {
    // The committed fixture was generated at PR 7 HEAD, before the
    // sharding refactor; regenerating it through today's engines must
    // reproduce it exactly.
    let fig = experiments::figure("fig2")
        .expect("fig2 exists")
        .build(Scale::Smoke);
    let csv = fig.to_csv();
    let fixture = include_str!("data/fig2_smoke_pr7.csv");
    assert_eq!(
        csv, fixture,
        "1-shard fig2 CSV diverged from the PR 7 baseline"
    );
    let tail = fig.to_tail_csv().expect("fig2 has tail data");
    let tail_fixture = include_str!("data/fig2_tail_smoke_pr7.csv");
    assert_eq!(
        tail, tail_fixture,
        "1-shard fig2 tail CSV diverged from the PR 7 baseline"
    );
}

#[test]
fn fault_figures_match_fixtures_byte_for_byte() {
    // Smoke-scale output of the three fault sweeps, captured before the
    // engines shared one fault and commit core. Recovery, re-registration
    // and 2PC all feed these cells, so any change in event order shows.
    let fixtures = [
        (
            "fig_faults",
            include_str!("data/fig_faults.csv"),
            include_str!("data/fig_faults_tail.csv"),
        ),
        (
            "fig_server_faults",
            include_str!("data/fig_server_faults.csv"),
            include_str!("data/fig_server_faults_tail.csv"),
        ),
        (
            "fig_shard_faults",
            include_str!("data/fig_shard_faults.csv"),
            include_str!("data/fig_shard_faults_tail.csv"),
        ),
    ];
    for (id, csv, tail) in fixtures {
        let fig = experiments::figure(id)
            .unwrap_or_else(|| panic!("{id} registered"))
            .build(Scale::Smoke);
        assert_eq!(fig.to_csv(), csv, "{id} CSV diverged from its fixture");
        let got_tail = fig
            .to_tail_csv()
            .unwrap_or_else(|| panic!("{id} has tail data"));
        assert_eq!(got_tail, tail, "{id} tail CSV diverged from its fixture");
    }
}
