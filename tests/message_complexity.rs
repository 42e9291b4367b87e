//! §3.2's message-complexity claim, verified by counting.
//!
//! "Assume m clients under the best case where each transaction either
//! requests a single data item or requests multiple data items within a
//! single message. The s-2PL protocol will require 3m messages and 3m
//! rounds as opposed to the g-2PL protocol which will require 2m + 1
//! messages and 2m + 1 rounds."
//!
//! In steady state with single-item exclusive transactions this becomes:
//! s-2PL pays 3 messages per commit (request, grant, commit-release);
//! g-2PL pays 2 + 1/W messages per commit, where W is the mean window
//! length — the release of one transaction and the grant of the next
//! merge into one forward.

use g2pl_core::prelude::*;

fn single_item_cfg(protocol: ProtocolKind, clients: u32) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, clients, 200, 0.0);
    cfg.items = g2pl_protocols::ItemSpace::single(1); // one scorching-hot item: maximal grouping
    cfg.profile.min_items = 1;
    cfg.profile.max_items = 1;
    cfg.warmup_txns = 100;
    cfg.measured_txns = 1_000;
    cfg.drain = true;
    cfg
}

#[test]
fn s2pl_costs_three_messages_per_commit() {
    let m = run(&single_item_cfg(ProtocolKind::S2pl, 10)).expect("valid config");
    assert_eq!(m.aborted_total, 0, "single-item txns cannot deadlock");
    let per_commit = m.net.messages() as f64 / m.committed_total as f64;
    assert!(
        (per_commit - 3.0).abs() < 0.05,
        "s-2PL should cost exactly 3 messages/commit, got {per_commit:.3}"
    );
    // A 64-byte request, a 64 + 4096-byte grant carrying the item and a
    // 64 + 4096-byte commit-release carrying it back.
    assert_eq!(m.net.bytes(), m.committed_total * 8_384);
}

#[test]
fn g2pl_costs_two_plus_epsilon_messages_per_commit() {
    let m = run(&single_item_cfg(ProtocolKind::g2pl_paper(), 10)).expect("valid config");
    assert_eq!(m.aborted_total, 0, "single-item txns cannot deadlock");
    let per_commit = m.net.messages() as f64 / m.committed_total as f64;
    // 2 + 1/W for mean window length W; with 10 clients fighting over one
    // item, W far exceeds 1, so the count approaches 2.
    assert!(
        per_commit < 2.6,
        "g-2PL should approach 2 messages/commit, got {per_commit:.3}"
    );
    assert!(
        per_commit >= 2.0,
        "fewer than 2 messages/commit is impossible, got {per_commit:.3}"
    );
    // The saved message is the separate release: data migrates
    // client-to-client instead.
    assert!(
        m.net.client_to_client_share() > 0.2,
        "migration should carry a large share of traffic"
    );
}

#[test]
fn g2pl_sends_fewer_messages_than_s2pl_on_hot_items() {
    let s = run(&single_item_cfg(ProtocolKind::S2pl, 10)).expect("valid config");
    let g = run(&single_item_cfg(ProtocolKind::g2pl_paper(), 10)).expect("valid config");
    let s_rate = s.net.messages() as f64 / s.committed_total as f64;
    let g_rate = g.net.messages() as f64 / g.committed_total as f64;
    assert!(
        g_rate < s_rate - 0.4,
        "expected ≥0.4 messages/commit saved: s={s_rate:.2}, g={g_rate:.2}"
    );
}

/// The grant that merges with a release is visible as latency too: on a
/// serial hot-item chain, g-2PL approaches half of s-2PL's response.
#[test]
fn hot_chain_latency_halves() {
    let s = run(&single_item_cfg(ProtocolKind::S2pl, 10)).expect("valid config");
    let g = run(&single_item_cfg(ProtocolKind::g2pl_paper(), 10)).expect("valid config");
    let ratio = g.mean_response() / s.mean_response();
    assert!(
        ratio < 0.7,
        "g-2PL should cut the serial chain cost well below s-2PL: ratio {ratio:.2}"
    );
}
