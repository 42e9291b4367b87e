//! Property-based tests of the network models.

use g2pl_netmodel::accounting::Direction;
use g2pl_netmodel::{LatencyCfg, NetAccounting, NetworkEnv};
use g2pl_simcore::{ClientId, SimTime, SiteId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn site(raw: u32, clients: u32) -> SiteId {
    if raw.is_multiple_of(clients + 1) {
        SiteId::SERVER0
    } else {
        SiteId::Client(ClientId::new(raw % (clients + 1) - 1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Constant latency is invariant in size.
    #[test]
    fn constant_is_constant(l in 0u64..10_000, sz in 0u64..1u64<<30) {
        let m = LatencyCfg::Constant(l);
        prop_assert_eq!(m.delay(sz), SimTime::new(l));
        prop_assert_eq!(m.nominal(), l);
    }

    /// Bandwidth delay is monotone in message size and at least the
    /// propagation latency.
    #[test]
    fn bandwidth_monotone(l in 0u64..1000, bpu in 1u64..100_000, s1 in 0u64..1u64<<20, s2 in 0u64..1u64<<20) {
        let m = LatencyCfg::Bandwidth { latency: l, bytes_per_unit: bpu };
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let (dlo, dhi) = (m.delay(lo), m.delay(hi));
        prop_assert!(dlo <= dhi);
        prop_assert!(dlo >= SimTime::new(l));
    }

    /// Accounting totals always equal the sum over kinds and directions.
    #[test]
    fn accounting_conserves(msgs in proptest::collection::vec((0u32..10, 0u32..10, 0u64..10_000), 0..100)) {
        let mut acct = NetAccounting::new();
        let kinds = ["a", "b", "c"];
        for (i, &(from, to, size)) in msgs.iter().enumerate() {
            acct.record(site(from, 9), site(to, 9), kinds[i % 3], size);
        }
        prop_assert_eq!(acct.messages(), msgs.len() as u64);
        let by_kind: u64 = acct.kinds().map(|(_, c)| c).sum();
        prop_assert_eq!(by_kind, msgs.len() as u64);
        let bytes: u64 = msgs.iter().map(|&(_, _, s)| s).sum();
        prop_assert_eq!(acct.bytes(), bytes);
        prop_assert!(acct.client_to_client_share() >= 0.0);
        prop_assert!(acct.client_to_client_share() <= 1.0);
    }

    /// Per-kind and per-direction counts, merged or not, equal a map
    /// keyed by label text and by direction, and `kinds()` lists labels
    /// in text order, even when one label text comes from two strings.
    #[test]
    fn accounting_matches_a_map_model(
        msgs in proptest::collection::vec((0u32..10, 0u32..10, 0usize..6, any::<bool>()), 0..120)
    ) {
        let other_grant: &'static str = Box::leak(String::from("grant").into_boxed_str());
        let labels = ["grant", "data", "abort_notice", "zeta", "a", other_grant];
        let (mut one, mut two) = (NetAccounting::new(), NetAccounting::new());
        let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
        let mut dirs: BTreeMap<Direction, u64> = BTreeMap::new();
        for &(from, to, label, first) in &msgs {
            let (from, to) = (site(from, 9), site(to, 9));
            let acct = if first { &mut one } else { &mut two };
            acct.record(from, to, labels[label], 1);
            *kinds.entry(labels[label]).or_insert(0) += 1;
            *dirs.entry(Direction::of(from, to)).or_insert(0) += 1;
        }
        one.merge(&two);
        let got: Vec<(&str, u64)> = one.kinds().collect();
        let want: Vec<(&str, u64)> = kinds.iter().map(|(&k, &c)| (k, c)).collect();
        prop_assert_eq!(got, want);
        for label in labels.iter().chain(&["missing"]) {
            prop_assert_eq!(one.of_kind(label), kinds.get(label).copied().unwrap_or(0));
        }
        for d in [
            Direction::ClientToServer,
            Direction::ServerToClient,
            Direction::ClientToClient,
            Direction::ServerToServer,
        ] {
            prop_assert_eq!(one.in_direction(d), dirs.get(&d).copied().unwrap_or(0));
        }
    }

    /// `NetworkEnv::nearest` returns the true nearest environment.
    #[test]
    fn nearest_is_truly_nearest(latency in 0u64..2000) {
        let got = NetworkEnv::nearest(SimTime::new(latency));
        let best = NetworkEnv::ALL
            .into_iter()
            .map(|e| e.latency().units().abs_diff(latency))
            .min()
            .unwrap();
        prop_assert_eq!(got.latency().units().abs_diff(latency), best);
    }
}
