//! Property-based invariant tests across all protocol engines.
//!
//! Every engine, under randomly drawn configurations, must:
//! * produce conflict-serializable committed histories;
//! * drain to quiescence (all items home, no locks held, no data stuck);
//! * fill its measurement window exactly;
//! * be bit-deterministic under a fixed seed.

use g2pl_core::prelude::*;
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::S2pl),
        Just(ProtocolKind::C2pl),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(mr1w, consistent, expand)| {
            let mut opts = G2plOpts {
                mr1w,
                expand_reads: expand,
                ..G2plOpts::default()
            };
            if !consistent {
                opts.ordering = g2pl_fwdlist::OrderingRule::fifo();
            }
            ProtocolKind::G2pl(opts)
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        arb_protocol(),
        2u32..12,      // clients
        1u64..300,     // latency
        0u32..=10,     // read probability tenths
        1u32..=4,      // max items per txn
        any::<u64>(),  // seed
        any::<bool>(), // messaged aborts
    )
        .prop_map(
            |(protocol, clients, latency, pr10, max_items, seed, messaged)| {
                let mut cfg =
                    EngineConfig::table1(protocol, clients, latency, f64::from(pr10) / 10.0);
                cfg.profile.max_items = max_items;
                cfg.items = g2pl_protocols::ItemSpace::single(8);
                cfg.warmup_txns = 20;
                cfg.measured_txns = 150;
                cfg.seed = seed;
                cfg.drain = true;
                cfg.record_history = true;
                if messaged {
                    cfg.abort_effect = AbortEffect::Messaged;
                }
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Committed histories are conflict-serializable with well-formed
    /// version chains, and traces pass P1–P10, for every protocol and
    /// optimization combination.
    #[test]
    fn histories_are_serializable(mut cfg in arb_config()) {
        cfg.trace_events = true;
        let m = run(&cfg).expect("valid config");
        check_run(&cfg, &m).unwrap_or_else(|e| panic!("{}: {e}", m.protocol));
    }

    /// Runs drain to quiescence (the engines assert conservation
    /// internally when `drain` is set) and fill the measurement window.
    #[test]
    fn runs_drain_and_fill_window(cfg in arb_config()) {
        let m = run(&cfg).expect("valid config");
        prop_assert_eq!(m.aborts.trials(), cfg.measured_txns);
        prop_assert!(m.committed_total > 0);
        // Every committed transaction has a response sample or fell in
        // the warm-up / post-window period.
        prop_assert!(m.response.count() <= m.committed_total);
    }

    /// Same seed, same metrics — full determinism.
    #[test]
    fn determinism(cfg in arb_config()) {
        let a = run(&cfg).expect("valid config");
        let b = run(&cfg).expect("valid config");
        prop_assert_eq!(a.response.mean(), b.response.mean());
        prop_assert_eq!(a.committed_total, b.committed_total);
        prop_assert_eq!(a.aborted_total, b.aborted_total);
        prop_assert_eq!(a.net.messages(), b.net.messages());
        prop_assert_eq!(a.net.bytes(), b.net.bytes());
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.deadlock_searches, b.deadlock_searches);
        prop_assert_eq!(a.deadlock_searches_skipped, b.deadlock_searches_skipped);
    }
}

/// Aborted transactions never appear in the committed history.
#[test]
fn aborted_txns_never_commit() {
    let mut cfg = EngineConfig::table1(ProtocolKind::g2pl_paper(), 10, 50, 0.3);
    cfg.warmup_txns = 0;
    cfg.measured_txns = 400;
    cfg.drain = true;
    cfg.record_history = true;
    let m = run(&cfg).expect("valid config");
    assert!(m.aborted_total > 0, "want some aborts for this test");
    let h = m.history.expect("history");
    assert_eq!(
        h.len() as u64,
        m.committed_total,
        "history records exactly the committed transactions"
    );
    // Distinct transactions only.
    let mut ids: Vec<_> = h.records().iter().map(|r| r.txn).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before);
}

/// WAL bookkeeping: enabling it changes no modelled metric, logs drain to
/// empty, and g-2PL retains strictly more log space than s-2PL (versions
/// migrate before becoming permanent).
#[test]
fn wal_invariants_and_retention_ordering() {
    let mk = |protocol: ProtocolKind, wal: bool| {
        let mut cfg = EngineConfig::table1(protocol, 12, 250, 0.25);
        cfg.warmup_txns = 50;
        cfg.measured_txns = 400;
        cfg.drain = true;
        cfg.enable_wal = wal;
        cfg
    };
    for protocol in [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ] {
        let with = run(&mk(protocol.clone(), true)).expect("valid config");
        let without = run(&mk(protocol, false)).expect("valid config");
        assert_eq!(
            with.response.mean(),
            without.response.mean(),
            "{}: WAL bookkeeping must not perturb the model",
            with.protocol
        );
        assert_eq!(with.net.messages(), without.net.messages());
        let wal = with.wal.expect("wal enabled");
        assert_eq!(wal.end_live_records, 0, "drained run must empty the logs");
        assert!(wal.forces > 0, "commits force the log");
        assert!(wal.bytes_written > 0);
    }

    let s = run(&mk(ProtocolKind::S2pl, true))
        .expect("valid config")
        .wal
        .unwrap();
    let g = run(&mk(ProtocolKind::g2pl_paper(), true))
        .expect("valid config")
        .wal
        .unwrap();
    assert!(
        g.high_water_bytes_max > s.high_water_bytes_max,
        "g-2PL must retain more log space (g {} vs s {})",
        g.high_water_bytes_max,
        s.high_water_bytes_max
    );
}
