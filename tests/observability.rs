//! Observability integration tests: the golden Fig-1 round counts, the
//! phase-partition property on real engine runs, consistency of the
//! aggregates under heavy aborts, the recording contract (only runs with
//! `trace_events` set aggregate, and recording perturbs nothing), and
//! the `--trace-out` JSONL export.
//!
//! The round counts pin the paper's §3.1 analysis: on the best-case
//! workload (single-item exclusive transactions, one hot item, nothing
//! can deadlock) s-2PL pays exactly 3 sequential network rounds per
//! transaction (`3m` total) while g-2PL pays `2m + 1` per collection
//! window — each mid-window release rides its successor's grant, and
//! only the last holder sends a data message back to the server.

use g2pl_core::prelude::*;
use g2pl_obs::{ObsReport, Phase, SpanRecorder, TraceKind, TxnDetail, FLIGHT_K};

/// `set_trace_out` is process-global; tests that flip it must not
/// interleave.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The §3.1 worked example: one hot item, exclusive single-item
/// transactions, drain at the end so every commit's release accounting
/// completes.
fn best_case(protocol: ProtocolKind, clients: u32, latency: u64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, clients, latency, 0.0);
    cfg.items = g2pl_protocols::ItemSpace::single(1);
    cfg.profile.min_items = 1;
    cfg.profile.max_items = 1;
    cfg.warmup_txns = 0;
    cfg.measured_txns = 60;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.seed = 11;
    cfg
}

fn replayed(m: &RunMetrics) -> ObsReport {
    SpanRecorder::replay(m.spans.as_deref().unwrap_or(&[])).finish()
}

#[test]
fn s2pl_best_case_spends_three_rounds_per_transaction() {
    let m = run(&best_case(ProtocolKind::S2pl, 3, 100)).expect("valid config");
    let report = replayed(&m);
    assert!(!report.details.is_empty());
    for d in &report.details {
        assert_eq!(
            d.rounds, 3,
            "s-2PL single-item txn {} used {} rounds, Fig 1 says 3",
            d.txn.0, d.rounds
        );
    }
    // Aggregate view agrees: mean of the rounds histogram is exactly 3.
    assert!((m.phases.mean_rounds() - 3.0).abs() < 1e-9);
}

#[test]
fn g2pl_best_case_spends_two_m_plus_one_rounds_per_window() {
    let m = run(&best_case(ProtocolKind::g2pl_paper(), 3, 100)).expect("valid config");
    let report = replayed(&m);
    let commits = report.details.len() as u64;
    let total: u64 = report.details.iter().map(|d| u64::from(d.rounds)).sum();
    assert!(commits > 0 && m.window_closes > 0);
    assert_eq!(
        total,
        2 * commits + m.window_closes,
        "g-2PL rounds must sum to 2m+1 per window ({} commits, {} windows)",
        commits,
        m.window_closes
    );
    // Strictly fewer rounds than s-2PL's 3m as soon as any window
    // batches more than one transaction.
    assert!(m.window_closes < commits || total == 3 * commits);
}

#[test]
fn response_phases_partition_the_measured_response_time() {
    for kind in [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ] {
        let mut cfg = EngineConfig::table1(kind, 8, 250, 0.25);
        cfg.warmup_txns = 30;
        cfg.measured_txns = 200;
        cfg.trace_events = true;
        let m = run(&cfg).expect("valid config");
        assert_eq!(m.phases.measured_commits, m.response.count());
        let sum = m.phases.mean_phase_sum();
        let mean = m.response.mean();
        assert!(
            (sum - mean).abs() <= 0.01 * mean,
            "{}: phase means sum to {sum}, mean response is {mean}",
            m.protocol
        );
        // The tail phase exists but is excluded from the partition.
        assert_eq!(Phase::RESPONSE_PHASES, 5);
        assert!(m.phases.phase(Phase::CommitReturn).count() > 0);
        // Nothing was silently lost.
        assert_eq!(m.phases.spans_dropped, 0);
        assert!(!m.trace_truncated());
    }
}

#[test]
fn aggregates_stay_consistent_under_heavy_aborts() {
    // Five clients hammering a five-item pool with write-only five-item
    // transactions: deadlocks and victim aborts throughout.
    let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, 10, 100, 0.0);
    cfg.items = g2pl_protocols::ItemSpace::single(5);
    cfg.profile.min_items = 5;
    cfg.profile.max_items = 5;
    cfg.warmup_txns = 10;
    cfg.measured_txns = 120;
    cfg.trace_events = true;
    let m = run(&cfg).expect("valid config");
    assert!(m.aborted_total > 0, "config failed to provoke aborts");
    assert_eq!(m.phases.measured_commits, m.response.count());
    // Aborted transactions contribute no rounds and no phase samples,
    // so every phase count equals the measured-commit count and the
    // histogram total matches too.
    for p in Phase::ALL.iter().take(Phase::RESPONSE_PHASES) {
        assert!(m.phases.phase(*p).count() <= m.phases.measured_commits);
    }
    assert_eq!(m.phases.rounds.total(), m.phases.measured_commits);
    let sum = m.phases.mean_phase_sum();
    let mean = m.response.mean();
    assert!((sum - mean).abs() <= 0.01 * mean);
}

#[test]
fn response_sketch_and_flight_recorder_ride_in_run_metrics() {
    let mut cfg = EngineConfig::table1(ProtocolKind::g2pl_paper(), 8, 250, 0.25);
    cfg.warmup_txns = 30;
    cfg.measured_txns = 200;
    let m = run(&cfg).expect("valid config");
    // The sketch counts exactly the commits the mean counts, and its
    // max is the exact observed maximum (quantile(1.0) is clamped).
    assert_eq!(m.response_tail.count(), m.response.count());
    let max = m.response_tail.max().expect("measured commits exist");
    assert_eq!(
        max as f64,
        m.response.max().expect("measured commits exist")
    );
    let t = m.tail_summary();
    assert!(t.p50 <= t.p90 && t.p90 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.max);
    // Phase tails and the flight recorder ride in runs that record.
    cfg.trace_events = true;
    let m = run(&cfg).expect("valid config");
    // Each response phase's tail sketch saw every measured commit.
    for p in Phase::ALL.iter().take(Phase::RESPONSE_PHASES) {
        assert_eq!(m.phases.tail(*p).count(), m.phases.measured_commits);
    }
    // Flight recorder: bounded, measured-only, worst-first, and its
    // worst entry is the sketch's exact maximum.
    assert!(!m.flight.is_empty());
    assert!(m.flight.len() <= FLIGHT_K);
    assert!(m.flight.iter().all(|d| d.measured));
    let responses: Vec<u64> = m
        .flight
        .iter()
        .map(|d| d.commit.units() - d.start.units())
        .collect();
    assert!(
        responses.windows(2).all(|w| w[0] >= w[1]),
        "flight not sorted worst-first: {responses:?}"
    );
    assert_eq!(responses[0], max);
}

#[test]
fn unrecorded_runs_skip_aggregation_and_match_recorded_runs() {
    for kind in [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ] {
        let mut cfg = EngineConfig::table1(kind, 8, 250, 0.25);
        cfg.warmup_txns = 30;
        cfg.measured_txns = 200;
        let plain = run(&cfg).expect("valid config");
        cfg.trace_events = true;
        let rec = run(&cfg).expect("valid config");
        let name = rec.protocol;
        // Recording is passive: the simulation itself is unchanged.
        assert_eq!(plain.events, rec.events, "{name}");
        assert_eq!(plain.committed_total, rec.committed_total, "{name}");
        assert_eq!(plain.net.messages(), rec.net.messages(), "{name}");
        assert_eq!(plain.response_tail, rec.response_tail, "{name}");
        // An unrecorded run builds no recorder, so it aggregates nothing.
        assert_eq!(plain.phases.measured_commits, 0, "{name}");
        assert!(plain.flight.is_empty(), "{name}");
        assert!(plain.trace.is_none() && plain.spans.is_none(), "{name}");
        // A recorded run aggregates live exactly what a replay of its
        // stream rebuilds.
        assert!(rec.phases.measured_commits > 0, "{name}");
        let replay = replayed(&rec);
        assert_eq!(
            rec.phases.rounds_total, replay.breakdown.rounds_total,
            "{name}"
        );
        assert_eq!(
            rec.phases.measured_commits, replay.breakdown.measured_commits,
            "{name}"
        );
        let ids = |f: &[TxnDetail]| f.iter().map(|d| d.txn).collect::<Vec<_>>();
        assert_eq!(ids(&rec.flight), ids(&replay.flight), "{name}");
    }
}

#[test]
fn trace_export_round_trips_flight_markers() {
    let _guard = TRACE_LOCK.lock().expect("trace lock poisoned");
    let dir = std::env::temp_dir().join(format!("g2pl-obs-tail-test-{}", std::process::id()));
    let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, 6, 200, 0.25);
    cfg.warmup_txns = 10;
    cfg.measured_txns = 100;
    set_trace_out(Some(dir.clone()));
    let _ = run_replicated(&cfg, 1);
    set_trace_out(None);

    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("export directory exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(entries.len(), 1);
    let text = std::fs::read_to_string(&entries[0]).expect("trace readable");
    let tf = g2pl_obs::parse_jsonl(&text).expect("trace parses");
    assert!(tf.meta.response_p99 > 0, "meta carries engine-side p99");
    assert!(tf.meta.response_p99 <= tf.meta.response_p999);

    // The exporter appended one slow_txn marker per flight entry, in
    // rank order; replaying the same events must rebuild that flight.
    let markers: Vec<_> = tf
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::SlowTxn)
        .collect();
    assert!(!markers.is_empty());
    let report = SpanRecorder::replay(&tf.events).finish();
    assert_eq!(markers.len(), report.flight.len());
    for (i, (ev, d)) in markers.iter().zip(report.flight.iter()).enumerate() {
        assert_eq!(ev.n as usize, i + 1, "markers out of rank order");
        assert_eq!(ev.txn, Some(d.txn));
        assert_eq!(ev.at, d.end);
        assert!(ev.measured);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_exports_a_parseable_jsonl_trace() {
    let _guard = TRACE_LOCK.lock().expect("trace lock poisoned");
    let dir = std::env::temp_dir().join(format!("g2pl-obs-test-{}", std::process::id()));
    let mut cfg = EngineConfig::table1(ProtocolKind::g2pl_paper(), 4, 150, 0.25);
    cfg.warmup_txns = 10;
    cfg.measured_txns = 80;
    set_trace_out(Some(dir.clone()));
    let result = run_replicated(&cfg, 2);
    set_trace_out(None);
    assert_eq!(result.reps(), 2);

    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("export directory exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "exactly replication 0 is exported");
    let text = std::fs::read_to_string(&entries[0]).expect("trace readable");
    let tf = g2pl_obs::parse_jsonl(&text).expect("trace parses");
    assert_eq!(tf.meta.protocol, "g-2PL");
    assert_eq!(tf.meta.clients, 4);
    assert_eq!(tf.meta.dropped, 0);
    assert!(tf.meta.measured > 0);
    assert!(!tf.events.is_empty());

    // Replaying the exported events reproduces the partition property.
    let report = SpanRecorder::replay(&tf.events).finish();
    assert_eq!(report.breakdown.measured_commits, tf.meta.measured);
    let sum = report.breakdown.mean_phase_sum();
    assert!((sum - tf.meta.mean_response).abs() <= 0.01 * tf.meta.mean_response);

    std::fs::remove_dir_all(&dir).ok();
}
