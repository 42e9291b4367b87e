//! Traces in the span-only export format still parse and replay to the
//! numbers they produced when they were written.
//!
//! `tests/data/*_best_case_pre_merge.jsonl` hold one tiny export per
//! engine (4 clients, a 2-item database, 12 measured completions, seed
//! 7, drained) in the format that predates the one event stream: span
//! kind names (`req_sent`, `dispatched`, `granted_local`,
//! `commit_local`, ...), a `server` flag instead of a `site` on each
//! line, and no checker options in the meta line. The per-phase means,
//! round and server-return totals and flight-recorder transactions
//! below were pinned from the replay of exactly these files, so any
//! change to the parser's legacy aliases or to the phase attribution
//! shows up here.

use g2pl_obs::{parse_jsonl, Phase, SpanRecorder};

struct Pinned {
    file: &'static str,
    /// Mean time per phase, in [`Phase::ALL`] order.
    means: [f64; 6],
    rounds_total: u64,
    server_returns: u64,
    measured_commits: u64,
    /// Flight-recorder transactions, worst first.
    flight: &'static [u32],
}

const PINNED: [Pinned; 3] = [
    Pinned {
        file: "s2pl_best_case_pre_merge.jsonl",
        means: [
            133.333_333_333_333_34,
            443.888_888_888_888_9,
            0.0,
            133.333_333_333_333_34,
            2.222_222_222_222_222_3,
            100.0,
        ],
        rounds_total: 33,
        server_returns: 13,
        measured_commits: 9,
        flight: &[7, 10, 4, 6, 13, 12, 2, 1, 5],
    },
    Pinned {
        file: "g2pl_best_case_pre_merge.jsonl",
        means: [
            133.333_333_333_333_34,
            218.555_555_555_555_54,
            90.777_777_777_777_77,
            133.333_333_333_333_34,
            2.333_333_333_333_333_5,
            100.0,
        ],
        rounds_total: 31,
        server_returns: 16,
        measured_commits: 9,
        flight: &[7, 11, 4, 9, 6, 2, 1, 12, 5],
    },
    Pinned {
        file: "c2pl_best_case_pre_merge.jsonl",
        means: [125.0, 749.25, 0.0, 125.0, 2.375, 100.0],
        rounds_total: 28,
        server_returns: 13,
        measured_commits: 8,
        flight: &[6, 10, 4, 12, 2, 1, 5, 7],
    },
];

#[test]
fn pre_merge_exports_replay_to_their_pinned_attribution() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    for pin in &PINNED {
        let text = std::fs::read_to_string(dir.join(pin.file))
            .unwrap_or_else(|e| panic!("{}: {e}", pin.file));
        let tf = parse_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", pin.file));
        let report = SpanRecorder::replay(&tf.events).finish();
        let b = &report.breakdown;
        for (p, want) in Phase::ALL.iter().zip(pin.means) {
            let got = b.phase(*p).mean();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{}: {p} mean {got}, pinned {want}",
                pin.file
            );
        }
        assert_eq!(b.rounds_total, pin.rounds_total, "{}", pin.file);
        assert_eq!(b.server_returns, pin.server_returns, "{}", pin.file);
        assert_eq!(b.measured_commits, pin.measured_commits, "{}", pin.file);
        assert_eq!(b.measured_commits, tf.meta.measured, "{}", pin.file);
        let flight: Vec<u32> = report.flight.iter().map(|d| d.txn.0).collect();
        assert_eq!(flight, pin.flight, "{}", pin.file);
    }
}
