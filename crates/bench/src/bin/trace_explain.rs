//! `trace-explain` — analyze and check exported event traces.
//!
//! ```text
//! trace-explain [--timelines N] [--tail] <trace.jsonl>...
//! trace-explain --best-case
//! ```
//!
//! File mode replays a JSONL event trace (written by `repro --trace-out`)
//! through the phase-attribution state machine and renders, per file:
//!
//! - a per-phase latency breakdown table (mean / max / share of the
//!   measured response time),
//! - Fig-1-style ASCII timelines of the first few measured transactions,
//! - the round-count histogram with its observed mean, and
//! - a `phase-sum check` line: the five response phases must sum to the
//!   run's mean response time within 1% (the attribution is a partition
//!   of [first request, commit], so anything else is a bug), and
//! - a `trace-check` line: the file's events re-checked against the
//!   temporal properties P1–P10 under the checker options its meta line
//!   records — the exported trace is the trace the run verified. Files
//!   whose log dropped events, and span-only exports that predate the
//!   options, print SKIP.
//!
//! `--tail` switches file mode to tail attribution: instead of means it
//! prints the engine-exported p99/p999, a per-phase tail table (p50 /
//! p99 / max per phase, from the replayed quantile sketches), and the
//! flight recorder's worst-k measured transactions with the phase that
//! dominates each, plus their timelines. It also cross-checks the
//! `slow_txn` markers the exporter appended against the flight the
//! replay rebuilds (`tail-check:` line; skipped on truncated traces).
//!
//! `--best-case` runs the §3.1 worked example instead: every client
//! issues single-item exclusive transactions against a one-item database
//! so nothing can deadlock, then checks the empirical round counters
//! against the paper's analytic claim — s-2PL spends 3 rounds per
//! transaction (`3m` for `m` transactions) while g-2PL spends `2m + 1`
//! per collection window, i.e. `2·commits + windows` in total.
//!
//! Every check prints a line starting `round-check:`, `phase-sum check:`,
//! `tail-check:` or `trace-check:`; any FAIL, and any unreadable or
//! malformed file, sets a non-zero exit status.

use g2pl_core::check_trace_with;
use g2pl_obs::{
    parse_jsonl, ObsReport, Phase, RunMeta, SpanRecorder, TraceFile, TraceKind, TxnDetail,
};
use g2pl_protocols::{run, EngineConfig, ProtocolKind, RunMetrics};

const TIMELINE_COLS: usize = 60;

fn usage() -> ! {
    eprintln!(
        "usage: trace-explain [--timelines N] [--tail] <trace.jsonl>...\n\
         \u{20}      trace-explain --best-case\n\
         file mode replays JSONL event traces (from `repro --trace-out DIR`)\n\
         and prints per-phase breakdowns, ASCII timelines and round counts,\n\
         then re-checks each file against P1-P10;\n\
         --tail prints tail attribution instead: per-phase p99, the worst-k\n\
         flight-recorder transactions and their dominant phases, checked\n\
         against the exporter's slow_txn markers;\n\
         --best-case runs the paper's \u{a7}3.1 workload and asserts the\n\
         analytic round counts (3m for s-2PL, 2m+1 for g-2PL)"
    );
    std::process::exit(2);
}

/// One-character glyph per phase for the ASCII timelines.
fn glyph(p: Phase) -> char {
    match p {
        Phase::ReqProp => '>',
        Phase::ServerQueue => 'q',
        Phase::Migration => 'w',
        Phase::DispatchProp => '<',
        Phase::ClientProc => 'c',
        Phase::CommitReturn => 'r',
    }
}

fn legend() -> String {
    Phase::ALL
        .iter()
        .map(|p| format!("{}={}", glyph(*p), p.name()))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Render one transaction's critical path as a scaled character strip.
fn timeline(d: &TxnDetail) -> String {
    let span = d.end.units().saturating_sub(d.start.units()).max(1);
    let mut cells = vec![' '; TIMELINE_COLS];
    for (phase, from, to) in &d.intervals {
        let a = (from.units().saturating_sub(d.start.units())) as f64 / span as f64;
        let b = (to.units().saturating_sub(d.start.units())) as f64 / span as f64;
        let lo = ((a * TIMELINE_COLS as f64) as usize).min(TIMELINE_COLS - 1);
        let hi = ((b * TIMELINE_COLS as f64) as usize).clamp(lo + 1, TIMELINE_COLS);
        for cell in &mut cells[lo..hi] {
            *cell = glyph(*phase);
        }
    }
    cells.into_iter().collect()
}

fn print_timelines(details: &[TxnDetail], limit: usize) {
    let picked: Vec<&TxnDetail> = details.iter().filter(|d| d.measured).take(limit).collect();
    let picked: Vec<&TxnDetail> = if picked.is_empty() {
        details.iter().take(limit).collect()
    } else {
        picked
    };
    if picked.is_empty() {
        println!("  (no finalized transactions to draw)");
        return;
    }
    println!("  {}", legend());
    for d in picked {
        println!(
            "  txn {:>5}  t={:>8}..{:<8} rounds={:>2}  |{}|",
            d.txn.0,
            d.start.units(),
            d.end.units(),
            d.rounds,
            timeline(d)
        );
    }
}

fn print_breakdown(report: &ObsReport, mean_response: f64) {
    let b = &report.breakdown;
    println!(
        "  {:<14} {:>8} {:>12} {:>12} {:>8}",
        "phase", "count", "mean", "max", "share"
    );
    for p in Phase::ALL {
        let s = b.phase(p);
        let share = if mean_response > 0.0 && p.index() < Phase::RESPONSE_PHASES {
            format!("{:>7.1}%", 100.0 * s.mean() / mean_response)
        } else {
            "      --".to_string()
        };
        println!(
            "  {:<14} {:>8} {:>12.1} {:>12.1} {}",
            p.name(),
            s.count(),
            s.mean(),
            s.max().unwrap_or(0.0),
            share
        );
    }
    println!(
        "  rounds: total={} mean={:.2} over {} measured commits ({} server returns)",
        b.rounds_total,
        b.mean_rounds(),
        b.measured_commits,
        b.server_returns
    );
    let hist = &b.rounds;
    let peak = hist.counts().iter().copied().max().unwrap_or(0).max(1);
    for (i, &n) in hist.counts().iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
        println!("    {i:>3} rounds | {bar} {n}");
    }
    if hist.overflow() > 0 {
        println!("    >64 rounds | {} (overflow)", hist.overflow());
    }
}

/// The five response phases must partition [first request, commit]:
/// their means sum to the mean response time, within 1%.
fn phase_sum_check(report: &ObsReport, mean_response: f64, label: &str) -> bool {
    let sum = report.breakdown.mean_phase_sum();
    if report.breakdown.measured_commits == 0 {
        println!("phase-sum check: SKIP ({label}: no measured commits)");
        return true;
    }
    let rel = if mean_response > 0.0 {
        (sum - mean_response).abs() / mean_response
    } else {
        sum.abs()
    };
    let ok = rel <= 0.01;
    println!(
        "phase-sum check: {} ({label}: phase means sum to {sum:.1}, mean response {mean_response:.1}, \
         {:.3}% apart)",
        if ok { "PASS" } else { "FAIL" },
        100.0 * rel
    );
    ok
}

/// Tail attribution: engine-exported quantiles, the per-phase tail
/// table from the replayed sketches, and the flight recorder's worst-k
/// transactions with the phase that dominates each.
fn print_tail(report: &ObsReport, meta_p99: u64, meta_p999: u64) {
    let b = &report.breakdown;
    println!(
        "  engine-side response quantiles: p99={meta_p99} p999={meta_p999} \
         ({} measured commits)",
        b.measured_commits
    );
    println!(
        "  {:<14} {:>8} {:>10} {:>10} {:>10}",
        "phase", "count", "p50", "p99", "max"
    );
    for p in Phase::ALL {
        let t = b.tail(p);
        println!(
            "  {:<14} {:>8} {:>10} {:>10} {:>10}",
            p.name(),
            t.count(),
            t.quantile(0.5).unwrap_or(0),
            t.quantile(0.99).unwrap_or(0),
            t.max().unwrap_or(0),
        );
    }
    if report.flight.is_empty() {
        println!("  flight recorder: empty (no measured commits)");
        return;
    }
    println!(
        "  flight recorder: {} worst measured transactions (dominant response phase)",
        report.flight.len()
    );
    println!("  {}", legend());
    for (rank, d) in report.flight.iter().enumerate() {
        let response = d.commit.units().saturating_sub(d.start.units());
        let mut dom = Phase::ALL[0];
        for p in &Phase::ALL[..Phase::RESPONSE_PHASES] {
            if d.phases[p.index()] > d.phases[dom.index()] {
                dom = *p;
            }
        }
        let share = if response > 0 {
            100.0 * d.phases[dom.index()] as f64 / response as f64
        } else {
            0.0
        };
        println!(
            "  #{:<3} txn {:>5} response={:>8} {}={:.0}%  |{}|",
            rank + 1,
            d.txn.0,
            response,
            dom.name(),
            share,
            timeline(d)
        );
    }
}

/// The `slow_txn` markers the exporter appended must name exactly the
/// transactions the replayed flight recorder retains, in rank order —
/// the trace is self-describing or it is wrong. Truncated traces skip
/// the check: the markers cover the full run but the replay only sees
/// the surviving prefix.
fn tail_check(tf: &TraceFile, report: &ObsReport, dropped: u64, label: &str) -> bool {
    if dropped > 0 {
        println!("tail-check: SKIP ({label}: trace truncated, replay sees only a prefix)");
        return true;
    }
    let mut markers: Vec<(u32, u32)> = tf
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::SlowTxn)
        .filter_map(|e| e.txn.map(|t| (e.n, t.0)))
        .collect();
    markers.sort_unstable_by_key(|&(n, _)| n);
    let marked: Vec<u32> = markers.into_iter().map(|(_, t)| t).collect();
    let replayed: Vec<u32> = report.flight.iter().map(|d| d.txn.0).collect();
    let ok = marked == replayed;
    if ok {
        println!(
            "tail-check: PASS ({label}: {} slow_txn markers match the replayed flight recorder)",
            marked.len()
        );
    } else {
        println!(
            "tail-check: FAIL ({label}: markers name txns {marked:?} but the replay \
             retains {replayed:?})"
        );
    }
    ok
}

fn explain_file(path: &str, timelines: usize, tail: bool) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-explain: cannot read {path}: {e}");
            return false;
        }
    };
    let tf = match parse_jsonl(&text) {
        Ok(tf) => tf,
        Err(e) => {
            eprintln!("trace-explain: {path}: {e}");
            return false;
        }
    };
    let RunMeta {
        protocol,
        clients,
        latency,
        read_prob,
        seed,
        committed,
        aborted,
        measured,
        mean_response,
        dropped,
        lease_expiries,
        recovery_stall,
        server_crashes,
        response_p99,
        response_p999,
        check: _,
    } = tf.meta.clone();
    println!("== {path}");
    println!(
        "  {protocol}  clients={clients} latency={latency} pr={read_prob} seed={seed}  \
         committed={committed} aborted={aborted} measured={measured}"
    );
    if dropped > 0 {
        println!(
            "  WARNING: recorder dropped {dropped} events past its cap; \
             the trace is a prefix and every number below is an undercount"
        );
    }
    let report = SpanRecorder::replay(&tf.events).finish();
    if tail {
        print_tail(&report, response_p99, response_p999);
        let ok = tail_check(&tf, &report, dropped, &protocol);
        let ok = ok && (dropped > 0 || phase_sum_check(&report, mean_response, &protocol));
        return trace_check(&tf, &protocol) && ok;
    }
    print_breakdown(&report, mean_response);
    if server_crashes > 0 {
        println!("  recovery: survived {server_crashes} server crash/restart cycles");
    }
    if lease_expiries > 0 || recovery_stall > 0.0 {
        let share = if mean_response > 0.0 && measured > 0 {
            100.0 * (recovery_stall / measured as f64) / mean_response
        } else {
            0.0
        };
        println!(
            "  recovery: {lease_expiries} lease expiries, {recovery_stall:.0} stalled \
             ({:.1} per measured commit, {share:.1}% of mean response)",
            if measured > 0 {
                recovery_stall / measured as f64
            } else {
                0.0
            }
        );
    }
    print_timelines(&report.details, timelines);
    // A truncated trace cannot pass a partition check honestly.
    let ok = dropped > 0 || phase_sum_check(&report, mean_response, &protocol);
    trace_check(&tf, &protocol) && ok
}

/// Re-run P1–P10 on the file's events under the checker options its
/// meta line records. A truncated trace is a prefix and a span-only
/// export lacks the events the properties read, so both are skipped.
fn trace_check(tf: &TraceFile, label: &str) -> bool {
    let Some(opts) = tf.meta.check else {
        println!("trace-check: SKIP ({label}: span-only export, no checker options)");
        return true;
    };
    if tf.meta.dropped > 0 {
        println!(
            "trace-check: SKIP ({label}: trace truncated, {} events dropped)",
            tf.meta.dropped
        );
        return true;
    }
    match check_trace_with(&tf.events, opts) {
        Ok(()) => {
            let n = tf
                .events
                .iter()
                .filter(|e| e.kind != TraceKind::SlowTxn)
                .count();
            println!("trace-check: PASS ({label}: P1-P10 hold over {n} events)");
            true
        }
        Err(e) => {
            println!("trace-check: FAIL ({label}: {e})");
            false
        }
    }
}

/// The §3.1 worked example: one hot item, exclusive single-item
/// transactions, nothing can deadlock, every commit is measured.
fn best_case_cfg(protocol: ProtocolKind) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 8, 200, 0.0);
    cfg.items = g2pl_protocols::ItemSpace::single(1);
    cfg.profile.min_items = 1;
    cfg.profile.max_items = 1;
    cfg.warmup_txns = 0;
    cfg.measured_txns = 200;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.seed = 7;
    cfg
}

fn replay_run(m: &RunMetrics) -> ObsReport {
    let spans = m.spans.as_deref().unwrap_or(&[]);
    SpanRecorder::replay(spans).finish()
}

fn best_case() -> bool {
    let mut ok = true;

    // s-2PL: every single-item transaction is request + grant +
    // commit-release — exactly 3 network rounds, 3m in total.
    // lint:allow(L3): the best-case config is constructed in this binary and statically valid
    let m = run(&best_case_cfg(ProtocolKind::S2pl)).expect("valid config");
    let report = replay_run(&m);
    let n = report.details.len();
    let off: Vec<&TxnDetail> = report.details.iter().filter(|d| d.rounds != 3).collect();
    if off.is_empty() && n > 0 {
        println!(
            "round-check: PASS (s-2PL best case: 3 rounds for each of {n} commits; analytic 3m = {})",
            3 * n
        );
    } else {
        ok = false;
        println!(
            "round-check: FAIL (s-2PL best case: {} of {n} commits deviate from 3 rounds: {:?})",
            off.len(),
            off.iter()
                .take(5)
                .map(|d| (d.txn.0, d.rounds))
                .collect::<Vec<_>>()
        );
    }
    ok &= phase_sum_check(&report, m.response.mean(), "s-2PL best case");

    // g-2PL: a collection window of m transactions costs m requests,
    // m grants (each mid-window release rides its successor's grant),
    // and 1 final server return: 2m + 1. Summed over the run that is
    // 2·commits + windows.
    // lint:allow(L3): the best-case config is constructed in this binary and statically valid
    let m = run(&best_case_cfg(ProtocolKind::g2pl_paper())).expect("valid config");
    let report = replay_run(&m);
    let n = report.details.len() as u64;
    let total: u64 = report.details.iter().map(|d| u64::from(d.rounds)).sum();
    let analytic = 2 * n + m.window_closes;
    if total == analytic && n > 0 {
        println!(
            "round-check: PASS (g-2PL best case: {total} rounds over {n} commits in {} windows; \
             analytic 2m+1 per window = {analytic})",
            m.window_closes
        );
    } else {
        ok = false;
        println!(
            "round-check: FAIL (g-2PL best case: {total} rounds over {n} commits, expected \
             2*{n}+{} = {analytic})",
            m.window_closes
        );
    }
    ok &= phase_sum_check(&report, m.response.mean(), "g-2PL best case");

    println!();
    println!("  s-2PL \u{a7}3.1 timelines:");
    // lint:allow(L3): the best-case config is constructed in this binary and statically valid
    let s = replay_run(&run(&best_case_cfg(ProtocolKind::S2pl)).expect("valid config"));
    print_timelines(&s.details, 4);
    println!("  g-2PL \u{a7}3.1 timelines:");
    print_timelines(&report.details, 4);
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut timelines = 4usize;
    let mut files: Vec<String> = Vec::new();
    let mut run_best_case = false;
    let mut tail = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--best-case" => run_best_case = true,
            "--tail" => tail = true,
            "--timelines" => {
                i += 1;
                timelines = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            a if a.starts_with('-') => usage(),
            a => files.push(a.to_string()),
        }
        i += 1;
    }
    if !run_best_case && files.is_empty() {
        usage();
    }

    let mut ok = true;
    if run_best_case {
        ok &= best_case();
    }
    for f in &files {
        ok &= explain_file(f, timelines, tail);
        println!();
    }
    if !ok {
        std::process::exit(1);
    }
}
