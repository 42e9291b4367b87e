//! The dense-indexed verification layers, checked against the
//! implementations they replaced (`reference/`): the span recorder's
//! `BTreeMap` state, the tracecheck's hash and tree maps, and the
//! serializability check's tree tables and tree-based Kahn pass.
//!
//! Every engine records a trace and a history over small configs: all
//! three fault-free, under message loss, and with a shard crash and
//! 2PC, plus g-2PL with `expand_reads` and with FIFO ordering; one more
//! trace holds only long, consistent forward lists. Each trace and many
//! mutated copies of it (events dropped, duplicated or swapped; an
//! event's transaction, item or site retargeted, ids past every engine
//! id included; fault and 2PC kinds inserted; a forward list reversed; a
//! suffix cut) must get the same verdict from both checkers, under the
//! run's own options and with fault checking on: the same `Ok`, or an
//! `Err` with the same message. Both recorders must report the same
//! breakdown, sketches included, the same flight and the same details,
//! replayed and live. Each history and many mutated copies (records
//! duplicated or dropped, accesses duplicated, versions bumped) must get
//! the same verdict too. The one intended difference is the cycle
//! witness: the new message is the old one followed by `; one cycle: `
//! and a closed walk.
//!
//! Ids read from a file can be any `u32` and versions any `u64`: on a
//! trace and a history naming the largest ones, the three layers must
//! give the reference's answers while no allocation grows past a small
//! bound (a table sized by such an id would need gigabytes).

mod reference;

use g2pl_core::{check_serializable, check_trace_with, TraceCheckOpts};
use g2pl_faults::{FaultPlan, ServerCrashWindow};
use g2pl_fwdlist::OrderingRule;
use g2pl_obs::{ObsReport, PhaseBreakdown, SpanRecorder, TraceEvent, TraceKind, TxnDetail};
use g2pl_protocols::history::AccessRecord;
use g2pl_protocols::{
    run, CommitRecord, EngineConfig, G2plOpts, History, ItemSpace, ProtocolKind, ShardMix,
};
use g2pl_simcore::{ItemId, RngStream, SimTime, SiteId, TxnId};
use g2pl_workload::AccessMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// The system allocator, recording the largest allocation the current
/// thread makes while [`largest_allocation`] runs, and refusing any
/// over `REFUSE` bytes there (the test then aborts instead of paging in
/// a table sized by an id).
struct Watched;

const REFUSE: usize = 1 << 30;

thread_local! {
    static WATCHING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn watch(size: usize) -> bool {
    WATCHING
        .try_with(|w| {
            if w.get() {
                LARGEST.with(|l| l.set(l.get().max(size)));
            }
            !(w.get() && size > REFUSE)
        })
        .unwrap_or(true)
}

// SAFETY: every method hands its caller's arguments unchanged to the
// system allocator, which upholds the `GlobalAlloc` contract, or returns
// null from `alloc`/`realloc`, which the contract allows to signal
// failure (a refused `realloc` leaves the old block untouched). `watch`
// allocates nothing: its thread-locals are const-initialized `Cell`s.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !watch(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` is passed on as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !watch(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Watched = Watched;

/// Run `f`; return its result and the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    WATCHING.with(|w| w.set(true));
    let out = f();
    WATCHING.with(|w| w.set(false));
    (out, LARGEST.with(Cell::get))
}

/// Mutated copies per recorded trace and per recorded history.
const MUTANTS: usize = 120;

struct Case {
    label: String,
    trace: Vec<TraceEvent>,
    history: History,
    opts: TraceCheckOpts,
}

fn engines() -> [ProtocolKind; 3] {
    [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ]
}

fn small(protocol: ProtocolKind, read_prob: f64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 8, 50, read_prob);
    cfg.warmup_txns = 10;
    cfg.measured_txns = 120;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.drain = true;
    cfg
}

fn record(what: &str, cfg: &EngineConfig) -> Case {
    let m = run(cfg).expect("valid config");
    let case = Case {
        label: format!("{} {what}", m.protocol),
        trace: m.trace.expect("trace on").to_vec(),
        history: m.history.expect("history on"),
        opts: TraceCheckOpts::for_config(cfg),
    };
    assert!(
        check_trace_with(&case.trace, case.opts).is_ok() && !case.history.is_empty(),
        "{}: the recorded run must verify",
        case.label
    );
    case
}

/// Forward lists only, all consistent with one global order of twelve
/// transactions: long lists that share many pairs, so reordering a list
/// breaks P6 through any of its pairs, the list heads' included. Engine
/// runs this small rarely put two transactions in two lists.
fn consistent_lists() -> Case {
    let mut rng = RngStream::new(0x11575);
    let mut trace = Vec::new();
    for w in 0..60u64 {
        let at = SimTime::new(10 * w);
        let item = Some(ItemId::new(rng.index(6) as u32));
        trace.push(TraceKind::WindowClosed.at(at, None, item, SiteId::SERVER0));
        let len = 2 + rng.index(5);
        let mut members = rng.distinct(len, 12);
        members.sort_unstable();
        for m in members {
            let txn = Some(TxnId::new(m));
            trace.push(TraceKind::FlOrdered.at(at, txn, item, SiteId::SERVER0));
        }
    }
    Case {
        label: "consistent forward lists".into(),
        trace,
        history: History::new(),
        opts: TraceCheckOpts::default(),
    }
}

/// Every engine and variant the verifier has to follow.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for protocol in engines() {
        out.push(record("fault-free", &small(protocol.clone(), 0.4)));

        let mut lossy = small(protocol.clone(), 0.4);
        lossy.faults = Some(FaultPlan::message_loss(0.05));
        out.push(record("message loss", &lossy));

        let mut crash = small(protocol, 0.4);
        crash.items = ItemSpace::sharded(4, 7);
        crash.profile.shard_mix = Some(ShardMix {
            cross_frac: 0.3,
            shard_theta: 0.5,
        });
        crash.faults = Some(FaultPlan {
            server_crashes: vec![ServerCrashWindow {
                shard: 2,
                at: 5_000,
                down_for: 1_200,
                jitter: 0,
            }],
            ..Default::default()
        });
        out.push(record("shard crash + 2PC", &crash));
    }
    let expand = ProtocolKind::G2pl(G2plOpts {
        expand_reads: true,
        ..G2plOpts::default()
    });
    out.push(record("expand_reads", &small(expand, 0.9)));
    let fifo = ProtocolKind::G2pl(G2plOpts {
        ordering: OrderingRule::fifo(),
        ..G2plOpts::default()
    });
    out.push(record("FIFO", &small(fifo, 0.4)));
    out.push(consistent_lists());
    out
}

/// A transaction id for a retargeted event: one the trace names, or one
/// past them (near, far, or the largest `u32`).
fn some_txn(trace: &[TraceEvent], rng: &mut RngStream) -> TxnId {
    let max = trace.iter().filter_map(|e| e.txn).max().map_or(0, |t| t.0);
    match rng.index(6) {
        0 => TxnId::new(max.saturating_add(1)),
        1 => TxnId::new(max.saturating_add(1_500)),
        2 => TxnId::new(u32::MAX),
        _ => trace[rng.index(trace.len())].txn.unwrap_or(TxnId::new(0)),
    }
}

fn some_item(trace: &[TraceEvent], rng: &mut RngStream) -> ItemId {
    let max = trace.iter().filter_map(|e| e.item).max().map_or(0, |i| i.0);
    match rng.index(5) {
        0 => ItemId::new(max.saturating_add(1)),
        1 => ItemId::new(u32::MAX),
        _ => trace[rng.index(trace.len())].item.unwrap_or(ItemId::new(0)),
    }
}

fn some_site(rng: &mut RngStream) -> SiteId {
    match rng.index(3) {
        0 => SiteId::SERVER0,
        1 => SiteId::server(rng.index(4) as u32),
        _ => SiteId::Client(g2pl_simcore::ClientId::new(rng.index(8) as u32)),
    }
}

const FAULT_KINDS: [TraceKind; 8] = [
    TraceKind::FaultInjected,
    TraceKind::LeaseExpired,
    TraceKind::Redispatch,
    TraceKind::ServerCrashed,
    TraceKind::ServerRecovered,
    TraceKind::Reregister,
    TraceKind::Prepared,
    TraceKind::CommitApplied,
];

/// One to three mutations of `trace`.
fn mutate_trace(trace: &[TraceEvent], rng: &mut RngStream) -> Vec<TraceEvent> {
    let mut t = trace.to_vec();
    for _ in 0..1 + rng.index(3) {
        if t.len() < 2 {
            break;
        }
        let i = rng.index(t.len() - 1);
        match rng.index(12) {
            0 => {
                t.remove(i);
            }
            1 => t.insert(i, t[i]),
            2 => t.swap(i, i + 1),
            3 => {
                // Swap two adjacent transitions but keep each position's
                // time, so the trace stays in time order.
                let (a, b) = (t[i].at, t[i + 1].at);
                t.swap(i, i + 1);
                t[i].at = a;
                t[i + 1].at = b;
            }
            4 => t[i].txn = Some(some_txn(trace, rng)),
            5 => t[i].item = Some(some_item(trace, rng)),
            6 => t[i].site = some_site(rng),
            7 | 8 => {
                let kind = FAULT_KINDS[rng.index(FAULT_KINDS.len())];
                let txn = rng.bernoulli(0.8).then(|| some_txn(trace, rng));
                let item = rng.bernoulli(0.5).then(|| some_item(trace, rng));
                let site = some_site(rng);
                t.insert(i, kind.at(t[i].at, txn, item, site));
            }
            9 | 10 => reverse_a_forward_list(&mut t, i),
            _ => t.truncate(i + 1),
        }
    }
    t
}

/// Reverse the entries of the first forward list dispatched at or after
/// event `from`, keeping each position's time: every pair the list
/// orders flips, so any pair an earlier list fixed becomes a P6 case.
fn reverse_a_forward_list(t: &mut [TraceEvent], from: usize) {
    let Some(close) = (from..t.len()).find(|&j| t[j].kind == TraceKind::WindowClosed) else {
        return;
    };
    let len = t[close + 1..]
        .iter()
        .take_while(|e| e.kind == TraceKind::FlOrdered)
        .count();
    let txns: Vec<Option<TxnId>> = t[close + 1..close + 1 + len]
        .iter()
        .map(|e| e.txn)
        .collect();
    for (e, txn) in t[close + 1..close + 1 + len]
        .iter_mut()
        .zip(txns.into_iter().rev())
    {
        e.txn = txn;
    }
}

/// One or two mutations of `history`.
fn mutate_history(history: &History, rng: &mut RngStream) -> History {
    let mut recs: Vec<CommitRecord> = history.records().to_vec();
    for _ in 0..1 + rng.index(2) {
        if recs.is_empty() {
            break;
        }
        let i = rng.index(recs.len());
        match rng.index(6) {
            0 => recs.insert(i + 1, recs[i].clone()),
            1 => {
                recs.remove(i);
            }
            2 => {
                let accs = &mut recs[i].accesses;
                if !accs.is_empty() {
                    let a = accs[rng.index(accs.len())];
                    accs.insert(rng.index(accs.len() + 1), a);
                }
            }
            _ => {
                let accs = &mut recs[i].accesses;
                if !accs.is_empty() {
                    let a = rng.index(accs.len());
                    let v = &mut accs[a].version;
                    *v = match rng.index(8) {
                        0 => u64::MAX,
                        1..=3 => v.saturating_sub(1),
                        _ => v.saturating_add(1),
                    };
                }
            }
        }
    }
    let mut h = History::new();
    for r in recs {
        h.push(r);
    }
    h
}

type RefReport = (PhaseBreakdown, Vec<TxnDetail>, Vec<TxnDetail>);

fn same_report(label: &str, new: ObsReport, old: RefReport) {
    assert_eq!(
        format!("{:?}", new.breakdown),
        format!("{:?}", old.0),
        "{label}: breakdown"
    );
    assert_eq!(new.details, old.1, "{label}: details");
    assert_eq!(new.flight, old.2, "{label}: flight");
}

/// Both recorders, replayed with detail and fed live without it.
fn same_recorders(label: &str, trace: &[TraceEvent]) {
    same_report(
        &format!("{label} (replay)"),
        SpanRecorder::replay(trace).finish(),
        reference::recorder::SpanRecorder::replay(trace).finish(),
    );
    let mut new = SpanRecorder::new(false);
    let mut old = reference::recorder::SpanRecorder::new();
    for e in trace {
        new.apply(e);
        old.apply(e);
    }
    same_report(&format!("{label} (live)"), new.finish(), old.finish());
}

/// Both tracechecks, under `opts` and with fault checking on. Returns
/// the verdicts' property tags, for coverage.
fn same_tracecheck(label: &str, trace: &[TraceEvent], opts: TraceCheckOpts) -> Vec<String> {
    let faulty = TraceCheckOpts {
        faults: true,
        ..opts
    };
    let mut tags = Vec::new();
    for o in [opts, faulty] {
        let new = check_trace_with(trace, o);
        let old = reference::tracecheck::check_trace_with(trace, o);
        assert_eq!(new, old, "{label} under {o:?}");
        if let Some(tag) = new
            .err()
            .and_then(|e| e.split_once(':').map(|(p, _)| p.to_string()))
        {
            tags.push(tag);
        }
    }
    tags
}

/// Both serializability checks. Returns the verdict's kind, for coverage.
fn same_serializability(label: &str, history: &History) -> &'static str {
    let new = check_serializable(history);
    let old = reference::verify::check_serializable(history);
    match (&new, &old) {
        (Ok(()), Ok(())) => "ok",
        (Err(n), Err(o)) if o.starts_with("conflict graph has a cycle") => {
            let witness = n
                .strip_prefix(o.as_str())
                .and_then(|rest| rest.strip_prefix("; one cycle: "))
                .unwrap_or_else(|| panic!("{label}: {n:?} does not extend {o:?}"));
            let first = witness.split(' ').next().unwrap_or_default();
            let last = witness.rsplit(' ').next().unwrap_or_default();
            assert!(
                first.starts_with('T') && first == last && witness.contains(" -["),
                "{label}: the witness must be a closed walk: {witness}"
            );
            "cycle"
        }
        _ => {
            assert_eq!(new, old, "{label}");
            match new {
                Err(e) if e.contains("twice") => "twice",
                Err(e) if e.contains("version 0") => "version 0",
                Err(e) if e.contains("two writers") => "two writers",
                Err(e) if e.contains("gap") => "gap",
                Err(e) if e.contains("read version") => "unwritten read",
                _ => "other",
            }
        }
    }
}

#[test]
fn dense_verification_matches_the_reference_on_engine_runs_and_mutants() {
    let mut trace_tags: BTreeMap<String, usize> = BTreeMap::new();
    let mut history_kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for (n, case) in cases().iter().enumerate() {
        let label = &case.label;
        same_recorders(label, &case.trace);
        assert!(same_tracecheck(label, &case.trace, case.opts).is_empty());
        assert_eq!(same_serializability(label, &case.history), "ok", "{label}");
        let mut rng = RngStream::new(0x5eed + n as u64);
        for m in 0..MUTANTS {
            let label = format!("{label}, mutant {m}");
            let trace = mutate_trace(&case.trace, &mut rng);
            same_recorders(&label, &trace);
            for tag in same_tracecheck(&label, &trace, case.opts) {
                *trace_tags.entry(tag).or_default() += 1;
            }
            let history = mutate_history(&case.history, &mut rng);
            *history_kinds
                .entry(same_serializability(&label, &history))
                .or_default() += 1;
        }
    }
    // The mutants must reach the properties, not stop at one shallow
    // violation.
    for p in ["P1", "P2", "P3", "P4", "P6", "P7", "P8", "P9", "P10"] {
        assert!(
            trace_tags.contains_key(p),
            "no mutant violates {p}: {trace_tags:?}"
        );
    }
    for kind in ["cycle", "twice", "two writers", "gap", "unwritten read"] {
        assert!(
            history_kinds.contains_key(kind),
            "no mutant history fails with {kind}: {history_kinds:?}"
        );
    }
}

#[test]
fn largest_ids_and_versions_match_the_reference_in_small_tables() {
    const BOUND: usize = 64 << 10;
    let big_txn = TxnId::new(u32::MAX);
    let big_item = ItemId::new(u32::MAX);
    let at = |t: u64| SimTime::new(t);
    let client = SiteId::Client(g2pl_simcore::ClientId::new(0));
    let mut trace = vec![
        TraceKind::RequestSent.at(at(0), Some(big_txn), Some(big_item), client),
        TraceKind::Granted.at(at(5), Some(big_txn), Some(big_item), client),
        TraceKind::RequestSent.at(at(6), Some(TxnId::new(3)), Some(ItemId::new(1)), client),
    ];
    let opts = TraceCheckOpts::default();
    let (verdict, largest) = largest_allocation(|| check_trace_with(&trace, opts));
    assert_eq!(verdict, Ok(()));
    assert_eq!(
        verdict,
        reference::tracecheck::check_trace_with(&trace, opts)
    );
    assert!(largest < BOUND, "tracecheck allocated {largest} bytes");

    trace.push(TraceEvent {
        n: 1,
        measured: true,
        ..TraceKind::Committed.at(at(9), Some(big_txn), None, client)
    });
    let (report, largest) = largest_allocation(|| SpanRecorder::replay(&trace).finish());
    assert!(largest < BOUND, "replay allocated {largest} bytes");
    assert_eq!(report.details.len(), 1, "the commit is flushed at finish");
    same_report(
        "largest ids",
        report,
        reference::recorder::SpanRecorder::replay(&trace).finish(),
    );

    let write = |txn: TxnId, item: ItemId, version: u64| CommitRecord {
        txn,
        at: at(1),
        accesses: vec![AccessRecord {
            item,
            mode: AccessMode::Write,
            version,
        }],
    };
    for records in [
        vec![write(TxnId::new(1), ItemId::new(0), u64::MAX)],
        vec![
            write(big_txn, big_item, 1),
            write(TxnId::new(0), big_item, u64::MAX),
        ],
    ] {
        let mut history = History::new();
        for r in records {
            history.push(r);
        }
        let (verdict, largest) = largest_allocation(|| check_serializable(&history));
        assert!(
            largest < BOUND,
            "serializability check allocated {largest} bytes"
        );
        assert_eq!(verdict, reference::verify::check_serializable(&history));
    }
    let mut history = History::new();
    history.push(write(TxnId::new(1), ItemId::new(0), u64::MAX));
    assert_eq!(
        check_serializable(&history).unwrap_err(),
        "write chain of x0 has a gap: expected version 1, found 18446744073709551615"
    );
}
