//! Substrate timings, sized from what the engines reported.
//!
//! Each function replays one layer's public API on inputs drawn from the
//! workload's seed and transaction profile, at the depth or length the
//! workload's cells observed, and returns the median time per operation
//! over repeated batches. These replace the criterion microbenches of
//! `crates/bench/benches/substrates.rs` for per-layer reporting.

use g2pl_faults::{FaultInjector, FaultPlan};
use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{FlEntry, PrecedenceDag};
use g2pl_lockmgr::{LockMode, LockTable, WaitForGraph};
use g2pl_protocols::G2plOpts;
use g2pl_simcore::{Calendar, ClientId, ItemId, RngStream, SimTime, SiteId, TxnId};
use g2pl_stats::TailSketch;
use g2pl_wal::{ServerLog, ServerRecord};
use g2pl_workload::{TxnGenerator, TxnProfile};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's hot-item pool (Table 1).
const HOT_ITEMS: u32 = 25;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Run `batch` (which returns its operation count) until `budget` is
/// spent, at least three times; the median nanoseconds per operation.
fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        let ops = batch().max(1);
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// Transactions drawn from the Table-1 profile at each read probability
/// in turn, as lock-mode access lists.
fn draw_txns(prs: &[f64], n: usize, seed: u64) -> Vec<Vec<(ItemId, LockMode)>> {
    let gens: Vec<TxnGenerator> = prs
        .iter()
        .map(|&pr| TxnGenerator::new(TxnProfile::table1(pr), HOT_ITEMS))
        .collect();
    let mut rng = RngStream::derive(seed, "perfbench-txns");
    (0..n)
        .map(|i| {
            gens[i % gens.len()]
                .draw(&mut rng)
                .accesses
                .iter()
                .map(|&(item, mode)| {
                    let lock = if mode.is_write() {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    (item, lock)
                })
                .collect()
        })
        .collect()
}

/// Hold-model calendar cost at `depth` pending events: pop the earliest,
/// schedule a successor, and every eighth step schedule and cancel a
/// timer, as the engines' retry and lease timers do.
pub fn calendar_hold_ns(depth: usize, seed: u64, budget: Duration) -> f64 {
    if depth == 0 {
        return 0.0;
    }
    let mut rng = RngStream::derive(seed, "perfbench-calendar");
    let delays: Vec<u64> = (0..4096)
        .map(|_| rng.uniform_incl(1, 2 * depth as u64))
        .collect();
    let mut cal: Calendar<u64> = Calendar::new();
    for (i, &d) in delays.iter().cycle().take(depth).enumerate() {
        cal.schedule(SimTime::new(d), i as u64);
    }
    let mut k = 0usize;
    ns_per_op(budget, || {
        const OPS: u64 = 4096;
        for _ in 0..OPS {
            let (now, ev) = cal.pop().expect("the calendar stays `depth` deep");
            let d = delays[k % delays.len()];
            k += 1;
            cal.schedule(now.after(SimTime::new(d)), black_box(ev));
            if k.is_multiple_of(8) {
                let timer = cal.schedule(now.after(SimTime::new(d + 1)), ev);
                cal.cancel(timer);
            }
        }
        OPS
    })
}

/// Lock-table acquire cost: `clients` transactions in flight on the hot
/// pool, each acquiring its drawn items; the oldest releases as a new one
/// starts.
pub fn lock_acquire_ns(prs: &[f64], clients: usize, seed: u64, budget: Duration) -> f64 {
    let txns = draw_txns(prs, 4 * clients.max(1), seed);
    ns_per_op(budget, || {
        let mut lt = LockTable::new();
        let mut acquires = 0;
        for (t, accesses) in txns.iter().enumerate() {
            let txn = TxnId::new(t as u32);
            for &(item, mode) in accesses {
                black_box(lt.acquire(txn, item, mode));
                acquires += 1;
            }
            if t >= clients {
                black_box(lt.release_all(TxnId::new((t - clients) as u32)));
            }
        }
        acquires
    })
}

/// Wait-for-graph cycle search over the graph `clients` concurrent
/// drawn transactions leave in a lock table, from every waiter.
pub fn wfg_find_cycle_ns(prs: &[f64], clients: usize, seed: u64, budget: Duration) -> f64 {
    let mut lt = LockTable::new();
    for (t, accesses) in draw_txns(prs, clients, seed).iter().enumerate() {
        for &(item, mode) in accesses {
            lt.acquire(TxnId::new(t as u32), item, mode);
        }
    }
    let mut g = WaitForGraph::new();
    let waiters = lt.all_waiters();
    for &(txn, item) in &waiters {
        for holder in lt.waits_for(txn, item) {
            g.add_edge(txn, holder);
        }
    }
    if waiters.is_empty() {
        return 0.0;
    }
    ns_per_op(budget, || {
        for &(txn, _) in &waiters {
            black_box(g.find_cycle_from(txn));
        }
        waiters.len() as u64
    })
}

/// g-2PL window-close ordering at forward-list length `len`: windows of
/// `len` requests drawn from a pool of in-flight transactions, against a
/// precedence DAG that persists across windows as it does at the server.
/// A transaction retires after appearing in three windows (the mean
/// Table-1 transaction size), so the DAG stays as deep as the engine's.
pub fn order_ns_per_req(len: usize, prs: &[f64], seed: u64, budget: Duration) -> f64 {
    if len == 0 {
        return 0.0;
    }
    const WINDOWS: usize = 64;
    const ITEMS_PER_TXN: u8 = 3;
    let pool = (2 * len).max(50);
    let mut rng = RngStream::derive(seed, "perfbench-fwdlist");
    let windows: Vec<Vec<(usize, bool)>> = (0..WINDOWS)
        .map(|w| {
            let pr = prs[w % prs.len()];
            rng.distinct(len, pool)
                .into_iter()
                .map(|slot| (slot as usize, rng.bernoulli(pr)))
                .collect()
        })
        .collect();
    let rule = G2plOpts::default().ordering;
    ns_per_op(budget, || {
        let mut dag = PrecedenceDag::new();
        // Slot `s` holds transaction `txn[s]`, seen in `seen[s]` windows.
        let mut txn: Vec<u32> = (0..pool as u32).collect();
        let mut seen = vec![0u8; pool];
        let mut next = pool as u32;
        for window in &windows {
            let pending: Vec<PendingReq> = window
                .iter()
                .enumerate()
                .map(|(arrival, &(slot, read))| PendingReq {
                    entry: FlEntry::new(
                        TxnId::new(txn[slot]),
                        ClientId::new(slot as u32),
                        if read {
                            LockMode::Shared
                        } else {
                            LockMode::Exclusive
                        },
                    ),
                    arrival: arrival as u64,
                    restarts: 0,
                })
                .collect();
            black_box(rule.order(pending, &mut dag));
            for &(slot, _) in window {
                seen[slot] += 1;
                if seen[slot] == ITEMS_PER_TXN {
                    dag.remove_txn(TxnId::new(txn[slot]));
                    txn[slot] = next;
                    seen[slot] = 0;
                    next += 1;
                }
            }
        }
        (WINDOWS * len) as u64
    })
}

/// Fault-injector verdict cost over the workload's active plans, for
/// client-to-server sends.
pub fn judge_ns(plans: &[FaultPlan], seed: u64, budget: Duration) -> f64 {
    if plans.is_empty() {
        return 0.0;
    }
    let mut injectors: Vec<FaultInjector> = plans
        .iter()
        .map(|p| FaultInjector::new(p.clone(), seed))
        .collect();
    let mut t = 0u64;
    ns_per_op(budget, || {
        const OPS: u64 = 4096;
        for i in 0..OPS {
            let inj = &mut injectors[i as usize % plans.len()];
            let from = SiteId::Client(ClientId::new((i % 50) as u32));
            t += 7;
            black_box(inj.judge(from, SiteId::SERVER0, SimTime::new(t)));
        }
        OPS
    })
}

/// A server log of `records` records in the engines' shape: a grant per
/// access, then the commit and the release of each transaction.
fn server_records(records: usize, prs: &[f64], seed: u64) -> Vec<ServerRecord> {
    let mut out = Vec::with_capacity(records);
    let mut txns = draw_txns(prs, 64, seed).into_iter().cycle();
    let mut t = 0u32;
    while out.len() < records {
        let txn = TxnId::new(t);
        t += 1;
        for (item, mode) in txns.next().expect("cycle never ends") {
            out.push(ServerRecord::Grant {
                txn,
                item,
                exclusive: mode == LockMode::Exclusive,
            });
        }
        out.push(ServerRecord::Committed { txn });
        out.push(ServerRecord::Released { txn });
    }
    out.truncate(records);
    out
}

/// What the server-log replay measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalCost {
    pub append_ns: f64,
    pub replay_ms: f64,
    pub bytes_per_commit: f64,
    pub forces_per_commit: f64,
}

/// `ServerLog` append and replay at a log of `records` records, with the
/// log's own byte and force counts per logged commit (the engines report
/// no server-log totals of their own).
pub fn wal_server(records: usize, prs: &[f64], seed: u64, budget: Duration) -> WalCost {
    if records == 0 {
        return WalCost::default();
    }
    let recs = server_records(records, prs, seed);
    let commits = recs
        .iter()
        .filter(|r| matches!(r, ServerRecord::Committed { .. }))
        .count()
        .max(1) as f64;
    let append_ns = ns_per_op(budget / 2, || {
        let mut log = ServerLog::new();
        for r in &recs {
            log.append(r.clone());
        }
        black_box(log.metrics());
        recs.len() as u64
    });
    let mut log = ServerLog::new();
    for r in recs {
        log.append(r);
    }
    let replay_ns = ns_per_op(budget / 2, || {
        black_box(log.replay());
        1
    });
    let m = log.metrics();
    WalCost {
        append_ns,
        replay_ms: replay_ns / 1e6,
        bytes_per_commit: m.bytes_written as f64 / commits,
        forces_per_commit: m.forces as f64 / commits,
    }
}

/// Sketch record cost on values drawn from the workload's own pooled
/// response distribution, and merge cost (µs) of its per-cell sketches.
pub fn sketch(
    pooled: &TailSketch,
    cells: &[TailSketch],
    seed: u64,
    budget: Duration,
) -> (f64, f64) {
    if pooled.is_empty() {
        return (0.0, 0.0);
    }
    let mut rng = RngStream::derive(seed, "perfbench-sketch");
    let values: Vec<u64> = (0..65_536)
        .map(|_| pooled.quantile(rng.unit_f64()).unwrap_or(0))
        .collect();
    let mut target = TailSketch::new();
    let record = ns_per_op(budget / 2, || {
        for &v in &values {
            target.record(black_box(v));
        }
        values.len() as u64
    });
    black_box(&target);
    let merge = ns_per_op(budget / 2, || {
        let mut into = TailSketch::new();
        for s in cells {
            into.merge(s);
        }
        black_box(into);
        cells.len() as u64
    });
    (record, merge / 1e3)
}
