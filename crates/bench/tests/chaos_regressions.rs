//! Shrunk chaos repros of fixed faults, replayed end to end: each case
//! must run, drain and pass P1–P10 and the serializability check.
//!
//! The c-2PL cases each crash a client while its transaction reads
//! cached copies, beside a server crash. A crash that dropped the
//! transaction's pins while the kernel resumed it at restart let a
//! recall be acknowledged at once, so a writer committed under a read
//! the transaction had already made (the first case's history:
//! `T49 -[rw x22 v5->v6]-> T52 -[rw x23 v6->v7]-> T49`), and the
//! restarted client re-reported its unpinned cached reads as server
//! grants.
//!
//! The g-2PL case pins a deadlock search its dispatch-time skip rule
//! must not skip: a shard's recovery re-dispatches a list one of whose
//! members has a request pending on another item, and the search from
//! the new list finds a cycle through that request. Dev builds re-run
//! every skipped search and panic if it finds a cycle.

use g2pl_bench::chaos::{parse_case, run_case};

/// `chaos --repro` flag tails.
const CASES: [&str; 5] = [
    "--engine c2pl --seed 2664949942 --server-crash 0:5889:1681:0 --client-crash 2:9069:642",
    "--engine c2pl --seed 2613965719 --drop 0.034161725378554636 \
     --server-crash 0:3822:1166:329 --client-crash 2:9336:1022",
    "--engine c2pl --seed 313237001 --server-crash 0:8632:128:0 --client-crash 2:3920:840 \
     --shards 2",
    "--engine c2pl --seed 1828105926 --drop 0.032813658377002876 \
     --server-crash 0:6206:1023:182 --server-crash 0:11137:130:0 --client-crash 7:11575:2703",
    "--engine c2pl --seed 516229093 --server-crash 2:6790:113:0 --client-crash 5:5530:1364 \
     --shards 4",
];

#[test]
fn c2pl_client_crash_keeps_its_current_transactions_cache_reads() {
    let failures: Vec<String> = CASES
        .iter()
        .filter_map(|flags| {
            let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
            let case = parse_case(&args).unwrap_or_else(|e| panic!("{flags}: {e}"));
            run_case(&case).err().map(|e| format!("{flags}\n  {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn g2pl_redispatch_with_a_pending_member_searches() {
    let flags = "--engine g2pl --seed 3810609244 --server-crash 0:2211:187:0 --shards 2";
    let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
    let case = parse_case(&args).unwrap_or_else(|e| panic!("{flags}: {e}"));
    if let Err(e) = run_case(&case) {
        panic!("{flags}\n  {e}");
    }
}
