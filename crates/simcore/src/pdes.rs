//! Conservative parallel DES over per-partition calendars.
//!
//! The serial [`crate::Calendar`] totally orders one run's events. To
//! execute a sharded simulation on multiple cores without giving up
//! bit-for-bit determinism, this module implements the classic
//! *conservative window* scheme (Chandy–Misra style, synchronous
//! variant): the model is split into logical processes (LPs), each
//! owning a private calendar, and time advances in global windows of
//! width `lookahead`.
//!
//! The contract that makes it correct:
//!
//! * every cross-LP interaction is an explicit message handed to the
//!   executor, delivered no sooner than `lookahead` after the sender's
//!   current time (in the database model, `lookahead` is the minimum
//!   one-way link latency — no remote effect can propagate faster than
//!   the network);
//! * within a window `[T, T + lookahead)`, where `T` is the global
//!   minimum next-event time, each LP processes only its own events, so
//!   LPs are data-independent and can run on any number of threads;
//! * messages emitted during a window are exchanged at the barrier and
//!   delivered into each receiver's calendar in a fixed order (source LP
//!   index, then emission order) before the receiver's next window, so
//!   calendar sequence numbers — and therefore every tie-break — are
//!   identical no matter how threads interleave.
//!
//! [`run`] starts its workers once per call, and each window ends at one
//! barrier. In a window every worker claims LPs one at a time, its own
//! contiguous share first and then any LP still unclaimed, so a worker
//! that is slow or descheduled holds up only the LP in its hands. The
//! result: `run(..., workers = 1)` and `run(..., workers = k)` visit the
//! exact same event trajectory, which the scale-out tests assert down to
//! the last bit.

use crate::time::SimTime;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// One cross-LP send: arrival time and payload.
type Sent<M> = (SimTime, M);

/// A panic payload, carried from the worker that caught it to [`run`].
type Payload = Box<dyn Any + Send + 'static>;

/// Buffer of outgoing cross-LP messages emitted during one window.
///
/// Order is preserved: the executor delivers a source's messages in
/// emission order, after all messages from lower-indexed sources.
pub struct Outbox<M> {
    /// The current window's horizon.
    horizon: SimTime,
    /// The earliest arrival among the executing LP's sends.
    earliest: Option<SimTime>,
    /// The executing LP's sends, one list per destination LP, each in
    /// emission order.
    sends: Vec<Vec<Sent<M>>>,
}

impl<M> Outbox<M> {
    /// Queue `msg` for delivery to LP `dest` at absolute time `at`.
    ///
    /// `at` must be at or after the current window's horizon — i.e. at
    /// least `lookahead` after any event the sender processed this
    /// window.
    ///
    /// # Panics
    /// Panics if `at` is before the horizon: the conservative bound is
    /// broken.
    pub fn send(&mut self, dest: usize, at: SimTime, msg: M) {
        assert!(
            at >= self.horizon,
            "cross-LP message at {at:?} violates the window horizon {:?}",
            self.horizon
        );
        self.earliest = Some(self.earliest.map_or(at, |e| e.min(at)));
        self.sends[dest].push((at, msg));
    }
}

/// One logical process: a partition of the model owning a private
/// calendar.
pub trait Lp: Send {
    /// Cross-LP message type.
    type Msg: Send;

    /// Timestamp of the earliest pending local event, or `None` when
    /// this LP is idle. An idle LP may still be woken by a delivery.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Process every local event with timestamp strictly before
    /// `horizon`, including events the processing itself schedules
    /// inside the window. Cross-LP sends go through `outbox`; local
    /// scheduling stays on the LP's own calendar.
    fn execute(&mut self, horizon: SimTime, outbox: &mut Outbox<Self::Msg>);

    /// Accept a message sent by another LP (or by this LP through the
    /// exchange), scheduling its effect at time `at`. Called between
    /// windows, in deterministic order. The executor plans the next
    /// window from the senders' side, before any delivery, so afterwards
    /// `next_time` must be the earlier of `at` and what it was.
    fn deliver(&mut self, at: SimTime, msg: Self::Msg);
}

/// Executor accounting for one [`run`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesReport {
    /// Synchronization windows executed.
    pub rounds: u64,
    /// Messages exchanged across LP boundaries.
    pub cross_messages: u64,
}

/// How long a worker at a barrier busy-waits before it yields. A window
/// lasts about a millisecond in the scale-out study, and a worker that
/// blocked at once would leave its CPU idle at every barrier; on a
/// virtual machine an idle vCPU can take a millisecond or more to wake.
/// On a 2-vCPU Xeon VM, blocking at once made the 2-worker scale_pdes
/// pass swing between 1.8x the serial speed and no faster than serial
/// from one half-minute to the next.
const SPIN: Duration = Duration::from_micros(20);

/// How long a worker keeps yielding before it blocks. Yielding keeps the
/// CPU awake but hands it to any other thread that needs it.
const YIELD: Duration = Duration::from_millis(3);

/// A reusable barrier that spins, then yields, then blocks.
struct Barrier {
    workers: usize,
    arrived: AtomicUsize,
    /// Bumped by the last arrival; the waiters watch it change.
    generation: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Barrier {
    fn new(workers: usize) -> Self {
        Barrier {
            workers,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Wait until all `workers` have arrived.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            // The Release store of the generation publishes this reset:
            // a waiter that sees the new generation (Acquire) arrives at
            // the next barrier after it.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            // Notify under the lock: a waiter checks the generation
            // under it before it sleeps, so it cannot miss this.
            let _guard = lock(&self.lock);
            self.wake.notify_all();
            return;
        }
        let passed = || self.generation.load(Ordering::Acquire) != generation;
        let start = Instant::now();
        while start.elapsed() < SPIN {
            for _ in 0..64 {
                if passed() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while start.elapsed() < YIELD {
            if passed() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = lock(&self.lock);
        while !passed() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One LP and the last window it was processed in.
struct Slot<'a, L> {
    lp: &'a mut L,
    /// Windows count from 1.
    window: u64,
}

/// State the workers of one [`run`] share.
struct Shared<'a, L: Lp> {
    lookahead: SimTime,
    workers: usize,
    barrier: Barrier,
    lps: Vec<Mutex<Slot<'a, L>>>,
    /// Entry `set * workers + w`: the earliest event among the LPs worker
    /// `w` executed in the last window of parity `set`, counting their
    /// sends. Two sets, because a worker writes the next window's entry
    /// while a slower one may still be reading this window's.
    next: Vec<Mutex<Option<SimTime>>>,
    /// Bucket `set * n * n + s * n + d`: LP `s`'s sends to LP `d` in the
    /// last window of parity `set`, in emission order. A window files
    /// into one set while its receivers drain the other.
    buckets: Vec<Mutex<Vec<Sent<L::Msg>>>>,
    /// The window an LP panicked in (0: none yet), set with `failure`.
    /// Every worker stops at the barrier that ends that window; a worker
    /// still leaving the barrier before it must not stop there.
    failed_in: AtomicU64,
    /// The lowest-indexed LP that panicked, with its payload.
    failure: Mutex<Option<(usize, Payload)>>,
}

/// Lock a slot, bucket or entry. Only a panicking LP can poison one (a
/// bucket, mid-drain); a partly drained list of sends is still a valid
/// list, and every worker stops at the next barrier anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run the LP set to quiescence: rounds of *window execute → barrier →
/// message exchange* until no LP has a pending event.
///
/// `workers` threads (capped at the LP count) share the LPs; worker 0
/// runs on the calling thread, so `workers == 1` spawns no thread. Every
/// worker count produces bit-identical LP end states by construction.
///
/// # Panics
/// Panics if `lookahead` is zero (a zero-latency link admits no
/// conservative window), or if an LP emits a cross-LP message that
/// would arrive before the window horizon (a causality violation — the
/// model's minimum link latency is smaller than the promised
/// lookahead). If an LP panics, every worker stops at the next barrier
/// and `run` resumes the panic with the LP's own payload (the
/// lowest-indexed failing LP's, if several fail).
pub fn run<L: Lp>(lps: &mut [L], lookahead: SimTime, workers: usize) -> PdesReport {
    assert!(
        lookahead > SimTime::ZERO,
        "conservative PDES needs a positive lookahead"
    );
    let n = lps.len();
    if n == 0 {
        return PdesReport::default();
    }
    let workers = workers.clamp(1, n);
    let start = lps.iter_mut().filter_map(Lp::next_time).min();
    let shared = Shared {
        lookahead,
        workers,
        barrier: Barrier::new(workers),
        lps: lps
            .iter_mut()
            .map(|lp| Mutex::new(Slot { lp, window: 0 }))
            .collect(),
        next: (0..2 * workers).map(|_| Mutex::new(None)).collect(),
        buckets: (0..2 * n * n).map(|_| Mutex::new(Vec::new())).collect(),
        failed_in: AtomicU64::new(0),
        failure: Mutex::new(None),
    };
    let parts = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || worker(w, shared, start))
            })
            .collect();
        let mut parts = vec![worker(0, &shared, start)];
        // A worker catches every panic of its LPs, so a join fails only
        // if the executor itself panicked; pass that on as it came.
        parts.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p))),
        );
        parts
    });
    if let Some((_, payload)) = shared
        .failure
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    let mut report = PdesReport::default();
    for part in parts {
        // Every worker agreed on every window.
        report.rounds = part.rounds;
        report.cross_messages += part.cross_messages;
    }
    report
}

/// Worker `w`'s window loop, from the earliest event `start`. Returns
/// its share of the report once every worker has stopped at the same
/// barrier, so none is left waiting.
fn worker<L: Lp>(w: usize, shared: &Shared<'_, L>, start: Option<SimTime>) -> PdesReport {
    let n = shared.lps.len();
    // Worker `w` starts each window at its own share of the LPs, so each
    // LP mostly stays on one thread (and in its caches).
    let first = w * n / shared.workers;
    let mut outbox = Outbox {
        horizon: SimTime::ZERO,
        earliest: None,
        sends: (0..n).map(|_| Vec::new()).collect(),
    };
    let mut report = PdesReport::default();
    let mut t_min = start;
    let mut window = 0;
    while let Some(t) = t_min {
        window += 1;
        outbox.horizon = t.after(shared.lookahead);
        report.rounds += 1;
        let (filed, drained) = (window as usize % 2, (window as usize + 1) % 2);
        let mut earliest: Option<SimTime> = None;
        shared.claim(first, window, |i, lp| {
            // Deliver the last window's sends: sources in index order,
            // each source's sends in emission order — the serial
            // exchange's order, so calendar sequence numbers match it.
            for s in 0..n {
                for (at, msg) in lock(shared.bucket(drained, s, i)).drain(..) {
                    lp.deliver(at, msg);
                    report.cross_messages += 1;
                }
            }
            lp.execute(outbox.horizon, &mut outbox);
            for (d, sends) in outbox.sends.iter_mut().enumerate() {
                if !sends.is_empty() {
                    // The swap hands back the drained bucket's empty,
                    // allocated list.
                    std::mem::swap(sends, &mut *lock(shared.bucket(filed, i, d)));
                }
            }
            // Every event of the next window is an LP's own or a send.
            for t in [lp.next_time(), outbox.earliest.take()]
                .into_iter()
                .flatten()
            {
                earliest = Some(earliest.map_or(t, |e| e.min(t)));
            }
        });
        let entries = &shared.next[filed * shared.workers..(filed + 1) * shared.workers];
        *lock(&entries[w]) = earliest;
        // Every send of the window is in its bucket and every entry is
        // written; all workers read the same entries.
        shared.barrier.wait();
        if shared.failed_by(window) {
            return report;
        }
        t_min = entries.iter().filter_map(|e| *lock(e)).min();
    }
    report
}

impl<L: Lp> Shared<'_, L> {
    /// LP `s`'s bucket for LP `d` in bucket set `set`.
    fn bucket(&self, set: usize, s: usize, d: usize) -> &Mutex<Vec<Sent<L::Msg>>> {
        let n = self.lps.len();
        &self.buckets[(set * n + s) * n + d]
    }

    /// Whether an LP panicked in `window` or before, read after the
    /// barrier that ends `window`: every worker reads the same answer.
    fn failed_by(&self, window: u64) -> bool {
        let failed_in = self.failed_in.load(Ordering::Acquire);
        failed_in != 0 && failed_in <= window
    }

    /// Run `f` on every LP not yet processed in `window`, starting at LP
    /// `first` and wrapping round. An LP another worker holds is that
    /// worker's: each LP is processed once per window. A panic in `f` is
    /// recorded against its LP and stops the claiming.
    fn claim(&self, first: usize, window: u64, mut f: impl FnMut(usize, &mut L)) {
        let n = self.lps.len();
        for i in (first..n).chain(0..first) {
            // Only a shortcut: `failed_by` decides where workers stop.
            if self.failed_in.load(Ordering::Relaxed) != 0 {
                return;
            }
            let mut slot = match self.lps[i].try_lock() {
                Ok(slot) => slot,
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            if slot.window == window {
                continue;
            }
            slot.window = window;
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(i, slot.lp))) {
                let mut failure = lock(&self.failure);
                if failure.as_ref().is_none_or(|(lp, _)| i < *lp) {
                    *failure = Some((i, payload));
                }
                self.failed_in.store(window, Ordering::Release);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Calendar;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Toy model: a ring of LPs passing a decrementing token; each hop
    /// takes exactly the link latency, and every LP also runs a local
    /// chatter timer to exercise intra-window scheduling.
    struct RingLp {
        index: usize,
        n: usize,
        latency: SimTime,
        cal: Calendar<RingEv>,
        log: Vec<(u64, u64)>, // (time, token)
        chatter: u64,
        /// Panic on receiving a token at or below this value.
        fuse: Option<u64>,
    }

    #[derive(PartialEq, Eq)]
    enum RingEv {
        Token(u64),
        Chatter(u64),
    }

    impl Lp for RingLp {
        type Msg = u64;

        fn next_time(&mut self) -> Option<SimTime> {
            self.cal.next_time()
        }

        fn execute(&mut self, horizon: SimTime, outbox: &mut Outbox<u64>) {
            while self.cal.next_time().is_some_and(|t| t < horizon) {
                // lint:allow(L3): guarded by the peek above
                let (now, ev) = self.cal.pop().expect("peeked");
                match ev {
                    RingEv::Token(t) => {
                        if self.fuse.is_some_and(|f| t <= f) {
                            panic!("LP {} blew its fuse on token {t}", self.index);
                        }
                        self.log.push((now.units(), t));
                        if t > 0 {
                            let dest = (self.index + 1) % self.n;
                            let at = now.after(self.latency);
                            if dest == self.index {
                                self.cal.schedule(at, RingEv::Token(t - 1));
                            } else {
                                outbox.send(dest, at, t - 1);
                            }
                        }
                    }
                    RingEv::Chatter(k) => {
                        self.chatter += 1;
                        if k > 0 {
                            // Sub-lookahead local event: must run in the
                            // same window it was scheduled in.
                            self.cal
                                .schedule(now.after(SimTime::new(1)), RingEv::Chatter(k - 1));
                        }
                    }
                }
            }
        }

        fn deliver(&mut self, at: SimTime, token: u64) {
            self.cal.schedule(at, RingEv::Token(token));
        }
    }

    fn ring(n: usize, hops: u64) -> Vec<RingLp> {
        let latency = SimTime::new(5);
        (0..n)
            .map(|index| {
                let mut cal = Calendar::new();
                if index == 0 {
                    cal.schedule(SimTime::new(3), RingEv::Token(hops));
                    cal.schedule(SimTime::new(1), RingEv::Chatter(7));
                }
                RingLp {
                    index,
                    n,
                    latency,
                    cal,
                    log: Vec::new(),
                    chatter: 0,
                    fuse: None,
                }
            })
            .collect()
    }

    fn full_log(lps: &[RingLp]) -> Vec<(u64, usize, u64)> {
        let mut out = Vec::new();
        for lp in lps {
            for &(t, tok) in &lp.log {
                out.push((t, lp.index, tok));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn token_walks_the_ring_at_link_latency() {
        let mut lps = ring(4, 9);
        let report = run(&mut lps, SimTime::new(5), 1);
        let log = full_log(&lps);
        assert_eq!(log.len(), 10, "token seen hops+1 times");
        // Hop i lands on LP (i % 4) at 3 + 5i.
        for (i, &(t, lp, tok)) in log.iter().enumerate() {
            let i = i as u64;
            assert_eq!(t, 3 + 5 * i);
            assert_eq!(lp as u64, i % 4);
            assert_eq!(tok, 9 - i);
        }
        assert_eq!(report.cross_messages, 9);
        assert_eq!(lps[0].chatter, 8, "local chatter all ran");
    }

    #[test]
    fn serial_and_parallel_agree_bit_for_bit() {
        for workers in [2, 3, 8] {
            let mut serial = ring(5, 23);
            let mut parallel = ring(5, 23);
            let rs = run(&mut serial, SimTime::new(5), 1);
            let rp = run(&mut parallel, SimTime::new(5), workers);
            assert_eq!(rs, rp);
            assert_eq!(full_log(&serial), full_log(&parallel), "workers={workers}");
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.chatter, b.chatter);
            }
        }
    }

    #[test]
    fn empty_lp_set_terminates_immediately() {
        let mut lps: Vec<RingLp> = Vec::new();
        let report = run(&mut lps, SimTime::new(1), 4);
        assert_eq!(report, PdesReport::default());
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut lps = ring(2, 1);
        run(&mut lps, SimTime::ZERO, 1);
    }

    /// Run `f` on a helper thread and return the message it panicked
    /// with. Fails the test if `f` returns normally, or has not returned
    /// within 30 s: a worker left waiting at a barrier would otherwise
    /// hang `cargo test` (a stuck helper cannot be joined and ends with
    /// the test process).
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("run did not return within 30 s: a worker is deadlocked"));
        helper.join().expect("the helper catches every panic");
        let payload = outcome.expect_err("run returned instead of panicking");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| (*s).to_owned()),
        }
    }

    #[test]
    #[should_panic(expected = "violates the window horizon")]
    fn undercutting_the_horizon_is_caught() {
        struct BadLp {
            cal: Calendar<()>,
        }
        impl Lp for BadLp {
            type Msg = ();
            fn next_time(&mut self) -> Option<SimTime> {
                self.cal.next_time()
            }
            fn execute(&mut self, _horizon: SimTime, outbox: &mut Outbox<()>) {
                if let Some((now, ())) = self.cal.pop() {
                    // Claims a 10-unit lookahead but sends at +1.
                    outbox.send(1, now.after(SimTime::new(1)), ());
                }
            }
            fn deliver(&mut self, at: SimTime, (): ()) {
                self.cal.schedule(at, ());
            }
        }
        fn bad_lps() -> Vec<BadLp> {
            let mut a = Calendar::new();
            a.schedule(SimTime::new(1), ());
            vec![
                BadLp { cal: a },
                BadLp {
                    cal: Calendar::new(),
                },
            ]
        }
        // At 2 workers the sending LP may run on either thread.
        let msg = panic_message(|| {
            run(&mut bad_lps(), SimTime::new(10), 2);
        });
        assert!(
            msg.contains("violates the window horizon"),
            "workers=2: {msg}"
        );
        run(&mut bad_lps(), SimTime::new(10), 1);
    }

    #[test]
    fn an_lp_panic_surfaces_with_its_own_message() {
        // The token blows LP `at`'s fuse mid-run, while the other workers
        // claim LPs or wait at a barrier. At 3 workers the calling thread
        // claims from LP 0 and the others from LPs 1 and 3, so either LP
        // can panic on any thread, and a worker may still be leaving the
        // last barrier when the panic is recorded.
        for workers in [1, 2, 3] {
            for at in [0, 4] {
                let msg = panic_message(move || {
                    let mut lps = ring(5, 23);
                    lps[at].fuse = Some(12);
                    run(&mut lps, SimTime::new(5), workers);
                });
                assert!(
                    msg.starts_with(&format!("LP {at} blew its fuse")),
                    "workers={workers}, LP {at}: {msg}"
                );
            }
        }
    }

    #[test]
    fn barrier_keeps_workers_in_step() {
        // Each round every worker bumps the counter once between two
        // barriers, so after the first barrier it must read exactly
        // `(round + 1) * workers`. Worker 0 sleeps past the yield
        // window now and then, so the blocking path runs too.
        let workers = 3;
        let barrier = Barrier::new(workers);
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (barrier, count) = (&barrier, &count);
                scope.spawn(move || {
                    for round in 0..200 {
                        if w == 0 && round % 50 == 0 {
                            std::thread::sleep(YIELD + Duration::from_millis(1));
                        }
                        count.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(count.load(Ordering::Relaxed), (round + 1) * workers);
                        barrier.wait();
                    }
                });
            }
        });
    }
}
