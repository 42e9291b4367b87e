//! # g2pl-lockmgr
//!
//! The server-side lock manager substrate used by the s-2PL baseline (and
//! by the c-2PL extension) of the g-2PL reproduction.
//!
//! The paper's s-2PL protocol (§3.1) is strict two-phase locking at the
//! data server: clients request items, the server acquires a read (shared)
//! or write (exclusive) lock on their behalf, ships the item, and releases
//! every lock at transaction end. Requests that cannot be granted are
//! enqueued, deadlock detection starts when a lock cannot be granted
//! (§4: "deadlock detection is initiated when a lock cannot be granted"),
//! and victims are aborted. The engines search the waits-for relation
//! lazily from the lock table ([`LockTable::waits_for_into`]), skipping
//! triggers nothing waits for ([`LockTable::is_waited_on`]).
//!
//! Components:
//! * [`mode::LockMode`] — S/X modes with the standard compatibility matrix;
//! * [`table::LockTable`] — per-item holders + FIFO wait queues;
//! * [`wfg::WaitForGraph`] — cycle detection over an explicit waits-for
//!   graph. No engine uses it. It stays only because perfbench's
//!   `lockmgr.wfg.find_cycle_ns` layer times it, together with
//!   [`LockTable::all_waiters`] and [`LockTable::waits_for`];
//! * [`victim::VictimPolicy`] — which deadlocked transaction to abort.

pub mod mode;
pub mod table;
pub mod victim;
pub mod wfg;

pub use mode::LockMode;
pub use table::{AcquireOutcome, LockTable};
pub use victim::VictimPolicy;
pub use wfg::WaitForGraph;
