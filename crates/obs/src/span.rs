//! The phase taxonomy of a transaction's critical path.
//!
//! A transaction's response time is exactly partitioned into the first
//! five [`Phase`]s by the rule that the interval between two consecutive
//! phase-opening events is attributed to the phase *opened by the earlier
//! event* (see [`crate::tracelog::TraceKind::phase`] and
//! [`crate::tracker::SpanRecorder`]). [`Phase::CommitReturn`] is the
//! post-commit tail — the time until the last lock release reaches its
//! destination — and is *not* part of response time (the client has
//! already moved on), exactly as the paper's §3.1 "the releasing of the
//! locks is merged with the returning of the data items" overlap
//! argument requires.

use serde::Serialize;
use std::fmt;

/// Where one slice of a transaction's lifetime was spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Phase {
    /// Request propagation: a lock/data request is on the wire toward the
    /// server.
    ReqProp,
    /// Server residency: queued in the lock table (s-2PL/c-2PL) or
    /// gathering in an item's collection window (g-2PL) until the
    /// dispatch decision.
    ServerQueue,
    /// Migration wait: dispatched on a forward list but waiting for the
    /// item to migrate through the predecessors' clients (g-2PL; always
    /// zero for the server-based protocols).
    Migration,
    /// Dispatch propagation: the grant/data hop toward this client is on
    /// the wire.
    DispatchProp,
    /// Client processing: granted and computing (think times, plus any
    /// MR1W commit-certification wait).
    ClientProc,
    /// Post-commit: commit at the client until the last release reaches
    /// its destination. Excluded from response time.
    CommitReturn,
}

impl Phase {
    /// All phases, in timeline order.
    pub const ALL: [Phase; 6] = [
        Phase::ReqProp,
        Phase::ServerQueue,
        Phase::Migration,
        Phase::DispatchProp,
        Phase::ClientProc,
        Phase::CommitReturn,
    ];

    /// The number of phases that partition response time (all but
    /// [`Phase::CommitReturn`]).
    pub const RESPONSE_PHASES: usize = 5;

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ReqProp => "req-prop",
            Phase::ServerQueue => "server-queue",
            Phase::Migration => "migration",
            Phase::DispatchProp => "dispatch-prop",
            Phase::ClientProc => "client-proc",
            Phase::CommitReturn => "commit-return",
        }
    }

    /// Index into a `[_; 6]` per-phase array.
    pub fn index(self) -> usize {
        match self {
            Phase::ReqProp => 0,
            Phase::ServerQueue => 1,
            Phase::Migration => 2,
            Phase::DispatchProp => 3,
            Phase::ClientProc => 4,
            Phase::CommitReturn => 5,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::RESPONSE_PHASES, Phase::ALL.len() - 1);
    }
}
