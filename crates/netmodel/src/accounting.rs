//! Message accounting.
//!
//! §3.2's complexity claim — s-2PL needs `3m` messages and rounds for `m`
//! best-case transactions while g-2PL needs `2m + 1` — is validated by the
//! integration tests with the counters kept here. The harness reports
//! total message counts and the client-to-client traffic share (data
//! migration is the signature of g-2PL).

use g2pl_simcore::SiteId;
use serde::{Deserialize, Serialize};

/// Direction class of a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Direction {
    /// Client → server (requests, releases, returns).
    ClientToServer,
    /// Server → client (grants, dispatches, abort notices).
    ServerToClient,
    /// Client → client (g-2PL data migration and reader releases).
    ClientToClient,
    /// Server shard → server shard: a restarted shard's commit-status
    /// queries and its peers' verdicts on in-doubt votes. Cross-shard
    /// commits themselves are coordinated at the client.
    ServerToServer,
}

impl Direction {
    /// Classify a (from, to) endpoint pair.
    pub fn of(from: SiteId, to: SiteId) -> Direction {
        match (from, to) {
            (SiteId::Server(_), SiteId::Server(_)) => Direction::ServerToServer,
            (SiteId::Server(_), SiteId::Client(_)) => Direction::ServerToClient,
            (SiteId::Client(_), SiteId::Server(_)) => Direction::ClientToServer,
            (SiteId::Client(_), SiteId::Client(_)) => Direction::ClientToClient,
        }
    }
}

/// Counts of messages and bytes, broken down by direction and by message
/// kind label.
#[derive(Clone, Debug, Default, Serialize)]
pub struct NetAccounting {
    total_messages: u64,
    total_bytes: u64,
    /// Messages per [`Direction`], indexed by its discriminant.
    by_direction: [u64; 4],
    /// Messages per kind label, in label order. A run sees a few dozen
    /// labels at most, so a short sorted table beats a map.
    by_kind: Vec<(&'static str, u64)>,
}

impl NetAccounting {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `size_bytes` labelled `kind` from `from` to
    /// `to`.
    pub fn record(&mut self, from: SiteId, to: SiteId, kind: &'static str, size_bytes: u64) {
        self.total_messages += 1;
        self.total_bytes += size_bytes;
        self.by_direction[Direction::of(from, to) as usize] += 1;
        *self.kind_count(kind) += 1;
    }

    /// The counter of `kind`, inserted at its label-order place on first
    /// sight. Labels are string literals, so the same label is almost
    /// always the same pointer: compare pointers first, labels second.
    fn kind_count(&mut self, kind: &'static str) -> &mut u64 {
        let at = match self
            .by_kind
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, kind))
        {
            Some(at) => at,
            None => match self.by_kind.binary_search_by(|&(k, _)| k.cmp(kind)) {
                Ok(at) => at,
                Err(at) => {
                    self.by_kind.insert(at, (kind, 0));
                    at
                }
            },
        };
        &mut self.by_kind[at].1
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.total_messages
    }

    /// Total bytes sent.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Messages sent in a given direction class.
    pub fn in_direction(&self, d: Direction) -> u64 {
        self.by_direction[d as usize]
    }

    /// Messages with a given kind label.
    pub fn of_kind(&self, kind: &str) -> u64 {
        self.by_kind
            .binary_search_by(|&(k, _)| k.cmp(kind))
            .map_or(0, |at| self.by_kind[at].1)
    }

    /// All kind labels seen, with counts, in label order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().copied()
    }

    /// Fraction of messages that travelled client → client.
    pub fn client_to_client_share(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.in_direction(Direction::ClientToClient) as f64 / self.total_messages as f64
        }
    }

    /// Merge another accounting into this one.
    pub fn merge(&mut self, other: &NetAccounting) {
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        for (mine, theirs) in self.by_direction.iter_mut().zip(other.by_direction) {
            *mine += theirs;
        }
        for &(k, c) in &other.by_kind {
            *self.kind_count(k) += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_simcore::ClientId;

    fn c(i: u32) -> SiteId {
        SiteId::Client(ClientId::new(i))
    }

    #[test]
    fn direction_classification() {
        assert_eq!(
            Direction::of(SiteId::SERVER0, c(0)),
            Direction::ServerToClient
        );
        assert_eq!(
            Direction::of(c(0), SiteId::SERVER0),
            Direction::ClientToServer
        );
        assert_eq!(Direction::of(c(0), c(1)), Direction::ClientToClient);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = NetAccounting::new();
        a.record(c(0), SiteId::SERVER0, "lock_request", 64);
        a.record(SiteId::SERVER0, c(0), "grant", 1024);
        a.record(c(0), c(1), "forward", 1024);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.bytes(), 2112);
        assert_eq!(a.in_direction(Direction::ClientToClient), 1);
        assert_eq!(a.of_kind("grant"), 1);
        assert_eq!(a.of_kind("nonexistent"), 0);
        assert!((a.client_to_client_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_share_is_zero() {
        assert_eq!(NetAccounting::new().client_to_client_share(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NetAccounting::new();
        a.record(c(0), SiteId::SERVER0, "req", 10);
        let mut b = NetAccounting::new();
        b.record(c(1), c(2), "fwd", 20);
        b.record(c(0), SiteId::SERVER0, "req", 10);
        a.merge(&b);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.bytes(), 40);
        assert_eq!(a.of_kind("req"), 2);
        assert_eq!(a.of_kind("fwd"), 1);
    }

    #[test]
    fn kinds_iterates_in_label_order() {
        let mut a = NetAccounting::new();
        a.record(c(0), SiteId::SERVER0, "zeta", 1);
        a.record(c(0), SiteId::SERVER0, "alpha", 1);
        let labels: Vec<&str> = a.kinds().map(|(k, _)| k).collect();
        assert_eq!(labels, vec!["alpha", "zeta"]);
    }
}
