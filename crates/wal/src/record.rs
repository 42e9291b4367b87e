//! Log records and sequence numbers.

use g2pl_simcore::{ItemId, TxnId, Version};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A log sequence number: position of a record in one site's log.
/// Strictly increasing per site; not comparable across sites.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The position before the first record.
    pub const ZERO: Lsn = Lsn(0);

    /// The next sequence number.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// One write-ahead log record.
///
/// The payload sizes are modelled, not stored: the simulator cares about
/// log *volume* and retention, not byte contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction started at this site.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// A before/after-image pair for an updated item (undo + redo).
    Update {
        /// The writing transaction.
        txn: TxnId,
        /// The item written.
        item: ItemId,
        /// Version overwritten (undo image).
        old: Version,
        /// Version produced (redo image).
        new: Version,
    },
    /// The transaction committed; under WAL this record must be forced
    /// to stable storage before the commit is acknowledged.
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// The transaction aborted (its updates roll back locally).
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
}

impl LogRecord {
    /// The transaction the record belongs to.
    pub fn txn(&self) -> TxnId {
        match *self {
            LogRecord::Begin { txn }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => txn,
        }
    }

    /// Modelled on-disk size of the record in bytes: fixed header plus a
    /// full page pair for updates.
    pub fn size_bytes(&self, item_size: u64) -> u64 {
        match self {
            LogRecord::Update { .. } => 32 + 2 * item_size,
            _ => 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_next() {
        assert!(Lsn::ZERO < Lsn::ZERO.next());
        assert_eq!(Lsn(5).next(), Lsn(6));
        assert_eq!(format!("{}", Lsn(3)), "lsn3");
    }

    #[test]
    fn record_txn_extraction() {
        let t = TxnId::new(7);
        for r in [
            LogRecord::Begin { txn: t },
            LogRecord::Update {
                txn: t,
                item: ItemId::new(0),
                old: 1,
                new: 2,
            },
            LogRecord::Commit { txn: t },
            LogRecord::Abort { txn: t },
        ] {
            assert_eq!(r.txn(), t);
        }
    }

    #[test]
    fn sizes_reflect_update_images() {
        let t = TxnId::new(0);
        let upd = LogRecord::Update {
            txn: t,
            item: ItemId::new(0),
            old: 0,
            new: 1,
        };
        assert_eq!(upd.size_bytes(4096), 32 + 8192);
        assert_eq!(LogRecord::Commit { txn: t }.size_bytes(4096), 32);
    }
}
