//! The latency model: one description of the network. Its serde derives
//! are the workspace's no-op stand-ins (`vendor/serde`), so nothing
//! serializes it.
//!
//! The protocol engines re-export [`LatencyCfg`], and their network
//! prices every message with [`LatencyCfg::delay`] of the size the
//! message names, so a figure spec and an engine config describe the
//! network the same way.

use g2pl_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Per-message delay model of a run.
///
/// The paper's simulation assumes "the network latency between any two
/// sites (server-client, client-client) and in either direction is the
/// same", so a delay depends on nothing but the message's size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyCfg {
    /// The paper's model: every message takes exactly this many units.
    Constant(u64),
    /// Propagation latency plus `ceil(size / bytes_per_unit)` transmission
    /// time (§2's split of delay), so the `ext-bandwidth` row can sweep
    /// from slow-network to gigabit data rates.
    Bandwidth {
        /// Propagation component.
        latency: u64,
        /// Bytes transferred per simulation time unit.
        bytes_per_unit: u64,
    },
}

impl LatencyCfg {
    /// Delay of one message of `size_bytes`, between any two sites.
    ///
    /// # Panics
    /// Panics on `Bandwidth { bytes_per_unit: 0, .. }`, a config the
    /// engines' validation rejects.
    pub fn delay(self, size_bytes: u64) -> SimTime {
        match self {
            LatencyCfg::Constant(l) => SimTime::new(l),
            LatencyCfg::Bandwidth {
                latency,
                bytes_per_unit,
            } => SimTime::new(latency).after(SimTime::new(size_bytes.div_ceil(bytes_per_unit))),
        }
    }

    /// Nominal one-way latency (for reporting and for deriving default
    /// fault-recovery timeouts).
    pub fn nominal(self) -> u64 {
        match self {
            LatencyCfg::Constant(l) => l,
            LatencyCfg::Bandwidth { latency, .. } => latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_everything() {
        let m = LatencyCfg::Constant(250);
        assert_eq!(m.delay(0), SimTime::new(250));
        assert_eq!(m.delay(1_000_000), SimTime::new(250));
        assert_eq!(m.nominal(), 250);
    }

    #[test]
    fn bandwidth_adds_transmission_time() {
        let m = LatencyCfg::Bandwidth {
            latency: 100,
            bytes_per_unit: 1000,
        };
        // Empty message: pure latency.
        assert_eq!(m.delay(0), SimTime::new(100));
        // 2500 bytes at 1000 B/unit: ceil = 3 extra units.
        assert_eq!(m.delay(2500), SimTime::new(103));
        assert_eq!(m.nominal(), 100);
    }
}
