//! Lossy-link wrapper: the latency model composed with a fault plan.
//!
//! [`LossyLink`] is the delivery layer the engines' `Net` sits on. In its
//! reliable form every message is delivered once, after
//! [`LatencyCfg::delay`]. With an active [`FaultPlan`] it consults a
//! [`FaultInjector`] per message and turns the verdict into zero
//! (dropped), one (delivered, possibly delayed), or two (duplicated)
//! delivery delays.

use crate::cfg::LatencyCfg;
use g2pl_faults::{FaultCounts, FaultInjector, FaultPlan, Verdict};
use g2pl_simcore::{SimTime, SiteId};

/// A network link: the latency model, optionally composed with a fault
/// injector.
pub struct LossyLink {
    latency: LatencyCfg,
    injector: Option<FaultInjector>,
}

impl LossyLink {
    /// A perfectly reliable link (the paper's model): every `transmit`
    /// yields exactly one delivery after `latency`'s delay.
    pub fn reliable(latency: LatencyCfg) -> Self {
        LossyLink {
            latency,
            injector: None,
        }
    }

    /// A link executing the given fault plan. The injector draws from its
    /// own `"faults"` stream derived from `master_seed`.
    pub fn lossy(latency: LatencyCfg, plan: FaultPlan, master_seed: u64) -> Self {
        LossyLink {
            latency,
            injector: Some(FaultInjector::new(plan, master_seed)),
        }
    }

    /// True if this link can inject faults.
    pub fn faults_active(&self) -> bool {
        self.injector.is_some()
    }

    /// Counters of faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.injector
            .as_ref()
            .map_or_else(FaultCounts::default, |i| i.counts)
    }

    /// The crash/restart schedule of the plan (empty when reliable).
    pub fn crash_schedule(&self) -> Vec<(g2pl_simcore::ClientId, SimTime, bool)> {
        self.injector
            .as_ref()
            .map_or_else(Vec::new, FaultInjector::crash_schedule)
    }

    /// The per-shard server crash/restart schedule of the plan as
    /// `(shard, at, up)` triples (empty when reliable). Consumes the
    /// injector's dedicated per-shard `"server-faults"` jitter draws, so
    /// it must be called exactly once per run, at engine start, like
    /// [`LossyLink::crash_schedule`].
    pub fn server_crash_schedule(&mut self) -> Vec<(u32, SimTime, bool)> {
        self.injector
            .as_mut()
            .map_or_else(Vec::new, FaultInjector::server_crash_schedule)
    }

    /// Decide the delivery times for one message from `from` to `to` sent
    /// at `now`. Each delivery's delay is pushed into `out` (cleared
    /// first); an empty `out` means the message was dropped. Returns
    /// `true` if a fault was injected (for trace recording).
    pub fn transmit(
        &mut self,
        from: SiteId,
        to: SiteId,
        size_bytes: u64,
        now: SimTime,
        out: &mut Vec<SimTime>,
    ) -> bool {
        out.clear();
        let delay = self.latency.delay(size_bytes);
        let Some(inj) = &mut self.injector else {
            out.push(delay);
            return false;
        };
        match inj.judge(from, to, now) {
            Verdict::Deliver => {
                out.push(delay);
                false
            }
            Verdict::Drop => true,
            Verdict::Duplicate => {
                out.extend([delay, delay]);
                true
            }
            Verdict::Delay(extra) => {
                out.push(delay + extra);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_simcore::ClientId;

    fn site(c: u32) -> SiteId {
        SiteId::Client(ClientId::new(c))
    }

    #[test]
    fn reliable_link_is_passthrough() {
        let mut link = LossyLink::reliable(LatencyCfg::Constant(9));
        let mut out = Vec::new();
        let injected = link.transmit(site(0), SiteId::SERVER0, 64, SimTime::ZERO, &mut out);
        assert!(!injected);
        assert_eq!(out, vec![SimTime::new(9)]);
        assert!(!link.faults_active());
        assert_eq!(link.counts(), FaultCounts::default());
    }

    #[test]
    fn certain_loss_drops_everything() {
        let mut link = LossyLink::lossy(LatencyCfg::Constant(9), FaultPlan::message_loss(1.0), 7);
        let mut out = Vec::new();
        for _ in 0..10 {
            let injected = link.transmit(site(0), SiteId::SERVER0, 64, SimTime::ZERO, &mut out);
            assert!(injected);
            assert!(out.is_empty());
        }
        assert_eq!(link.counts().dropped, 10);
    }

    #[test]
    fn duplicate_and_delay_yield_expected_deliveries() {
        let dup_plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut link = LossyLink::lossy(LatencyCfg::Constant(3), dup_plan, 7);
        let mut out = Vec::new();
        link.transmit(site(0), SiteId::SERVER0, 64, SimTime::ZERO, &mut out);
        assert_eq!(out, vec![SimTime::new(3), SimTime::new(3)]);

        let delay_plan = FaultPlan {
            delay_prob: 1.0,
            delay_extra: 5,
            ..FaultPlan::default()
        };
        let mut link = LossyLink::lossy(LatencyCfg::Constant(3), delay_plan, 7);
        link.transmit(site(0), SiteId::SERVER0, 64, SimTime::ZERO, &mut out);
        assert_eq!(out, vec![SimTime::new(8)]);
        assert_eq!(link.counts().delayed, 1);
    }
}
