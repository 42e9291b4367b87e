//! Transient-phase (warm-up) elimination.
//!
//! The paper: "The transient phase of the simulation runs was eliminated.
//! In each simulation run, 50000 transactions (excluding the transient
//! phase) were generated." We implement the same policy: discard the first
//! `warmup` *completed* observations, then keep exactly the next `keep`
//! observations (or all of them when `keep` is `None`).

use serde::{Deserialize, Serialize};

/// Decides, per completed observation, whether it falls in the measured
/// window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WarmupFilter {
    warmup: u64,
    keep: Option<u64>,
    seen: u64,
}

impl WarmupFilter {
    /// Discard the first `warmup` observations; measure the next `keep`
    /// (all the rest when `keep` is `None`).
    pub fn new(warmup: u64, keep: Option<u64>) -> Self {
        WarmupFilter {
            warmup,
            keep,
            seen: 0,
        }
    }

    /// Register the next observation; returns `true` iff it should be
    /// measured.
    pub fn admit(&mut self) -> bool {
        let i = self.seen;
        self.seen += 1;
        if i < self.warmup {
            return false;
        }
        match self.keep {
            None => true,
            Some(k) => i - self.warmup < k,
        }
    }

    /// True once `warmup + keep` observations have been seen (never true
    /// for an unbounded filter).
    pub fn is_complete(&self) -> bool {
        match self.keep {
            None => false,
            Some(k) => self.seen >= self.warmup + k,
        }
    }

    /// Observations seen so far (measured or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Observations measured so far.
    pub fn measured(&self) -> u64 {
        let past_warmup = self.seen.saturating_sub(self.warmup);
        match self.keep {
            None => past_warmup,
            Some(k) => past_warmup.min(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discards_warmup_then_keeps_window() {
        let mut f = WarmupFilter::new(3, Some(2));
        let admitted: Vec<bool> = (0..7).map(|_| f.admit()).collect();
        assert_eq!(
            admitted,
            vec![false, false, false, true, true, false, false]
        );
        assert!(f.is_complete());
        assert_eq!(f.measured(), 2);
        assert_eq!(f.seen(), 7);
    }

    #[test]
    fn unbounded_keep_admits_everything_after_warmup() {
        let mut f = WarmupFilter::new(2, None);
        assert!(!f.admit());
        assert!(!f.admit());
        for _ in 0..100 {
            assert!(f.admit());
        }
        assert!(!f.is_complete());
        assert_eq!(f.measured(), 100);
    }

    #[test]
    fn zero_warmup_admits_immediately() {
        let mut f = WarmupFilter::new(0, Some(1));
        assert!(f.admit());
        assert!(f.is_complete());
        assert!(!f.admit());
    }

    #[test]
    fn complete_exactly_at_boundary() {
        let mut f = WarmupFilter::new(1, Some(1));
        f.admit();
        assert!(!f.is_complete());
        f.admit();
        assert!(f.is_complete());
    }
}
