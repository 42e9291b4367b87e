//! Item-selection distributions.
//!
//! The paper draws items uniformly from a small pool ("M is purposely
//! kept small to emulate hot data access"). We additionally provide a
//! Zipf-skewed selection so the benches can study a *mixed* hot/cold
//! database, an extension the paper's conclusion motivates ("the more a
//! certain data item is requested … more is the performance gain").

use g2pl_simcore::RngStream;
use serde::{Deserialize, Serialize};

/// How a transaction's items are drawn from the pool of `M` items.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AccessDistribution {
    /// Uniform over the whole pool — the paper's model.
    Uniform,
    /// Zipf with exponent `theta` (> 0): item 0 is the hottest. Drawn by
    /// inversion over the precomputable harmonic weights.
    Zipf {
        /// Skew exponent; 0 degenerates to uniform, ~0.99 is the classic
        /// TPC-C-style hot skew.
        theta: f64,
    },
}

impl AccessDistribution {
    /// This distribution over `0..pool`, with its per-pool table (the
    /// Zipf CDF, O(pool) `powf`s) computed once for every later draw.
    ///
    /// # Panics
    /// Panics if `pool == 0`.
    pub(crate) fn over(&self, pool: usize) -> ItemSampler {
        assert!(pool > 0, "empty pool");
        let cdf = match self {
            AccessDistribution::Uniform => None,
            AccessDistribution::Zipf { theta } => Some(zipf_cdf(pool, *theta)),
        };
        ItemSampler { pool, cdf }
    }
}

/// An [`AccessDistribution`] fixed to a pool of `0..pool` items.
#[derive(Clone, Debug)]
pub(crate) struct ItemSampler {
    pool: usize,
    /// The Zipf CDF over the pool; `None` for uniform draws.
    cdf: Option<Vec<f64>>,
}

impl ItemSampler {
    /// Draw one item index from the pool.
    pub(crate) fn one(&self, rng: &mut RngStream) -> u32 {
        match &self.cdf {
            None => rng.uniform_incl(0, self.pool as u64 - 1) as u32,
            Some(cdf) => invert_cdf(cdf, rng),
        }
    }

    /// Draw `k` *distinct* item indices from the pool.
    ///
    /// # Panics
    /// Panics if `k` exceeds the pool.
    pub(crate) fn distinct(&self, k: usize, rng: &mut RngStream) -> Vec<u32> {
        let pool = self.pool;
        assert!(k <= pool, "cannot draw {k} distinct items from {pool}");
        match &self.cdf {
            None => rng.distinct(k, pool),
            Some(cdf) => {
                let mut out: Vec<u32> = Vec::with_capacity(k);
                // Rejection on duplicates: k ≤ 5 and pool ≥ 25 in every
                // paper configuration, so retries are rare.
                while out.len() < k {
                    let idx = invert_cdf(cdf, rng);
                    if !out.contains(&idx) {
                        out.push(idx);
                    }
                }
                out
            }
        }
    }
}

/// Draw an index from a cumulative distribution by inversion.
pub(crate) fn invert_cdf(cdf: &[f64], rng: &mut RngStream) -> u32 {
    let u = rng.unit_f64();
    (cdf.partition_point(|&c| c < u) as u32).min(cdf.len() as u32 - 1)
}

/// Cumulative Zipf distribution over `n` ranks with exponent `theta`.
pub(crate) fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    assert!(n > 0, "empty pool");
    assert!(theta >= 0.0, "negative Zipf exponent");
    let mut cdf = Vec::with_capacity(n);
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
        cdf.push(sum);
    }
    for c in &mut cdf {
        *c /= sum;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distinct_covers_pool() {
        let mut rng = RngStream::new(2);
        let d = AccessDistribution::Uniform.over(25);
        let mut seen = [false; 25];
        for _ in 0..500 {
            for i in d.distinct(5, &mut rng) {
                seen[i as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every item should eventually appear"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = RngStream::new(3);
        let d = AccessDistribution::Zipf { theta: 1.0 }.over(25);
        let mut counts = [0u64; 25];
        for _ in 0..5000 {
            for i in d.distinct(1, &mut rng) {
                counts[i as usize] += 1;
            }
        }
        assert!(
            counts[0] > counts[24] * 3,
            "rank 0 ({}) should dominate rank 24 ({})",
            counts[0],
            counts[24]
        );
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut rng = RngStream::new(4);
        let d = AccessDistribution::Zipf { theta: 0.0 }.over(10);
        let mut counts = [0u64; 10];
        let n = 20_000;
        for _ in 0..n {
            for i in d.distinct(1, &mut rng) {
                counts[i as usize] += 1;
            }
        }
        let expect = n as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.15,
                "rank {i} count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn distinct_holds_for_zipf() {
        let mut rng = RngStream::new(5);
        let d = AccessDistribution::Zipf { theta: 1.2 }.over(25);
        for _ in 0..200 {
            let mut v = d.distinct(5, &mut rng);
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 5);
        }
    }

    #[test]
    fn cdf_is_monotone_and_normalised() {
        let cdf = zipf_cdf(25, 0.8);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[24] - 1.0).abs() < 1e-12);
    }
}
