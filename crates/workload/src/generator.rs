//! Transaction spec generation.

use crate::dist::{invert_cdf, zipf_cdf, ItemSampler};
use crate::profile::TxnProfile;
use g2pl_simcore::{ItemId, RngStream};
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes the item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// Shared access.
    Read,
    /// Exclusive access.
    Write,
}

impl AccessMode {
    /// True for [`AccessMode::Write`].
    pub fn is_write(self) -> bool {
        self == AccessMode::Write
    }
}

/// The full access list of one transaction, in issue order.
///
/// Accesses are issued sequentially by the client (§4: "requests for data
/// items are generated sequentially, with each request being generated
/// only after the previous request has been granted").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// `(item, mode)` pairs in issue order; items are distinct.
    pub accesses: Vec<(ItemId, AccessMode)>,
}

impl TxnSpec {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when the spec has no accesses (never produced by the
    /// generator; exists for completeness).
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// True when every access is a read.
    pub fn is_read_only(&self) -> bool {
        self.accesses.iter().all(|(_, m)| !m.is_write())
    }

    /// The access at issue position `idx`.
    pub fn access(&self, idx: usize) -> (ItemId, AccessMode) {
        self.accesses[idx]
    }
}

/// Draws [`TxnSpec`]s according to a [`TxnProfile`] over a pool of
/// `num_shards * items_per_shard` items (shard `s` owns the contiguous
/// range `s*items_per_shard .. (s+1)*items_per_shard`).
#[derive(Clone, Debug)]
pub struct TxnGenerator {
    profile: TxnProfile,
    items_per_shard: u32,
    /// Cumulative shard-popularity distribution, precomputed when the
    /// profile has a shard mix and the space has ≥2 shards.
    shard_cdf: Option<Vec<f64>>,
    /// The profile's item distribution over the pool one transaction
    /// draws from: one shard's items when `shard_cdf` is set, else the
    /// whole pool.
    items: ItemSampler,
}

impl TxnGenerator {
    /// A generator for `profile` over a single-shard pool of `pool_size`
    /// items (the paper's layout).
    ///
    /// # Panics
    /// Panics if the profile fails validation against the pool size.
    pub fn new(profile: TxnProfile, pool_size: u32) -> Self {
        Self::new_sharded(profile, 1, pool_size)
    }

    /// A generator over `num_shards` shards of `items_per_shard` items
    /// each. When the profile carries a [`crate::ShardMix`] and the
    /// space has at least two shards, draws become placement-aware;
    /// otherwise items are drawn over the whole pool exactly as the
    /// unsharded generator would.
    ///
    /// # Panics
    /// Panics if the profile fails validation against the pool size.
    pub fn new_sharded(profile: TxnProfile, num_shards: u32, items_per_shard: u32) -> Self {
        let pool_size = num_shards * items_per_shard;
        profile
            .validate(pool_size)
            // lint:allow(L3): documented `# Panics` contract: an invalid profile is a caller bug
            .unwrap_or_else(|e| panic!("invalid profile: {e}"));
        let shard_cdf = match (&profile.shard_mix, num_shards) {
            (Some(mix), n) if n >= 2 => Some(zipf_cdf(n as usize, mix.shard_theta)),
            _ => None,
        };
        let items = profile.access.over(if shard_cdf.is_some() {
            items_per_shard as usize
        } else {
            pool_size as usize
        });
        TxnGenerator {
            profile,
            items_per_shard,
            shard_cdf,
            items,
        }
    }

    /// The profile this generator draws from.
    pub fn profile(&self) -> &TxnProfile {
        &self.profile
    }

    /// Draw one transaction spec.
    pub fn draw(&self, rng: &mut RngStream) -> TxnSpec {
        let k =
            rng.uniform_incl(self.profile.min_items as u64, self.profile.max_items as u64) as usize;
        let mut items = match &self.shard_cdf {
            None => self.items.distinct(k, rng),
            Some(cdf) => self.draw_placed(k, cdf, rng),
        };
        if self.profile.sorted_access {
            items.sort_unstable();
        }
        let accesses = items
            .into_iter()
            .map(|i| {
                let mode = if rng.bernoulli(self.profile.read_prob) {
                    AccessMode::Read
                } else {
                    AccessMode::Write
                };
                (ItemId::new(i), mode)
            })
            .collect();
        TxnSpec { accesses }
    }

    /// Placement-aware selection of `k` distinct items.
    ///
    /// Single-home transactions draw every item inside one popularity-
    /// weighted home shard (`k` capped at the shard size). Multi-home
    /// transactions draw each item's shard independently, then — if the
    /// draws happened to collapse onto one shard — re-home the last item
    /// so the transaction really crosses.
    fn draw_placed(&self, k: usize, cdf: &[f64], rng: &mut RngStream) -> Vec<u32> {
        // lint:allow(L3): draw() built `cdf` from a present shard_mix
        let mix = self.profile.shard_mix.as_ref().expect("cdf implies mix");
        let per_shard = self.items_per_shard as usize;
        let home = invert_cdf(cdf, rng);
        let cross = k >= 2 && rng.bernoulli(mix.cross_frac);
        if !cross {
            let k = k.min(per_shard);
            return self
                .items
                .distinct(k, rng)
                .into_iter()
                .map(|i| home * self.items_per_shard + i)
                .collect();
        }
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k {
            let last = out.len() == k - 1;
            let single_homed_so_far = out
                .iter()
                .all(|&i| i / self.items_per_shard == out[0] / self.items_per_shard);
            let shard = if last && single_homed_so_far {
                // Force the crossing: re-draw until the shard differs
                // from the (unique) one used so far.
                let used = out[0] / self.items_per_shard;
                loop {
                    let s = invert_cdf(cdf, rng);
                    if s != used {
                        break s;
                    }
                }
            } else {
                invert_cdf(cdf, rng)
            };
            let item = shard * self.items_per_shard + self.items.one(rng);
            if !out.contains(&item) {
                out.push(item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(pr: f64) -> TxnGenerator {
        TxnGenerator::new(TxnProfile::table1(pr), 25)
    }

    #[test]
    fn sizes_respect_profile_bounds() {
        let g = generator(0.5);
        let mut rng = RngStream::new(1);
        let mut seen_min = false;
        let mut seen_max = false;
        for _ in 0..1000 {
            let s = g.draw(&mut rng);
            assert!((1..=5).contains(&s.len()));
            seen_min |= s.len() == 1;
            seen_max |= s.len() == 5;
        }
        assert!(seen_min && seen_max);
    }

    #[test]
    fn items_are_distinct_and_in_pool() {
        let g = generator(0.5);
        let mut rng = RngStream::new(2);
        for _ in 0..500 {
            let s = g.draw(&mut rng);
            let mut items: Vec<u32> = s.accesses.iter().map(|(i, _)| i.0).collect();
            assert!(items.iter().all(|&i| i < 25));
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), s.len());
        }
    }

    #[test]
    fn read_prob_extremes() {
        let mut rng = RngStream::new(3);
        let all_reads = generator(1.0);
        let all_writes = generator(0.0);
        for _ in 0..100 {
            assert!(all_reads.draw(&mut rng).is_read_only());
            assert!(all_writes
                .draw(&mut rng)
                .accesses
                .iter()
                .all(|(_, m)| m.is_write()));
        }
    }

    #[test]
    fn read_fraction_approximates_pr() {
        let g = generator(0.6);
        let mut rng = RngStream::new(4);
        let mut reads = 0u64;
        let mut total = 0u64;
        for _ in 0..3000 {
            for (_, m) in g.draw(&mut rng).accesses {
                total += 1;
                reads += u64::from(!m.is_write());
            }
        }
        let frac = reads as f64 / total as f64;
        assert!((frac - 0.6).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generator(0.5);
        let mut a = RngStream::new(9);
        let mut b = RngStream::new(9);
        for _ in 0..100 {
            assert_eq!(g.draw(&mut a), g.draw(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn oversized_profile_panics() {
        let mut p = TxnProfile::table1(0.5);
        p.max_items = 26;
        TxnGenerator::new(p, 25);
    }

    fn shard_of(item: u32, items_per_shard: u32) -> u32 {
        item / items_per_shard
    }

    fn shards_touched(spec: &TxnSpec, items_per_shard: u32) -> usize {
        let mut shards: Vec<u32> = spec
            .accesses
            .iter()
            .map(|(i, _)| shard_of(i.0, items_per_shard))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards.len()
    }

    #[test]
    fn sharded_generator_without_mix_matches_unsharded_exactly() {
        // Same profile, same pool, same seed: the sharded constructor
        // with no mix must replay the unsharded stream bit for bit.
        let flat = TxnGenerator::new(TxnProfile::table1(0.5), 24);
        let sharded = TxnGenerator::new_sharded(TxnProfile::table1(0.5), 4, 6);
        let mut a = RngStream::new(77);
        let mut b = RngStream::new(77);
        for _ in 0..300 {
            assert_eq!(flat.draw(&mut a), sharded.draw(&mut b));
        }
    }

    #[test]
    fn cross_frac_controls_multi_home_fraction() {
        use crate::profile::ShardMix;
        let mut p = TxnProfile::table1(0.5);
        p.min_items = 2; // every txn is crossing-eligible
        p.shard_mix = Some(ShardMix::uniform(0.3));
        let g = TxnGenerator::new_sharded(p, 4, 8);
        let mut rng = RngStream::new(11);
        let mut crossing = 0u64;
        let n = 4000;
        for _ in 0..n {
            let s = g.draw(&mut rng);
            assert!(s.len() >= 2);
            if shards_touched(&s, 8) >= 2 {
                crossing += 1;
            }
        }
        let frac = crossing as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "multi-home fraction {frac}");
    }

    #[test]
    fn cross_frac_extremes() {
        use crate::profile::ShardMix;
        let mut p = TxnProfile::table1(0.5);
        p.min_items = 2;
        let mut rng = RngStream::new(12);
        for (frac, want_cross) in [(0.0, false), (1.0, true)] {
            let mut prof = p.clone();
            prof.shard_mix = Some(ShardMix::uniform(frac));
            let g = TxnGenerator::new_sharded(prof, 4, 8);
            for _ in 0..300 {
                let s = g.draw(&mut rng);
                assert_eq!(shards_touched(&s, 8) >= 2, want_cross, "frac {frac}");
            }
        }
    }

    #[test]
    fn shard_theta_skews_shard_popularity() {
        use crate::profile::ShardMix;
        let mut p = TxnProfile::table1(0.5);
        p.shard_mix = Some(ShardMix {
            cross_frac: 0.2,
            shard_theta: 1.2,
        });
        let g = TxnGenerator::new_sharded(p, 8, 4);
        let mut rng = RngStream::new(13);
        let mut counts = [0u64; 8];
        for _ in 0..4000 {
            for (item, _) in g.draw(&mut rng).accesses {
                counts[shard_of(item.0, 4) as usize] += 1;
            }
        }
        assert!(
            counts[0] > counts[7] * 3,
            "shard 0 ({}) should dominate shard 7 ({})",
            counts[0],
            counts[7]
        );
    }

    #[test]
    fn sharded_draws_stay_distinct_and_deterministic() {
        use crate::profile::ShardMix;
        let mut p = TxnProfile::table1(0.5);
        p.shard_mix = Some(ShardMix {
            cross_frac: 0.5,
            shard_theta: 0.8,
        });
        let g = TxnGenerator::new_sharded(p, 4, 2); // tiny shards stress dedup
        let mut a = RngStream::new(14);
        let mut b = RngStream::new(14);
        for _ in 0..500 {
            let s = g.draw(&mut a);
            assert_eq!(s, g.draw(&mut b));
            let mut items: Vec<u32> = s.accesses.iter().map(|(i, _)| i.0).collect();
            assert!(items.iter().all(|&i| i < 8));
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), s.len());
        }
    }
}
