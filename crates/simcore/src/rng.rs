//! Seeded random-number streams.
//!
//! Every source of randomness in a simulation run flows through an
//! [`RngStream`] derived from the run's master seed, so runs are exactly
//! reproducible and independent replications (the paper uses 5 per data
//! point) are generated from documented, well-separated seeds.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, implemented
//! in-crate so the simulator has no external RNG dependency and the
//! stream of draws is stable across toolchain upgrades — a run's seed
//! fully identifies its trace, forever.

/// A named, seeded random stream.
///
/// Streams are derived from a master seed with a SplitMix64 hash of a
/// label, so adding a new consumer of randomness does not perturb the
/// draws seen by existing consumers (common random numbers across protocol
/// variants, which sharpens paired comparisons such as g-2PL vs s-2PL).
pub struct RngStream {
    state: [u64; 4],
}

/// SplitMix64 step: the standard seed-spreading finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStream {
    /// A stream seeded directly from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_hashed(splitmix64(seed))
    }

    /// Derive an independent child stream from a master seed and a label.
    ///
    /// `derive(s, a)` and `derive(s, b)` are statistically independent for
    /// `a != b`, and both are deterministic functions of `s`.
    pub fn derive(master_seed: u64, label: &str) -> Self {
        let mut h = splitmix64(master_seed);
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        Self::from_hashed(h)
    }

    /// Derive one stream of an indexed family: `derive_indexed(s, "client",
    /// 3)` is byte-for-byte the stream `derive(s, "client-3")` would
    /// produce. Use this for per-entity streams (one per client, one per
    /// trial): the literal `prefix` keeps the family's name checkable for
    /// collisions by `g2pl-lint` (L4) without allocating a label string.
    pub fn derive_indexed(master_seed: u64, prefix: &str, n: u64) -> Self {
        let mut h = splitmix64(master_seed);
        for &b in prefix.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ u64::from(b'-'));
        // Hash the decimal digits of `n` exactly as the formatted label
        // would contain them.
        let mut digits = [0u8; 20];
        let mut len = 0;
        let mut v = n;
        loop {
            digits[len] = b'0' + (v % 10) as u8;
            len += 1;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for i in (0..len).rev() {
            h = splitmix64(h ^ u64::from(digits[i]));
        }
        Self::from_hashed(h)
    }

    /// Expand one well-mixed word into the full 256-bit xoshiro state via
    /// a SplitMix64 sequence, per the generator authors' recommendation.
    fn from_hashed(h: u64) -> Self {
        let mut sm = h;
        let mut state = [0u64; 4];
        for word in &mut state {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        RngStream { state }
    }

    /// Next raw draw: one xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform draw in `[0, bound)` via Lemire's multiply-shift
    /// rejection method; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// This is the distribution Table 1 of the paper uses for think times
    /// (1–3), idle times (2–10) and items-per-transaction (1–5).
    pub fn uniform_incl(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Bernoulli draw: `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index into a collection of length `len` (> 0).
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from empty collection");
        self.below(len as u64) as usize
    }

    /// Draw `k` distinct values uniformly from `0..pool`. Used to pick the
    /// distinct data items a transaction accesses.
    ///
    /// A partial Fisher–Yates shuffle of the virtual vector `0..pool`:
    /// step `i` draws `j_i` in `i..pool`, swaps positions `i` and `j_i`,
    /// and the draw returns positions `0..k`. Nothing of size `pool` is
    /// built. The swap targets do not depend on the values, so all `k`
    /// are drawn first; output `i` is then the value the earlier swaps
    /// moved to `j_i`, found by undoing them backwards from `j_i`. A draw
    /// costs `k` random numbers and O(k²) comparisons whatever the pool
    /// (the scale-out study's per-shard pools reach 10⁶ items).
    pub fn distinct(&mut self, k: usize, pool: usize) -> Vec<u32> {
        assert!(k <= pool, "cannot draw {k} distinct from pool of {pool}");
        let mut out: Vec<u32> = (0..k).map(|i| (i + self.index(pool - i)) as u32).collect();
        // Descending, so `out[..i]` still holds the targets `j_0..j_(i-1)`.
        for i in (0..k).rev() {
            let mut p = out[i];
            for (s, &j) in out[..i].iter().enumerate().rev() {
                if p == s as u32 {
                    p = j;
                } else if p == j {
                    p = s as u32;
                }
            }
            out[i] = p;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let mut a = RngStream::new(42);
        let mut b = RngStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_incl(0, 1000), b.uniform_incl(0, 1000));
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = RngStream::derive(42, "think");
        let mut b = RngStream::derive(42, "idle");
        let va: Vec<u64> = (0..32).map(|_| a.uniform_incl(0, u64::MAX / 2)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.uniform_incl(0, u64::MAX / 2)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_indexed_matches_formatted_label() {
        // The indexed form must reproduce the formatted-label streams it
        // replaced, byte for byte, or every seeded run would shift.
        for n in [0u64, 1, 7, 42, 999, 12_345, u64::MAX] {
            let mut a = RngStream::derive_indexed(42, "client", n);
            let mut b = RngStream::derive(42, &format!("client-{n}"));
            for _ in 0..64 {
                assert_eq!(
                    a.uniform_incl(0, u64::MAX),
                    b.uniform_incl(0, u64::MAX),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn derive_indexed_family_members_differ() {
        let mut a = RngStream::derive_indexed(42, "client", 1);
        let mut b = RngStream::derive_indexed(42, "client", 2);
        let va: Vec<u64> = (0..32).map(|_| a.uniform_incl(0, u64::MAX / 2)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.uniform_incl(0, u64::MAX / 2)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_incl_respects_bounds() {
        let mut r = RngStream::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.uniform_incl(2, 10);
            assert!((2..=10).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 10;
        }
        assert!(seen_lo && seen_hi, "endpoints should be reachable");
    }

    #[test]
    fn uniform_incl_full_range_does_not_overflow() {
        let mut r = RngStream::new(13);
        for _ in 0..10 {
            let _ = r.uniform_incl(0, u64::MAX);
        }
    }

    #[test]
    fn bernoulli_extremes_are_exact() {
        let mut r = RngStream::new(1);
        for _ in 0..100 {
            assert!(!r.bernoulli(0.0));
            assert!(r.bernoulli(1.0));
        }
    }

    #[test]
    fn bernoulli_mean_is_close() {
        let mut r = RngStream::new(3);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let mut r = RngStream::new(9);
        for _ in 0..200 {
            let v = r.distinct(5, 25);
            assert_eq!(v.len(), 5);
            let mut s = v.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 5, "duplicates in {v:?}");
            assert!(v.iter().all(|&x| x < 25));
        }
    }

    #[test]
    fn distinct_full_pool_is_permutation() {
        let mut r = RngStream::new(11);
        let mut v = r.distinct(10, 10);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<u32>>());
    }

    /// The dense partial Fisher–Yates over a materialised `0..pool`: the
    /// reference `distinct` must match value for value and draw for draw.
    fn dense_distinct(r: &mut RngStream, k: usize, pool: usize) -> Vec<u32> {
        let mut scratch: Vec<u32> = (0..pool as u32).collect();
        for i in 0..k {
            let j = i + r.index(pool - i);
            scratch.swap(i, j);
        }
        scratch.truncate(k);
        scratch
    }

    #[test]
    fn distinct_matches_the_dense_shuffle() {
        for pool in [1usize, 2, 5, 25, 64, 10_000, 1 << 20] {
            // The dense reference fills 4 MiB per call at 2^20.
            let seeds = if pool > 10_000 { 16 } else { 200 };
            for seed in 0..seeds {
                for k in 0..=pool.min(12) {
                    let mut sparse = RngStream::derive_indexed(seed, "distinct", k as u64);
                    let mut dense = RngStream::derive_indexed(seed, "distinct", k as u64);
                    for round in 0..3 {
                        assert_eq!(
                            sparse.distinct(k, pool),
                            dense_distinct(&mut dense, k, pool),
                            "seed {seed}, pool {pool}, k {k}, round {round}"
                        );
                    }
                    assert_eq!(
                        sparse.next_u64(),
                        dense.next_u64(),
                        "stream state after the draws: seed {seed}, pool {pool}, k {k}"
                    );
                }
            }
        }
    }
}
