//! Property-based tests of the workload generator.

use g2pl_simcore::RngStream;
use g2pl_workload::{AccessDistribution, TxnGenerator, TxnProfile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = (TxnProfile, u32)> {
    (
        1u32..6,       // min items
        0u32..4,       // extra max over min
        0u32..=10,     // read prob tenths
        1u64..5,       // think min
        0u64..5,       // think extra
        1u64..10,      // idle min
        0u64..10,      // idle extra
        any::<bool>(), // zipf?
        any::<bool>(), // sorted?
        10u32..60,     // pool
    )
        .prop_map(
            |(min_i, extra_i, pr, tmin, textra, imin, iextra, zipf, sorted, pool)| {
                let mut p = TxnProfile::table1(f64::from(pr) / 10.0);
                p.min_items = min_i;
                p.max_items = (min_i + extra_i).min(pool);
                p.think_min = tmin;
                p.think_max = tmin + textra;
                p.idle_min = imin;
                p.idle_max = imin + iextra;
                p.sorted_access = sorted;
                if zipf {
                    p.access = AccessDistribution::Zipf { theta: 0.9 };
                }
                (p, pool)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated specs always satisfy the profile bounds.
    #[test]
    fn specs_satisfy_profile((profile, pool) in arb_profile(), seed in any::<u64>()) {
        let generator = TxnGenerator::new(profile.clone(), pool);
        let mut rng = RngStream::new(seed);
        for _ in 0..50 {
            let spec = generator.draw(&mut rng);
            prop_assert!(spec.len() >= profile.min_items as usize);
            prop_assert!(spec.len() <= profile.max_items as usize);
            let mut items: Vec<u32> = spec.accesses.iter().map(|(i, _)| i.0).collect();
            prop_assert!(items.iter().all(|&i| i < pool));
            if profile.sorted_access {
                prop_assert!(items.windows(2).all(|w| w[0] < w[1]), "sorted order violated");
            }
            items.sort_unstable();
            items.dedup();
            prop_assert_eq!(items.len(), spec.len(), "duplicate items");
            if profile.read_prob == 0.0 {
                prop_assert!(spec.accesses.iter().all(|(_, m)| m.is_write()));
            }
            if profile.read_prob == 1.0 {
                prop_assert!(spec.is_read_only());
            }
        }
    }

    /// Timing draws stay inside the configured windows.
    #[test]
    fn timing_draws_in_bounds((profile, _) in arb_profile(), seed in any::<u64>()) {
        let mut rng = RngStream::new(seed);
        for _ in 0..100 {
            let t = profile.draw_think(&mut rng).units();
            prop_assert!(t >= profile.think_min && t <= profile.think_max);
            let i = profile.draw_idle(&mut rng).units();
            prop_assert!(i >= profile.idle_min && i <= profile.idle_max);
        }
    }
}
