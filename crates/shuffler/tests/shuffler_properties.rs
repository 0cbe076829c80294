//! Property-based tests for the shuffler: the crowd-blending threshold must
//! hold for every released batch, no matter the input, and a released batch
//! is the histogram of exactly the surviving reports.

use p2b_shuffler::{
    EncodedReport, RawReport, ReleasedCell, Shuffler, ShufflerConfig, ShufflerEngine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn batch_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0usize..10, 0usize..5, 0.0f64..1.0), 0..120)
}

proptest! {
    /// Every code present in the released batch appears at least `threshold`
    /// times, and no report is invented (released ⊆ received as a multiset):
    /// each released code keeps exactly its received copies, one cell per
    /// `(code, action)` pair in pair order.
    #[test]
    fn released_codes_meet_the_threshold(
        raw in batch_strategy(),
        threshold in 1usize..8,
        seed in any::<u64>(),
    ) {
        let shuffler = Shuffler::new(ShufflerConfig::new(threshold)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<RawReport> = raw
            .iter()
            .enumerate()
            .map(|(i, &(code, action, reward))| {
                RawReport::with_timestamp(format!("agent-{i}"), i as u64,
                    EncodedReport::new(code, action, reward).unwrap())
            })
            .collect();
        let input_codes: HashMap<usize, usize> = reports.iter().fold(HashMap::new(), |mut m, r| {
            *m.entry(r.payload().code()).or_insert(0) += 1;
            m
        });

        let out = shuffler.process(reports, &mut rng);

        let released_codes: HashMap<usize, usize> = out.reports().iter().fold(HashMap::new(), |mut m, c| {
            *m.entry(c.code()).or_insert(0) += c.count() as usize;
            m
        });
        let pairs: Vec<(usize, usize)> = out.reports().iter().map(|c| (c.code(), c.action())).collect();
        prop_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "cells out of pair order: {:?}", pairs);
        for (&code, &count) in &released_codes {
            prop_assert!(count >= threshold, "code {code} released with only {count} copies");
            // Releases must be exactly the received copies of that code.
            prop_assert_eq!(count, input_codes[&code]);
        }
        // Dropped + released = received.
        prop_assert_eq!(out.stats().released + out.stats().dropped, out.stats().received);
    }

    /// The streaming engine releases exactly the
    /// submitted multiset of payloads when the threshold is 1 (nothing
    /// dropped), at any batch size.
    #[test]
    fn pipeline_conserves_reports_at_threshold_one(
        raw in prop::collection::vec((0usize..6, 0usize..3), 1..60),
        batch_size in 1usize..16,
    ) {
        let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
            .batch_size(batch_size)
            .build()
            .unwrap();
        let handle = engine.spawn();
        for &(code, action) in &raw {
            handle.submit(RawReport::new("a", EncodedReport::new(code, action, 1.0).unwrap())).unwrap();
        }
        let batches = handle.finish().batches;
        let total: u64 = batches.iter().flat_map(|b| b.batch.reports()).map(ReleasedCell::count).sum();
        prop_assert_eq!(total as usize, raw.len());

        let mut released: Vec<(usize, usize)> = batches
            .iter()
            .flat_map(|b| b.batch.reports())
            .flat_map(|c| std::iter::repeat_n((c.code(), c.action()), c.count() as usize))
            .collect();
        let mut expected = raw.clone();
        released.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(released, expected);
    }
}
