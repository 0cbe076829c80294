//! Property-based tests for the shuffler: the crowd-blending threshold must
//! hold for every released batch, no matter the input.

use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig, ShufflerEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn batch_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0usize..10, 0usize..5, 0.0f64..1.0), 0..120)
}

proptest! {
    /// Every code present in the released batch appears at least `threshold`
    /// times, and no report is invented (released ⊆ received as a multiset).
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

        let released_codes: HashMap<usize, usize> = out.reports().iter().fold(HashMap::new(), |mut m, r| {
            *m.entry(r.code()).or_insert(0) += 1;
            m
        });
        for (&code, &count) in &released_codes {
            prop_assert!(count >= threshold, "code {code} released with only {count} copies");
            // Releases must be exactly the received copies of that code.
            prop_assert_eq!(count, input_codes[&code]);
        }
        // Dropped + released = received.
        prop_assert_eq!(out.stats().released + out.stats().dropped, out.stats().received);
    }

    /// The single-lane (1-shard) streaming engine releases exactly the
    /// submitted multiset of payloads when the threshold is 1 (nothing
    /// dropped), at any batch size.
    #[test]
    fn pipeline_conserves_reports_at_threshold_one(
        raw in prop::collection::vec((0usize..6, 0usize..3), 1..60),
        batch_size in 1usize..16,
        seed in any::<u64>(),
    ) {
        let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
            .shards(1)
            .batch_size(batch_size)
            .build()
            .unwrap();
        let handle = engine.spawn(seed);
        for &(code, action) in &raw {
            handle.submit(RawReport::new("a", EncodedReport::new(code, action, 1.0).unwrap())).unwrap();
        }
        let batches = handle.finish().batches;
        let total: usize = batches.iter().map(|b| b.batch.reports().len()).sum();
        prop_assert_eq!(total, raw.len());

        let mut released: Vec<(usize, usize)> = batches
            .iter()
            .flat_map(|b| b.batch.reports().iter().map(|r| (r.code(), r.action())))
            .collect();
        let mut expected = raw.clone();
        released.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(released, expected);
    }
}
