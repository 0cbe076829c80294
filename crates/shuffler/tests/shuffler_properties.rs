//! Property-based tests for the shuffler: the crowd-blending threshold must
//! hold for every released batch, no matter the input, and a released batch
//! is the histogram of exactly the surviving reports.

use p2b_privacy::{decode_fixed, encode_fixed};
use p2b_shuffler::{
    splitmix64, EncodedReport, RawReport, ReleasedCell, Shuffler, ShufflerConfig, ShufflerEngine,
    ShufflerStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// A released cell as plain values, its reward sum as exact bits.
type CellValues = (usize, usize, u64, u64);

/// One cut of reports released through a `BTreeMap`: per pair, the count
/// and the fixed-point reward sum; the cells of codes seen fewer than
/// `threshold` times removed; the stats counted off the map.
fn btreemap_release(cut: &[EncodedReport], threshold: usize) -> (Vec<CellValues>, ShufflerStats) {
    let mut pairs: BTreeMap<(usize, usize), (u64, i128)> = BTreeMap::new();
    let mut per_code: BTreeMap<usize, usize> = BTreeMap::new();
    for report in cut {
        let cell = pairs.entry((report.code(), report.action())).or_default();
        cell.0 += 1;
        cell.1 += encode_fixed(report.reward()).unwrap();
        *per_code.entry(report.code()).or_default() += 1;
    }
    let clears = |code: &usize| per_code[code] >= threshold;
    let cells = pairs
        .iter()
        .filter(|((code, _), _)| clears(code))
        .map(|(&(code, action), &(count, sum))| (code, action, count, decode_fixed(sum).to_bits()))
        .collect();
    let kept: Vec<usize> = per_code
        .values()
        .copied()
        .filter(|&n| n >= threshold)
        .collect();
    let released = kept.iter().sum();
    let stats = ShufflerStats {
        received: cut.len(),
        released,
        dropped: cut.len() - released,
        distinct_codes: per_code.len(),
        released_codes: kept.len(),
        min_released_frequency: kept.iter().copied().min().unwrap_or(0),
    };
    (cells, stats)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine's batches, cut every `batch_size` reports of one
    /// producer, release exactly what a `BTreeMap` tabulation of each cut
    /// releases: the same cells with bit-equal reward sums (non-dyadic
    /// rewards 0.1/0.3/0.7), in pair order, and the same stats. Codes are
    /// narrow or sit just below `usize::MAX`.
    #[test]
    fn record_release_matches_a_btreemap_oracle(
        batch_size in prop_oneof![Just(1usize), Just(64usize), Just(16_384usize)],
        n in 0usize..40_000,
        seed in any::<u64>(),
        codes in 1usize..50,
        actions in 1usize..12,
        threshold in 1usize..8,
        wide in any::<bool>(),
    ) {
        const REWARDS: [f64; 3] = [0.1, 0.3, 0.7];
        let base = if wide { usize::MAX - codes } else { 0 };
        let reports: Vec<EncodedReport> = (0..n as u64)
            .map(|i| {
                let h = splitmix64(seed ^ i);
                let code = base + (h % codes as u64) as usize;
                let action = ((h >> 20) % actions as u64) as usize;
                EncodedReport::new(code, action, REWARDS[((h >> 40) % 3) as usize]).unwrap()
            })
            .collect();
        let engine = ShufflerEngine::builder(ShufflerConfig::new(threshold))
            .batch_size(batch_size)
            .build()
            .unwrap();
        let handle = engine.spawn();
        for report in &reports {
            handle.submit(RawReport::new("a", *report)).unwrap();
        }
        let batches = handle.finish().batches;
        prop_assert_eq!(batches.len(), n.div_ceil(batch_size));
        for (batch, cut) in batches.iter().zip(reports.chunks(batch_size)) {
            let cells: Vec<CellValues> = batch
                .batch
                .reports()
                .iter()
                .map(|c| (c.code(), c.action(), c.count(), c.reward_sum().to_bits()))
                .collect();
            let (want_cells, want_stats) = btreemap_release(cut, threshold);
            prop_assert_eq!(cells, want_cells, "batch {}", batch.index);
            prop_assert_eq!(batch.batch.stats(), want_stats, "batch {}", batch.index);
        }
    }
}
