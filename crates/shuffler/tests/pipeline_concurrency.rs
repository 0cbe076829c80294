//! Concurrency exactness suite for the streaming shuffler: producer
//! threads share one engine handle, and the released set must be exactly
//! the threshold-surviving multiset — no report lost, none duplicated, none
//! leaked below threshold. The last two tests repeat every claim for one
//! producer and for several. A released batch is a histogram of
//! `(code, action)` cells, so multisets are read off the cell counts.

use p2b_shuffler::{EncodedReport, RawReport, ReleasedCell, ShufflerConfig, ShufflerEngine};
use std::collections::HashMap;

fn raw(agent: usize, code: usize) -> RawReport {
    RawReport::new(
        format!("agent-{agent}"),
        EncodedReport::new(code, code % 3, 1.0).expect("valid report"),
    )
}

/// Multiset of code frequencies in a report list.
fn frequencies(codes: impl Iterator<Item = usize>) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    for code in codes {
        *map.entry(code).or_insert(0) += 1;
    }
    map
}

/// Multiset of code frequencies in a released batch's cells.
fn released_frequencies(cells: &[ReleasedCell]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    for cell in cells {
        *map.entry(cell.code()).or_insert(0) += cell.count() as usize;
    }
    map
}

#[test]
fn concurrent_producers_release_exactly_the_surviving_set() {
    const PRODUCERS: usize = 8;
    const REPORTS_PER_PRODUCER: usize = 125;
    const TOTAL: usize = PRODUCERS * REPORTS_PER_PRODUCER;
    const THRESHOLD: usize = 100;

    // One batch spanning every submission, so thresholding applies to the
    // full multiset and the expected outcome is exact: each producer emits
    // codes 0..=4 with code weights 5:4:3:2:1 per block of 15.
    let code_of = |i: usize| -> usize {
        match i % 15 {
            0..=4 => 0,
            5..=8 => 1,
            9..=11 => 2,
            12..=13 => 3,
            _ => 4,
        }
    };

    let engine = ShufflerEngine::builder(ShufflerConfig::new(THRESHOLD))
        .batch_size(TOTAL)
        .build()
        .expect("valid engine");
    let handle = engine.spawn();
    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let handle_ref = &handle;
            scope.spawn(move || {
                for i in 0..REPORTS_PER_PRODUCER {
                    handle_ref
                        .submit(raw(producer, code_of(i)))
                        .expect("engine accepts submissions while open");
                }
            });
        }
    });
    let batches = handle.finish().batches;

    // All submissions land in a single full batch.
    assert_eq!(batches.len(), 1);
    let batch = &batches[0].batch;
    let stats = batch.stats();
    assert_eq!(stats.received, TOTAL);
    assert_eq!(stats.released + stats.dropped, TOTAL);

    let submitted = frequencies((0..REPORTS_PER_PRODUCER).map(code_of))
        .into_iter()
        .map(|(code, count)| (code, count * PRODUCERS))
        .collect::<HashMap<_, _>>();
    let released = released_frequencies(batch.reports());

    // Exactly the threshold-surviving codes are released, at exactly their
    // submitted multiplicities: nothing lost, nothing duplicated.
    for (&code, &count) in &submitted {
        if count >= THRESHOLD {
            assert_eq!(
                released.get(&code),
                Some(&count),
                "code {code} should survive with its exact multiplicity"
            );
        } else {
            assert!(
                !released.contains_key(&code),
                "code {code} (count {count}) must be suppressed below threshold {THRESHOLD}"
            );
        }
    }
    // And nothing not submitted ever appears.
    for code in released.keys() {
        assert!(submitted.contains_key(code), "unknown code {code} released");
    }
}

#[test]
fn per_batch_thresholding_still_conserves_received_counts() {
    // Smaller batches: batch boundaries depend on arrival interleaving, so
    // the released multiset is not deterministic — but conservation
    // (received = released + dropped, summed to the total) must still hold.
    const PRODUCERS: usize = 4;
    const REPORTS_PER_PRODUCER: usize = 100;

    let engine = ShufflerEngine::builder(ShufflerConfig::new(5))
        .batch_size(32)
        .build()
        .expect("valid engine");
    let handle = engine.spawn();
    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let handle_ref = &handle;
            scope.spawn(move || {
                for i in 0..REPORTS_PER_PRODUCER {
                    handle_ref
                        .submit(raw(producer, i % 7))
                        .expect("engine accepts submissions while open");
                }
            });
        }
    });
    let batches = handle.finish().batches;
    let received: usize = batches.iter().map(|b| b.batch.stats().received).sum();
    let accounted: usize = batches
        .iter()
        .map(|b| b.batch.stats().released + b.batch.stats().dropped)
        .sum();
    assert_eq!(received, PRODUCERS * REPORTS_PER_PRODUCER);
    assert_eq!(accounted, received);
    let released: u64 = batches
        .iter()
        .flat_map(|b| b.batch.reports())
        .map(ReleasedCell::count)
        .sum();
    assert_eq!(
        released as usize,
        batches
            .iter()
            .map(|b| b.batch.stats().released)
            .sum::<usize>()
    );
}

/// A report's pair for multiset comparison.
fn pair(report: &EncodedReport) -> (usize, usize) {
    (report.code(), report.action())
}

/// Global report `i` of the multiset test: 13 codes, 3 actions, 0/1 reward.
fn numbered(i: usize) -> EncodedReport {
    EncodedReport::new(i % 13, i % 3, f64::from((i % 2) as u8)).expect("valid report")
}

#[test]
fn engine_delivers_the_exact_multiset_at_one_four_and_eight_producers() {
    const TOTAL: usize = 2000;

    for producers in [1usize, 4, 8] {
        // Threshold 1: nothing may be suppressed, so the delivered multiset
        // must equal the submitted multiset exactly — across interleaved
        // producers and the cuts at the batch size.
        let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
            .batch_size(64)
            .build()
            .expect("valid engine");
        let handle = engine.spawn();

        // Pair → (reports, rewarded reports): every reward is 0 or 1.
        let mut submitted: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        for report in (0..TOTAL).map(numbered) {
            let tally = submitted.entry(pair(&report)).or_insert((0, 0));
            tally.0 += 1;
            tally.1 += report.reward() as u64;
        }

        let per_producer = TOTAL / producers;
        std::thread::scope(|scope| {
            for producer in 0..producers {
                let handle_ref = &handle;
                scope.spawn(move || {
                    for i in 0..per_producer {
                        let report = numbered(producer * per_producer + i);
                        handle_ref
                            .submit(RawReport::new(format!("agent-{producer}"), report))
                            .expect("engine accepts submissions while open");
                    }
                });
            }
        });
        let output = handle.finish();

        let mut delivered: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        let mut received = 0;
        for batch in &output.batches {
            received += batch.batch.stats().received;
            assert_eq!(batch.batch.stats().dropped, 0, "threshold 1 drops nothing");
            for cell in batch.batch.reports() {
                let tally = delivered
                    .entry((cell.code(), cell.action()))
                    .or_insert((0, 0));
                tally.0 += cell.count();
                // 0/1 rewards sum exactly on the fixed-point grid.
                tally.1 += cell.reward_sum() as u64;
            }
        }
        assert_eq!(received, TOTAL, "producers={producers}");
        assert_eq!(
            delivered, submitted,
            "delivered multiset must equal submitted multiset at producers={producers}"
        );
        // Batches have the configured exact size, final flush aside.
        for batch in &output.batches[..output.batches.len() - 1] {
            assert_eq!(batch.batch.stats().received, 64, "producers={producers}");
        }
    }
}

#[test]
fn engine_thresholding_over_one_merged_batch_is_exact_per_producer_count() {
    const TOTAL: usize = 600;
    const THRESHOLD: usize = 100;

    // Same weighted code mix as the first test: per block of 15, codes
    // 0..=4 with weights 5:4:3:2:1, so global counts are exactly known.
    let code_of = |i: usize| -> usize {
        match i % 15 {
            0..=4 => 0,
            5..=8 => 1,
            9..=11 => 2,
            12..=13 => 3,
            _ => 4,
        }
    };

    for producers in [1usize, 4] {
        // One batch spanning every submission: thresholding must act on the
        // *global* multiset even when codes are split across producers
        // (each producer alone sends far fewer than THRESHOLD copies).
        let per_producer = TOTAL / producers;
        let engine = ShufflerEngine::builder(ShufflerConfig::new(THRESHOLD))
            .batch_size(TOTAL)
            .build()
            .expect("valid engine");
        let handle = engine.spawn();
        std::thread::scope(|scope| {
            for producer in 0..producers {
                let handle_ref = &handle;
                scope.spawn(move || {
                    for i in 0..per_producer {
                        let report = EncodedReport::new(code_of(i), 0, 1.0).expect("valid");
                        handle_ref
                            .submit(RawReport::new(format!("agent-{producer}"), report))
                            .expect("engine accepts submissions while open");
                    }
                });
            }
        });
        let output = handle.finish();
        assert_eq!(output.batches.len(), 1, "producers={producers}");
        let batch = &output.batches[0].batch;
        assert_eq!(batch.stats().received, TOTAL);

        let submitted = frequencies((0..per_producer).map(code_of))
            .into_iter()
            .map(|(code, count)| (code, count * producers))
            .collect::<HashMap<_, _>>();
        let released = released_frequencies(batch.reports());
        for (&code, &count) in &submitted {
            if count >= THRESHOLD {
                assert_eq!(
                    released.get(&code),
                    Some(&count),
                    "code {code} must survive with exact multiplicity at producers={producers}"
                );
            } else {
                assert!(
                    !released.contains_key(&code),
                    "code {code} (count {count}) must be suppressed at producers={producers}"
                );
            }
        }
        for code in released.keys() {
            assert!(submitted.contains_key(code), "unknown code {code} released");
        }
        assert!(batch.min_released_code_frequency() >= THRESHOLD);
    }
}
