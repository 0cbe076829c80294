//! The release is order-free: a flush whose reports all fit one batch
//! releases the same `(code, action)` cells, the same shuffler stats and —
//! folded through the central server — the same model, bit for bit, at any
//! ingest shard count and any number of producer threads.
//!
//! The order in which producers' reports take the engine's lock depends on
//! thread scheduling; the released histogram must not. The rewards are
//! non-dyadic (0.1, 0.3, 0.7), whose f64 sums would change with the order
//! they were added in: the cells sum them on a fixed-point grid instead.

use p2b_bandit::{Action, ContextualPolicy, LinUcb};
use p2b_core::{P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{EncodedReport, RawReport, ReleasedCell, ShufflerStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIMENSION: usize = 4;
const CODES: usize = 4;
const ACTIONS: usize = 3;
const REPORTS: usize = 600;
const THRESHOLD: usize = 40;

fn encoder() -> Arc<KMeansEncoder> {
    let mut rng = StdRng::seed_from_u64(5);
    let corpus: Vec<Vector> = (0..80)
        .map(|i| {
            let mut raw = vec![0.1; DIMENSION];
            raw[i % DIMENSION] = 1.0;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(CODES), &mut rng).expect("k ≤ corpus"))
}

/// Report `i`: code 3 only every 20th report (30 copies, below the
/// threshold), codes 0–2 otherwise; actions and rewards cycle.
fn report(i: usize) -> RawReport {
    const REWARDS: [f64; 3] = [0.1, 0.3, 0.7];
    let code = if i % 20 == 0 {
        CODES - 1
    } else {
        i % (CODES - 1)
    };
    let payload = EncodedReport::new(code, i * 7 % ACTIONS, REWARDS[i % 5 % 3])
        .expect("rewards are in [0, 1]");
    RawReport::new(format!("agent-{i}"), payload)
}

/// Every statistic of a model as exact bits.
fn model_bits(model: &LinUcb) -> Vec<u64> {
    let mut words = vec![model.observations()];
    for action in (0..ACTIONS).map(Action::new) {
        words.push(model.pulls(action).expect("arm in range"));
        let factor = model.factor(action).expect("arm in range");
        let reward = model.reward_vector(action).expect("arm in range");
        let theta = model.theta(action).expect("arm in range");
        words.extend(
            factor
                .packed()
                .iter()
                .chain(reward.iter())
                .chain(theta.iter())
                .map(|x| x.to_bits()),
        );
    }
    words
}

/// One flush of `REPORTS` reports from `producers` threads, folded on
/// `shards` ingest shards: the released cells and stats, and the published
/// model.
fn flush(shards: usize, producers: usize) -> (Vec<ReleasedCell>, ShufflerStats, Vec<u64>) {
    let config = P2bConfig::new(DIMENSION, ACTIONS)
        .with_shuffler_threshold(THRESHOLD)
        .with_shuffler_batch_size(REPORTS)
        .with_ingest_shards(shards);
    let mut system = P2bSystem::new(config, encoder()).expect("system builds");
    let handle = system.spawn_engine(0).expect("engine spawns");
    let reports: Vec<RawReport> = (0..REPORTS).map(report).collect();
    std::thread::scope(|scope| {
        for part in reports.chunks(REPORTS.div_ceil(producers)) {
            let handle = &handle;
            scope.spawn(move || {
                for report in part {
                    handle.submit(report.clone()).expect("engine is open");
                }
            });
        }
    });
    let output = handle.finish();
    assert_eq!(output.batches.len(), 1, "the flush fits one batch");
    let batch = &output.batches[0];
    system.ingest_engine_batch(batch).expect("batch folds");
    let model = model_bits(system.server_mut().model().expect("publish succeeds"));
    (batch.batch.reports().to_vec(), batch.batch.stats(), model)
}

#[test]
fn one_merged_batch_releases_the_same_cells_stats_and_model_at_any_shard_and_producer_count() {
    let (cells, stats, model) = flush(1, 1);
    assert_eq!(stats.received, REPORTS);
    assert_eq!(stats.received, stats.released + stats.dropped);
    assert!(
        stats.dropped > 0,
        "the threshold must bite for the test to mean anything"
    );
    assert!(stats.min_released_frequency >= THRESHOLD);
    for shards in [1usize, 2, 4] {
        for producers in [1usize, 4] {
            let (other_cells, other_stats, other_model) = flush(shards, producers);
            let context = format!("ingest shards={shards} producers={producers}");
            assert_eq!(other_cells, cells, "cells, {context}");
            assert_eq!(other_stats, stats, "stats, {context}");
            assert_eq!(other_model, model, "model bits, {context}");
        }
    }
}
