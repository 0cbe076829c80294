//! How many threads the write path starts, counted, not timed: a system
//! starts its ingest shards once, and a flush through the shuffler engine
//! starts none, because the engine runs on the submitting thread.
//!
//! `ShardPool::spawn` is the one place `p2b_shuffler` and `p2b_core` start a
//! thread; the `counters` feature of `p2b_shuffler` (on in this crate's
//! tests only) counts the workers it starts from the calling thread.

use p2b_core::{P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_privacy::Participation;
use p2b_shuffler::{
    workers_started_on_this_thread, EncodedReport, RawReport, ShufflerConfig, ShufflerEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIMENSION: usize = 4;
const CODES: usize = 4;
const ACTIONS: usize = 3;

fn encoder() -> Arc<KMeansEncoder> {
    let mut rng = StdRng::seed_from_u64(3);
    let corpus: Vec<Vector> = (0..80)
        .map(|i| {
            let mut raw = vec![0.1; DIMENSION];
            raw[i % DIMENSION] = 1.0;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(CODES), &mut rng).expect("k ≤ corpus"))
}

/// `n` reports of round `round`, over every code and action.
fn reports(round: usize, n: usize) -> Vec<RawReport> {
    (0..n)
        .map(|i| {
            let payload = EncodedReport::new(i % CODES, (i + round) % ACTIONS, 0.5)
                .expect("reward in [0, 1]");
            RawReport::new(format!("agent-{round}-{i}"), payload)
        })
        .collect()
}

#[test]
fn a_system_starts_its_ingest_shards_once_and_no_thread_per_flush() {
    let before = workers_started_on_this_thread();
    let config = P2bConfig::new(DIMENSION, ACTIONS)
        .with_shuffler_threshold(2)
        .with_shuffler_batch_size(64)
        .with_ingest_shards(2);
    let mut system = P2bSystem::new(config, encoder()).expect("system builds");
    assert_eq!(
        workers_started_on_this_thread() - before,
        2,
        "the ingest shards"
    );
    for round in 0..5 {
        let (stats, _ledger) = system
            .streaming_round(reports(round, 150), round as u64)
            .expect("round folds");
        assert_eq!(
            stats.len(),
            3,
            "150 reports cut at 64: two full batches and a partial one"
        );
        system.server_mut().model().expect("publish succeeds");
    }
    assert_eq!(
        workers_started_on_this_thread() - before,
        2,
        "five flushes and publishes start no thread"
    );
}

#[test]
fn an_engine_run_starts_no_thread() {
    // The experiment channel's shape: build an engine, open a handle,
    // submit a flush's reports, finish.
    let before = workers_started_on_this_thread();
    let engine = ShufflerEngine::builder(ShufflerConfig::new(2))
        .batch_size(64)
        .privacy_accounting(Participation::new(0.5).expect("p in (0, 1]"), 1.0)
        .build()
        .expect("valid engine");
    let handle = engine.spawn();
    for report in reports(0, 200) {
        handle.submit(report).expect("engine is open");
    }
    let output = handle.finish();
    assert_eq!(output.batches.len(), 4);
    assert_eq!(workers_started_on_this_thread() - before, 0);
}
