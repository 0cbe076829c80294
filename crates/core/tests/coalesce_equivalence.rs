//! Property suite for the coalesced-ingestion equivalence claim: summing a
//! released batch's `(code, action)` cells and folding each pair as one
//! weighted sufficient-statistics update must accept exactly the reports a
//! per-report fold accepts and produce the same central model up to
//! floating-point rounding (1e-9), for any report arrival order and any
//! ingest-shard count. The per-report fold is an oracle built here from
//! public API: one count-1 cell per in-range report of the raw stream, in
//! submission order.
//!
//! The argument: LinUCB's per-arm statistics `A_a = λI + Σ x xᵀ` and
//! `b_a = Σ r·x` are sums over the batch, so grouping commutes with folding
//! in exact arithmetic; the tolerance absorbs the reordering of
//! floating-point additions. The released cells themselves do not depend on
//! arrival order at all (fixed-point reward sums), so two arrival orders
//! give bit-identical models.

use p2b_bandit::{Action, ContextualPolicy, LinUcb};
use p2b_core::{CentralServer, Centroids, ModelService, P2bConfig};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{
    EncodedReport, RawReport, ReleasedCell, ShuffledBatch, Shuffler, ShufflerConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

const DIMENSION: usize = 4;
const NUM_CODES: usize = 4;
const NUM_ACTIONS: usize = 3;

/// One fitted encoder shared by every proptest case (fitting k-means per
/// case would dominate the suite's runtime without adding coverage).
fn encoder() -> Arc<dyn Encoder> {
    static ENCODER: OnceLock<Arc<KMeansEncoder>> = OnceLock::new();
    Arc::clone(ENCODER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(42);
        let corpus: Vec<Vector> = (0..80)
            .map(|i| {
                let mut raw = vec![0.1; DIMENSION];
                raw[i % DIMENSION] = 1.0;
                Vector::from(raw).normalized_l1().expect("non-empty")
            })
            .collect();
        Arc::new(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(NUM_CODES), &mut rng)
                .expect("corpus is larger than k"),
        )
    })) as Arc<dyn Encoder>
}

/// Releases raw tuples through the shuffler after permuting their arrival
/// order with `order_seed`.
fn shuffled(reports: &[(usize, usize, f64)], order_seed: u64) -> ShuffledBatch {
    let shuffler = Shuffler::new(ShufflerConfig::new(1)).expect("threshold 1 is valid");
    let mut rng = StdRng::seed_from_u64(order_seed);
    let mut raw: Vec<RawReport> = reports
        .iter()
        .enumerate()
        .map(|(i, &(code, action, reward))| {
            RawReport::new(
                format!("agent-{i}"),
                EncodedReport::new(code, action, reward).expect("rewards are valid"),
            )
        })
        .collect();
    raw.shuffle(&mut rng);
    shuffler.process(raw, &mut rng)
}

/// Strategy: report tuples over a slightly larger space than the encoder
/// accepts, so some reports are rejected on both paths.
fn reports() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    // Non-dyadic rewards too, whose f64 sums depend on their order.
    const REWARDS: [f64; 7] = [0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0];
    prop::collection::vec(
        (0..NUM_CODES + 2, 0..NUM_ACTIONS + 1, 0..REWARDS.len())
            .prop_map(|(code, action, reward)| (code, action, REWARDS[reward])),
        1..80,
    )
}

/// The per-report oracle: a fresh model service fed one count-1 cell per
/// in-range report of the raw stream, in submission order, each cell's
/// context its code's representative. Returns the accepted count and the
/// assembled model.
fn per_report(config: &P2bConfig, reports: &[(usize, usize, f64)]) -> (u64, LinUcb) {
    let encoder = encoder();
    let mut service =
        ModelService::spawn(config.linucb(), 1).expect("static configuration is valid");
    let centroids =
        Arc::new(Centroids::from_encoder(encoder.as_ref()).expect("centroids are finite"));
    let cells: Vec<ReleasedCell> = reports
        .iter()
        .filter(|&&(code, action, _)| code < encoder.num_codes() && action < config.num_actions)
        .map(|&(code, action, reward)| {
            ReleasedCell::of(&EncodedReport::new(code, action, reward).expect("rewards are valid"))
        })
        .collect();
    let accepted = cells.len() as u64;
    service
        .ingest(&cells, &centroids)
        .expect("service threads are healthy");
    (accepted, service.assemble().expect("assembly succeeds").0)
}

fn assert_models_close(ms: &LinUcb, mc: &LinUcb, tolerance: f64, label: &str) {
    assert_eq!(
        ms.observations(),
        mc.observations(),
        "{label}: observations"
    );
    for action in 0..NUM_ACTIONS {
        let action = Action::new(action);
        assert_eq!(
            ms.pulls(action).unwrap(),
            mc.pulls(action).unwrap(),
            "{label}: pulls({action:?})"
        );
        let design_diff = ms
            .design(action)
            .unwrap()
            .max_abs_diff(mc.design(action).unwrap())
            .unwrap();
        assert!(
            design_diff < tolerance,
            "{label}: design({action:?}) differs by {design_diff}"
        );
        let bs = ms.reward_vector(action).unwrap();
        let bc = mc.reward_vector(action).unwrap();
        for i in 0..bs.len() {
            assert!(
                (bs[i] - bc[i]).abs() < tolerance,
                "{label}: reward_vector({action:?})[{i}]"
            );
        }
        let ts = ms.theta(action).unwrap();
        let tc = mc.theta(action).unwrap();
        for i in 0..ts.len() {
            assert!(
                (ts[i] - tc[i]).abs() < tolerance,
                "{label}: theta({action:?})[{i}] {} vs {}",
                ts[i],
                tc[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coalesced ingestion matches the per-report oracle — same accepted
    /// count, model parameters within 1e-9 — across arrival orders and
    /// ingest-shard counts 1, 2 and 4.
    #[test]
    fn coalesced_matches_sequential_across_orderings_and_shards(
        reports in reports(),
        order_seed in any::<u64>(),
    ) {
        let batch = shuffled(&reports, order_seed);
        let config = P2bConfig::new(DIMENSION, NUM_ACTIONS);
        let (accepted_sequential, sequential) = per_report(&config, &reports);

        for shards in [1usize, 2, 4] {
            let shard_config = config.clone().with_ingest_shards(shards);
            let mut coalesced = CentralServer::new(&shard_config, encoder()).unwrap();
            let accepted_coalesced = coalesced.ingest_batch_coalesced(&batch).unwrap();
            prop_assert_eq!(
                accepted_sequential, accepted_coalesced,
                "acceptance must not depend on the ingestion path ({} shards)", shards
            );
            assert_models_close(
                &sequential,
                coalesced.model().unwrap(),
                1e-9,
                &format!("{shards} shards"),
            );
        }
    }

    /// Arrival order is irrelevant to the coalesced fold: two different
    /// orders of the same multiset release the same cells, so the models
    /// agree bit for bit.
    #[test]
    fn coalesced_ingestion_is_ordering_invariant(
        reports in reports(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let config = P2bConfig::new(DIMENSION, NUM_ACTIONS).with_ingest_shards(2);
        let mut a = CentralServer::new(&config, encoder()).unwrap();
        let mut b = CentralServer::new(&config, encoder()).unwrap();
        let accepted_a = a.ingest_batch_coalesced(&shuffled(&reports, seed_a)).unwrap();
        let accepted_b = b.ingest_batch_coalesced(&shuffled(&reports, seed_b)).unwrap();
        prop_assert_eq!(accepted_a, accepted_b);
        let (ma, mb) = (a.model().unwrap(), b.model().unwrap());
        prop_assert_eq!(ma.observations(), mb.observations());
        for action in (0..NUM_ACTIONS).map(Action::new) {
            prop_assert_eq!(ma.design(action).unwrap(), mb.design(action).unwrap());
            prop_assert_eq!(ma.reward_vector(action).unwrap(), mb.reward_vector(action).unwrap());
            prop_assert_eq!(ma.theta(action).unwrap(), mb.theta(action).unwrap());
        }
    }
}
