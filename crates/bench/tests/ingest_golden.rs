//! Golden pin of the central models the ingest path folds.
//!
//! In P2B the server's output is the model it folds from shuffled reports,
//! so a refactor of the write path is safe only if that model keeps every
//! bit. This suite replays three seeded ingest stages at quick scale and
//! digests each final model (FNV-1a over its exact statistics):
//!
//! - coalesced ingest: a per-report oracle (one count-1 cell per report
//!   of the raw stream, in submission order), then the server's released
//!   cells, summed per pair and folded once at the publish, at 1, 2 and 4
//!   ingest shards;
//! - sparse-flush epoch assembly through a [`ModelService`] at 1 and 4
//!   shards;
//! - secure aggregation at 1, 2 and 4 aggregator shards, each with a
//!   different mask seed.
//!
//! Within a stage the shard count must not move a digest; those equalities
//! are asserted first, each with its own message. The records are then
//! compared byte for byte against `tests/golden/ingest_quick.json`.
//! Regenerate deliberately with:
//!
//! ```text
//! P2B_REGENERATE_GOLDEN=1 cargo test -p p2b-bench --test ingest_golden
//! ```
//!
//! The timings of the same stages are the Criterion groups of
//! `benches/ingest.rs` and `benches/shuffler.rs`.

use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_bench::serve::fit_serve_encoder;
use p2b_core::{CentralServer, Centroids, ModelService, P2bConfig, SecureIngestService};
use p2b_encoding::Encoder;
use p2b_linalg::Vector;
use p2b_shuffler::{
    fnv1a, EncodedReport, RawReport, ReleasedCell, ShuffledBatch, Shuffler, ShufflerConfig,
};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Context dimension of every model under test.
const DIMENSION: usize = 16;
/// Arms of the ingest and secure-aggregation models.
const ACTIONS: usize = 10;
/// Centroids of the encoder the central server validates against.
const ENCODER_CODES: u64 = 64;

/// Coalesced-ingest stream: batches of reports over few codes, so every
/// `(code, action)` pair repeats about 13 times per batch.
const INGEST_BATCH_SIZE: usize = 512;
const INGEST_BATCHES: usize = 8;
const INGEST_CODES: usize = 4;
/// Noise lane drawing each synthetic report's action.
const LANE_ACTION: u64 = LANE_CONSUMER_BASE + 5;
/// Noise lane drawing each synthetic report's 0/1 reward.
const LANE_REWARD: u64 = LANE_CONSUMER_BASE + 6;

/// Sparse-flush assembly: one single-report update per epoch.
const ASSEMBLE_EPOCHS: usize = 512;
const ASSEMBLE_ACTIONS: usize = 32;

/// Secure-aggregation stream: one assembly per batch.
const SECURE_BATCH_LEN: usize = 128;
const SECURE_BATCHES: usize = 8;

/// One model digest, in the golden file's record layout.
#[derive(Debug, Serialize)]
struct DigestRecord {
    stage: String,
    mode: String,
    shards: usize,
    /// FNV-1a digest over the final model's exact statistics bits.
    digest: String,
}

fn record(stage: &str, mode: &str, shards: usize, digest: u64) -> DigestRecord {
    DigestRecord {
        stage: stage.to_owned(),
        mode: mode.to_owned(),
        shards,
        digest: format!("{digest:016x}"),
    }
}

/// The golden file's layout: the ingest stream's shape, then every record.
#[derive(Debug, Serialize)]
struct IngestSummary {
    schema_version: u32,
    scale: String,
    reports: usize,
    batch_size: usize,
    codes: usize,
    records: Vec<DigestRecord>,
}

/// Digest of a model's exact statistics: observation count, then per arm
/// the pull count and every packed Cholesky factor / reward-vector / theta
/// coefficient bit, each word little-endian. An arm keeps its design only
/// as its factor, so the factor's bits stand where the design's stood.
/// Bit-identical models — and only those — collide.
fn model_digest(model: &LinUcb) -> u64 {
    let mut words = vec![model.observations()];
    for arm in 0..model.config().num_actions {
        let action = Action::new(arm);
        let in_range = "arm index is in range";
        words.push(model.pulls(action).expect(in_range));
        let factor = model.factor(action).expect(in_range);
        words.extend(factor.packed().iter().map(|x| x.to_bits()));
        let reward = model.reward_vector(action).expect(in_range);
        words.extend(reward.iter().map(|x| x.to_bits()));
        let theta = model.theta(action).expect(in_range);
        words.extend(theta.iter().map(|x| x.to_bits()));
    }
    fnv1a(words.iter().flat_map(|word| word.to_le_bytes()))
}

/// Maps a uniform `u64` onto `0..n` without modulo bias.
fn bounded_draw(noise: u64, n: u64) -> u64 {
    ((u128::from(noise) * u128::from(n)) >> 64) as u64
}

/// One raw report of the ingest stream: code, action, 0/1 reward.
type Tuple = (usize, usize, f64);

/// The raw report stream every ingest configuration replays, cut into
/// batches: codes from the skewed arrival process, actions and rewards from
/// its noise lanes.
fn ingest_stream() -> Vec<Vec<Tuple>> {
    let arrival = ArrivalProcess::new(ArrivalConfig::new(1_000_000, INGEST_CODES as u64, 99))
        .expect("arrival configuration is valid");
    (0..INGEST_BATCHES)
        .map(|b| {
            let base = (b * INGEST_BATCH_SIZE) as u64;
            (0..INGEST_BATCH_SIZE as u64)
                .map(|i| {
                    let index = base + i;
                    let code = arrival.event(index).code as usize;
                    let action = bounded_draw(arrival.noise(index, LANE_ACTION), ACTIONS as u64);
                    let reward =
                        f64::from(bounded_draw(arrival.noise(index, LANE_REWARD), 2) as u32);
                    (code, action as usize, reward)
                })
                .collect()
        })
        .collect()
}

/// Each batch of the stream released by the shuffler, as the server
/// receives it.
fn ingest_batches(stream: &[Vec<Tuple>]) -> Vec<ShuffledBatch> {
    let shuffler = Shuffler::new(ShufflerConfig::new(1)).expect("threshold 1 is valid");
    let mut rng = StdRng::seed_from_u64(99);
    stream
        .iter()
        .enumerate()
        .map(|(b, tuples)| {
            let raw: Vec<RawReport> = tuples
                .iter()
                .enumerate()
                .map(|(i, &(code, action, reward))| {
                    RawReport::with_timestamp(
                        format!("b{b}"),
                        i as u64,
                        EncodedReport::new(code, action, reward).expect("rewards 0/1 are valid"),
                    )
                })
                .collect();
            shuffler.process(raw, &mut rng)
        })
        .collect()
}

/// The per-report oracle: a fresh model service fed one count-1 cell per
/// in-range report of the raw stream, in submission order, one ingest call
/// per batch, each cell's context its code's representative.
fn per_report_digest(encoder: &dyn Encoder, stream: &[Vec<Tuple>]) -> u64 {
    let config = P2bConfig::new(DIMENSION, ACTIONS);
    let mut service = ModelService::spawn(config.linucb(), 1).expect("shape is valid");
    let centroids = Arc::new(Centroids::from_encoder(encoder).expect("centroids are finite"));
    for batch in stream {
        let cells: Vec<ReleasedCell> = batch
            .iter()
            .filter(|&&(code, action, _)| code < encoder.num_codes() && action < ACTIONS)
            .map(|&(code, action, reward)| {
                ReleasedCell::of(
                    &EncodedReport::new(code, action, reward).expect("rewards 0/1 are valid"),
                )
            })
            .collect();
        service
            .ingest(&cells, &centroids)
            .expect("service threads are healthy");
    }
    model_digest(&service.assemble().expect("assembly succeeds").0)
}

/// Folds every batch into a fresh central server through the coalesced
/// path and digests the assembled model.
fn ingest_digest(shards: usize, encoder: &Arc<dyn Encoder>, batches: &[ShuffledBatch]) -> u64 {
    let config = P2bConfig::new(DIMENSION, ACTIONS).with_ingest_shards(shards);
    let mut server = CentralServer::new(&config, Arc::clone(encoder)).expect("config is valid");
    let mut accepted = 0u64;
    for batch in batches {
        accepted += server
            .ingest_batch_coalesced(batch)
            .expect("well-formed batches ingest cleanly");
    }
    let model = server.model().expect("assembly succeeds");
    assert_eq!(
        model.observations(),
        accepted,
        "an ingested update was lost"
    );
    model_digest(model)
}

/// `count` observations of one context on one arm, with their reward sum.
type Group = (Vector, Action, u64, f64);

/// Seeded coalesced groups at one model shape: L1-normalized contexts,
/// counts in 1..10, reward sums within `[0, count]`.
fn update_batches(
    dimension: usize,
    actions: usize,
    batch_len: usize,
    batches: usize,
    seed: u64,
) -> Vec<Vec<Group>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..batch_len)
                .map(|_| {
                    let raw: Vec<f64> =
                        (0..dimension).map(|_| rng.gen_range(0.0f64..1.0)).collect();
                    let context = Vector::from(raw).normalized_l1().expect("non-empty");
                    let count = rng.gen_range(1u64..10);
                    let reward_sum = rng.gen_range(0.0..=count as f64);
                    (
                        context,
                        Action::new(rng.gen_range(0..actions)),
                        count,
                        reward_sum,
                    )
                })
                .collect()
        })
        .collect()
}

/// Warms every arm, then runs sparse flush epochs against a model service:
/// each folds one single-report cell into one arm and re-assembles. Every
/// report has a fresh random context, so each is a code of its own: code
/// `i` is the `i`-th report's context.
fn assemble_digest(shards: usize) -> u64 {
    let mut service = ModelService::spawn(LinUcbConfig::new(DIMENSION, ASSEMBLE_ACTIONS), shards)
        .expect("shape is valid");
    let mut rng = StdRng::seed_from_u64(71);
    let contexts: Vec<Vector> = (0..ASSEMBLE_ACTIONS + ASSEMBLE_EPOCHS)
        .map(|_| {
            let raw: Vec<f64> = (0..DIMENSION).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    let centroids = Arc::new(Centroids::new(contexts).expect("contexts are finite"));
    let sparse_cell = |code: usize, arm: usize| {
        ReleasedCell::of(&EncodedReport::new(code, arm, 1.0).expect("reward 1 is valid"))
    };
    let warm: Vec<ReleasedCell> = (0..ASSEMBLE_ACTIONS)
        .map(|arm| sparse_cell(arm, arm))
        .collect();
    service
        .ingest(&warm, &centroids)
        .expect("service threads are healthy");
    let mut model = service.assemble().expect("assembly succeeds").0;
    for epoch in 0..ASSEMBLE_EPOCHS {
        let cell = sparse_cell(ASSEMBLE_ACTIONS + epoch, epoch % ASSEMBLE_ACTIONS);
        service
            .ingest(&[cell], &centroids)
            .expect("service threads are healthy");
        model = service.assemble().expect("assembly succeeds").0;
    }
    model_digest(&model)
}

/// Secret-shares every batch across `shards` aggregators, assembling after
/// each; returns the digest of the recombined totals and of the published
/// model.
fn secure_digests(shards: usize, batches: &[Vec<Group>]) -> (u64, u64) {
    // The mask seed varies with the shard count on purpose: recombined sums
    // are group elements, a function of neither.
    let seed = 0x5EC0_A660_0000_0000 ^ shards as u64;
    let mut service = SecureIngestService::new(LinUcbConfig::new(DIMENSION, ACTIONS), shards, seed)
        .expect("shard count is valid");
    let mut model = None;
    for batch in batches {
        for (context, action, count, reward_sum) in batch {
            service
                .ingest(context, *action, *count, *reward_sum)
                .expect("leaves are in range");
        }
        model = Some(service.assemble().expect("assembly succeeds"));
    }
    let model = model.expect("at least one batch");
    (service.digest(), model_digest(&model))
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ingest_quick.json")
}

#[test]
fn ingest_digests_match_the_golden_file() {
    let mut records = Vec::new();

    let encoder = fit_serve_encoder(ENCODER_CODES, DIMENSION).unwrap();
    let stream = ingest_stream();
    let batches = ingest_batches(&stream);
    let sequential = per_report_digest(encoder.as_ref(), &stream);
    records.push(record("ingest", "sequential", 1, sequential));
    let coalesced: Vec<u64> = [1usize, 2, 4]
        .iter()
        .map(|&shards| ingest_digest(shards, &encoder, &batches))
        .collect();
    assert!(
        coalesced.iter().all(|&d| d == coalesced[0]),
        "coalesced ingest diverged across shard counts 1/2/4: {coalesced:016x?}"
    );
    for (shards, digest) in [1usize, 2, 4].into_iter().zip(coalesced) {
        records.push(record("ingest", "coalesced", shards, digest));
    }

    let assembled: Vec<u64> = [1usize, 4].iter().map(|&s| assemble_digest(s)).collect();
    assert_eq!(
        assembled[0], assembled[1],
        "sparse-flush assembly diverged between 1 and 4 shards"
    );
    for (shards, digest) in [1usize, 4].into_iter().zip(assembled) {
        records.push(record("assemble", "sparse_flush", shards, digest));
    }

    let secure_batches = update_batches(
        DIMENSION,
        ACTIONS,
        SECURE_BATCH_LEN,
        SECURE_BATCHES,
        0xB10C_5EED,
    );
    let secure: Vec<(u64, u64)> = [1usize, 2, 4]
        .iter()
        .map(|&shards| secure_digests(shards, &secure_batches))
        .collect();
    assert!(
        secure.iter().all(|&d| d == secure[0]),
        "secure-agg recombination diverged across shard counts 1/2/4 \
         ((totals, model) digests): {secure:016x?}"
    );
    for (shards, (totals, _)) in [1usize, 2, 4].into_iter().zip(secure) {
        records.push(record("secure_agg", "recombined", shards, totals));
    }

    let summary = IngestSummary {
        schema_version: 1,
        scale: "quick".to_owned(),
        reports: INGEST_BATCH_SIZE * INGEST_BATCHES,
        batch_size: INGEST_BATCH_SIZE,
        codes: INGEST_CODES,
        records,
    };
    let actual = serde_json::to_string_pretty(&summary).expect("records serialize");
    let path = golden_path();
    if std::env::var("P2B_REGENERATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir is creatable");
        std::fs::write(&path, &actual).expect("golden file is writable");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run with P2B_REGENERATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "ingest model digests diverged from the golden file; if the change \
         is intentional, regenerate with P2B_REGENERATE_GOLDEN=1"
    );
}
