//! The central model server: validation, the epoch's cell run and snapshot
//! publication in front of the sharded [`ModelService`].

use crate::{Centroids, CoreError, ModelService, ModelSnapshot, P2bConfig};
use p2b_bandit::LinUcb;
use p2b_encoding::Encoder;
use p2b_shuffler::{ReleasedCell, ShuffledBatch};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The analyzer/server of the ESA pipeline: it receives the shuffler's
/// released `(code, action)` cells — anonymized, thresholded histograms of
/// the `(y, a, r)` tuples — and folds them into a central LinUCB model that
/// local agents use as their warm start.
///
/// The server is a facade: the model state lives on the [`ModelService`]'s
/// ingest shards (partitioned by action), and the server's job is
/// validation, the epoch's run of cells, epoch bookkeeping and the
/// publication of epoch-versioned [`ModelSnapshot`]s. Every report reaches
/// the shards as a released cell through
/// [`CentralServer::ingest_batch_coalesced`]; every context reaches them as
/// a row of one [`Centroids`] table, read off the encoder at the first
/// publish that folds anything.
pub struct CentralServer {
    service: ModelService,
    encoder: Arc<dyn Encoder>,
    num_actions: usize,
    ingested_reports: u64,
    epoch: u64,
    cached: Option<Arc<ModelSnapshot>>,
    /// The in-range cells ingested since the last publish, one per
    /// `(code, action)` pair in pair order: exact counts and fixed-point
    /// reward sums, so the run is the same whatever batches and orders the
    /// cells came in. Emptied (capacity kept) once the publish has
    /// dispatched it.
    run: Vec<ReleasedCell>,
    /// The merge's output buffer, swapped with `run` after every batch.
    spare: Vec<ReleasedCell>,
    /// The encoder's representatives, checked finite: built at the first
    /// publish with cells to fold, then shared with the shards for the
    /// server's lifetime. Sound because the encoder is fixed at
    /// construction and its centroid of a code never changes.
    centroids: Option<Arc<Centroids>>,
    /// Cells handed to the model service.
    #[cfg(test)]
    updates_dispatched: u64,
}

impl CentralServer {
    /// Creates an empty central server, spawning its model service with
    /// [`P2bConfig::ingest_shards`] ingest workers: by default one per
    /// available hardware thread, capped at the number of actions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EncoderMismatch`] if the encoder's context
    /// dimension does not match the configuration, or configuration errors.
    pub fn new(config: &P2bConfig, encoder: Arc<dyn Encoder>) -> Result<Self, CoreError> {
        config.validate()?;
        if encoder.context_dimension() != config.context_dimension {
            return Err(CoreError::EncoderMismatch {
                expected: config.context_dimension,
                found: encoder.context_dimension(),
            });
        }
        let service = ModelService::spawn(config.linucb(), config.ingest_shards)?;
        Ok(Self {
            service,
            num_actions: config.num_actions,
            encoder,
            ingested_reports: 0,
            epoch: 0,
            cached: None,
            run: Vec::new(),
            spare: Vec::new(),
            centroids: None,
            #[cfg(test)]
            updates_dispatched: 0,
        })
    }

    /// The number of report tuples accepted into the model so far (each is
    /// folded at the publish after its ingest).
    #[must_use]
    pub fn ingested_reports(&self) -> u64 {
        self.ingested_reports
    }

    /// The current ingestion epoch: bumped every time an ingest call
    /// accepted at least one report, i.e. every time the model state
    /// changed.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of ingest shards of the backing model service.
    #[must_use]
    pub fn ingest_shards(&self) -> usize {
        self.service.shards()
    }

    /// The current central model, assembled from the ingest shards.
    ///
    /// Borrows from the epoch's cached snapshot; the first call per epoch
    /// pays one publish, subsequent calls are free.
    ///
    /// # Errors
    ///
    /// Surfaces a centroid table that cannot be built (a non-finite
    /// representative) and internal model-service failures (never
    /// triggered by malformed reports, which are rejected before dispatch).
    pub fn model(&mut self) -> Result<&LinUcb, CoreError> {
        Ok(self.refresh_snapshot()?.model())
    }

    /// The epoch-versioned snapshot of the central model, shared behind an
    /// `Arc`: every warm start within one epoch receives a pointer to the
    /// same allocation instead of its own copy of the model.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::model`].
    pub fn snapshot(&mut self) -> Result<Arc<ModelSnapshot>, CoreError> {
        Ok(Arc::clone(self.refresh_snapshot()?))
    }

    /// Ensures the epoch's snapshot exists and returns a borrow of it: the
    /// publish.
    ///
    /// It hands the cells ingested since the previous publish — one per
    /// touched `(code, action)` pair, in pair order, however many batches
    /// touched it — to [`ModelService::ingest`] with the centroid table,
    /// then assembles. The shards fold their share and build the arms they
    /// dirtied; [`ModelService::assemble`] only swaps those arms in, so the
    /// per-epoch cost on this thread scales with how many arms the epoch
    /// touched, and no factorization runs here. The run is emptied only
    /// once it is dispatched: a publish that fails before that keeps it for
    /// the next one.
    fn refresh_snapshot(&mut self) -> Result<&Arc<ModelSnapshot>, CoreError> {
        if self.cached.is_none() {
            if !self.run.is_empty() {
                let centroids = self.centroids()?;
                self.service.ingest(&self.run, &centroids)?;
                #[cfg(test)]
                {
                    self.updates_dispatched += self.run.len() as u64;
                }
                self.run.clear();
            }
            let (model, _dirty) = self.service.assemble()?;
            self.cached = Some(Arc::new(ModelSnapshot::new(self.epoch, model)));
        }
        self.cached
            .as_ref()
            .ok_or_else(|| CoreError::InvalidConfig {
                parameter: "central_server",
                message: "snapshot cache empty after refresh".to_owned(),
            })
    }

    /// The centroid table, read off the encoder on first use. A failed
    /// build is not kept, so the next publish tries again.
    fn centroids(&mut self) -> Result<Arc<Centroids>, CoreError> {
        if let Some(centroids) = &self.centroids {
            return Ok(Arc::clone(centroids));
        }
        let centroids = Arc::new(Centroids::from_encoder(self.encoder.as_ref())?);
        self.centroids = Some(Arc::clone(&centroids));
        Ok(centroids)
    }

    /// Marks the model state changed: bump the epoch, invalidate the cached
    /// snapshot.
    fn mark_updated(&mut self, accepted: u64) {
        if accepted > 0 {
            self.ingested_reports += accepted;
            self.epoch += 1;
            self.cached = None;
        }
    }

    /// Adds one released batch to the epoch's cell run: each cell's count
    /// and fixed-point reward sum join its `(code, action)` pair's, and the
    /// next publish ([`CentralServer::snapshot`] / [`CentralServer::model`])
    /// folds each pair once, as one weighted update — so `B` batches over
    /// `K` distinct pairs cost `K` model updates, not one per pair per
    /// batch. The model equals a per-report fold up to floating-point
    /// rounding (≤ 1e-9 in the `coalesce_equivalence` suite) and does not
    /// depend on how the epoch's reports were split into batches.
    ///
    /// A batch's cells arrive in pair order, so they join the run in one
    /// linear merge of the two sorted sequences: no hashing, no sort.
    ///
    /// Cells whose code or action fall outside the configured ranges are
    /// skipped rather than aborting the whole batch — in a deployment the
    /// server cannot assume every client is well behaved — and their
    /// reports are not accepted. Returns the number of accepted reports.
    ///
    /// # Errors
    ///
    /// None today: model failures surface at the publish. The `Result`
    /// keeps the ingest call's contract with its callers.
    pub fn ingest_batch_coalesced(&mut self, batch: &ShuffledBatch) -> Result<u64, CoreError> {
        let num_codes = self.encoder.num_codes();
        let mut accepted = 0u64;
        let mut merged = std::mem::take(&mut self.spare);
        merged.clear();
        merged.reserve(self.run.len() + batch.reports().len());
        let mut run = self.run.iter().peekable();
        for cell in batch.reports() {
            if cell.code() >= num_codes || cell.action() >= self.num_actions {
                continue;
            }
            accepted += cell.count();
            let key = (cell.code(), cell.action());
            let mut joined = *cell;
            while let Some(&held) = run.peek() {
                match (held.code(), held.action()).cmp(&key) {
                    Ordering::Less => merged.push(*held),
                    Ordering::Equal => {
                        joined = *held;
                        joined.absorb(cell);
                    }
                    Ordering::Greater => break,
                }
                run.next();
            }
            merged.push(joined);
        }
        merged.extend(run);
        self.spare = std::mem::replace(&mut self.run, merged);
        self.mark_updated(accepted);
        Ok(accepted)
    }
}

impl fmt::Debug for CentralServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CentralServer")
            .field("service", &self.service)
            .field("ingested_reports", &self.ingested_reports)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::CountingEncoder;
    use p2b_bandit::{Action, ContextualPolicy};
    use p2b_encoding::{ContextCode, EncoderStats, EncodingError, KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

    fn encoder(seed: u64) -> Arc<dyn Encoder> {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vector> = (0..60)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap())
    }

    fn batch(reports: Vec<(usize, usize, f64)>, threshold: usize, seed: u64) -> ShuffledBatch {
        let shuffler = Shuffler::new(ShufflerConfig::new(threshold)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = reports
            .into_iter()
            .enumerate()
            .map(|(i, (code, action, reward))| {
                RawReport::new(
                    format!("a{i}"),
                    EncodedReport::new(code, action, reward).unwrap(),
                )
            })
            .collect();
        shuffler.process(raw, &mut rng)
    }

    #[test]
    fn rejects_mismatched_encoder() {
        let cfg = P2bConfig::new(9, 3);
        assert!(matches!(
            CentralServer::new(&cfg, encoder(0)),
            Err(CoreError::EncoderMismatch { .. })
        ));
    }

    #[test]
    fn ingesting_batches_updates_the_model() {
        let cfg = P2bConfig::new(4, 3);
        let mut server = CentralServer::new(&cfg, encoder(1)).unwrap();
        let b = batch(vec![(0, 1, 1.0), (0, 1, 1.0), (1, 2, 0.0)], 1, 2);
        let accepted = server.ingest_batch_coalesced(&b).unwrap();
        assert_eq!(accepted, 3);
        assert_eq!(server.ingested_reports(), 3);
        assert_eq!(server.model().unwrap().observations(), 3);
    }

    #[test]
    fn malformed_reports_are_skipped_not_fatal() {
        let cfg = P2bConfig::new(4, 3);
        let mut server = CentralServer::new(&cfg, encoder(2)).unwrap();
        // Code 99 does not exist, action 7 is out of range; both are skipped.
        let b = batch(vec![(99, 0, 1.0), (0, 7, 1.0), (0, 0, 1.0)], 1, 3);
        let accepted = server.ingest_batch_coalesced(&b).unwrap();
        assert_eq!(accepted, 1);
        assert_eq!(server.ingested_reports(), 1);
        assert_eq!(server.model().unwrap().observations(), 1);
    }

    #[test]
    fn warm_snapshot_reflects_ingested_knowledge() {
        let cfg = P2bConfig::new(4, 2);
        let enc = encoder(3);
        let mut server = CentralServer::new(&cfg, Arc::clone(&enc)).unwrap();
        // Every report says action 1 is rewarding for code 0.
        let reports = (0..50).map(|_| (0usize, 1usize, 1.0)).collect::<Vec<_>>();
        server
            .ingest_batch_coalesced(&batch(reports, 1, 4))
            .unwrap();

        let snapshot = server.snapshot().unwrap();
        let ctx = enc.representative(ContextCode::new(0)).unwrap();
        let scores = snapshot.model().scores(&ctx).unwrap();
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn snapshots_are_shared_within_an_epoch_and_replaced_across_epochs() {
        let cfg = P2bConfig::new(4, 2);
        let mut server = CentralServer::new(&cfg, encoder(6)).unwrap();
        assert_eq!(server.epoch(), 0);

        let first = server.snapshot().unwrap();
        let again = server.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "within an epoch the snapshot must be one shared allocation"
        );
        assert_eq!(first.epoch(), 0);

        server
            .ingest_batch_coalesced(&batch(vec![(0, 0, 1.0), (1, 1, 0.5)], 1, 7))
            .unwrap();
        assert_eq!(server.epoch(), 1);
        let bumped = server.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&first, &bumped));
        assert_eq!(bumped.epoch(), 1);
        assert_eq!(bumped.model().observations(), 2);

        // A batch folding nothing keeps both the epoch and the snapshot.
        server
            .ingest_batch_coalesced(&batch(vec![(99, 0, 1.0)], 1, 8))
            .unwrap();
        assert_eq!(server.epoch(), 1);
        assert!(Arc::ptr_eq(&bumped, &server.snapshot().unwrap()));
    }

    #[test]
    fn coalesced_ingestion_memoizes_codes_across_batches() {
        let counting = CountingEncoder::wrap(encoder(4));
        let cfg = P2bConfig::new(4, 3);
        let mut server =
            CentralServer::new(&cfg, Arc::clone(&counting) as Arc<dyn Encoder>).unwrap();
        // A publish with nothing to fold reads no centroid.
        server.snapshot().unwrap();
        assert_eq!(counting.representatives(), 0);
        // Three batches of 30 reports over the same 2 distinct codes, each
        // published.
        for seed in [10, 11, 12] {
            let reports: Vec<(usize, usize, f64)> = (0..30).map(|i| (i % 2, i % 3, 1.0)).collect();
            let accepted = server
                .ingest_batch_coalesced(&batch(reports, 1, seed))
                .unwrap();
            assert_eq!(accepted, 30);
            server.snapshot().unwrap();
        }
        assert_eq!(
            counting.representatives(),
            counting.num_codes(),
            "the context vector must be computed once per code of the encoder in \
             the server's lifetime, not per report, per batch or per publish"
        );
    }

    /// An encoder whose representative of code 0 is NaN while `poisoned`.
    #[derive(Debug)]
    struct PoisonedEncoder {
        inner: Arc<dyn Encoder>,
        poisoned: AtomicBool,
    }

    impl Encoder for PoisonedEncoder {
        fn num_codes(&self) -> usize {
            self.inner.num_codes()
        }
        fn context_dimension(&self) -> usize {
            self.inner.context_dimension()
        }
        fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError> {
            self.inner.encode(context)
        }
        fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError> {
            let mut row = self.inner.representative(code)?;
            if code.value() == 0 && self.poisoned.load(AtomicOrdering::Relaxed) {
                row.as_mut_slice()[1] = f64::NAN;
            }
            Ok(row)
        }
        fn stats(&self) -> &EncoderStats {
            self.inner.stats()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    fn poisoned(seed: u64) -> Arc<PoisonedEncoder> {
        Arc::new(PoisonedEncoder {
            inner: encoder(seed),
            poisoned: AtomicBool::new(true),
        })
    }

    /// Every statistic of a model as exact bits: observations, then per
    /// arm its pulls, design, reward vector and θ.
    fn model_bits(model: &LinUcb) -> Vec<u64> {
        let mut words = vec![model.observations()];
        for arm in 0..model.config().num_actions {
            let action = Action::new(arm);
            words.push(model.pulls(action).unwrap());
            let design = model.design(action).unwrap().as_slice().to_vec();
            let reward = model.reward_vector(action).unwrap().as_slice().to_vec();
            let theta = model.theta(action).unwrap().as_slice().to_vec();
            words.extend(
                design
                    .iter()
                    .chain(&reward)
                    .chain(&theta)
                    .map(|x| x.to_bits()),
            );
        }
        words
    }

    /// Non-dyadic rewards, whose f64 sums would depend on their order.
    fn mixed_reports(len: usize, offset: usize) -> Vec<(usize, usize, f64)> {
        const REWARDS: [f64; 3] = [0.1, 0.3, 0.7];
        (0..len)
            .map(|i| {
                let i = i + offset;
                (i % 4, i * 7 % 3, REWARDS[i % 5 % 3])
            })
            .collect()
    }

    #[test]
    fn out_of_range_cells_are_skipped_cell_by_cell() {
        let cfg = P2bConfig::new(4, 2);
        let mut server = CentralServer::new(&cfg, encoder(8)).unwrap();
        // Code 99 and action 9 are skipped with all their reports; the one
        // in-range pair is accepted with both of its reports.
        let b = batch(
            vec![
                (99, 0, 1.0),
                (99, 0, 1.0),
                (0, 9, 1.0),
                (0, 0, 1.0),
                (0, 0, 0.5),
            ],
            1,
            3,
        );
        assert_eq!(server.ingest_batch_coalesced(&b).unwrap(), 2);
        assert_eq!(server.model().unwrap().observations(), 2);
        assert_eq!(server.updates_dispatched, 1);
    }

    /// The run as `(code, action, count, reward sum)` rows.
    fn run_rows(server: &CentralServer) -> Vec<(usize, usize, u64, f64)> {
        server
            .run
            .iter()
            .map(|c| (c.code(), c.action(), c.count(), c.reward_sum()))
            .collect()
    }

    #[test]
    fn publish_emits_one_update_per_pair_in_pair_order() {
        let cfg = P2bConfig::new(4, 2);
        let mut server = CentralServer::new(&cfg, encoder(9)).unwrap();
        // Two batches, pairs interleaved: the publish folds each pair once,
        // in (code, action) order, with the pair's count across batches.
        for reports in [
            vec![(1, 0, 1.0), (0, 1, 0.5)],
            vec![(0, 0, 0.25), (1, 0, 0.75)],
        ] {
            server
                .ingest_batch_coalesced(&batch(reports, 1, 7))
                .unwrap();
        }
        assert_eq!(
            run_rows(&server),
            vec![(0, 0, 1, 0.25), (0, 1, 1, 0.5), (1, 0, 2, 1.75)]
        );
        server.snapshot().unwrap();
        assert_eq!(server.updates_dispatched, 3);
    }

    #[test]
    fn a_reused_cell_table_publishes_like_a_fresh_server() {
        let cfg = P2bConfig::new(4, 2);
        let enc = encoder(10);
        let mut reused = CentralServer::new(&cfg, Arc::clone(&enc)).unwrap();
        for round in 0..4usize {
            let b = batch(mixed_reports(30, round), 1, round as u64);
            let mut fresh = CentralServer::new(&cfg, Arc::clone(&enc)).unwrap();
            assert_eq!(
                reused.ingest_batch_coalesced(&b).unwrap(),
                fresh.ingest_batch_coalesced(&b).unwrap()
            );
            assert_eq!(reused.run, fresh.run, "round {round}");
            reused.snapshot().unwrap();
            assert!(reused.run.is_empty(), "the publish empties the run");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// B pair-sorted batches, out-of-range cells among them, merged into
        /// the run, equal a `BTreeMap` of per-pair sums bit for bit — count
        /// and fixed-point reward sum — and accept exactly its reports.
        #[test]
        fn merged_batches_equal_a_per_pair_sum_oracle(
            seed in any::<u64>(),
            batches in 1usize..6,
        ) {
            let cfg = P2bConfig::new(4, 3);
            let mut server = CentralServer::new(&cfg, encoder(14)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle: BTreeMap<(usize, usize), ReleasedCell> = BTreeMap::new();
            let mut accepted = 0u64;
            for b in 0..batches {
                // Codes 0..6 and actions 0..5 against 4 codes and 3 arms.
                let reports: Vec<(usize, usize, f64)> = (0..rng.gen_range(0usize..40))
                    .map(|_| {
                        let reward = [0.0, 0.1, 0.3, 0.7, 1.0][rng.gen_range(0..5)];
                        (rng.gen_range(0..6), rng.gen_range(0..5), reward)
                    })
                    .collect();
                let released = batch(reports, 1, b as u64);
                for cell in released.reports() {
                    if cell.code() < 4 && cell.action() < 3 {
                        accepted += cell.count();
                        oracle
                            .entry((cell.code(), cell.action()))
                            .and_modify(|sum| sum.absorb(cell))
                            .or_insert(*cell);
                    }
                }
                server.ingest_batch_coalesced(&released).unwrap();
            }
            let want: Vec<ReleasedCell> = oracle.into_values().collect();
            prop_assert_eq!(&server.run, &want);
            prop_assert_eq!(server.ingested_reports(), accepted);
        }
    }

    #[test]
    fn each_publish_dispatches_one_update_per_distinct_in_range_pair() {
        for shards in [1usize, 2, 4] {
            dispatches_one_update_per_distinct_in_range_pair(shards);
        }
    }

    fn dispatches_one_update_per_distinct_in_range_pair(shards: usize) {
        let cfg = P2bConfig::new(4, 3).with_ingest_shards(shards);
        let mut server = CentralServer::new(&cfg, encoder(11)).unwrap();
        let mut dispatched = 0;
        for publish in 0..3usize {
            let mut pairs = std::collections::BTreeSet::new();
            for b in 0..4usize {
                let mut reports = mixed_reports(40, publish * 160 + b * 40);
                reports.push((99, 0, 1.0)); // out of range: never dispatched
                for &(code, action, _) in &reports {
                    if code < 4 {
                        pairs.insert((code, action));
                    }
                }
                server
                    .ingest_batch_coalesced(&batch(reports, 1, b as u64))
                    .unwrap();
            }
            server.snapshot().unwrap();
            dispatched += pairs.len() as u64;
            assert_eq!(server.updates_dispatched, dispatched, "publish {publish}");
        }
        // A publish with nothing ingested since dispatches nothing.
        assert_eq!(
            server
                .ingest_batch_coalesced(&batch(vec![(99, 0, 1.0)], 1, 0))
                .unwrap(),
            0
        );
        server.snapshot().unwrap();
        assert_eq!(server.updates_dispatched, dispatched);
    }

    #[test]
    fn batches_then_a_publish_equal_their_summed_histogram_bit_for_bit() {
        let cfg = P2bConfig::new(4, 3);
        let reports = mixed_reports(240, 0);
        let mut split = CentralServer::new(&cfg, encoder(12)).unwrap();
        for (b, part) in reports.chunks(50).enumerate() {
            split
                .ingest_batch_coalesced(&batch(part.to_vec(), 1, b as u64))
                .unwrap();
        }
        let mut whole = CentralServer::new(&cfg, encoder(12)).unwrap();
        whole
            .ingest_batch_coalesced(&batch(reports, 1, 99))
            .unwrap();
        assert_eq!(
            split.updates_dispatched, 0,
            "nothing folds before the publish"
        );
        assert_eq!(
            model_bits(split.model().unwrap()),
            model_bits(whole.model().unwrap())
        );
        assert_eq!(split.updates_dispatched, whole.updates_dispatched);
    }

    #[test]
    fn a_failed_publish_keeps_the_epochs_cells() {
        let cfg = P2bConfig::new(4, 2);
        let enc = poisoned(13);
        let mut server = CentralServer::new(&cfg, Arc::clone(&enc) as Arc<dyn Encoder>).unwrap();
        server
            .ingest_batch_coalesced(&batch(vec![(0, 1, 1.0), (2, 0, 0.5)], 1, 1))
            .unwrap();
        // A non-finite centroid of code 0 makes the publish's table
        // invalid; the publish fails before dispatching anything.
        assert!(server.snapshot().is_err());
        assert_eq!(server.run.len(), 2, "the cells survive the failure");
        assert_eq!(server.updates_dispatched, 0);
        // Once the cause is gone, the next publish folds them, and only
        // then is the run emptied.
        enc.poisoned.store(false, AtomicOrdering::Relaxed);
        assert_eq!(server.model().unwrap().observations(), 2);
        assert_eq!(server.updates_dispatched, 2);
        assert!(server.run.is_empty());
    }

    #[test]
    fn a_non_finite_centroid_is_a_typed_error_that_poisons_no_shard() {
        for shards in [1usize, 2, 4] {
            let cfg = P2bConfig::new(4, 3).with_ingest_shards(shards);
            let enc = poisoned(15);
            let mut server =
                CentralServer::new(&cfg, Arc::clone(&enc) as Arc<dyn Encoder>).unwrap();
            let cells = batch(vec![(1, 0, 1.0), (0, 2, 0.5), (3, 1, 0.25)], 1, 2);
            assert_eq!(server.ingest_batch_coalesced(&cells).unwrap(), 3);
            for _ in 0..2 {
                assert!(matches!(
                    server.snapshot(),
                    Err(CoreError::NonFiniteCentroid { code: 0 })
                ));
                assert_eq!(server.run.len(), 3, "{shards} shards");
            }
            // Nothing reached a shard: each still assembles, cold.
            let (cold, _) = server.service.assemble().unwrap();
            assert_eq!(cold.observations(), 0);
            enc.poisoned.store(false, AtomicOrdering::Relaxed);
            assert_eq!(server.model().unwrap().observations(), 3, "{shards} shards");
        }
    }

    /// Installs on this thread and Cholesky factorizations on this thread
    /// (the publishing one), per publish.
    fn publish_costs(server: &mut CentralServer) -> (u64, u64) {
        let installs = server.service.installs;
        let factorizations = p2b_linalg::factorizations_on_this_thread();
        server.snapshot().unwrap();
        (
            server.service.installs - installs,
            p2b_linalg::factorizations_on_this_thread() - factorizations,
        )
    }

    #[test]
    fn a_publish_installs_its_dirty_arms_and_factors_nothing_on_this_thread() {
        let actions = 6;
        for shards in [1usize, 2, 4] {
            let cfg = P2bConfig::new(4, actions).with_ingest_shards(shards);
            let mut server = CentralServer::new(&cfg, encoder(16)).unwrap();
            // The first publish installs every arm, dirty or not.
            server
                .ingest_batch_coalesced(&batch(vec![(0, 1, 1.0), (2, 4, 0.5)], 1, 3))
                .unwrap();
            assert_eq!(publish_costs(&mut server), (actions as u64, 0));
            // Later ones install exactly the arms the epoch folded into.
            for (epoch, arms) in [vec![3usize], vec![0, 5, 3], vec![]]
                .into_iter()
                .enumerate()
            {
                let reports = arms.iter().map(|&arm| (arm % 4, arm, 1.0)).collect();
                server
                    .ingest_batch_coalesced(&batch(reports, 1, epoch as u64))
                    .unwrap();
                let dirty = arms.iter().collect::<std::collections::BTreeSet<_>>().len();
                assert_eq!(
                    publish_costs(&mut server),
                    (dirty as u64, 0),
                    "{shards} shards, epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn the_model_is_sized_by_the_context_dimension() {
        let cfg = P2bConfig::new(4, 2);
        let mut server = CentralServer::new(&cfg, encoder(5)).unwrap();
        assert_eq!(server.model().unwrap().config().context_dimension, 4); // d = 4
    }

    #[test]
    fn ingest_shards_follow_the_configuration() {
        let cfg = P2bConfig::new(4, 3).with_ingest_shards(3);
        let server = CentralServer::new(&cfg, encoder(1)).unwrap();
        assert_eq!(server.ingest_shards(), 3);
    }
}
