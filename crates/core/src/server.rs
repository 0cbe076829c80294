//! The central model server: validation, epoch bookkeeping and snapshot
//! publication in front of the sharded [`ModelService`].

use crate::{CoreError, ModelService, ModelSnapshot, P2bConfig};
use p2b_bandit::{Action, CoalescedUpdate, LinUcb};
use p2b_encoding::{ContextCode, Encoder};
use p2b_linalg::Vector;
use p2b_shuffler::{ReleasedCell, ShuffledBatch};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The analyzer/server of the ESA pipeline: it receives the shuffler's
/// released `(code, action)` cells — anonymized, thresholded histograms of
/// the `(y, a, r)` tuples — and folds them into a central LinUCB model that
/// local agents use as their warm start.
///
/// The server is a facade: the model state lives on the [`ModelService`]'s
/// ingest shards (partitioned by action), and the server's job is
/// validation, the epoch's cell table, code→vector memoization, epoch
/// bookkeeping and the publication of epoch-versioned [`ModelSnapshot`]s.
/// Every report reaches the shards as a released cell through
/// [`CentralServer::ingest_batch_coalesced`].
pub struct CentralServer {
    service: ModelService,
    encoder: Arc<dyn Encoder>,
    num_actions: usize,
    ingested_reports: u64,
    epoch: u64,
    cached: Option<Arc<ModelSnapshot>>,
    /// The in-range cells ingested since the last publish, summed per
    /// `(code, action)`: exact counts and fixed-point reward sums, so the
    /// table is the same whatever batches and orders the cells came in.
    /// Emptied (capacity kept) once the publish has dispatched it.
    unpublished: HashMap<(usize, usize), ReleasedCell>,
    /// Code → context-vector memo, kept for the server's lifetime, so each
    /// distinct code's centroid is materialized once. Sound because the
    /// encoder is fixed at construction and its centroid of a code never
    /// changes.
    vectors: HashMap<usize, Vector>,
    /// Coalesced updates handed to the model service.
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
            unpublished: HashMap::new(),
            vectors: HashMap::new(),
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
    /// Surfaces internal model-service failures (never triggered by
    /// malformed reports, which are rejected before dispatch).
    pub fn model(&mut self) -> Result<&LinUcb, CoreError> {
        Ok(self.refresh_snapshot()?.model())
    }

    /// The epoch-versioned snapshot of the central model, shared behind an
    /// `Arc`: every warm start within one epoch receives a pointer to the
    /// same allocation instead of its own copy of the model.
    ///
    /// # Errors
    ///
    /// Surfaces internal model-service failures.
    pub fn snapshot(&mut self) -> Result<Arc<ModelSnapshot>, CoreError> {
        Ok(Arc::clone(self.refresh_snapshot()?))
    }

    /// Ensures the epoch's snapshot exists and returns a borrow of it: the
    /// publish.
    ///
    /// It folds the cells ingested since the previous publish — one
    /// [`CoalescedUpdate`] per touched `(code, action)` pair, in pair order,
    /// however many batches touched it — through [`ModelService::ingest`],
    /// then assembles. The backing [`ModelService::assemble`] re-installs
    /// only the arms dirtied since the previous assembly, so the per-epoch
    /// refresh cost scales with how many arms the epoch actually touched.
    /// The cell table is emptied only once its updates are dispatched: a
    /// publish that fails before that keeps them for the next one.
    fn refresh_snapshot(&mut self) -> Result<&Arc<ModelSnapshot>, CoreError> {
        if self.cached.is_none() {
            let updates = self.unpublished_updates()?;
            #[cfg(test)]
            {
                self.updates_dispatched += updates.len() as u64;
            }
            self.service.ingest(updates)?;
            self.unpublished.clear();
            let (model, _dirty) = self.service.assemble()?;
            self.cached = Some(Arc::new(ModelSnapshot::new(self.epoch, model)?));
        }
        self.cached
            .as_ref()
            .ok_or_else(|| CoreError::InvalidConfig {
                parameter: "central_server",
                message: "snapshot cache empty after refresh".to_owned(),
            })
    }

    /// The unpublished cells as coalesced updates, in `(code, action)`
    /// order: a deterministic order, independent of the batches and the
    /// hasher, so each arm's folds — and the assembled model — are too.
    fn unpublished_updates(&mut self) -> Result<Vec<CoalescedUpdate>, CoreError> {
        let mut cells: Vec<&ReleasedCell> = self.unpublished.values().collect();
        cells.sort_unstable_by_key(|cell| (cell.code(), cell.action()));
        let mut updates = Vec::with_capacity(cells.len());
        for cell in cells {
            let context = match self.vectors.entry(cell.code()) {
                Entry::Occupied(entry) => entry.get().clone(),
                Entry::Vacant(entry) => entry
                    .insert(self.encoder.representative(ContextCode::new(cell.code()))?)
                    .clone(),
            };
            updates.push(
                CoalescedUpdate::new(
                    context,
                    Action::new(cell.action()),
                    cell.count(),
                    cell.reward_sum(),
                )
                .map_err(CoreError::Bandit)?,
            );
        }
        Ok(updates)
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

    /// Adds one released batch to the epoch's cell table: each cell's count
    /// and fixed-point reward sum join its `(code, action)` pair's, and the
    /// next publish ([`CentralServer::snapshot`] / [`CentralServer::model`])
    /// folds each pair once, as one weighted update — so `B` batches over
    /// `K` distinct pairs cost `K` model updates, not one per pair per
    /// batch. The model equals a per-report fold up to floating-point
    /// rounding (≤ 1e-9 in the `coalesce_equivalence` suite) and does not
    /// depend on how the epoch's reports were split into batches.
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
        for cell in batch.reports() {
            if cell.code() >= num_codes || cell.action() >= self.num_actions {
                continue;
            }
            match self.unpublished.entry((cell.code(), cell.action())) {
                Entry::Occupied(mut entry) => entry.get_mut().absorb(cell),
                Entry::Vacant(entry) => {
                    entry.insert(*cell);
                }
            }
            accepted += cell.count();
        }
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
    use p2b_bandit::ContextualPolicy;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn every_snapshot_publishes_a_mirror_with_no_stale_lanes() {
        let cfg = P2bConfig::new(4, 3).with_ingest_shards(2);
        let mut server = CentralServer::new(&cfg, encoder(7)).unwrap();
        // Earlier snapshots stay alive, so every epoch's assembly writes a
        // model whose mirror an older snapshot still shares.
        let mut published = vec![server.snapshot().unwrap()];
        for epoch in 0..6usize {
            let reports = (0..12)
                .map(|i| {
                    (
                        (i + epoch) % 4,
                        (i * epoch) % 3,
                        f64::from(u8::from(i % 2 == 0)),
                    )
                })
                .collect();
            server
                .ingest_batch_coalesced(&batch(reports, 1, 20 + epoch as u64))
                .unwrap();
            published.push(server.snapshot().unwrap());
        }
        for snapshot in &published {
            assert_eq!(snapshot.model().stale_lanes(), 0);
        }
    }

    #[test]
    fn coalesced_ingestion_memoizes_codes_across_batches() {
        let counting = CountingEncoder::wrap(encoder(4));
        let cfg = P2bConfig::new(4, 3);
        let mut server =
            CentralServer::new(&cfg, Arc::clone(&counting) as Arc<dyn Encoder>).unwrap();
        // Two batches of 30 reports over the same 2 distinct codes, each
        // published.
        for seed in [10, 11] {
            let reports: Vec<(usize, usize, f64)> = (0..30).map(|i| (i % 2, i % 3, 1.0)).collect();
            let accepted = server
                .ingest_batch_coalesced(&batch(reports, 1, seed))
                .unwrap();
            assert_eq!(accepted, 30);
            server.snapshot().unwrap();
        }
        assert_eq!(
            counting.representatives(),
            2,
            "the context vector must be computed once per distinct code in the \
             server's lifetime, not per report or per batch"
        );
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
        let updates = server.unpublished_updates().unwrap();
        let keys: Vec<(usize, u64, f64)> = updates
            .iter()
            .map(|u| (u.action().index(), u.count(), u.reward_sum()))
            .collect();
        assert_eq!(keys, vec![(0, 1, 0.25), (1, 1, 0.5), (0, 2, 1.75)]);
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
            let warm = reused.unpublished_updates().unwrap();
            let cold = fresh.unpublished_updates().unwrap();
            assert_eq!(warm, cold, "round {round}");
            reused.snapshot().unwrap();
            assert!(
                reused.unpublished.is_empty(),
                "the publish empties the table"
            );
        }
    }

    #[test]
    fn each_publish_dispatches_one_update_per_distinct_in_range_pair() {
        let cfg = P2bConfig::new(4, 3).with_ingest_shards(2);
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
        let mut server = CentralServer::new(&cfg, encoder(13)).unwrap();
        server
            .ingest_batch_coalesced(&batch(vec![(0, 1, 1.0), (2, 0, 0.5)], 1, 1))
            .unwrap();
        // A poisoned memo entry makes the publish's update for code 0
        // invalid; the publish fails before dispatching anything.
        server.vectors.insert(0, Vector::from(vec![f64::NAN; 4]));
        assert!(server.snapshot().is_err());
        assert_eq!(server.unpublished.len(), 2, "the cells survive the failure");
        assert_eq!(server.updates_dispatched, 0);
        // Once the cause is gone, the next publish folds them.
        server.vectors.clear();
        assert_eq!(server.model().unwrap().observations(), 2);
        assert_eq!(server.updates_dispatched, 2);
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
