//! The central model server: validation, epoch bookkeeping and snapshot
//! publication in front of the sharded [`ModelService`].

use crate::coalesce::Coalescer;
use crate::{CoreError, ModelService, ModelSnapshot, P2bConfig};
use p2b_bandit::LinUcb;
use p2b_encoding::Encoder;
use p2b_shuffler::ShuffledBatch;
use std::fmt;
use std::sync::Arc;

/// The analyzer/server of the ESA pipeline: it receives anonymized,
/// shuffled, thresholded tuples `(y, a, r)` and folds them into a central
/// LinUCB model that local agents use as their warm start.
///
/// The server is a facade: the model state lives on the [`ModelService`]'s
/// ingest shards (partitioned by action), and the server's job is
/// validation, code→vector memoization, epoch bookkeeping and the
/// publication of epoch-versioned [`ModelSnapshot`]s. Every report reaches
/// the shards as a shuffled batch through
/// [`CentralServer::ingest_batch_coalesced`].
pub struct CentralServer {
    service: ModelService,
    encoder: Arc<dyn Encoder>,
    num_actions: usize,
    ingested_reports: u64,
    epoch: u64,
    cached: Option<Arc<ModelSnapshot>>,
    coalescer: Coalescer,
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
            coalescer: Coalescer::default(),
        })
    }

    /// The number of report tuples folded into the model so far.
    #[must_use]
    pub fn ingested_reports(&self) -> u64 {
        self.ingested_reports
    }

    /// The current ingestion epoch: bumped every time an ingest call folded
    /// at least one report, i.e. every time the model state changed.
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
    /// pays one assembly, subsequent calls are free.
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

    /// Ensures the epoch's snapshot exists and returns a borrow of it.
    ///
    /// The backing [`ModelService::assemble`] re-installs only the arms dirtied
    /// since the previous assembly, so the per-epoch refresh cost scales with
    /// how many arms the epoch's flushes actually touched.
    fn refresh_snapshot(&mut self) -> Result<&Arc<ModelSnapshot>, CoreError> {
        if self.cached.is_none() {
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

    /// Marks the model state changed: bump the epoch, invalidate the cached
    /// snapshot.
    fn mark_updated(&mut self, accepted: u64) {
        if accepted > 0 {
            self.ingested_reports += accepted;
            self.epoch += 1;
            self.cached = None;
        }
    }

    /// Folds one shuffled batch into the central model as coalesced
    /// sufficient statistics: the batch is grouped by `(code, action)` and
    /// each group becomes a single weighted update, so a batch of `N`
    /// reports over `K` distinct pairs costs `K` model updates instead of
    /// `N`. The model equals a per-report fold in batch order up to
    /// floating-point rounding (≤ 1e-9 in the `coalesce_equivalence`
    /// suite).
    ///
    /// Reports whose code or action fall outside the configured ranges are
    /// counted as rejected rather than aborting the whole batch: in a
    /// deployment the server cannot assume every client is well behaved.
    /// Returns the number of accepted reports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Bandit`]/[`CoreError::Linalg`] only for internal
    /// model failures, not for malformed reports.
    pub fn ingest_batch_coalesced(&mut self, batch: &ShuffledBatch) -> Result<u64, CoreError> {
        let coalesced = self
            .coalescer
            .coalesce(self.encoder.as_ref(), self.num_actions, batch)?;
        self.service.ingest(coalesced.updates)?;
        self.mark_updated(coalesced.accepted);
        Ok(coalesced.accepted)
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
    use p2b_encoding::{ContextCode, KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
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
        // Two batches of 30 reports over the same 2 distinct codes.
        for seed in [10, 11] {
            let reports: Vec<(usize, usize, f64)> = (0..30).map(|i| (i % 2, i % 3, 1.0)).collect();
            let accepted = server
                .ingest_batch_coalesced(&batch(reports, 1, seed))
                .unwrap();
            assert_eq!(accepted, 30);
        }
        assert_eq!(
            counting.representatives(),
            2,
            "the context vector must be computed once per distinct code in the \
             server's lifetime, not per report or per batch"
        );
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
