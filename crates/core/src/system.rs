//! End-to-end wiring of the P2B pipeline.

use crate::{CentralServer, CoreError, LocalAgent, ModelSnapshot, P2bConfig};
use p2b_encoding::Encoder;
use p2b_privacy::{
    amplified_delta, amplified_epsilon, AmplificationLedger, CrowdBlending, PrivacyGuarantee,
};
use p2b_shuffler::{EngineBatch, EngineHandle, RawReport, ShufflerConfig, ShufflerEngine};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Statistics of one server-side collection round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoundStats {
    /// Reports received by the shuffler this round.
    pub received: usize,
    /// Reports released by the shuffler after thresholding.
    pub released: usize,
    /// Reports dropped by the threshold.
    pub dropped: usize,
    /// Reports accepted by the server into the central model.
    pub accepted: u64,
}

impl RoundStats {
    /// Assembles round statistics from one engine batch's stats plus the
    /// number of reports the server accepted from it.
    fn from_batch(batch: &EngineBatch, accepted: u64) -> Self {
        let stats = batch.batch.stats();
        Self {
            received: stats.received,
            released: stats.released,
            dropped: stats.dropped,
            accepted,
        }
    }
}

/// The complete P2B system: configuration, fitted encoder and central
/// server, plus the factories for local agents and for the trusted
/// shuffler engine every report reaches the server through.
///
/// The system object lives on the "infrastructure" side; [`LocalAgent`]s live
/// on user devices and only communicate through report tuples and model
/// snapshots, which is exactly the trust boundary the paper draws.
#[derive(Debug)]
pub struct P2bSystem {
    config: P2bConfig,
    encoder: Arc<dyn Encoder>,
    server: CentralServer,
    next_agent_id: u64,
}

impl P2bSystem {
    /// Creates a P2B system around a fitted encoder.
    ///
    /// # Errors
    ///
    /// Returns configuration and dimension-mismatch errors; see
    /// [`P2bConfig::validate`].
    pub fn new(config: P2bConfig, encoder: Arc<dyn Encoder>) -> Result<Self, CoreError> {
        config.validate()?;
        let server = CentralServer::new(&config, Arc::clone(&encoder))?;
        Ok(Self {
            config,
            encoder,
            server,
            next_agent_id: 0,
        })
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &P2bConfig {
        &self.config
    }

    /// The fitted encoder shared by all agents.
    #[must_use]
    pub fn encoder(&self) -> &Arc<dyn Encoder> {
        &self.encoder
    }

    /// Borrows the central server.
    #[must_use]
    pub fn server(&self) -> &CentralServer {
        &self.server
    }

    /// Mutably borrows the central server, e.g. to assemble the current
    /// model ([`CentralServer::model`]) or publish a snapshot.
    pub fn server_mut(&mut self) -> &mut CentralServer {
        &mut self.server
    }

    /// The epoch-versioned snapshot of the central model that new warm
    /// agents are pointed at.
    ///
    /// # Errors
    ///
    /// Surfaces internal model-service failures.
    pub fn central_snapshot(&mut self) -> Result<Arc<ModelSnapshot>, CoreError> {
        self.server.snapshot()
    }

    /// Creates a *warm* local agent pointed at the current epoch's shared
    /// central-model snapshot.
    ///
    /// Every agent created within one epoch shares the same
    /// [`ModelSnapshot`] allocation — warm starts no longer copy or merge
    /// the model; the agent clones it copy-on-write only when it folds its
    /// first local observation. The hand-off consumes no randomness.
    ///
    /// # Errors
    ///
    /// Propagates agent-construction errors and internal model-service
    /// failures.
    pub fn make_warm_agent(&mut self) -> Result<LocalAgent, CoreError> {
        let id = self.next_agent_id;
        self.next_agent_id += 1;
        let snapshot = self.server.snapshot()?;
        LocalAgent::new(id, &self.config, Arc::clone(&self.encoder), Some(snapshot))
    }

    /// Creates a *cold* local agent that never receives the central model —
    /// the fully local baseline of the paper.
    ///
    /// # Errors
    ///
    /// Propagates agent-construction errors.
    pub fn make_cold_agent(&mut self) -> Result<LocalAgent, CoreError> {
        let id = self.next_agent_id;
        self.next_agent_id += 1;
        LocalAgent::new(id, &self.config, Arc::clone(&self.encoder), None)
    }

    /// Spawns the sharded streaming shuffler engine configured by
    /// [`P2bConfig::shuffler_shards`] / [`P2bConfig::shuffler_batch_size`],
    /// with per-batch (ε, δ) amplification accounting wired to this system's
    /// participation probability and δ constant Ω.
    ///
    /// This is the one way a report reaches the central model: reports
    /// submitted to the returned handle (from any number of threads) are
    /// anonymized, sharded, tabulated into `(code, action)` cells,
    /// thresholded and delivered as [`EngineBatch`]es, which
    /// [`P2bSystem::ingest_engine_batch`] hands to the central model.
    ///
    /// The engine draws no randomness, so `seed` is not read; it stays in
    /// the signature for existing callers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shuffler`] when the engine configuration is
    /// invalid and [`CoreError::Privacy`] for an invalid participation
    /// probability.
    pub fn spawn_engine(&self, _seed: u64) -> Result<EngineHandle, CoreError> {
        let engine = ShufflerEngine::builder(ShufflerConfig::new(self.config.shuffler_threshold))
            .shards(self.config.shuffler_shards)
            .batch_size(self.config.shuffler_batch_size)
            .privacy_accounting(self.config.participation()?, self.config.delta_omega)
            .build()?;
        Ok(engine.spawn())
    }

    /// Adds one engine-delivered batch to the central model: its released
    /// `(code, action)` cells join the server's epoch run, and the next
    /// snapshot folds each touched pair once, as one weighted
    /// sufficient-statistics update
    /// ([`CentralServer::ingest_batch_coalesced`]).
    ///
    /// # Errors
    ///
    /// Propagates server-side model errors.
    pub fn ingest_engine_batch(&mut self, batch: &EngineBatch) -> Result<RoundStats, CoreError> {
        let accepted = self.server.ingest_batch_coalesced(&batch.batch)?;
        Ok(RoundStats::from_batch(batch, accepted))
    }

    /// Runs one complete streaming round: spawns the engine, submits every
    /// report, flushes, and folds each delivered batch into the central
    /// model. Returns per-batch round statistics and the amplification
    /// ledger. Like [`P2bSystem::spawn_engine`]'s, `seed` is not read.
    ///
    /// This is the single-producer convenience wrapper, the flush of the
    /// round-based simulations; serving deployments and the throughput
    /// benchmarks drive [`P2bSystem::spawn_engine`] directly from many
    /// producer threads. An empty report stream delivers no batch.
    ///
    /// # Errors
    ///
    /// Returns engine-configuration errors and propagates server-side model
    /// errors.
    pub fn streaming_round<I>(
        &mut self,
        reports: I,
        seed: u64,
    ) -> Result<(Vec<RoundStats>, AmplificationLedger), CoreError>
    where
        I: IntoIterator<Item = RawReport>,
    {
        let handle = self.spawn_engine(seed)?;
        for report in reports {
            handle.submit(report)?;
        }
        let output = handle.finish();
        let mut stats = Vec::with_capacity(output.batches.len());
        for batch in &output.batches {
            stats.push(self.ingest_engine_batch(batch)?);
        }
        let ledger = output.ledger.ok_or_else(|| CoreError::InvalidConfig {
            parameter: "streaming_round",
            message: "engine finished without an amplification ledger".to_owned(),
        })?;
        Ok((stats, ledger))
    }

    /// The crowd-blending parameterization enforced by the shuffler threshold.
    ///
    /// # Errors
    ///
    /// Never fails for a validated configuration.
    pub fn crowd_blending(&self) -> Result<CrowdBlending, CoreError> {
        Ok(CrowdBlending::exact(self.config.shuffler_threshold as u64)?)
    }

    /// The (ε, δ) differential-privacy guarantee of a single reporting
    /// opportunity under this configuration (Section 4 of the paper):
    /// ε from Equation 3 with ε̄ = 0, δ from the crowd size enforced by the
    /// shuffler threshold.
    ///
    /// # Errors
    ///
    /// Never fails for a validated configuration.
    pub fn privacy_guarantee(&self) -> Result<PrivacyGuarantee, CoreError> {
        let p = self.config.participation()?;
        let epsilon = amplified_epsilon(p, 0.0)?;
        let delta = amplified_delta(
            p,
            self.config.shuffler_threshold as u64,
            self.config.delta_omega,
        )?;
        Ok(PrivacyGuarantee::new(epsilon, delta)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_bandit::ContextualPolicy;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(seed: u64) -> Arc<KMeansEncoder> {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vector> = (0..80)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap())
    }

    fn system(threshold: usize) -> P2bSystem {
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(threshold);
        P2bSystem::new(config, encoder(0)).unwrap()
    }

    #[test]
    fn privacy_guarantee_matches_the_paper_headline() {
        let system = system(10);
        let guarantee = system.privacy_guarantee().unwrap();
        assert!((guarantee.epsilon() - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(guarantee.delta() > 0.0 && guarantee.delta() < 1.0);
        assert_eq!(system.crowd_blending().unwrap().crowd_size(), 10);
    }

    #[test]
    fn end_to_end_round_trip_updates_the_central_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut system = system(2);
        // Many agents interact with the same strongly-clustered context and
        // always receive reward 1 for action 0.
        let reports = gather_reports(&mut system, &mut rng, 40);
        assert!(!reports.is_empty());
        let (stats, _) = system.streaming_round(reports, 1).unwrap();
        let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
        for s in &stats {
            assert_eq!(s.received, s.released + s.dropped);
        }
        assert!(accepted > 0);
        assert_eq!(system.server().ingested_reports(), accepted);
        assert!(system.server_mut().model().unwrap().observations() > 0);
    }

    #[test]
    fn thresholding_enforces_crowd_blending_on_released_batches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut system = system(5);
        let contexts: Vec<Vector> = (0..4)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        let handle = system.spawn_engine(2).unwrap();
        for a in 0..30 {
            let mut agent = system.make_warm_agent().unwrap();
            let ctx = &contexts[a % contexts.len()];
            for _ in 0..2 {
                let action = agent.select_action(ctx, &mut rng).unwrap();
                agent.observe_reward(ctx, action, 0.5, &mut rng).unwrap();
            }
            for report in agent.take_reports() {
                handle.submit(report).unwrap();
            }
        }
        let output = handle.finish();
        assert!(!output.batches.is_empty());
        let crowd = system.crowd_blending().unwrap();
        for batch in &output.batches {
            let codes: Vec<usize> = batch
                .batch
                .reports()
                .iter()
                .flat_map(|c| std::iter::repeat_n(c.code(), c.count() as usize))
                .collect();
            assert!(crowd.is_satisfied_by(&codes));
            system.ingest_engine_batch(batch).unwrap();
        }
    }

    #[test]
    fn warm_agents_start_from_the_central_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut system = system(1);
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1])
            .normalized_l1()
            .unwrap();

        // Phase 1: a population of agents teaches the server that action 2 pays.
        let mut reports = Vec::new();
        for _ in 0..60 {
            let mut agent = system.make_warm_agent().unwrap();
            for _ in 0..3 {
                let action = agent.select_action(&ctx, &mut rng).unwrap();
                let reward = if action.index() == 2 { 1.0 } else { 0.0 };
                agent
                    .observe_reward(&ctx, action, reward, &mut rng)
                    .unwrap();
            }
            reports.extend(agent.take_reports());
        }
        system.streaming_round(reports, 3).unwrap();

        // Phase 2: a fresh warm agent should prefer action 2 immediately,
        // while a cold agent spreads its choices.
        let mut warm = system.make_warm_agent().unwrap();
        let mut warm_votes = [0usize; 3];
        for _ in 0..30 {
            warm_votes[warm.select_action(&ctx, &mut rng).unwrap().index()] += 1;
        }
        assert!(
            warm_votes[2] > 20,
            "warm agent should exploit the shared model: {warm_votes:?}"
        );

        let mut cold = system.make_cold_agent().unwrap();
        let mut cold_votes = [0usize; 3];
        for _ in 0..30 {
            cold_votes[cold.select_action(&ctx, &mut rng).unwrap().index()] += 1;
        }
        assert!(
            cold_votes[2] < 25,
            "cold agent should not already know the answer: {cold_votes:?}"
        );
    }

    #[test]
    fn agent_ids_are_unique() {
        let mut system = system(1);
        let a = system.make_warm_agent().unwrap();
        let b = system.make_cold_agent().unwrap();
        let c = system.make_warm_agent().unwrap();
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn flush_with_no_pending_reports_is_a_no_op() {
        let mut system = system(3);
        let (stats, ledger) = system.streaming_round(Vec::new(), 5).unwrap();
        assert!(stats.is_empty());
        assert!(ledger.records().is_empty());
        assert_eq!(system.server().epoch(), 0);
    }

    /// Gathers reports from a population of agents without flushing them,
    /// so the engine tests can replay the same stream.
    fn gather_reports(system: &mut P2bSystem, rng: &mut StdRng, agents: usize) -> Vec<RawReport> {
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1])
            .normalized_l1()
            .unwrap();
        let mut reports = Vec::new();
        for _ in 0..agents {
            let mut agent = system.make_warm_agent().unwrap();
            for _ in 0..4 {
                let action = agent.select_action(&ctx, rng).unwrap();
                let reward = if action.index() == 0 { 1.0 } else { 0.0 };
                agent.observe_reward(&ctx, action, reward, rng).unwrap();
            }
            reports.extend(agent.take_reports());
        }
        reports
    }

    #[test]
    fn streaming_round_feeds_the_central_model_like_flush_round() {
        let mut rng = StdRng::seed_from_u64(6);
        // Batch size 16 splits the round into several engine batches.
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(2)
            .with_shuffler_batch_size(16);
        let mut system = P2bSystem::new(config, encoder(0)).unwrap();
        let reports = gather_reports(&mut system, &mut rng, 40);
        let submitted = reports.len();
        assert!(submitted > 0);

        let (stats, ledger) = system.streaming_round(reports, 99).unwrap();
        assert_eq!(stats.len(), submitted.div_ceil(16));
        let received: usize = stats.iter().map(|s| s.received).sum();
        let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
        assert_eq!(received, submitted, "no report may be lost in the engine");
        for s in &stats {
            assert_eq!(s.received, s.released + s.dropped);
        }
        assert!(accepted > 0);
        assert_eq!(system.server().ingested_reports(), accepted);
        assert!(system.server_mut().model().unwrap().observations() > 0);
        // Every batch was recorded in the ledger with the headline ε.
        assert_eq!(ledger.records().len(), stats.len());
        assert!((ledger.per_report_epsilon() - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn multi_shard_engine_round_trip_conserves_reports() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(1)
            .with_shuffler_shards(4)
            .with_shuffler_batch_size(8);
        let mut system = P2bSystem::new(config, encoder(0)).unwrap();
        let reports = gather_reports(&mut system, &mut rng, 30);
        let submitted = reports.len();

        let handle = system.spawn_engine(3).unwrap();
        for report in reports {
            handle.submit(report).unwrap();
        }
        let output = handle.finish();
        let mut accepted = 0;
        for batch in &output.batches {
            accepted += system.ingest_engine_batch(batch).unwrap().accepted;
        }
        // Threshold 1: every submitted report survives and is accepted.
        assert_eq!(accepted, submitted as u64);
        assert_eq!(system.server().ingested_reports(), accepted);
        let ledger = output.ledger.unwrap();
        assert_eq!(
            ledger.records().iter().map(|r| r.released).sum::<usize>(),
            submitted
        );
        assert!(ledger.weakest().is_some());
    }

    #[test]
    fn concurrent_producers_into_sharded_ingest_conserve_reports() {
        let mut rng = StdRng::seed_from_u64(9);
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(1)
            .with_shuffler_shards(4)
            .with_shuffler_batch_size(8)
            .with_ingest_shards(3);
        let mut system = P2bSystem::new(config, encoder(0)).unwrap();
        let reports = gather_reports(&mut system, &mut rng, 40);
        let submitted = reports.len();

        // Four producer threads submit concurrently into the sharded engine,
        // and every delivered batch folds on three ingest shards.
        let handle = system.spawn_engine(5).unwrap();
        let chunk = submitted.div_ceil(4);
        std::thread::scope(|scope| {
            for part in reports.chunks(chunk) {
                let handle = &handle;
                scope.spawn(move || {
                    for report in part {
                        handle.submit(report.clone()).unwrap();
                    }
                });
            }
        });
        let output = handle.finish();
        let mut received = 0;
        let mut accepted = 0;
        for batch in &output.batches {
            let stats = system.ingest_engine_batch(batch).unwrap();
            received += stats.received;
            accepted += stats.accepted;
        }
        assert_eq!(received, submitted, "no report may be lost in the engine");
        // Threshold 1: every submitted report survives and is accepted.
        assert_eq!(accepted, submitted as u64);
        assert_eq!(system.server().ingested_reports(), accepted);
        let ledger = output.ledger.unwrap();
        assert_eq!(ledger.records().len(), output.batches.len());
        assert_eq!(
            ledger.records().iter().map(|r| r.released).sum::<usize>(),
            submitted
        );
    }

    #[test]
    fn spawn_engine_respects_config_validation() {
        let mut config = P2bConfig::new(4, 3).with_local_interactions(1);
        config.shuffler_batch_size = 0;
        assert!(P2bSystem::new(config, encoder(0)).is_err());
    }

    #[test]
    fn warm_starts_share_one_snapshot_allocation_per_epoch() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut system = system(1);

        // Two agents created in the same epoch point at the SAME snapshot —
        // the warm start copies a pointer, not the model.
        let a = system.make_warm_agent().unwrap();
        let b = system.make_warm_agent().unwrap();
        let snap_a = a.warm_snapshot().expect("warm agent starts shared");
        let snap_b = b.warm_snapshot().expect("warm agent starts shared");
        assert!(
            Arc::ptr_eq(snap_a, snap_b),
            "same-epoch warm starts must share one model allocation"
        );
        assert_eq!(snap_a.epoch(), 0);
        assert!(Arc::ptr_eq(&system.central_snapshot().unwrap(), snap_a));

        // An ingestion round bumps the epoch; later agents get a new
        // snapshot while earlier ones keep reading their epoch's model.
        let mut teacher = system.make_warm_agent().unwrap();
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1])
            .normalized_l1()
            .unwrap();
        for _ in 0..8 {
            let action = teacher.select_action(&ctx, &mut rng).unwrap();
            teacher.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        }
        let (stats, _) = system.streaming_round(teacher.take_reports(), 8).unwrap();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].accepted > 0);

        let c = system.make_warm_agent().unwrap();
        let snap_c = c.warm_snapshot().expect("warm agent starts shared");
        assert!(!Arc::ptr_eq(snap_a, snap_c));
        assert_eq!(snap_c.epoch(), 1);
        assert_eq!(
            snap_c.model().observations(),
            system.server().ingested_reports()
        );
        // A cold agent never holds a snapshot.
        assert!(system.make_cold_agent().unwrap().warm_snapshot().is_none());
    }

    #[test]
    fn multi_shard_ingest_matches_single_shard_bit_for_bit() {
        // The ingest-shard count must not change the served model: each arm
        // is owned by exactly one shard and updated in submission order.
        let run = |ingest_shards: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            let config = P2bConfig::new(4, 3)
                .with_local_interactions(1)
                .with_shuffler_threshold(2)
                .with_ingest_shards(ingest_shards);
            let mut system = P2bSystem::new(config, encoder(0)).unwrap();
            let reports = gather_reports(&mut system, &mut rng, 30);
            let (stats, _) = system.streaming_round(reports, 5).unwrap();
            let model = system.server_mut().model().unwrap().clone();
            (stats, model)
        };
        let (stats_one, model_one) = run(1);
        for shards in [2usize, 4] {
            let (stats, model) = run(shards);
            assert_eq!(stats, stats_one, "round stats drifted at {shards} shards");
            for action in 0..3 {
                let action = p2b_bandit::Action::new(action);
                assert_eq!(
                    model.design(action).unwrap(),
                    model_one.design(action).unwrap(),
                    "design drifted at {shards} ingest shards"
                );
                assert_eq!(
                    model.reward_vector(action).unwrap(),
                    model_one.reward_vector(action).unwrap()
                );
            }
            assert_eq!(model.observations(), model_one.observations());
        }
    }

    /// Publishes the snapshot after each of three `streaming_round`s over
    /// the same seeded reports, as the exact bits of every arm's statistics
    /// and of the scores on a probe context.
    fn published_bits(config: P2bConfig) -> Vec<(u64, Vec<u64>)> {
        let mut rng = StdRng::seed_from_u64(31);
        let mut system = P2bSystem::new(config, encoder(0)).unwrap();
        let probe = Vector::from(vec![0.4, 0.3, 0.2, 0.1]);
        let mut published = Vec::new();
        for round in 0..3 {
            let reports = gather_reports(&mut system, &mut rng, 30);
            system.streaming_round(reports, 40 + round).unwrap();
            let snapshot = system.central_snapshot().unwrap();
            let model = snapshot.model();
            let mut words = vec![model.observations()];
            for arm in 0..model.config().num_actions {
                let action = p2b_bandit::Action::new(arm);
                words.push(model.pulls(action).unwrap());
                let design = model.design(action).unwrap().as_slice().iter();
                let reward = model.reward_vector(action).unwrap().iter();
                let theta = model.theta(action).unwrap();
                words.extend(
                    design
                        .chain(reward)
                        .chain(theta.iter())
                        .map(|x| x.to_bits()),
                );
            }
            let scores = model.scores(&probe).unwrap();
            words.extend(scores.iter().map(|x| x.to_bits()));
            published.push((snapshot.epoch(), words));
        }
        published
    }

    /// The host-sized default shard count publishes the same bits as one
    /// pinned shard. On a one-core runner both sides run one shard.
    #[test]
    fn host_sized_ingest_shards_publish_the_single_shard_snapshots() {
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(2)
            .with_shuffler_batch_size(16);
        let host = published_bits(config.clone());
        let single = published_bits(config.with_ingest_shards(1));
        assert_eq!(host.len(), 3);
        assert_eq!(host, single);
    }
}
