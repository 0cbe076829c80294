//! Streaming collection: many parallel producers feeding the sharded
//! shuffler engine.
//!
//! [`crate::run_synthetic_population`] drives one agent at a time and
//! flushes each round through a single producer — the right shape for
//! reproducing the paper's figures deterministically. This module exercises
//! the serving-scale shape instead: agent populations are simulated on
//! [`crate::parallel_map`] worker threads, every worker submits its reports
//! straight into the [`p2b_shuffler::ShufflerEngine`] spawned from the
//! system configuration, and the engine's merged, threshold-filtered batches
//! are folded into the central model with per-batch (ε, δ) accounting.
//!
//! Model-side, every delivered batch goes through the coalescing ingester
//! ([`p2b_core::P2bSystem::ingest_engine_batch`]): reports are grouped by
//! `(code, action)` and dispatched to the model service's ingest shards
//! ([`p2b_core::P2bConfig::ingest_shards`]) as weighted sufficient-statistics
//! updates, and the agents created for the wave all share the epoch's
//! central-model snapshot instead of merging their own copy.
//!
//! The wave is stationary: one long-lived agent per user, a fixed
//! population, rewards joined in the interaction that earned them. Drift,
//! churn and delayed rewards are scenario axes of the experiment matrix
//! (`p2b_experiments::run_cell`), and bounded-pool serving is measured by
//! the `serve_churn` benchmark workload.

use crate::{parallel_map, SimError};
use p2b_core::{P2bSystem, RoundStats};
use p2b_datasets::{ContextualEnvironment, SyntheticConfig, SyntheticPreferenceEnvironment};
use p2b_privacy::AmplificationLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of one streaming collection wave: one long-lived agent per
/// user, simulated on parallel producer threads, `interactions_per_user`
/// sequential interactions each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Number of users simulated in this wave.
    pub num_users: usize,
    /// Local interactions per user.
    pub interactions_per_user: u64,
    /// Producer threads submitting to the engine concurrently.
    pub producers: usize,
    /// Seed for the engine and every per-user RNG.
    pub seed: u64,
}

impl StreamingConfig {
    /// Creates a configuration with `T = 10` interactions and 4 producers.
    #[must_use]
    pub fn new(num_users: usize) -> Self {
        Self {
            num_users,
            interactions_per_user: 10,
            producers: 4,
            seed: 0,
        }
    }

    /// Sets the local interactions per user.
    #[must_use]
    pub fn with_interactions_per_user(mut self, interactions: u64) -> Self {
        self.interactions_per_user = interactions;
        self
    }

    /// Sets the number of producer threads.
    #[must_use]
    pub fn with_producers(mut self, producers: usize) -> Self {
        self.producers = producers;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.num_users == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_users",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.interactions_per_user == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "interactions_per_user",
                message: "must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// Everything one streaming collection wave produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOutcome {
    /// Per-delivered-batch statistics, in delivery order.
    pub round_stats: Vec<RoundStats>,
    /// The engine's per-batch (ε, δ) amplification ledger.
    pub ledger: AmplificationLedger,
    /// Average realized reward over every simulated interaction.
    pub average_reward: f64,
    /// Total simulated interactions.
    pub interactions: u64,
    /// Reports submitted to the engine across all producers.
    pub submitted: u64,
}

/// Per-user result accumulated on the producer threads.
struct UserRun {
    reward_sum: f64,
    interactions: u64,
    submitted: u64,
}

/// Simulates a population of users on `producers` threads, streams their
/// reports through the system's sharded shuffler engine, and folds every
/// delivered batch into the central model.
///
/// The engine's shard count and batch size come from the system
/// configuration ([`p2b_core::P2bConfig::shuffler_shards`] /
/// [`p2b_core::P2bConfig::shuffler_batch_size`]). Report *submission* is
/// concurrent and unordered — which is exactly what the shuffler is designed
/// to absorb — so aggregate statistics (reports conserved, rewards averaged)
/// are reproducible while batch contents are not.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid configurations,
/// [`SimError::MissingLedger`] if the engine finishes without its
/// amplification ledger, and propagates environment, engine and server
/// errors.
pub fn run_streaming_population(
    system: &mut P2bSystem,
    env_config: SyntheticConfig,
    config: StreamingConfig,
) -> Result<StreamingOutcome, SimError> {
    config.validate()?;

    // Agents are created up front (they snapshot the current central model);
    // their interactions then run embarrassingly parallel.
    let agents = (0..config.num_users)
        .map(|_| system.make_warm_agent())
        .collect::<Result<Vec<_>, _>>()?;

    let handle = system.spawn_engine(config.seed)?;
    let handle_ref = &handle;
    let interactions = config.interactions_per_user;
    let seed = config.seed;

    // One shared preference model for the whole population: built once,
    // cloned per user (the clone carries the preference matrices; each
    // user's interaction randomness comes from its own RNG stream).
    let env_prototype =
        SyntheticPreferenceEnvironment::new(env_config, &mut StdRng::seed_from_u64(seed))?;
    let env_ref = &env_prototype;

    let runs = parallel_map(
        agents.into_iter().enumerate().collect(),
        config.producers,
        move |(user, mut agent)| -> Result<UserRun, SimError> {
            let mut env = env_ref.clone();
            let mut user_rng = StdRng::seed_from_u64(
                seed ^ (user as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1),
            );
            let mut reward_sum = 0.0f64;
            for _ in 0..interactions {
                let context = env.sample_context(&mut user_rng);
                let action = agent.select_action(&context, &mut user_rng)?;
                let reward = env.sample_reward(&context, action.index(), &mut user_rng)?;
                agent.observe_reward(&context, action, reward, &mut user_rng)?;
                reward_sum += reward;
            }
            let reports = agent.take_reports();
            let submitted = reports.len() as u64;
            for report in reports {
                handle_ref.submit(report)?;
            }
            Ok(UserRun {
                reward_sum,
                interactions,
                submitted,
            })
        },
    );

    let mut reward_sum = 0.0f64;
    let mut total_interactions = 0u64;
    let mut submitted = 0u64;
    for run in runs {
        let run = run?;
        reward_sum += run.reward_sum;
        total_interactions += run.interactions;
        submitted += run.submitted;
    }

    let output = handle.finish();
    let mut round_stats = Vec::with_capacity(output.batches.len());
    for batch in &output.batches {
        round_stats.push(system.ingest_engine_batch(batch)?);
    }
    let ledger = output.ledger.ok_or(SimError::MissingLedger)?;

    Ok(StreamingOutcome {
        round_stats,
        ledger,
        average_reward: if total_interactions == 0 {
            0.0
        } else {
            reward_sum / total_interactions as f64
        },
        interactions: total_interactions,
        submitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_core::P2bConfig;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use std::sync::Arc;

    fn system(shards: usize, threshold: usize) -> P2bSystem {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus: Vec<Vector> = (0..256)
            .map(|_| {
                let env_config = SyntheticConfig::new(4, 3);
                let mut env = SyntheticPreferenceEnvironment::new(env_config, &mut rng).unwrap();
                env.sample_context(&mut rng)
            })
            .collect();
        let encoder =
            Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(8), &mut rng).unwrap());
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(2)
            .with_shuffler_threshold(threshold)
            .with_shuffler_shards(shards)
            .with_shuffler_batch_size(32)
            // Scale the model service together with the shuffler so the
            // wave exercises the full sharded ingestion path.
            .with_ingest_shards(shards);
        P2bSystem::new(config, encoder).unwrap()
    }

    #[test]
    fn validates_configuration() {
        let mut sys = system(1, 1);
        let env = SyntheticConfig::new(4, 3);
        assert!(run_streaming_population(&mut sys, env, StreamingConfig::new(0)).is_err());
        assert!(run_streaming_population(
            &mut sys,
            env,
            StreamingConfig::new(5).with_interactions_per_user(0)
        )
        .is_err());
    }

    #[test]
    fn streaming_wave_conserves_reports_across_shard_counts() {
        for shards in [1usize, 2, 4] {
            let mut sys = system(shards, 1);
            let env = SyntheticConfig::new(4, 3);
            let outcome = run_streaming_population(
                &mut sys,
                env,
                StreamingConfig::new(40)
                    .with_interactions_per_user(4)
                    .with_producers(4)
                    .with_seed(9),
            )
            .unwrap();
            assert_eq!(outcome.interactions, 160);
            assert!(outcome.average_reward >= 0.0 && outcome.average_reward <= 1.0);
            let received: u64 = outcome.round_stats.iter().map(|s| s.received as u64).sum();
            assert_eq!(
                received, outcome.submitted,
                "engine must conserve reports at {shards} shards"
            );
            // Threshold 1: everything released and accepted by the server.
            let accepted: u64 = outcome.round_stats.iter().map(|s| s.accepted).sum();
            assert_eq!(accepted, outcome.submitted);
            assert_eq!(sys.server().ingested_reports(), accepted);
            assert_eq!(outcome.ledger.total_released() as u64, accepted);
        }
    }

    #[test]
    fn ledger_records_every_delivered_batch() {
        let mut sys = system(2, 2);
        let env = SyntheticConfig::new(4, 3);
        let outcome = run_streaming_population(
            &mut sys,
            env,
            StreamingConfig::new(60)
                .with_interactions_per_user(2)
                .with_producers(3)
                .with_seed(4),
        )
        .unwrap();
        assert_eq!(outcome.ledger.records().len(), outcome.round_stats.len());
        assert!(
            (outcome.ledger.per_report_epsilon() - std::f64::consts::LN_2).abs() < 1e-12,
            "p = 0.5 must give the paper's headline ε = ln 2"
        );
        // Any batch that released reports achieved at least the configured
        // crowd-blending threshold.
        for record in outcome.ledger.records() {
            if record.released > 0 {
                assert!(record.crowd_size >= 2);
            }
        }
    }
}
