//! Privacy-Preserving Bandits (P2B): the paper's core system.
//!
//! P2B lets local contextual-bandit agents benefit from each other's feedback
//! without revealing individual interactions. Every user runs a
//! [`LocalAgent`]: a LinUCB policy plus an encoder and a randomized reporter.
//! After `T` local interactions the agent, with probability `p`, encodes one
//! interaction as the anonymous tuple `(y, a, r)` and submits it to the
//! trusted shuffler. The shuffler anonymizes and thresholds batches of
//! tuples and releases each as a histogram of `(code, action)` cells; the
//! [`CentralServer`] folds the surviving cells into a global LinUCB model
//! which fresh agents merge at start-up (warm start).
//!
//! The differential-privacy guarantee of the whole pipeline is computed by
//! [`P2bSystem::privacy_guarantee`] from the participation probability and
//! the shuffler threshold, following Section 4 of the paper.
//!
//! The central model is owned by a sharded [`ModelService`]: ingest workers
//! partitioned by action fold released cells (one weighted update per
//! distinct `(code, action)` pair touched since the previous publish, its
//! context read off the shared [`Centroids`] table) and build the arms they
//! touched, and the [`CentralServer`] publishes epoch-versioned
//! [`ModelSnapshot`]s behind an `Arc` that all warm starts of an epoch
//! share. Reports reach it one way: through the streaming engine
//! ([`P2bSystem::spawn_engine`], a one-lane [`p2b_shuffler::ShufflerEngine`]
//! with per-batch (ε, δ) amplification accounting, batching at
//! [`P2bConfig::shuffler_batch_size`]),
//! whose released cells the server sums until the next publish
//! ([`P2bSystem::ingest_engine_batch`]).
//! [`P2bSystem::streaming_round`] is the single-producer flush.
//!
//! A trust-minimized alternative is the secure-aggregation ingest
//! ([`SecureIngestService`]): coalesced sufficient statistics are
//! fixed-point encoded and additively secret-shared across `k` aggregator
//! shards, and the central side only ever sees the recombined per-arm sums
//! it assembles epoch models from.
//!
//! # Example
//!
//! ```
//! use p2b_core::{P2bConfig, P2bSystem};
//! use p2b_encoding::{KMeansConfig, KMeansEncoder};
//! use p2b_linalg::Vector;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Fit an encoder on a public corpus of normalized contexts.
//! let corpus: Vec<Vector> = (0..64)
//!     .map(|i| Vector::from(vec![(i % 8) as f64, 1.0, 2.0]).normalized_l1().unwrap())
//!     .collect();
//! let encoder = Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng)?);
//! let config = P2bConfig::new(3, 5).with_local_interactions(2);
//! let mut system = P2bSystem::new(config.clone(), encoder)?;
//!
//! // A local agent interacts and (maybe) reports.
//! let mut agent = system.make_warm_agent()?;
//! for _ in 0..4 {
//!     let ctx = Vector::from(vec![1.0, 0.5, 0.25]).normalized_l1()?;
//!     let action = agent.select_action(&ctx, &mut rng)?;
//!     agent.observe_reward(&ctx, action, 1.0, &mut rng)?;
//! }
//! let (stats, _ledger) = system.streaming_round(agent.take_reports(), 11)?;
//! assert!(stats.iter().map(|s| s.received).sum::<usize>() <= 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod agent;
mod config;
mod error;
mod join;
mod pool;
mod reporter;
mod secure;
mod server;
mod service;
mod system;

pub use agent::{DormantAgent, LocalAgent};
pub use config::P2bConfig;
pub use error::CoreError;
pub use join::{
    DecisionTicket, ExpiredDecision, FinalizedRound, JoinStats, JoinedDecision, RewardJoinBuffer,
};
pub use pool::{AgentPool, AgentPoolConfig, AgentSource, PoolStats};
pub use reporter::{PendingReport, RandomizedReporter};
pub use secure::SecureIngestService;
pub use server::CentralServer;
pub use service::{Centroids, ModelService, ModelSnapshot};
pub use system::{P2bSystem, RoundStats};
