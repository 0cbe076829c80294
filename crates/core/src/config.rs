//! Configuration of the P2B system.

use crate::CoreError;
use p2b_bandit::LinUcbConfig;
use p2b_privacy::{validate_omega, Participation};
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::P2bSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2bConfig {
    /// Dimension `d` of the raw context vectors observed by local agents.
    pub context_dimension: usize,
    /// Number of actions `A`.
    pub num_actions: usize,
    /// LinUCB exploration parameter α (the paper uses α = 1).
    pub alpha: f64,
    /// Participation probability `p` of the randomized reporter (paper: 0.5).
    pub participation: f64,
    /// Number of local interactions `T` observed before each reporting
    /// opportunity (paper: 10 or 20 depending on the experiment).
    pub local_interactions: u64,
    /// Shuffler frequency threshold, which doubles as the crowd-blending `l`
    /// (paper: 10).
    pub shuffler_threshold: usize,
    /// Merged batch size delivered by the streaming engine: how many reports
    /// the shuffler gathers before shuffling, thresholding and releasing one
    /// batch to the central model.
    pub shuffler_batch_size: usize,
    /// Number of ingest shards of the central model service
    /// ([`crate::ModelService`]): worker threads that fold coalesced
    /// sufficient statistics into the central LinUCB model, partitioned by
    /// action (disjoint LinUCB arms are independent, so the partition is
    /// exact). The default follows the host: one shard per available
    /// hardware thread, capped at the number of actions, and 1 where the
    /// host's parallelism cannot be read. Model snapshots are bit-identical
    /// at any shard count, so the default changes only how many cores a
    /// flush's fold uses; [`P2bConfig::with_ingest_shards`] pins a count.
    pub ingest_shards: usize,
    /// Constant Ω of the δ bound (Gehrke et al. 2012); only affects reporting
    /// of δ, not the mechanism itself.
    pub delta_omega: f64,
}

impl P2bConfig {
    /// Creates a configuration with the paper's defaults: α = 1, p = 0.5,
    /// T = 10, threshold 10, and one ingest shard
    /// per available hardware thread, capped at `num_actions`.
    #[must_use]
    pub fn new(context_dimension: usize, num_actions: usize) -> Self {
        Self {
            context_dimension,
            num_actions,
            alpha: 1.0,
            participation: 0.5,
            local_interactions: 10,
            shuffler_threshold: 10,
            shuffler_batch_size: 128,
            ingest_shards: host_ingest_shards(num_actions),
            delta_omega: 0.1,
        }
    }

    /// Sets the participation probability `p`.
    #[must_use]
    pub fn with_participation(mut self, participation: f64) -> Self {
        self.participation = participation;
        self
    }

    /// Sets the number of local interactions `T` before a reporting opportunity.
    #[must_use]
    pub fn with_local_interactions(mut self, local_interactions: u64) -> Self {
        self.local_interactions = local_interactions;
        self
    }

    /// Sets the shuffler threshold (crowd-blending `l`).
    #[must_use]
    pub fn with_shuffler_threshold(mut self, threshold: usize) -> Self {
        self.shuffler_threshold = threshold;
        self
    }

    /// Sets the merged batch size of the streaming engine.
    #[must_use]
    pub fn with_shuffler_batch_size(mut self, batch_size: usize) -> Self {
        self.shuffler_batch_size = batch_size;
        self
    }

    /// Sets the number of ingest shards of the central model service.
    #[must_use]
    pub fn with_ingest_shards(mut self, ingest_shards: usize) -> Self {
        self.ingest_shards = ingest_shards;
        self
    }

    /// Sets the LinUCB exploration parameter α.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first violated
    /// constraint, or [`CoreError::Privacy`] if Ω is not a finite positive
    /// number or the participation probability is outside `(0, 1)`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.context_dimension == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "context_dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_actions == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "num_actions",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(CoreError::InvalidConfig {
                parameter: "alpha",
                message: format!("must be a finite non-negative number, got {}", self.alpha),
            });
        }
        if self.local_interactions == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "local_interactions",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.shuffler_threshold == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "shuffler_threshold",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.shuffler_batch_size == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "shuffler_batch_size",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.ingest_shards == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "ingest_shards",
                message: "must be at least 1".to_owned(),
            });
        }
        // Ω and participation are validated by the privacy crate's checks.
        validate_omega(self.delta_omega)?;
        let _ = self.participation()?;
        Ok(())
    }

    /// The participation probability as a validated [`Participation`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Privacy`] if `participation` is outside `(0, 1)`.
    pub fn participation(&self) -> Result<Participation, CoreError> {
        Ok(Participation::new(self.participation)?)
    }

    /// The LinUCB configuration of every model in the system: local agents
    /// and the central model alike. The paper's private agents "use the
    /// encoded value as the context", and a code reaches the model as its
    /// cluster centroid ([`p2b_encoding::Encoder::representative`]), a
    /// `d`-dimensional vector: the context space collapses to `k` distinct
    /// points while the design matrices stay `d × d`.
    #[must_use]
    pub fn linucb(&self) -> LinUcbConfig {
        LinUcbConfig::new(self.context_dimension, self.num_actions).with_alpha(self.alpha)
    }
}

/// The default [`P2bConfig::ingest_shards`]: `min(available_parallelism,
/// num_actions)`, and 1 when the host's parallelism cannot be read. A shard
/// beyond the number of actions would own no arm.
fn host_ingest_shards(num_actions: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |threads| threads.get().min(num_actions).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = P2bConfig::new(10, 20);
        assert_eq!(cfg.alpha, 1.0);
        assert_eq!(cfg.participation, 0.5);
        assert_eq!(cfg.local_interactions, 10);
        assert_eq!(cfg.shuffler_threshold, 10);
        // Ingest shards follow the host.
        assert_eq!(cfg.shuffler_batch_size, 128);
        assert_eq!(cfg.ingest_shards, host_ingest_shards(20));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn ingest_shards_follow_the_host_up_to_the_action_count() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(host_ingest_shards(20), threads.min(20));
        // A shard beyond the number of actions would own no arm.
        let single = P2bConfig::new(10, 1);
        assert_eq!(single.ingest_shards, 1);
        assert!(single.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(P2bConfig::new(0, 5).validate().is_err());
        assert!(P2bConfig::new(5, 0).validate().is_err());
        assert!(P2bConfig::new(5, 5).with_alpha(-1.0).validate().is_err());
        assert!(P2bConfig::new(5, 5)
            .with_participation(0.0)
            .validate()
            .is_err());
        assert!(P2bConfig::new(5, 5)
            .with_participation(1.0)
            .validate()
            .is_err());
        assert!(P2bConfig::new(5, 5)
            .with_local_interactions(0)
            .validate()
            .is_err());
        assert!(P2bConfig::new(5, 5)
            .with_shuffler_threshold(0)
            .validate()
            .is_err());
        assert!(P2bConfig::new(5, 5)
            .with_shuffler_batch_size(0)
            .validate()
            .is_err());
        assert!(P2bConfig::new(5, 5)
            .with_ingest_shards(0)
            .validate()
            .is_err());
        for omega in [0.0, -1.0, f64::NAN] {
            let mut bad = P2bConfig::new(5, 5);
            bad.delta_omega = omega;
            assert!(matches!(
                bad.validate(),
                Err(CoreError::Privacy(
                    p2b_privacy::PrivacyError::InvalidParameter { name: "omega", .. }
                ))
            ));
        }
        assert!(P2bConfig::new(5, 5)
            .with_shuffler_batch_size(256)
            .with_ingest_shards(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn linucb_configurations_follow_the_representation() {
        // A code reaches the model as its d-dimensional centroid, so the
        // model's shape is (d, A) whatever the encoder's code count.
        let cfg = P2bConfig::new(3, 7).with_alpha(0.5);
        let linucb = cfg.linucb();
        assert_eq!(linucb.context_dimension, 3);
        assert_eq!(linucb.num_actions, 7);
        assert_eq!(linucb.alpha, 0.5);
    }
}
