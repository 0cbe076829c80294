//! Configuration of the P2B system.

use crate::CoreError;
use p2b_bandit::LinUcbConfig;
use p2b_encoding::{ContextCode, Encoder};
use p2b_linalg::Vector;
use p2b_privacy::{validate_omega, Participation};
use serde::{Deserialize, Serialize};

/// How an encoded context code is turned back into a vector when feeding the
/// bandit model.
///
/// The paper states that private agents "use the encoded value as the
/// context"; the representation controls what that value looks like:
///
/// * [`CodeRepresentation::Centroid`] — the code's cluster centroid, a
///   `d`-dimensional vector. The context space collapses to `k` distinct
///   points while keeping LinUCB's design matrices `d × d`. This is the
///   default and what the experiment harness uses.
/// * [`CodeRepresentation::OneHot`] — the indicator vector of the code, a
///   `k`-dimensional vector. LinUCB then degenerates to per-(code, action)
///   mean estimation, useful as an ablation of how much the centroid
///   geometry helps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CodeRepresentation {
    /// Represent a code by its cluster centroid (dimension `d`).
    #[default]
    Centroid,
    /// Represent a code by a one-hot indicator (dimension `k`).
    OneHot,
}

impl CodeRepresentation {
    /// Dimension of the model context under this representation.
    #[must_use]
    pub fn dimension(&self, encoder: &dyn Encoder) -> usize {
        match self {
            CodeRepresentation::Centroid => encoder.context_dimension(),
            CodeRepresentation::OneHot => encoder.num_codes(),
        }
    }

    /// The model-context vector for a given code.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for out-of-range codes.
    pub fn vector(&self, encoder: &dyn Encoder, code: ContextCode) -> Result<Vector, CoreError> {
        match self {
            CodeRepresentation::Centroid => Ok(encoder.representative(code)?),
            CodeRepresentation::OneHot => {
                if code.value() >= encoder.num_codes() {
                    return Err(CoreError::InvalidConfig {
                        parameter: "code",
                        message: format!(
                            "code {} out of range for {} codes",
                            code.value(),
                            encoder.num_codes()
                        ),
                    });
                }
                Ok(Vector::basis(encoder.num_codes(), code.value()))
            }
        }
    }
}

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
    /// Number of shuffler shards used by the streaming engine
    /// ([`crate::P2bSystem::spawn_engine`]). The default of 1 is the
    /// canonical single-lane engine, deterministic for a fixed seed.
    pub shuffler_shards: usize,
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
    /// How encoded codes are represented when training the central model.
    pub code_representation: CodeRepresentation,
    /// Constant Ω of the δ bound (Gehrke et al. 2012); only affects reporting
    /// of δ, not the mechanism itself.
    pub delta_omega: f64,
}

impl P2bConfig {
    /// Creates a configuration with the paper's defaults: α = 1, p = 0.5,
    /// T = 10, threshold 10, centroid representation, and one ingest shard
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
            shuffler_shards: 1,
            shuffler_batch_size: 128,
            ingest_shards: host_ingest_shards(num_actions),
            code_representation: CodeRepresentation::Centroid,
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

    /// Sets the number of shuffler shards used by the streaming engine.
    #[must_use]
    pub fn with_shuffler_shards(mut self, shards: usize) -> Self {
        self.shuffler_shards = shards;
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

    /// Sets the code representation used for the central model.
    #[must_use]
    pub fn with_code_representation(mut self, representation: CodeRepresentation) -> Self {
        self.code_representation = representation;
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
        if self.shuffler_shards == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "shuffler_shards",
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

    /// The LinUCB configuration for a *local* agent operating on raw contexts.
    #[must_use]
    pub fn local_linucb(&self) -> LinUcbConfig {
        LinUcbConfig::new(self.context_dimension, self.num_actions).with_alpha(self.alpha)
    }

    /// The LinUCB configuration for the *central* model, whose context
    /// dimension depends on the code representation.
    #[must_use]
    pub fn central_linucb(&self, encoder: &dyn Encoder) -> LinUcbConfig {
        LinUcbConfig::new(
            self.code_representation.dimension(encoder),
            self.num_actions,
        )
        .with_alpha(self.alpha)
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
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder() -> KMeansEncoder {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus: Vec<Vector> = (0..40)
            .map(|i| {
                Vector::from(vec![(i % 4) as f64 + 0.5, 1.0, 2.0])
                    .normalized_l1()
                    .unwrap()
            })
            .collect();
        KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap()
    }

    #[test]
    fn defaults_match_the_paper() {
        let cfg = P2bConfig::new(10, 20);
        assert_eq!(cfg.alpha, 1.0);
        assert_eq!(cfg.participation, 0.5);
        assert_eq!(cfg.local_interactions, 10);
        assert_eq!(cfg.shuffler_threshold, 10);
        // The shuffler defaults to one lane; ingest shards follow the host.
        assert_eq!(cfg.shuffler_shards, 1);
        assert_eq!(cfg.shuffler_batch_size, 128);
        assert_eq!(cfg.ingest_shards, host_ingest_shards(20));
        assert_eq!(cfg.code_representation, CodeRepresentation::Centroid);
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
            .with_shuffler_shards(0)
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
            .with_shuffler_shards(8)
            .with_shuffler_batch_size(256)
            .with_ingest_shards(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn representation_dimensions() {
        let enc = encoder();
        assert_eq!(CodeRepresentation::Centroid.dimension(&enc), 3);
        assert_eq!(CodeRepresentation::OneHot.dimension(&enc), 4);
    }

    #[test]
    fn representation_vectors() {
        let enc = encoder();
        let centroid = CodeRepresentation::Centroid
            .vector(&enc, ContextCode::new(1))
            .unwrap();
        assert_eq!(centroid.len(), 3);
        let onehot = CodeRepresentation::OneHot
            .vector(&enc, ContextCode::new(1))
            .unwrap();
        assert_eq!(onehot.len(), 4);
        assert_eq!(onehot.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
        assert!(CodeRepresentation::OneHot
            .vector(&enc, ContextCode::new(9))
            .is_err());
    }

    #[test]
    fn linucb_configurations_follow_the_representation() {
        let enc = encoder();
        let cfg = P2bConfig::new(3, 7);
        assert_eq!(cfg.local_linucb().context_dimension, 3);
        assert_eq!(cfg.local_linucb().num_actions, 7);
        assert_eq!(cfg.central_linucb(&enc).context_dimension, 3);
        let cfg = cfg.with_code_representation(CodeRepresentation::OneHot);
        assert_eq!(cfg.central_linucb(&enc).context_dimension, 4);
    }
}
