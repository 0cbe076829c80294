//! Disjoint-arm LinUCB (Li et al. 2010; Chu et al. 2011).

use crate::policy::{check_action, check_context, check_finite, check_reward, random_action};
use crate::{Action, BanditError, ContextualPolicy, Reward};
use p2b_linalg::{
    Matrix, RankOneInverse, ScoreArena, ScoreCounters, ScoreMemo, ScoreScratch, UpdateScratch,
    Vector,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of arm content stamps. Process-wide so that stamps drawn by
/// diverged clones of one model, or by unrelated models, can never collide
/// in a memo that meets both. `Relaxed`: the value publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

/// Configuration of a [`LinUcb`] policy.
///
/// `alpha` controls the exploration/exploitation trade-off exactly as in the
/// paper (α ≥ 0); the experiments all use α = 1. `regularizer` is the ridge
/// parameter λ of the per-arm design matrix `A_a = λI + Σ x xᵀ` (the paper
/// uses the standard λ = 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinUcbConfig {
    /// Context dimension `d`.
    pub context_dimension: usize,
    /// Number of arms `A`.
    pub num_actions: usize,
    /// Exploration parameter `α ≥ 0`.
    pub alpha: f64,
    /// Ridge regularization `λ > 0`.
    pub regularizer: f64,
}

impl LinUcbConfig {
    /// Creates a configuration with the paper's defaults (α = 1, λ = 1).
    ///
    /// ```
    /// let cfg = p2b_bandit::LinUcbConfig::new(10, 20);
    /// assert_eq!(cfg.alpha, 1.0);
    /// ```
    #[must_use]
    pub fn new(context_dimension: usize, num_actions: usize) -> Self {
        Self {
            context_dimension,
            num_actions,
            alpha: 1.0,
            regularizer: 1.0,
        }
    }

    /// Sets the exploration parameter α.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the ridge regularizer λ.
    #[must_use]
    pub fn with_regularizer(mut self, regularizer: f64) -> Self {
        self.regularizer = regularizer;
        self
    }

    fn validate(&self) -> Result<(), BanditError> {
        if self.context_dimension == 0 {
            return Err(BanditError::InvalidConfig {
                parameter: "context_dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_actions == 0 {
            return Err(BanditError::InvalidConfig {
                parameter: "num_actions",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(BanditError::InvalidConfig {
                parameter: "alpha",
                message: format!("must be a finite non-negative number, got {}", self.alpha),
            });
        }
        if !self.regularizer.is_finite() || self.regularizer <= 0.0 {
            return Err(BanditError::InvalidConfig {
                parameter: "regularizer",
                message: format!("must be a finite positive number, got {}", self.regularizer),
            });
        }
        Ok(())
    }
}

/// The sufficient statistics of `count` identical observations: the same
/// context vector was observed with the same action `count` times, with
/// rewards summing to `reward_sum`.
///
/// This is what LinUCB's ridge regression actually needs from repeated
/// observations: the design-matrix contribution is `count · x xᵀ` and the
/// reward-vector contribution is `reward_sum · x`, so a batch of `N` reports
/// over `K` distinct `(context, action)` pairs folds in `K` matrix
/// operations via [`LinUcb::update_batch_with`] instead of `N`.
///
/// # Example
///
/// ```
/// use p2b_bandit::{Action, CoalescedUpdate};
/// use p2b_linalg::Vector;
///
/// # fn main() -> Result<(), p2b_bandit::BanditError> {
/// // 12 identical observations with 9 total reward, folded as one update.
/// let update = CoalescedUpdate::new(Vector::from(vec![0.5, 0.5]), Action::new(1), 12, 9.0)?;
/// assert_eq!(update.count(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalescedUpdate {
    context: Vector,
    action: Action,
    count: u64,
    reward_sum: f64,
}

impl CoalescedUpdate {
    /// Creates a coalesced update.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] when `count` is zero or the
    /// context holds a NaN or infinite coordinate (one such update would
    /// poison its arm's design for good), and [`BanditError::InvalidReward`]
    /// when `reward_sum` is not a finite number in `[0, count]` — the only
    /// range reachable by summing `count` rewards that each lie in `[0, 1]`.
    pub fn new(
        context: Vector,
        action: Action,
        count: u64,
        reward_sum: f64,
    ) -> Result<Self, BanditError> {
        if count == 0 {
            return Err(BanditError::InvalidConfig {
                parameter: "count",
                message: "a coalesced update must cover at least one observation".to_owned(),
            });
        }
        check_finite(&context)?;
        if !reward_sum.is_finite() || reward_sum < 0.0 || reward_sum > count as f64 {
            return Err(BanditError::InvalidReward { reward: reward_sum });
        }
        Ok(Self {
            context,
            action,
            count,
            reward_sum,
        })
    }

    /// The shared context vector of the coalesced observations.
    #[must_use]
    pub fn context(&self) -> &Vector {
        &self.context
    }

    /// The shared action of the coalesced observations.
    #[must_use]
    pub fn action(&self) -> Action {
        self.action
    }

    /// How many identical observations this update folds.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum of the observed rewards.
    #[must_use]
    pub fn reward_sum(&self) -> f64 {
        self.reward_sum
    }
}

/// Explicit per-arm sufficient statistics for
/// [`LinUcb::from_sufficient_statistics`]: a design matrix `A_a`, a reward
/// vector `b_a`, and a pull count.
///
/// This is the exchange format of the central-DP trust model: a curator
/// accumulates the exact statistics, perturbs them (e.g. through a
/// tree-aggregation release), and rebuilds a servable model from the noisy
/// copies. The design matrix must be symmetric positive definite;
/// [`ArmStatistics::from_leaf`] symmetrizes and ridge-shifts a summed
/// [`ArmStatistics::leaf`] until it is.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStatistics {
    /// The design matrix `A_a = λI + Σ x xᵀ` (possibly noisy).
    pub design: Matrix,
    /// The reward vector `b_a = Σ r·x` (possibly noisy).
    pub reward_vector: Vector,
    /// Number of pulls the statistics summarize.
    pub pulls: u64,
}

impl ArmStatistics {
    /// Builds positive-definite statistics from a symmetric Gram block
    /// `Σ x xᵀ` that noise or quantization may have left indefinite: the
    /// design is `gram + (regularizer + boost)·I`, with `boost` escalating
    /// 0, 1, 2, 4, … until the design factors. Doubling terminates quickly
    /// because the shift soon dominates the largest negative eigenvalue.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::Linalg`] when no boost up to `1e12` yields a
    /// positive-definite design (a non-finite or mis-shaped Gram block).
    pub fn with_ridge_repair(
        gram: &Matrix,
        reward_vector: Vector,
        pulls: u64,
        regularizer: f64,
    ) -> Result<Self, BanditError> {
        let mut boost = 0.0f64;
        loop {
            let mut design = gram.clone();
            for i in 0..gram.rows().min(gram.cols()) {
                design.set(i, i, design.get(i, i) + regularizer + boost);
            }
            match RankOneInverse::from_matrix(&design) {
                Ok(_) => {
                    return Ok(Self {
                        design,
                        reward_vector,
                        pulls,
                    })
                }
                Err(_) if boost < 1e12 => {
                    boost = if boost == 0.0 { 1.0 } else { boost * 2.0 };
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Length of the flat statistics leaf of a `dimension`-dimensional arm:
    /// `d²` Gram coordinates, `d` reward coordinates and one pull counter.
    #[must_use]
    pub const fn leaf_dimension(dimension: usize) -> usize {
        dimension * dimension + dimension + 1
    }

    /// The flat leaf `[n·vec(x xᵀ) | s·x | n]` that `count = n` observations
    /// of `context = x` with reward sum `s` add to an arm's statistics — the
    /// one layout every aggregating regime (tree curator, secure-aggregation
    /// shards) sums and [`ArmStatistics::from_leaf`] reads back.
    ///
    /// The context is clipped to the unit L2 ball and the reward sum clamped
    /// to `[0, n]`, so every coordinate is bounded by `n` and a single
    /// report (`n = 1`) has L2 norm at most `√3`.
    #[must_use]
    pub fn leaf(context: &Vector, count: u64, reward_sum: f64) -> Vec<f64> {
        let d = context.len();
        let norm = context.norm2();
        let scale = if norm > 1.0 { 1.0 / norm } else { 1.0 };
        let count = count as f64;
        let reward_sum = reward_sum.clamp(0.0, count);
        let mut leaf = vec![0.0f64; Self::leaf_dimension(d)];
        for i in 0..d {
            let xi = context[i] * scale;
            for j in 0..d {
                leaf[i * d + j] = count * (xi * (context[j] * scale));
            }
            leaf[d * d + i] = reward_sum * xi;
        }
        leaf[d * d + d] = count;
        leaf
    }

    /// Rebuilds positive-definite statistics from a summed (and possibly
    /// noised or quantized) leaf in the [`ArmStatistics::leaf`] layout. The
    /// Gram block is symmetrized as `(g_ij + g_ji) / 2` — per-coordinate
    /// noise is not symmetric even though `x xᵀ` is, and the average is an
    /// exact no-op on an already symmetric block — the pull counter is
    /// rounded and floored at zero, and the design goes through
    /// [`ArmStatistics::with_ridge_repair`].
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] when `leaf` is not
    /// [`ArmStatistics::leaf_dimension`]`(dimension)` long, and propagates
    /// the ridge repair's error.
    pub fn from_leaf(
        leaf: &[f64],
        dimension: usize,
        regularizer: f64,
    ) -> Result<Self, BanditError> {
        let d = dimension;
        if leaf.len() != Self::leaf_dimension(d) {
            return Err(BanditError::InvalidConfig {
                parameter: "leaf",
                message: format!(
                    "a dimension-{d} statistics leaf has {} coordinates, got {}",
                    Self::leaf_dimension(d),
                    leaf.len()
                ),
            });
        }
        let mut gram = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                gram.set(i, j, (leaf[i * d + j] + leaf[j * d + i]) / 2.0);
            }
        }
        let reward_vector = Vector::from(leaf[d * d..d * d + d].to_vec());
        let pulls = leaf[d * d + d].round().max(0.0) as u64;
        Self::with_ridge_repair(&gram, reward_vector, pulls, regularizer)
    }
}

/// One arm's running sums as an ingest shard folds them: the design
/// `A = λI + Σ n·x xᵀ`, the reward vector `b = Σ s·x`, the pulls `Σ n`, the
/// number of folds, and the prior λ the design started from.
///
/// No inverse, θ or score lanes: a shard only accumulates, and
/// [`LinUcb::set_arm`] inverts once per epoch. A fold runs exactly the
/// design and reward-vector arithmetic of [`LinUcb::update_batch_with`], and
/// the fold count is the update count that fold would leave on the arm's
/// inverse, so an installed arm refreshes on the same schedule as a merged
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSums {
    design: Matrix,
    reward_vector: Vector,
    pulls: u64,
    folds: u64,
    regularizer: f64,
}

impl ArmSums {
    /// Cold sums for one arm of a model of the given configuration: design
    /// `λI`, zero reward vector, no pulls, no folds.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for invalid configurations.
    pub fn new(config: &LinUcbConfig) -> Result<Self, BanditError> {
        config.validate()?;
        let d = config.context_dimension;
        Ok(Self {
            design: Matrix::identity(d).scaled(config.regularizer),
            reward_vector: Vector::zeros(d),
            pulls: 0,
            folds: 0,
            regularizer: config.regularizer,
        })
    }

    /// Folds one coalesced update: `A += n·x xᵀ`, `b += s·x`. The update's
    /// action is the caller's to route; it is not read here.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] for a mis-sized
    /// context, leaving the sums untouched.
    pub fn fold(&mut self, update: &CoalescedUpdate) -> Result<(), BanditError> {
        check_context(self.reward_vector.len(), update.context())?;
        self.design
            .add_outer_product(update.context(), update.count() as f64)?;
        self.reward_vector
            .axpy(update.reward_sum(), update.context())?;
        self.pulls += update.count();
        self.folds += 1;
        Ok(())
    }
}

/// Per-arm sufficient statistics: `A_a⁻¹` (incrementally maintained) and
/// `b_a`, plus the ridge estimate `θ_a = A_a⁻¹ b_a` cached by
/// [`LinUcb::sync_arm`].
#[derive(Debug, Clone, PartialEq)]
struct Arm {
    inverse: RankOneInverse,
    reward_vector: Vector,
    theta: Vector,
    pulls: u64,
}

impl Arm {
    fn new(dimension: usize, regularizer: f64) -> Result<Self, BanditError> {
        Ok(Self {
            inverse: RankOneInverse::identity(dimension, regularizer)?,
            reward_vector: Vector::zeros(dimension),
            theta: Vector::zeros(dimension),
            pulls: 0,
        })
    }

    fn update(&mut self, context: &Vector, reward: Reward) -> Result<(), BanditError> {
        self.inverse.update(context)?;
        self.reward_vector.axpy(reward, context)?;
        self.pulls += 1;
        Ok(())
    }
}

/// Reusable buffers for allocation-free action selection
/// ([`LinUcb::select_action_with`]), plus a memo of the last sweep.
///
/// One `SelectScratch` serves models of any shape: buffers grow on demand.
/// It remembers the context, α, per-arm content stamps and scores of its
/// last full sweep ([`ScoreMemo`]), so a repeated context re-scores only the
/// arms written since, each off the arm's own inverse and θ. An arm's stamp
/// changes whenever the arm is written and stamps are unique across the
/// process, so a remembered score is always the score a sweep would
/// recompute: a fresh scratch and a warm one produce bit-identical
/// selections and consume the same randomness, against any sequence of
/// models, stale score mirrors included — the in-crate `memo_agreement`
/// suite pins this. Only the cost differs, and [`SelectScratch::counters`]
/// reports it.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    memo: ScoreMemo,
    ties: Vec<usize>,
}

impl SelectScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative sweeps and arms scored through this scratch — the
    /// machine-independent cost of the decisions it served.
    #[must_use]
    pub fn counters(&self) -> ScoreCounters {
        self.memo.counters()
    }
}

/// Reusable scratch buffers for the allocation-free ingest path
/// ([`LinUcb::update_batch_with`]).
///
/// Wraps a linalg [`UpdateScratch`] (the `A⁻¹x` fold lane and the refresh
/// factor/column buffers) plus the per-batch touched-arm tracking used to
/// defer arm syncs to once per touched arm per batch. One `IngestScratch`
/// serves models of any shape; like every scratch in this crate it carries
/// no behavioral state — a fresh scratch and a warm one produce bit-identical
/// models.
#[derive(Debug, Clone, Default)]
pub struct IngestScratch {
    linalg: UpdateScratch,
    /// Per-arm "touched this batch" flags; sized to `num_actions` on use.
    dirty: Vec<bool>,
    /// Arm indices touched by the last [`LinUcb::update_batch_with`] call,
    /// in order of first touch.
    touched: Vec<usize>,
}

impl IngestScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm indices touched by the most recent [`LinUcb::update_batch_with`]
    /// call, in order of first touch: the arms whose θ and stamp the batch
    /// re-synced.
    #[must_use]
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Resets the per-batch touch tracking for a model with `num_actions` arms.
    fn begin_batch(&mut self, num_actions: usize) {
        self.dirty.clear();
        self.dirty.resize(num_actions, false);
        self.touched.clear();
    }
}

/// Shared argmax-with-ties rule: the historical LinUCB tie-breaking
/// semantics, kept in one place so the select paths can never drift.
///
/// Scores within `1e-12` of the running best are collected as ties; a single
/// winner is returned without consuming randomness, multiple winners draw
/// one uniform index, and an all-NaN score vector falls back to a uniform
/// random action (unreachable with validated inputs, but the policy stays
/// total).
fn pick_best(
    scores: &[f64],
    ties: &mut Vec<usize>,
    num_actions: usize,
    rng: &mut dyn rand::RngCore,
) -> Action {
    let mut best_score = f64::NEG_INFINITY;
    ties.clear();
    for (idx, &score) in scores.iter().enumerate() {
        if score > best_score + 1e-12 {
            best_score = score;
            ties.clear();
            ties.push(idx);
        } else if (score - best_score).abs() <= 1e-12 {
            ties.push(idx);
        }
    }
    if ties.is_empty() {
        return random_action(num_actions, rng);
    }
    let choice = if ties.len() == 1 {
        ties[0]
    } else {
        use rand::Rng as _;
        ties[(*rng).gen_range(0..ties.len())]
    };
    Action::new(choice)
}

/// The disjoint-arm LinUCB contextual bandit.
///
/// Every arm `a` keeps ridge-regression statistics `(A_a, b_a)`; the policy
/// proposes the arm with the highest upper confidence bound
/// `θ_aᵀ x + α √(xᵀ A_a⁻¹ x)` and updates only the chosen arm's statistics.
/// Ties are broken uniformly at random, which matters in the early cold-start
/// rounds where all arms share identical statistics.
///
/// # Scoring path
///
/// Every arm keeps its own inverse and cached `θ_a = A_a⁻¹ b_a`, re-derived
/// after each mutation together with a fresh content stamp. Selection reads
/// a flat, element-major [`ScoreArena`] that mirrors them, so one pass
/// scores all arms without allocating ([`LinUcb::select_action_with`]). The
/// mirror is shared by clones: a mutation writes the arm's lanes only while
/// this model owns the mirror alone, and otherwise leaves them stale, so a
/// promoted clone never copies the mirror to change one arm. A sweep
/// re-scores every stale arm off the arm's own state with the one-arm
/// kernel, which also re-scores the arms a caller's [`SelectScratch`] finds
/// re-stamped since it last scored the same context. The trait
/// [`ContextualPolicy::select_action`] and a published epoch snapshot bring
/// the mirror up to date first ([`LinUcb::sync_mirror`]);
/// [`LinUcb::stale_lanes`] counts what is left. The per-arm
/// [`RankOneInverse`] state is the f64 source of truth; the crate's
/// test-only oracle evaluates the scalar one-arm-at-a-time rule against it,
/// and the in-crate `select_agreement` and `memo_agreement` suites pin
/// sweep, memo, stale mirror and oracle bit-for-bit equal.
///
/// # Example
///
/// ```
/// use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig};
/// use p2b_linalg::Vector;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), p2b_bandit::BanditError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut policy = LinUcb::new(LinUcbConfig::new(2, 2).with_alpha(0.5))?;
/// for _ in 0..20 {
///     let context = Vector::from(vec![1.0, 0.0]);
///     let action = policy.select_action(&context, &mut rng)?;
///     // Arm 1 is always better in this toy environment.
///     let reward = if action.index() == 1 { 1.0 } else { 0.0 };
///     policy.update(&context, action, reward)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinUcb {
    config: LinUcbConfig,
    /// Per-arm statistics behind `Arc` so cloning a model (epoch snapshot
    /// publication) is O(arms) pointer bumps, not O(arms·d²) copies, and
    /// arms untouched between epochs share storage across snapshots.
    /// Mutation goes through `Arc::make_mut` (copy-on-write).
    arms: Vec<Arc<Arm>>,
    observations: u64,
    /// Per-arm content stamps, drawn by [`LinUcb::sync_arm`] whenever the
    /// arm changes; see the `p2b_linalg` arena's stamp invariant.
    stamps: Vec<u64>,
    /// Flat scoring mirror of all arms (inverse + cached θ), element-major.
    /// Derived state, shared across clones: a model writes an arm's lanes
    /// only while it is the mirror's only owner, and otherwise leaves them
    /// stale rather than copy the mirror.
    arena: Arc<ScoreArena>,
}

impl LinUcb {
    /// Creates a cold-start LinUCB policy.
    ///
    /// # Example
    ///
    /// A minimal pull/update loop:
    ///
    /// ```
    /// use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig};
    /// use p2b_linalg::Vector;
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), p2b_bandit::BanditError> {
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let mut policy = LinUcb::new(LinUcbConfig::new(3, 4))?;
    /// let context = Vector::from(vec![0.5, 0.3, 0.2]);
    /// let action = policy.select_action(&context, &mut rng)?;
    /// policy.update(&context, action, 1.0)?;
    /// assert_eq!(policy.observations(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for invalid configurations.
    pub fn new(config: LinUcbConfig) -> Result<Self, BanditError> {
        config.validate()?;
        let arms = (0..config.num_actions)
            .map(|_| Arm::new(config.context_dimension, config.regularizer).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let arena = Arc::new(ScoreArena::new(
            config.num_actions,
            config.context_dimension,
        )?);
        let mut policy = Self {
            config,
            arms,
            observations: 0,
            stamps: vec![0; config.num_actions],
            arena,
        };
        for idx in 0..policy.config.num_actions {
            policy.sync_arm(idx)?;
        }
        Ok(policy)
    }

    /// Builds a LinUCB policy directly from explicit per-arm sufficient
    /// statistics instead of replaying observations.
    ///
    /// Each arm's inverse is recovered with one Cholesky factorization of
    /// the provided design matrix ([`RankOneInverse::from_matrix`]); the
    /// reward vectors and pull counts are adopted as-is, and the model's
    /// observation count is the sum of the pulls. This is how a central-DP
    /// curator publishes a servable snapshot assembled from noisy
    /// tree-aggregation releases.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for an invalid configuration,
    /// a statistics count differing from `num_actions`, or mis-shaped
    /// matrices/vectors, and [`BanditError::Linalg`] when a design matrix is
    /// not symmetric positive definite.
    pub fn from_sufficient_statistics(
        config: LinUcbConfig,
        statistics: &[ArmStatistics],
    ) -> Result<Self, BanditError> {
        config.validate()?;
        if statistics.len() != config.num_actions {
            return Err(BanditError::InvalidConfig {
                parameter: "statistics",
                message: format!(
                    "expected statistics for {} arms, got {}",
                    config.num_actions,
                    statistics.len()
                ),
            });
        }
        let d = config.context_dimension;
        let mut arms = Vec::with_capacity(statistics.len());
        let mut observations = 0u64;
        for (idx, stats) in statistics.iter().enumerate() {
            if stats.design.rows() != d || stats.design.cols() != d {
                return Err(BanditError::InvalidConfig {
                    parameter: "design",
                    message: format!(
                        "arm {idx}: expected a {d}x{d} design matrix, got {}x{}",
                        stats.design.rows(),
                        stats.design.cols()
                    ),
                });
            }
            if stats.reward_vector.len() != d {
                return Err(BanditError::InvalidConfig {
                    parameter: "reward_vector",
                    message: format!(
                        "arm {idx}: expected a length-{d} reward vector, got {}",
                        stats.reward_vector.len()
                    ),
                });
            }
            arms.push(Arc::new(Arm {
                inverse: RankOneInverse::from_matrix(&stats.design)?,
                reward_vector: stats.reward_vector.clone(),
                theta: Vector::zeros(d),
                pulls: stats.pulls,
            }));
            observations += stats.pulls;
        }
        let arena = Arc::new(ScoreArena::new(config.num_actions, d)?);
        let mut policy = Self {
            config,
            arms,
            observations,
            stamps: vec![0; config.num_actions],
            arena,
        };
        for idx in 0..policy.config.num_actions {
            policy.sync_arm(idx)?;
        }
        Ok(policy)
    }

    /// Re-derives arm `idx`'s cached θ from its `RankOneInverse` source of
    /// truth and draws the arm a new content stamp. Must be called after
    /// every mutation of that arm; every mutating method in this impl does
    /// so — it is the one place a stale [`SelectScratch`] memo is
    /// invalidated.
    ///
    /// The arm's arena lanes are written only when this model is the
    /// mirror's only owner (`Arc::get_mut`); a mirror shared with a clone is
    /// never copied here, the arm's lanes are left stale, and every read
    /// scores the arm off its own state instead. θ is recomputed with the
    /// exact `A⁻¹ b` matvec the historical path ran at selection time, so
    /// cached and recomputed values are bit-identical.
    fn sync_arm(&mut self, idx: usize) -> Result<(), BanditError> {
        // Every caller has just written the arm through `Arc::make_mut` or
        // replaced it, so this copies nothing.
        let arm = Arc::make_mut(&mut self.arms[idx]);
        arm.inverse
            .solve_into(arm.reward_vector.as_slice(), arm.theta.as_mut_slice())?;
        let stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        self.stamps[idx] = stamp;
        if let Some(arena) = Arc::get_mut(&mut self.arena) {
            arena.load_arm(idx, arm.inverse.inverse(), arm.theta.as_slice(), stamp)?;
        }
        Ok(())
    }

    /// Brings the score arena up to date: loads every stale arm's lanes,
    /// copying the mirror first (once) if another model shares it. A model
    /// about to be swept many times — a published snapshot, the trait
    /// [`ContextualPolicy::select_action`] — calls this so that its sweeps
    /// read every arm off the lanes. A no-op when nothing is stale.
    ///
    /// # Errors
    ///
    /// Propagates arena shape errors (unreachable for a model built by this
    /// type).
    pub fn sync_mirror(&mut self) -> Result<(), BanditError> {
        if self.stale_lanes() == 0 {
            return Ok(());
        }
        let arena = Arc::make_mut(&mut self.arena);
        for (idx, (arm, &stamp)) in self.arms.iter().zip(&self.stamps).enumerate() {
            if arena.loaded_stamps()[idx] != stamp {
                arena.load_arm(idx, arm.inverse.inverse(), arm.theta.as_slice(), stamp)?;
            }
        }
        Ok(())
    }

    /// Arms whose score-arena lanes are stale: written since this model last
    /// shared its mirror, and scored off their own state until
    /// [`LinUcb::sync_mirror`]. A machine-independent cost counter, zero for
    /// a model that owns its mirror alone.
    #[must_use]
    pub fn stale_lanes(&self) -> usize {
        let loaded = self.arena.loaded_stamps().iter();
        loaded
            .zip(&self.stamps)
            .filter(|(loaded, stamp)| loaded != stamp)
            .count()
    }

    /// Every arm's own inverse and cached θ: what a stale lane is scored
    /// from.
    fn own<'a>(&'a self) -> impl Fn(usize) -> (&'a Matrix, &'a [f64]) {
        |idx| {
            let arm = self.arms[idx].as_ref();
            (arm.inverse.inverse(), arm.theta.as_slice())
        }
    }

    /// The scores of every arm under `context`, through `memo`.
    fn memo_scores<'m>(
        &self,
        context: &Vector,
        memo: &'m mut ScoreMemo,
    ) -> Result<&'m [f64], BanditError> {
        Ok(self.arena.ucb_scores_memo(
            context.as_slice(),
            self.config.alpha,
            &self.stamps,
            self.own(),
            memo,
        )?)
    }

    /// The configuration the policy was built with.
    #[must_use]
    pub fn config(&self) -> &LinUcbConfig {
        &self.config
    }

    /// Number of times arm `action` has been pulled.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn pulls(&self, action: Action) -> Result<u64, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(self.arms[action.index()].pulls)
    }

    /// The ridge-regression point estimate `θ_a = A_a⁻¹ b_a` for an arm: a
    /// copy of the θ cached at the arm's last mutation, bit-equal to solving
    /// again.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn theta(&self, action: Action) -> Result<Vector, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(self.arms[action.index()].theta.clone())
    }

    /// Upper-confidence-bound scores for every arm under `context`.
    ///
    /// Exposed so that callers (e.g. the evaluation harness) can inspect the
    /// full score vector instead of just the argmax. Computed from the
    /// scoring arena, stale lanes re-scored off their arms' own state.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] for mis-sized contexts.
    pub fn scores(&self, context: &Vector) -> Result<Vec<f64>, BanditError> {
        check_context(self.config.context_dimension, context)?;
        let mut out = vec![0.0; self.config.num_actions];
        self.arena.ucb_scores_into(
            context.as_slice(),
            self.config.alpha,
            &self.stamps,
            self.own(),
            &mut ScoreScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// The accumulated design matrix `A_a = λI + Σ x xᵀ` of an arm — one half
    /// of its sufficient statistics.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn design(&self, action: Action) -> Result<&Matrix, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(self.arms[action.index()].inverse.design())
    }

    /// The accumulated reward vector `b_a = Σ r·x` of an arm — the other half
    /// of its sufficient statistics.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn reward_vector(&self, action: Action) -> Result<&Vector, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(&self.arms[action.index()].reward_vector)
    }

    /// Folds the sufficient statistics of `count` identical observations into
    /// the chosen arm in one weighted Sherman–Morrison step
    /// ([`RankOneInverse::update_weighted_with`]): `A_a += count·x xᵀ`,
    /// `b_a += reward_sum·x` — without the arm sync; the caller re-syncs
    /// the touched arm before the model is scored.
    ///
    /// Singleton groups remain bit-for-bit identical to the per-report
    /// [`ContextualPolicy::update`] path: a weight of exactly 1 runs the
    /// plain rank-1 update's arithmetic, and the reward-vector and pull
    /// arithmetic below coincide at `count == 1`.
    fn fold_coalesced(
        &mut self,
        update: &CoalescedUpdate,
        scratch: &mut UpdateScratch,
    ) -> Result<usize, BanditError> {
        check_context(self.config.context_dimension, update.context())?;
        check_action(self.config.num_actions, update.action())?;
        let idx = update.action().index();
        let arm = Arc::make_mut(&mut self.arms[idx]);
        arm.inverse
            .update_weighted_with(update.context(), update.count() as f64, scratch)?;
        arm.reward_vector
            .axpy(update.reward_sum(), update.context())?;
        arm.pulls += update.count();
        self.observations += update.count();
        Ok(idx)
    }

    /// The model-level batched ingestion primitive: folds a batch of
    /// coalesced sufficient statistics through a caller-owned
    /// [`IngestScratch`], syncing each touched arm **once per batch**. A
    /// shuffled batch of `N` anonymous reports grouped by `(code, action)`
    /// becomes `K ≤ N` coalesced updates, so the fold costs `O(K·d²)` instead
    /// of `O(N·d²)`. Returns the total number of observations folded.
    ///
    /// The resulting model is bit-identical to syncing after every fold
    /// (the test-only oracle the in-crate `update_agreement` suite pins this
    /// against): an arm's θ and arena lanes are a pure function of its final
    /// `(A⁻¹, b)` state, so syncing once after the last fold yields the same
    /// bits. What the deferral buys is cost: the per-mutation `O(d²)` solve
    /// (plus the arena scatter, when this model owns its mirror alone) is
    /// amortized over all of a batch's folds into the same arm.
    ///
    /// After the call, [`IngestScratch::touched`] lists the arms this batch
    /// mutated (in order of first touch).
    ///
    /// # Errors
    ///
    /// Propagates the first failing update; earlier folds in the batch stay
    /// applied and every arm touched before the failure is re-synced, so the
    /// model remains internally consistent.
    pub fn update_batch_with(
        &mut self,
        updates: &[CoalescedUpdate],
        scratch: &mut IngestScratch,
    ) -> Result<u64, BanditError> {
        scratch.begin_batch(self.config.num_actions);
        let mut folded = 0u64;
        let mut failure = None;
        for update in updates {
            match self.fold_coalesced(update, &mut scratch.linalg) {
                Ok(idx) => {
                    if !scratch.dirty[idx] {
                        scratch.dirty[idx] = true;
                        scratch.touched.push(idx);
                    }
                    folded += update.count();
                }
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        for i in 0..scratch.touched.len() {
            self.sync_arm(scratch.touched[i])?;
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(folded),
        }
    }

    /// Replaces arm `action` with a cold arm merged with `sums`: the
    /// arithmetic of [`LinUcb::merge`] for that one arm
    /// ([`RankOneInverse::merge_design`]: `A += D + (−λI)`, the arm's update
    /// count grows by the folds, one exact refresh of the inverse), then the
    /// arm sync. The model's observation count trades the old arm's pulls
    /// for the sums' pulls.
    ///
    /// This is the epoch assembly primitive: an ingest shard folds each arm
    /// it owns into one [`ArmSums`], and the assembled model installs every
    /// dirty arm from its owner with one refresh. A full merge of `M` shard
    /// models adds exactly `+0.0` to an arm from every shard that never
    /// folded it, so installing the owner's sums alone is bit-identical to
    /// that arm under the full merge.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions and
    /// [`BanditError::Linalg`] when `sums` has another dimension.
    pub fn set_arm(&mut self, action: Action, sums: &ArmSums) -> Result<(), BanditError> {
        check_action(self.config.num_actions, action)?;
        let mut arm = Arm::new(self.config.context_dimension, self.config.regularizer)?;
        arm.inverse
            .merge_design(&sums.design, sums.regularizer, sums.folds)?;
        arm.reward_vector = arm.reward_vector.add(&sums.reward_vector)?;
        arm.pulls = sums.pulls;
        let idx = action.index();
        self.observations = self.observations.saturating_sub(self.arms[idx].pulls) + sums.pulls;
        self.arms[idx] = Arc::new(arm);
        self.sync_arm(idx)
    }

    /// Proposes the arm with the highest upper confidence bound, using
    /// caller-provided scratch buffers, without allocating. When `scratch`
    /// last served this very context, only the arms mutated since are
    /// re-scored, off their own state; otherwise every arm is scored in one
    /// pass over the flat scoring arena, stale lanes re-scored after it. The
    /// argmax always runs over the full score vector, so the action and the
    /// randomness consumed do not depend on which.
    ///
    /// The selection rule never mutates the statistics — only the
    /// tie-breaking consumes randomness — so many agents can select against
    /// one shared, immutable model snapshot (e.g. behind an `Arc`) without
    /// cloning it. [`ContextualPolicy::select_action`] has no scratch to
    /// remember anything in: it brings the mirror up to date and always runs
    /// the one-pass sweep.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] for mis-sized
    /// contexts.
    pub fn select_action_with(
        &self,
        context: &Vector,
        rng: &mut dyn rand::RngCore,
        scratch: &mut SelectScratch,
    ) -> Result<Action, BanditError> {
        check_context(self.config.context_dimension, context)?;
        let scores = self.memo_scores(context, &mut scratch.memo)?;
        Ok(pick_best(
            scores,
            &mut scratch.ties,
            self.config.num_actions,
            rng,
        ))
    }

    /// Merges the sufficient statistics of another LinUCB model into this one.
    ///
    /// Merging per-shard models into a cold one rebuilds the model the
    /// shards' folds describe: the from-scratch reference that
    /// [`LinUcb::set_arm`] shares its arithmetic with. Warm agents do not
    /// merge; they read the central snapshot and clone it on first update.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] if the dimensions or arm counts
    /// differ.
    pub fn merge(&mut self, other: &LinUcb) -> Result<(), BanditError> {
        if other.config.context_dimension != self.config.context_dimension
            || other.config.num_actions != self.config.num_actions
        {
            return Err(BanditError::InvalidConfig {
                parameter: "merge",
                message: format!(
                    "incompatible models: ({}, {}) vs ({}, {})",
                    self.config.context_dimension,
                    self.config.num_actions,
                    other.config.context_dimension,
                    other.config.num_actions
                ),
            });
        }
        for (mine, theirs) in self.arms.iter_mut().zip(other.arms.iter()) {
            let mine = Arc::make_mut(mine);
            mine.inverse.merge(&theirs.inverse)?;
            mine.reward_vector = mine.reward_vector.add(&theirs.reward_vector)?;
            mine.pulls += theirs.pulls;
        }
        self.observations += other.observations;
        for idx in 0..self.config.num_actions {
            self.sync_arm(idx)?;
        }
        Ok(())
    }
}

impl ContextualPolicy for LinUcb {
    fn select_action(
        &mut self,
        context: &Vector,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Action, BanditError> {
        check_context(self.config.context_dimension, context)?;
        self.sync_mirror()?;
        let scores = self.scores(context)?;
        Ok(pick_best(
            &scores,
            &mut Vec::new(),
            self.config.num_actions,
            rng,
        ))
    }

    fn update(
        &mut self,
        context: &Vector,
        action: Action,
        reward: Reward,
    ) -> Result<(), BanditError> {
        check_context(self.config.context_dimension, context)?;
        check_finite(context)?;
        check_action(self.config.num_actions, action)?;
        check_reward(reward)?;
        Arc::make_mut(&mut self.arms[action.index()]).update(context, reward)?;
        self.observations += 1;
        self.sync_arm(action.index())?;
        Ok(())
    }

    fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod memo_agreement;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod select_agreement;
#[cfg(test)]
mod update_agreement;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(LinUcb::new(LinUcbConfig::new(0, 3)).is_err());
        assert!(LinUcb::new(LinUcbConfig::new(3, 0)).is_err());
        assert!(LinUcb::new(LinUcbConfig::new(3, 3).with_alpha(-1.0)).is_err());
        assert!(LinUcb::new(LinUcbConfig::new(3, 3).with_alpha(f64::NAN)).is_err());
        assert!(LinUcb::new(LinUcbConfig::new(3, 3).with_regularizer(0.0)).is_err());
    }

    #[test]
    fn learns_the_better_arm() {
        let mut rng = rng();
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let context = Vector::from(vec![0.7, 0.3]);
        // Arm 1 always pays, arm 0 never does.
        for _ in 0..200 {
            let a = policy.select_action(&context, &mut rng).unwrap();
            let r = if a.index() == 1 { 1.0 } else { 0.0 };
            policy.update(&context, a, r).unwrap();
        }
        // After training, exploitation should prefer arm 1.
        let scores = policy.scores(&context).unwrap();
        assert!(scores[1] > scores[0]);
        assert!(policy.pulls(Action::new(1)).unwrap() > policy.pulls(Action::new(0)).unwrap());
    }

    #[test]
    fn distinguishes_contexts() {
        let mut rng = rng();
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 2).with_alpha(0.2)).unwrap();
        let ctx_a = Vector::from(vec![1.0, 0.0]);
        let ctx_b = Vector::from(vec![0.0, 1.0]);
        for _ in 0..300 {
            for (ctx, good_arm) in [(&ctx_a, 0usize), (&ctx_b, 1usize)] {
                let a = policy.select_action(ctx, &mut rng).unwrap();
                let r = if a.index() == good_arm { 1.0 } else { 0.0 };
                policy.update(ctx, a, r).unwrap();
            }
        }
        let sa = policy.scores(&ctx_a).unwrap();
        let sb = policy.scores(&ctx_b).unwrap();
        assert!(sa[0] > sa[1], "context A should prefer arm 0: {sa:?}");
        assert!(sb[1] > sb[0], "context B should prefer arm 1: {sb:?}");
    }

    #[test]
    fn update_validates_inputs() {
        let mut policy = LinUcb::new(LinUcbConfig::new(3, 2)).unwrap();
        let ctx = Vector::zeros(3);
        assert!(policy
            .update(&Vector::zeros(2), Action::new(0), 0.5)
            .is_err());
        assert!(policy.update(&ctx, Action::new(5), 0.5).is_err());
        assert!(policy.update(&ctx, Action::new(0), 1.5).is_err());
        assert!(policy.update(&ctx, Action::new(0), 0.5).is_ok());
        assert_eq!(policy.observations(), 1);
    }

    #[test]
    fn a_non_finite_context_is_rejected_before_any_state_moves() {
        let mut policy = LinUcb::new(LinUcbConfig::new(3, 2)).unwrap();
        let valid = Vector::from(vec![0.1, 0.4, 0.2]);
        policy.update(&valid, Action::new(0), 1.0).unwrap();
        let arm = Action::new(0);
        let bits = |policy: &LinUcb| {
            let design: Vec<u64> = policy
                .design(arm)
                .unwrap()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let reward: Vec<u64> = policy
                .reward_vector(arm)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            (
                design,
                reward,
                policy.pulls(arm).unwrap(),
                policy.observations(),
            )
        };
        let before = bits(&policy);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = policy
                .update(&Vector::from(vec![0.1, bad, 0.2]), arm, 1.0)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    BanditError::InvalidConfig {
                        parameter: "context",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
            assert_eq!(bits(&policy), before, "{bad}");
        }
        assert!(policy.scores(&valid).unwrap().iter().all(|s| s.is_finite()));
        policy.update(&valid, arm, 0.5).unwrap();
        assert_eq!(policy.pulls(arm).unwrap(), 2);
        assert_eq!(policy.observations(), 2);
    }

    #[test]
    fn theta_recovers_linear_reward() {
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 1)).unwrap();
        // Reward is deterministic: r = 0.8*x0 + 0.2*x1.
        let contexts = [
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.5, 0.5]),
            Vector::from(vec![0.3, 0.7]),
        ];
        for _ in 0..50 {
            for ctx in &contexts {
                let r = 0.8 * ctx[0] + 0.2 * ctx[1];
                policy.update(ctx, Action::new(0), r).unwrap();
            }
        }
        let theta = policy.theta(Action::new(0)).unwrap();
        assert!((theta[0] - 0.8).abs() < 0.05, "theta = {theta}");
        assert!((theta[1] - 0.2).abs() < 0.05, "theta = {theta}");
    }

    #[test]
    fn merge_transfers_knowledge() {
        let mut rng = rng();
        let context = Vector::from(vec![0.5, 0.5]);

        // A "server" model trained on many interactions.
        let mut server = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        for _ in 0..100 {
            let a = server.select_action(&context, &mut rng).unwrap();
            let r = if a.index() == 0 { 1.0 } else { 0.0 };
            server.update(&context, a, r).unwrap();
        }

        // A fresh local agent merges the server model and should immediately
        // score arm 0 above arm 1.
        let mut local = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        local.merge(&server).unwrap();
        let scores = local.scores(&context).unwrap();
        assert!(scores[0] > scores[1]);
        assert_eq!(local.observations(), server.observations());
    }

    #[test]
    fn merge_rejects_incompatible_models() {
        let mut a = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let b = LinUcb::new(LinUcbConfig::new(3, 2)).unwrap();
        assert!(a.merge(&b).is_err());
        let c = LinUcb::new(LinUcbConfig::new(2, 4)).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn zero_alpha_is_greedy() {
        let mut rng = rng();
        let mut policy = LinUcb::new(LinUcbConfig::new(1, 2).with_alpha(0.0)).unwrap();
        let ctx = Vector::from(vec![1.0]);
        policy.update(&ctx, Action::new(0), 1.0).unwrap();
        policy.update(&ctx, Action::new(1), 0.0).unwrap();
        // With no exploration bonus the greedy arm must always be selected.
        for _ in 0..20 {
            assert_eq!(policy.select_action(&ctx, &mut rng).unwrap().index(), 0);
        }
    }

    #[test]
    fn coalesced_update_validates_its_inputs() {
        let ctx = Vector::from(vec![0.5, 0.5]);
        assert!(CoalescedUpdate::new(ctx.clone(), Action::new(0), 0, 0.0).is_err());
        assert!(CoalescedUpdate::new(ctx.clone(), Action::new(0), 3, -0.5).is_err());
        assert!(CoalescedUpdate::new(ctx.clone(), Action::new(0), 3, 3.5).is_err());
        assert!(CoalescedUpdate::new(ctx.clone(), Action::new(0), 3, f64::NAN).is_err());
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                CoalescedUpdate::new(Vector::from(vec![0.5, poison]), Action::new(0), 1, 1.0),
                Err(BanditError::InvalidConfig {
                    parameter: "context",
                    ..
                })
            ));
        }
        let ok = CoalescedUpdate::new(ctx, Action::new(1), 3, 3.0).unwrap();
        assert_eq!(ok.action().index(), 1);
        assert!((ok.reward_sum() - 3.0).abs() < 1e-12);

        let mut policy = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let mut scratch = IngestScratch::new();
        let wrong_dim = CoalescedUpdate::new(Vector::zeros(3), Action::new(0), 1, 0.5).unwrap();
        assert!(policy
            .update_batch_with(&[wrong_dim], &mut scratch)
            .is_err());
        let wrong_action = CoalescedUpdate::new(Vector::zeros(2), Action::new(7), 1, 0.5).unwrap();
        assert!(policy
            .update_batch_with(&[wrong_action], &mut scratch)
            .is_err());
    }

    #[test]
    fn singleton_coalesced_updates_are_bit_identical_to_sequential() {
        let contexts = [
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.3, 0.7]),
            Vector::from(vec![0.5, 0.5]),
        ];
        let mut sequential = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let mut coalesced = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let mut scratch = IngestScratch::new();
        for (i, ctx) in contexts.iter().enumerate() {
            let action = Action::new(i % 2);
            let reward = (i % 2) as f64;
            sequential.update(ctx, action, reward).unwrap();
            let singleton = CoalescedUpdate::new(ctx.clone(), action, 1, reward).unwrap();
            coalesced
                .update_batch_with(&[singleton], &mut scratch)
                .unwrap();
        }
        for a in 0..2 {
            assert_eq!(
                sequential.design(Action::new(a)).unwrap(),
                coalesced.design(Action::new(a)).unwrap()
            );
            assert_eq!(
                sequential.reward_vector(Action::new(a)).unwrap(),
                coalesced.reward_vector(Action::new(a)).unwrap()
            );
        }
        assert_eq!(sequential.observations(), coalesced.observations());
    }

    #[test]
    fn coalesced_batch_matches_per_report_ingestion() {
        // 40 reports over 4 distinct (context, action) groups.
        let groups = [
            (Vector::from(vec![1.0, 0.0]), 0usize, 14u64, 10.0),
            (Vector::from(vec![0.0, 1.0]), 1, 11, 0.0),
            (Vector::from(vec![0.5, 0.5]), 0, 9, 4.5),
            (Vector::from(vec![0.2, 0.8]), 1, 6, 6.0),
        ];
        let mut sequential = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        for (ctx, action, count, reward_sum) in &groups {
            let per_report = reward_sum / *count as f64;
            for _ in 0..*count {
                sequential
                    .update(ctx, Action::new(*action), per_report)
                    .unwrap();
            }
        }
        let updates: Vec<CoalescedUpdate> = groups
            .iter()
            .map(|(ctx, action, count, reward_sum)| {
                CoalescedUpdate::new(ctx.clone(), Action::new(*action), *count, *reward_sum)
                    .unwrap()
            })
            .collect();
        let mut coalesced = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let folded = coalesced
            .update_batch_with(&updates, &mut IngestScratch::new())
            .unwrap();
        assert_eq!(folded, 40);
        assert_eq!(coalesced.observations(), sequential.observations());
        for a in 0..2 {
            let action = Action::new(a);
            assert!(
                coalesced
                    .design(action)
                    .unwrap()
                    .max_abs_diff(sequential.design(action).unwrap())
                    .unwrap()
                    < 1e-9
            );
            let tc = coalesced.theta(action).unwrap();
            let ts = sequential.theta(action).unwrap();
            for i in 0..2 {
                assert!((tc[i] - ts[i]).abs() < 1e-9, "theta drifted: {tc} vs {ts}");
            }
            assert_eq!(
                coalesced.pulls(action).unwrap(),
                sequential.pulls(action).unwrap()
            );
        }
    }

    /// Selecting by shared reference against a frozen clone agrees with the
    /// `&mut self` trait path.
    #[test]
    fn select_action_ref_agrees_with_the_trait_path() {
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 3).with_alpha(0.1)).unwrap();
        let ctx = Vector::from(vec![0.9, 0.1]);
        for _ in 0..30 {
            policy.update(&ctx, Action::new(2), 1.0).unwrap();
            policy.update(&ctx, Action::new(0), 0.0).unwrap();
        }
        let frozen = policy.clone();
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut scratch = SelectScratch::new();
        for _ in 0..20 {
            let via_trait = policy.select_action(&ctx, &mut rng_a).unwrap();
            let via_ref = frozen
                .select_action_with(&ctx, &mut rng_b, &mut scratch)
                .unwrap();
            assert_eq!(via_trait, via_ref);
        }
    }

    #[test]
    fn from_sufficient_statistics_round_trips_a_trained_model() {
        let mut rng = rng();
        let mut trained = LinUcb::new(LinUcbConfig::new(2, 3)).unwrap();
        let contexts = [
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.3, 0.7]),
            Vector::from(vec![0.6, 0.4]),
        ];
        for i in 0..60 {
            let ctx = &contexts[i % contexts.len()];
            let a = trained.select_action(ctx, &mut rng).unwrap();
            let r = if a.index() == i % 3 { 1.0 } else { 0.0 };
            trained.update(ctx, a, r).unwrap();
        }
        let stats: Vec<ArmStatistics> = (0..3)
            .map(|a| ArmStatistics {
                design: trained.design(Action::new(a)).unwrap().clone(),
                reward_vector: trained.reward_vector(Action::new(a)).unwrap().clone(),
                pulls: trained.pulls(Action::new(a)).unwrap(),
            })
            .collect();
        let rebuilt = LinUcb::from_sufficient_statistics(*trained.config(), &stats).unwrap();
        assert_eq!(rebuilt.observations(), trained.observations());
        let ctx = Vector::from(vec![0.5, 0.5]);
        let a = trained.scores(&ctx).unwrap();
        let b = rebuilt.scores(&ctx).unwrap();
        // The rebuilt inverse comes from one Cholesky solve rather than the
        // incremental Sherman–Morrison chain, so scores agree to solver
        // precision, not bit-for-bit.
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "scores drifted: {a:?} vs {b:?}");
        }
        for arm in 0..3 {
            assert_eq!(
                rebuilt.pulls(Action::new(arm)).unwrap(),
                trained.pulls(Action::new(arm)).unwrap()
            );
        }
    }

    #[test]
    fn from_sufficient_statistics_validates_shapes() {
        let cfg = LinUcbConfig::new(2, 2);
        let good = ArmStatistics {
            design: Matrix::identity(2),
            reward_vector: Vector::zeros(2),
            pulls: 0,
        };
        // Wrong arm count.
        assert!(LinUcb::from_sufficient_statistics(cfg, std::slice::from_ref(&good)).is_err());
        // Wrong matrix shape.
        let bad_design = ArmStatistics {
            design: Matrix::identity(3),
            ..good.clone()
        };
        assert!(LinUcb::from_sufficient_statistics(cfg, &[good.clone(), bad_design]).is_err());
        // Wrong vector length.
        let bad_vector = ArmStatistics {
            reward_vector: Vector::zeros(3),
            ..good.clone()
        };
        assert!(LinUcb::from_sufficient_statistics(cfg, &[good.clone(), bad_vector]).is_err());
        // Non-SPD design matrix.
        let mut indefinite = Matrix::identity(2);
        indefinite.set(0, 0, -1.0);
        let non_spd = ArmStatistics {
            design: indefinite,
            ..good.clone()
        };
        assert!(matches!(
            LinUcb::from_sufficient_statistics(cfg, &[good, non_spd]),
            Err(BanditError::Linalg(_))
        ));
    }

    #[test]
    fn ridge_repair_escalates_to_an_spd_design_or_a_typed_error() {
        // Indefinite Gram (eigenvalues 3 and −3): λ = 1 alone cannot fix it,
        // the escalating boost must.
        let mut indefinite = Matrix::zeros(2, 2);
        indefinite.set(0, 1, 3.0);
        indefinite.set(1, 0, 3.0);
        let repaired =
            ArmStatistics::with_ridge_repair(&indefinite, Vector::zeros(2), 5, 1.0).unwrap();
        assert_eq!(repaired.pulls, 5);
        assert_eq!(repaired.design.get(0, 1), 3.0, "only the diagonal shifts");
        // Boosts 1 and 2 still fail to factor; 4 succeeds.
        assert_eq!(repaired.design.get(0, 0), 1.0 + 4.0);
        let cfg = LinUcbConfig::new(2, 1);
        assert!(LinUcb::from_sufficient_statistics(cfg, &[repaired]).is_ok());

        // An already-SPD Gram gets exactly λI, no boost.
        let clean =
            ArmStatistics::with_ridge_repair(&Matrix::identity(2), Vector::zeros(2), 0, 1.0)
                .unwrap();
        assert_eq!(clean.design.get(1, 1), 2.0);

        // A NaN Gram can never factor: the loop stops at the cap with the
        // typed error instead of spinning or publishing a NaN model.
        let mut poisoned = Matrix::identity(2);
        poisoned.set(1, 1, f64::NAN);
        assert!(matches!(
            ArmStatistics::with_ridge_repair(&poisoned, Vector::zeros(2), 0, 1.0),
            Err(BanditError::Linalg(_))
        ));
    }

    #[test]
    fn statistics_leaf_is_the_curator_leaf_and_round_trips() {
        // (i) The unit leaf is, bit for bit, the expression the central-DP
        // curator filled its tree leaves with before the layout moved here.
        fn curator_leaf(context: &Vector, reward: f64) -> Vec<f64> {
            let d = context.len();
            let norm = context.norm2();
            let scale = if norm > 1.0 { 1.0 / norm } else { 1.0 };
            let mut leaf = vec![0.0f64; d * d + d + 1];
            for i in 0..d {
                let xi = context[i] * scale;
                for j in 0..d {
                    leaf[i * d + j] = xi * (context[j] * scale);
                }
                leaf[d * d + i] = reward.clamp(0.0, 1.0) * xi;
            }
            leaf[d * d + d] = 1.0;
            leaf
        }
        let inside = Vector::from(vec![0.3, -0.4, 0.1]);
        let outside = Vector::from(vec![2.0, -1.5, 0.25]); // clipped to the unit ball
        for context in [&inside, &outside, &Vector::zeros(3)] {
            for reward in [-0.5, 0.0, 0.37, 1.0, 1.7] {
                let leaf = ArmStatistics::leaf(context, 1, reward);
                let oracle = curator_leaf(context, reward);
                assert_eq!(leaf.len(), ArmStatistics::leaf_dimension(3));
                for (k, (a, b)) in leaf.iter().zip(&oracle).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "coordinate {k}, reward {reward}");
                }
            }
        }

        // (ii) A group (x, n, s) is the sum of its n unit leaves.
        let rewards = [1.0, 0.0, 1.0, 0.25, 0.0];
        for context in [&inside, &outside] {
            let group = ArmStatistics::leaf(context, 5, rewards.iter().sum());
            let mut summed = vec![0.0f64; group.len()];
            for &reward in &rewards {
                for (total, term) in summed
                    .iter_mut()
                    .zip(ArmStatistics::leaf(context, 1, reward))
                {
                    *total += term;
                }
            }
            for (k, (a, b)) in group.iter().zip(&summed).enumerate() {
                assert!((a - b).abs() < 1e-12, "coordinate {k}: {a} vs {b}");
            }
        }

        // (iii) The symmetrizing decoder returns an already symmetric Gram
        // bit for bit (plus exactly λ on the diagonal), so the secure path,
        // whose decoded Gram is symmetric, can share it with the noisy one.
        let mut leaf = ArmStatistics::leaf(&inside, 3, 2.0);
        for (total, term) in leaf.iter_mut().zip(ArmStatistics::leaf(&outside, 2, 0.5)) {
            *total += term;
        }
        let statistics = ArmStatistics::from_leaf(&leaf, 3, 1.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let gram = leaf[i * 3 + j];
                let expected = if i == j { gram + 1.0 } else { gram };
                assert_eq!(statistics.design.get(i, j).to_bits(), expected.to_bits());
            }
            assert_eq!(statistics.reward_vector[i].to_bits(), leaf[9 + i].to_bits());
        }
        assert_eq!(statistics.pulls, 5);
        // An asymmetric (noised) block is averaged, a negative noisy pull
        // count floors at zero, and a mis-sized leaf is a typed error.
        let noisy = [1.0, 0.5, 1.5, 1.0, 0.0, 0.0, -0.6];
        let repaired = ArmStatistics::from_leaf(&noisy, 2, 1.0).unwrap();
        assert_eq!(repaired.design.get(0, 1), 1.0);
        assert_eq!(repaired.design.get(1, 0), 1.0);
        assert_eq!(repaired.pulls, 0);
        assert!(matches!(
            ArmStatistics::from_leaf(&noisy, 3, 1.0),
            Err(BanditError::InvalidConfig {
                parameter: "leaf",
                ..
            })
        ));
    }

    /// The arms that `clone` no longer shares with `source`.
    fn unshared_arms(clone: &LinUcb, source: &LinUcb) -> Vec<usize> {
        let pairs = clone.arms.iter().zip(&source.arms).enumerate();
        pairs
            .filter(|(_, (mine, theirs))| !Arc::ptr_eq(mine, theirs))
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Copy-on-write cost as counts: the score mirror a write copies shows as
    /// a change of `Arc` identity, the arms it copies as unshared arms.
    #[test]
    fn a_clones_first_update_copies_one_arm_and_no_mirror() {
        let ctx = Vector::from(vec![0.6, 0.3, 0.1]);
        let mut source = LinUcb::new(LinUcbConfig::new(3, 4)).unwrap();
        source.update(&ctx, Action::new(1), 1.0).unwrap();
        let mut clone = source.clone();
        clone.update(&ctx, Action::new(2), 0.5).unwrap();
        assert!(
            Arc::ptr_eq(&clone.arena, &source.arena),
            "0 mirror bytes copied"
        );
        assert_eq!(unshared_arms(&clone, &source), vec![2]);
        assert_eq!((clone.stale_lanes(), source.stale_lanes()), (1, 0));
        // The written arm is current everywhere but in the shared lanes.
        assert_eq!(
            clone.theta(Action::new(2)).unwrap(),
            clone.arms[2]
                .inverse
                .solve(&clone.arms[2].reward_vector)
                .unwrap()
        );
        assert_eq!(
            clone.scores(&ctx).unwrap(),
            clone.scores_reference(&ctx).unwrap()
        );
    }

    #[test]
    fn a_sole_owner_writes_through() {
        let ctx = Vector::from(vec![0.2, 0.8]);
        let mut model = LinUcb::new(LinUcbConfig::new(2, 3)).unwrap();
        let mut other = LinUcb::new(LinUcbConfig::new(2, 3)).unwrap();
        other.update(&ctx, Action::new(0), 1.0).unwrap();
        assert_eq!(model.stale_lanes(), 0);
        model.update(&ctx, Action::new(1), 1.0).unwrap();
        assert_eq!(model.stale_lanes(), 0);
        let batch = [CoalescedUpdate::new(ctx.clone(), Action::new(2), 3, 2.0).unwrap()];
        model
            .update_batch_with(&batch, &mut IngestScratch::new())
            .unwrap();
        assert_eq!(model.stale_lanes(), 0);
        model.merge(&other).unwrap();
        assert_eq!(model.stale_lanes(), 0);
        let mut sums = ArmSums::new(model.config()).unwrap();
        sums.fold(&batch[0]).unwrap();
        model.set_arm(Action::new(0), &sums).unwrap();
        assert_eq!(model.stale_lanes(), 0);
        // A clone that is gone shares nothing: the next write goes through.
        let arena = Arc::as_ptr(&model.arena);
        drop(model.clone());
        model.update(&ctx, Action::new(1), 0.0).unwrap();
        assert_eq!(model.stale_lanes(), 0);
        assert_eq!(Arc::as_ptr(&model.arena), arena);
    }

    #[test]
    fn the_trait_select_copies_a_stale_mirror_once_then_writes_through() {
        let mut rng = rng();
        let ctx = Vector::from(vec![0.5, 0.5]);
        let mut source = LinUcb::new(LinUcbConfig::new(2, 3)).unwrap();
        source.update(&ctx, Action::new(0), 1.0).unwrap();
        // A clone with nothing stale sweeps the shared mirror as it is.
        let mut reader = source.clone();
        reader.select_action(&ctx, &mut rng).unwrap();
        assert!(Arc::ptr_eq(&reader.arena, &source.arena));

        let mut clone = source.clone();
        clone.update(&ctx, Action::new(1), 1.0).unwrap();
        assert_eq!(clone.stale_lanes(), 1);
        let mut copies = 0;
        let mut mirror = Arc::as_ptr(&clone.arena);
        for round in 0..6 {
            clone.select_action(&ctx, &mut rng).unwrap();
            assert_eq!(clone.stale_lanes(), 0);
            if Arc::as_ptr(&clone.arena) != mirror {
                copies += 1;
                mirror = Arc::as_ptr(&clone.arena);
            }
            clone.update(&ctx, Action::new(round % 3), 0.5).unwrap();
            assert_eq!(clone.stale_lanes(), 0, "a private mirror is written");
        }
        assert_eq!(copies, 1);
        assert!(!Arc::ptr_eq(&clone.arena, &source.arena));
        assert_eq!(source.stale_lanes(), 0);
    }

    #[test]
    fn cold_start_breaks_ties_randomly() {
        let mut rng = rng();
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 10)).unwrap();
        let ctx = Vector::from(vec![0.5, 0.5]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(policy.select_action(&ctx, &mut rng).unwrap().index());
        }
        // All arms have identical statistics, so over 100 draws we should see
        // substantially more than one distinct arm.
        assert!(seen.len() > 3, "tie-breaking looks deterministic: {seen:?}");
    }
}
