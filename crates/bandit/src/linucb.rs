//! Disjoint-arm LinUCB (Li et al. 2010; Chu et al. 2011).

use crate::policy::{check_action, check_context, check_finite, check_reward, random_action};
use crate::{Action, BanditError, ContextualPolicy, Reward};
use p2b_linalg::{Cholesky, LinalgError, Matrix, Vector};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

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

/// One arm's sufficient statistics — the one currency every regime hands
/// the central model: the design `A = λI + Σ n·x xᵀ` (the prior `λI` it
/// started from included), the reward vector `b = Σ s·x` and the pulls
/// `Σ n`.
///
/// Two sources fill it. An ingest shard folds released cells into it
/// ([`ArmSums::fold`]); the aggregating regimes (the central-DP curator's
/// tree, the secure-aggregation shards) sum flat statistics leaves
/// ([`ArmSums::leaf`]) and read the (possibly noised or quantized) total
/// back as a built arm ([`BuiltArm::from_leaf`]). No factor, θ or score
/// lanes: the sums only accumulate, and [`LinUcb::set_arm`] — the one way
/// sums become a model — factors the design once, so any two paths that
/// build from the same sums build the same arm, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSums {
    design: Matrix,
    reward_vector: Vector,
    pulls: u64,
}

impl ArmSums {
    /// Cold sums for one arm of a model of the given configuration: design
    /// `λI`, zero reward vector, no pulls.
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
        })
    }

    /// Folds `count = n` identical observations of `context = x` whose
    /// rewards sum to `reward_sum = s`: `A += n·x xᵀ`, `b += s·x` — `N`
    /// reports over `K` distinct `(x, a)` groups fold in `K` matrix
    /// operations instead of `N`. The one fold kernel: the model service's
    /// shards and the matrix's P2B channel fold released cells with it,
    /// `x` read off a finite-checked centroid table. The caller validates:
    /// a finite `x` (one NaN poisons the design for good), `n ≥ 1` and `s`
    /// in `[0, n]`, as a released cell guarantees; the arm is the caller's
    /// to route.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] for a mis-sized
    /// context, leaving the sums untouched.
    pub fn fold(
        &mut self,
        context: &Vector,
        count: u64,
        reward_sum: f64,
    ) -> Result<(), BanditError> {
        check_context(self.reward_vector.len(), context)?;
        self.design.add_outer_product(context, count as f64)?;
        self.reward_vector.axpy(reward_sum, context)?;
        self.pulls += count;
        Ok(())
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
    /// shards) sums and [`BuiltArm::from_leaf`] reads back.
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
}

/// Decodes a summed leaf in the [`ArmSums::leaf`] layout: the Gram block is
/// symmetrized as `(g_ij + g_ji) / 2` — per-coordinate noise is not
/// symmetric even though `x xᵀ` is, and the average is an exact no-op on an
/// already symmetric block — and ridge-repaired ([`ridge_repaired`]); the
/// pull counter is rounded and floored at zero. Returns the repaired
/// design, its factor, the reward vector and the pulls.
fn decode_leaf(
    leaf: &[f64],
    config: &LinUcbConfig,
) -> Result<(Matrix, Cholesky, Vector, u64), BanditError> {
    config.validate()?;
    let d = config.context_dimension;
    if leaf.len() != ArmSums::leaf_dimension(d) {
        return Err(BanditError::InvalidConfig {
            parameter: "leaf",
            message: format!(
                "a dimension-{d} statistics leaf has {} coordinates, got {}",
                ArmSums::leaf_dimension(d),
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
    let (design, factor) = ridge_repaired(&gram, config.regularizer)?;
    let reward_vector = Vector::from(leaf[d * d..d * d + d].to_vec());
    let pulls = leaf[d * d + d].round().max(0.0) as u64;
    Ok((design, factor, reward_vector, pulls))
}

/// The positive-definite design `gram + (regularizer + boost)·I` of a
/// symmetric Gram block that noise or quantization may have left
/// indefinite, with its factor: `boost` escalates 0, 1, 2, 4, … until the
/// design factors (doubling terminates quickly because the shift soon
/// dominates the largest negative eigenvalue), up to `1e12`.
fn ridge_repaired(gram: &Matrix, regularizer: f64) -> Result<(Matrix, Cholesky), BanditError> {
    let mut boost = 0.0f64;
    loop {
        let mut design = gram.clone();
        for i in 0..gram.rows().min(gram.cols()) {
            design.set(i, i, design.get(i, i) + regularizer + boost);
        }
        match Cholesky::new(&design) {
            Ok(factor) => return Ok((design, factor)),
            Err(_) if boost < 1e12 => {
                boost = if boost == 0.0 { 1.0 } else { boost * 2.0 };
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// One arm: the Cholesky factor of its design `A_a = LDLᵀ`, which a fold
/// updates in place, the reward vector `b_a`, the ridge estimate
/// `θ_a = A_a⁻¹ b_a` cached by [`LinUcb::sync_arm`], and the pulls.
#[derive(Debug, Clone, PartialEq)]
struct Arm {
    factor: Cholesky,
    reward_vector: Vector,
    theta: Vector,
    pulls: u64,
}

impl Arm {
    /// The arm of a factor, a reward vector and pulls, θ solved.
    fn new(factor: Cholesky, reward_vector: Vector, pulls: u64) -> Result<Self, BanditError> {
        let mut arm = Self {
            theta: Vector::zeros(reward_vector.len()),
            factor,
            reward_vector,
            pulls,
        };
        arm.solve_theta()?;
        Ok(arm)
    }

    /// A cold arm: the factor of the prior `λI`, bit for bit the factor of
    /// cold [`ArmSums`].
    fn cold(config: &LinUcbConfig) -> Result<Self, BanditError> {
        let d = config.context_dimension;
        let factor = Cholesky::scaled_identity(d, config.regularizer)?;
        Self::new(factor, Vector::zeros(d), 0)
    }

    /// Folds one observation: `A += x xᵀ` into the factor, `b += r·x`.
    /// θ is the fold's scratch lane, so it is stale until the caller
    /// re-solves it ([`LinUcb::sync_arm`]).
    fn update(&mut self, context: &Vector, reward: Reward) -> Result<(), BanditError> {
        let lane = self.theta.as_mut_slice();
        self.factor.rank_one_update(context.as_slice(), lane)?;
        self.reward_vector.axpy(reward, context)?;
        self.pulls += 1;
        Ok(())
    }

    /// Re-derives the cached θ from the factor: two triangular solves.
    fn solve_theta(&mut self) -> Result<(), BanditError> {
        self.factor
            .solve_into(self.reward_vector.as_slice(), self.theta.as_mut_slice())?;
        Ok(())
    }

    /// The arm's upper confidence bound `θᵀx + α·√(xᵀA⁻¹x)` off its own
    /// factor and cached θ: the bonus by one forward solve into `lane`, then
    /// the estimate from zero in `i` order. The one score kernel; the
    /// crate's test-only oracle pins it bit for bit against solving θ
    /// afresh.
    fn ucb_score(&self, x: &[f64], alpha: f64, lane: &mut [f64]) -> Result<f64, BanditError> {
        let bonus = self.factor.quadratic_form_inverse(x, lane)?;
        let mut estimate = 0.0;
        for (&t, &xi) in self.theta.as_slice().iter().zip(x) {
            estimate += t * xi;
        }
        Ok(estimate + alpha * bonus.sqrt())
    }
}

/// A model arm built from [`ArmSums`] or a summed leaf, θ solved, not yet
/// part of any model: the pure half of [`LinUcb::set_arm`], which can run
/// on any thread — the model service's shards build their dirty arms with
/// it — while [`LinUcb::install_arm`], the cheap half, puts the arm into a
/// model. It remembers the thread that built it, so an install on that
/// thread moves the arm in and an install on any other copies it.
#[derive(Debug, Clone)]
pub struct BuiltArm {
    arm: Arc<Arm>,
    built_on: ThreadId,
}

impl BuiltArm {
    /// Builds the arm a model of `config` installs from `sums`: the factor
    /// of the sums' design, factored once, then θ = `A⁻¹ b`.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for an invalid configuration
    /// and [`BanditError::Linalg`] when `sums` has another dimension or a
    /// design that is not positive definite.
    pub fn new(config: &LinUcbConfig, sums: &ArmSums) -> Result<Self, BanditError> {
        config.validate()?;
        let d = config.context_dimension;
        if sums.design.rows() != d || sums.reward_vector.len() != d {
            return Err(LinalgError::DimensionMismatch {
                expected: (d, d),
                found: (sums.design.rows(), sums.reward_vector.len()),
            }
            .into());
        }
        let factor = Cholesky::new(&sums.design)?;
        let arm = Arm::new(factor, sums.reward_vector.clone(), sums.pulls)?;
        Ok(Self::on_this_thread(arm))
    }

    /// `arm`, recorded as built on the calling thread.
    fn on_this_thread(arm: Arm) -> Self {
        Self {
            arm: Arc::new(arm),
            built_on: thread::current().id(),
        }
    }

    /// Builds the arm a model of `config` installs from a summed (and
    /// possibly noised or quantized) leaf in the [`ArmSums::leaf`] layout.
    /// The Gram block is symmetrized as `(g_ij + g_ji) / 2` and
    /// ridge-repaired: the design is `gram + (λ + boost)·I`, with `boost`
    /// escalating 0, 1, 2, 4, … until the design has a Cholesky factor, and
    /// that factor is the arm's. The pull counter is rounded and floored at
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for an invalid configuration
    /// or a leaf that is not [`ArmSums::leaf_dimension`]`(d)` long, and
    /// [`BanditError::Linalg`] when no boost up to `1e12` yields a
    /// positive-definite design (a non-finite Gram block).
    pub fn from_leaf(leaf: &[f64], config: &LinUcbConfig) -> Result<Self, BanditError> {
        let (_, factor, reward_vector, pulls) = decode_leaf(leaf, config)?;
        let arm = Arm::new(factor, reward_vector, pulls)?;
        Ok(Self::on_this_thread(arm))
    }
}

/// Reusable buffers for allocation-free action selection
/// ([`LinUcb::select_action_with`]), and a memo of the last score vector.
///
/// One `SelectScratch` serves models of any shape: buffers grow on demand.
/// It remembers the context's and α's bit patterns (compared by `to_bits`,
/// so `-0.0` and NaN payloads cannot alias), each arm's content stamp and
/// the scores it last computed, so a repeated context re-scores only the
/// arms re-stamped since; any other context, α or arm count re-scores every
/// arm. An arm's stamp changes whenever the arm is written and stamps are
/// unique across the process, so two arms with equal stamps have bit-equal
/// factor and θ, and a remembered score is always the score a fresh scratch
/// would recompute: a fresh scratch and a warm one produce bit-identical
/// selections and consume the same randomness, against any sequence of
/// models — the in-crate `memo_agreement` suite pins this. Only the cost
/// differs, and [`SelectScratch::arms_scored`] reports it.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    context_bits: Vec<u64>,
    alpha_bits: u64,
    stamps: Vec<u64>,
    scores: Vec<f64>,
    ties: Vec<usize>,
    /// The score kernel's forward-solve lane.
    lane: Vec<f64>,
    arms_scored: u64,
}

impl SelectScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms scored through this scratch so far — the machine-independent
    /// cost of the decisions it served. Deterministic for a fixed call
    /// sequence.
    #[must_use]
    pub fn arms_scored(&self) -> u64 {
        self.arms_scored
    }

    /// Whether the remembered scores are of `arms` arms against exactly this
    /// context and α. An empty scratch holds no stamps, so it matches
    /// nothing.
    fn remembers(&self, arms: usize, x: &[f64], alpha: f64) -> bool {
        self.stamps.len() == arms
            && self.alpha_bits == alpha.to_bits()
            && (self.context_bits.iter().copied()).eq(x.iter().map(|value| value.to_bits()))
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
/// Every arm keeps its own factor and cached `θ_a = A_a⁻¹ b_a`, re-derived
/// after each mutation together with a fresh content stamp. One kernel
/// scores an arm off that state; [`LinUcb::scores`] maps it over the arms,
/// and [`LinUcb::select_action_with`] runs it through a caller's
/// [`SelectScratch`], which re-scores only the arms re-stamped since it last
/// scored the same context. A clone shares every arm until it writes one, so
/// a promoted clone copies only the arms it writes. The per-arm
/// [`Cholesky`] factor is the f64 source of truth; the crate's
/// test-only oracle evaluates the scalar one-arm-at-a-time rule against it,
/// and the in-crate `select_agreement` and `memo_agreement` suites pin
/// memo, fresh scratch and oracle bit-for-bit equal.
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
    /// Per-arm content stamps, drawn from the process-wide [`NEXT_STAMP`]
    /// whenever the arm changes, so two arms with equal stamps have bit-equal
    /// factor and θ in any two models of the process: what a
    /// [`SelectScratch`] memo trusts.
    stamps: Vec<u64>,
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
            .map(|_| Arm::cold(&config).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let mut policy = Self {
            config,
            arms,
            observations: 0,
            stamps: vec![0; config.num_actions],
        };
        for idx in 0..policy.config.num_actions {
            policy.stamp_arm(idx);
        }
        Ok(policy)
    }

    /// Re-derives arm `idx`'s cached θ from its factor and draws the arm a
    /// new content stamp. Must be called after every mutation of that arm's
    /// statistics; every mutating method in this impl does so — it is the
    /// one place a stale [`SelectScratch`] memo is invalidated. θ is solved
    /// with the one solve kernel, so cached and recomputed values are
    /// bit-identical.
    fn sync_arm(&mut self, idx: usize) -> Result<(), BanditError> {
        // Every caller has just written the arm through `Arc::make_mut`, so
        // this copies nothing.
        Arc::make_mut(&mut self.arms[idx]).solve_theta()?;
        self.stamp_arm(idx);
        Ok(())
    }

    /// Draws arm `idx` a new content stamp: the half of [`LinUcb::sync_arm`]
    /// that follows the θ solve.
    fn stamp_arm(&mut self, idx: usize) {
        self.stamps[idx] = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Brings `scratch`'s remembered scores up to date for every arm under
    /// `context`: when it last scored this very context and α over as many
    /// arms, only the arms re-stamped since are re-scored
    /// (`O(changed · d²)`); otherwise every arm is. Either way the scores are
    /// bit-for-bit those of [`LinUcb::scores`]. The caller has checked the
    /// context's length.
    fn refresh_memo(
        &self,
        context: &Vector,
        scratch: &mut SelectScratch,
    ) -> Result<(), BanditError> {
        let (x, alpha) = (context.as_slice(), self.config.alpha);
        scratch.lane.resize(x.len(), 0.0);
        if scratch.remembers(self.arms.len(), x, alpha) {
            let fresh = scratch.stamps.iter_mut().zip(&self.stamps);
            for (idx, (seen, &stamp)) in fresh.enumerate() {
                if *seen != stamp {
                    scratch.scores[idx] = self.arms[idx].ucb_score(x, alpha, &mut scratch.lane)?;
                    *seen = stamp;
                    scratch.arms_scored += 1;
                }
            }
        } else {
            // Forgotten first, so a scoring that fails leaves no half-written
            // scores behind a remembered context.
            scratch.stamps.clear();
            scratch.scores.clear();
            for arm in &self.arms {
                scratch
                    .scores
                    .push(arm.ucb_score(x, alpha, &mut scratch.lane)?);
            }
            scratch.context_bits.clear();
            (scratch.context_bits).extend(x.iter().map(|value| value.to_bits()));
            scratch.alpha_bits = alpha.to_bits();
            scratch.stamps.extend_from_slice(&self.stamps);
            scratch.arms_scored += self.arms.len() as u64;
        }
        Ok(())
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
    /// full score vector instead of just the argmax. Every arm is scored off
    /// its own factor and cached θ.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] for mis-sized contexts.
    pub fn scores(&self, context: &Vector) -> Result<Vec<f64>, BanditError> {
        check_context(self.config.context_dimension, context)?;
        let (x, alpha) = (context.as_slice(), self.config.alpha);
        let mut lane = vec![0.0; x.len()];
        self.arms
            .iter()
            .map(|arm| arm.ucb_score(x, alpha, &mut lane))
            .collect()
    }

    /// The Cholesky factor of an arm's design `A_a = λI + Σ x xᵀ = LDLᵀ`
    /// — what the arm keeps of its design.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn factor(&self, action: Action) -> Result<&Cholesky, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(&self.arms[action.index()].factor)
    }

    /// The accumulated reward vector `b_a = Σ r·x` of an arm.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions.
    pub fn reward_vector(&self, action: Action) -> Result<&Vector, BanditError> {
        check_action(self.config.num_actions, action)?;
        Ok(&self.arms[action.index()].reward_vector)
    }

    /// Replaces arm `action` with the arm of `sums`: the composition of its
    /// two halves, [`BuiltArm::new`] (one factorization of the sums' design,
    /// θ solve) and [`LinUcb::install_arm`] (move, stamp). The model's
    /// observation count trades the old arm's pulls for the sums' pulls.
    ///
    /// This is the one way sums become a model. The model service's shards
    /// build every dirty arm they own at each epoch assembly and the
    /// service installs them;
    /// the central-DP curator and the secure-aggregation service install
    /// every arm of a cold model from the leaves they release
    /// ([`BuiltArm::from_leaf`]). Two paths that install the same sums
    /// install the same bits; the in-crate `update_agreement` suite holds
    /// an install within a stated bound of a test-only merge of per-report
    /// models.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions and
    /// [`BanditError::Linalg`] when `sums` has another dimension or a design
    /// that is not positive definite; the model is left untouched.
    pub fn set_arm(&mut self, action: Action, sums: &ArmSums) -> Result<(), BanditError> {
        check_action(self.config.num_actions, action)?;
        self.install_arm(action, BuiltArm::new(&self.config, sums)?)
    }

    /// Installs a built arm as arm `action` — the cheap half of
    /// [`LinUcb::set_arm`]: no factorization and no solve, only a fresh
    /// content stamp. An arm built on this thread is moved in; one built on
    /// another thread is copied into this thread's allocations, so the
    /// building thread's heap keeps nothing that outlives the install,
    /// whatever the model's lifetime.
    /// The model's observation count trades the old arm's pulls for the
    /// built arm's.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions and
    /// [`BanditError::ContextDimensionMismatch`] for an arm built for
    /// another dimension; the model is left untouched. The arm is installed
    /// as built, so build it with the model's configuration.
    pub fn install_arm(&mut self, action: Action, built: BuiltArm) -> Result<(), BanditError> {
        check_action(self.config.num_actions, action)?;
        check_context(self.config.context_dimension, &built.arm.reward_vector)?;
        let idx = action.index();
        self.observations =
            self.observations.saturating_sub(self.arms[idx].pulls) + built.arm.pulls;
        self.arms[idx] = if built.built_on == thread::current().id() {
            built.arm
        } else {
            Arc::new(Arm::clone(&built.arm))
        };
        self.stamp_arm(idx);
        Ok(())
    }

    /// Proposes the arm with the highest upper confidence bound, using
    /// caller-provided scratch buffers, without allocating once they are
    /// warm. When `scratch` last served this very context, only the arms
    /// mutated since are re-scored; otherwise every arm is. The argmax always
    /// runs over the full score vector, so the action and the randomness
    /// consumed do not depend on which.
    ///
    /// The selection rule never mutates the statistics — only the
    /// tie-breaking consumes randomness — so many agents can select against
    /// one shared, immutable model snapshot (e.g. behind an `Arc`) without
    /// cloning it. [`ContextualPolicy::select_action`] is this call with a
    /// fresh scratch.
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
        self.refresh_memo(context, scratch)?;
        Ok(pick_best(
            &scratch.scores,
            &mut scratch.ties,
            self.config.num_actions,
            rng,
        ))
    }
}

impl ContextualPolicy for LinUcb {
    fn select_action(
        &mut self,
        context: &Vector,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Action, BanditError> {
        self.select_action_with(context, rng, &mut SelectScratch::new())
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
mod factor_agreement;
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
            let factor: Vec<u64> = policy
                .factor(arm)
                .unwrap()
                .packed()
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
                factor,
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
    fn fold_and_set_arm_reject_mis_shaped_inputs() {
        let mut policy = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        let mut sums = ArmSums::new(policy.config()).unwrap();
        assert!(matches!(
            sums.fold(&Vector::zeros(3), 1, 0.5),
            Err(BanditError::ContextDimensionMismatch { .. })
        ));
        assert_eq!(sums, ArmSums::new(policy.config()).unwrap());
        sums.fold(&Vector::zeros(2), 1, 0.5).unwrap();
        assert!(policy.set_arm(Action::new(7), &sums).is_err());
        assert_eq!(policy.observations(), 0);
    }

    /// Single-report sums are the per-report statistics bit for bit (reward
    /// vectors, pulls, observations); the factor installed from their design
    /// and the factor folded report by report agree to rounding.
    #[test]
    fn singleton_coalesced_updates_are_bit_identical_to_sequential() {
        let contexts = [
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![0.3, 0.7]),
            Vector::from(vec![0.5, 0.5]),
        ];
        let config = LinUcbConfig::new(2, 2);
        let mut sequential = LinUcb::new(config).unwrap();
        let mut coalesced = LinUcb::new(config).unwrap();
        let mut sums = vec![ArmSums::new(&config).unwrap(); 2];
        for (i, ctx) in contexts.iter().enumerate() {
            let action = Action::new(i % 2);
            let reward = (i % 2) as f64;
            sequential.update(ctx, action, reward).unwrap();
            sums[i % 2].fold(ctx, 1, reward).unwrap();
            coalesced.set_arm(action, &sums[i % 2]).unwrap();
        }
        for a in 0..2 {
            let (folded, installed) = (
                sequential.factor(Action::new(a)).unwrap(),
                coalesced.factor(Action::new(a)).unwrap(),
            );
            for (x, y) in folded.packed().iter().zip(installed.packed()) {
                assert!((x - y).abs() < 1e-12, "factor drifted: {x} vs {y}");
            }
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
        let mut sums = vec![ArmSums::new(sequential.config()).unwrap(); 2];
        for (ctx, action, count, reward_sum) in &groups {
            sums[*action].fold(ctx, *count, *reward_sum).unwrap();
        }
        let mut coalesced = LinUcb::new(LinUcbConfig::new(2, 2)).unwrap();
        for (arm, arm_sums) in sums.iter().enumerate() {
            coalesced.set_arm(Action::new(arm), arm_sums).unwrap();
        }
        assert_eq!(coalesced.observations(), 40);
        assert_eq!(coalesced.observations(), sequential.observations());
        for a in 0..2 {
            let action = Action::new(a);
            assert!(
                (coalesced.factor(action).unwrap().reconstruct())
                    .max_abs_diff(&sequential.factor(action).unwrap().reconstruct())
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
        // The trained arms' statistics as sums: the designs their factors
        // stand for.
        let mut rebuilt = LinUcb::new(*trained.config()).unwrap();
        for a in 0..3 {
            let action = Action::new(a);
            let sums = ArmSums {
                design: trained.factor(action).unwrap().reconstruct(),
                reward_vector: trained.reward_vector(action).unwrap().clone(),
                pulls: trained.pulls(action).unwrap(),
            };
            rebuilt.set_arm(action, &sums).unwrap();
        }
        assert_eq!(rebuilt.observations(), trained.observations());
        let ctx = Vector::from(vec![0.5, 0.5]);
        let a = trained.scores(&ctx).unwrap();
        let b = rebuilt.scores(&ctx).unwrap();
        // The rebuilt factor comes from one factorization of LDLᵀ rather than
        // the chain of rank-one updates, so scores agree to solver
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
        let good = ArmSums::new(&cfg).unwrap();
        let mut model = LinUcb::new(cfg).unwrap();
        let pristine = model.clone();
        // An arm the model does not have.
        assert!(matches!(
            model.set_arm(Action::new(2), &good),
            Err(BanditError::InvalidAction { .. })
        ));
        // Wrong matrix shape.
        let bad_design = ArmSums::new(&LinUcbConfig::new(3, 2)).unwrap();
        assert!(model.set_arm(Action::new(0), &bad_design).is_err());
        // Wrong vector length.
        let bad_vector = ArmSums {
            reward_vector: Vector::zeros(3),
            ..good.clone()
        };
        assert!(model.set_arm(Action::new(0), &bad_vector).is_err());
        // Non-SPD design matrix.
        let mut indefinite = Matrix::identity(2);
        indefinite.set(0, 0, -1.0);
        let non_spd = ArmSums {
            design: indefinite,
            ..good.clone()
        };
        assert!(matches!(
            model.set_arm(Action::new(1), &non_spd),
            Err(BanditError::Linalg(_))
        ));
        // A rejected install leaves the model as it was.
        for arm in 0..2 {
            let action = Action::new(arm);
            assert_eq!(model.factor(action), pristine.factor(action));
            assert_eq!(model.theta(action), pristine.theta(action));
        }
        assert!(model.set_arm(Action::new(1), &good).is_ok());
    }

    #[test]
    fn ridge_repair_escalates_to_an_spd_design_or_a_typed_error() {
        // Indefinite Gram (eigenvalues 3 and −3): λ = 1 alone cannot fix it,
        // the escalating boost must.
        let mut indefinite = Matrix::zeros(2, 2);
        indefinite.set(0, 1, 3.0);
        indefinite.set(1, 0, 3.0);
        let (repaired, factor) = ridge_repaired(&indefinite, 1.0).unwrap();
        assert_eq!(
            factor,
            Cholesky::new(&repaired).unwrap(),
            "the repair's factor"
        );
        assert_eq!(repaired.get(0, 1), 3.0, "only the diagonal shifts");
        // Boosts 1 and 2 still fail to factor; 4 succeeds.
        assert_eq!(repaired.get(0, 0), 1.0 + 4.0);
        let cfg = LinUcbConfig::new(2, 1);
        let sums = ArmSums {
            design: repaired,
            ..ArmSums::new(&cfg).unwrap()
        };
        assert!(LinUcb::new(cfg)
            .unwrap()
            .set_arm(Action::new(0), &sums)
            .is_ok());

        // An already-SPD Gram gets exactly λI, no boost.
        let (clean, _) = ridge_repaired(&Matrix::identity(2), 1.0).unwrap();
        assert_eq!(clean.get(1, 1), 2.0);

        // A NaN Gram can never factor: the loop stops at the cap with the
        // typed error instead of spinning or publishing a NaN model.
        let mut poisoned = Matrix::identity(2);
        poisoned.set(1, 1, f64::NAN);
        assert!(matches!(
            ridge_repaired(&poisoned, 1.0),
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
                let leaf = ArmSums::leaf(context, 1, reward);
                let oracle = curator_leaf(context, reward);
                assert_eq!(leaf.len(), ArmSums::leaf_dimension(3));
                for (k, (a, b)) in leaf.iter().zip(&oracle).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "coordinate {k}, reward {reward}");
                }
            }
        }

        // (ii) A group (x, n, s) is the sum of its n unit leaves.
        let rewards = [1.0, 0.0, 1.0, 0.25, 0.0];
        for context in [&inside, &outside] {
            let group = ArmSums::leaf(context, 5, rewards.iter().sum());
            let mut summed = vec![0.0f64; group.len()];
            for &reward in &rewards {
                for (total, term) in summed.iter_mut().zip(ArmSums::leaf(context, 1, reward)) {
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
        let mut leaf = ArmSums::leaf(&inside, 3, 2.0);
        for (total, term) in leaf.iter_mut().zip(ArmSums::leaf(&outside, 2, 0.5)) {
            *total += term;
        }
        let statistics = ArmSums::from_leaf(&leaf, &LinUcbConfig::new(3, 1)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let gram = leaf[i * 3 + j];
                let expected = if i == j { gram + 1.0 } else { gram };
                assert_eq!(statistics.design.get(i, j).to_bits(), expected.to_bits());
            }
            assert_eq!(statistics.reward_vector[i].to_bits(), leaf[9 + i].to_bits());
        }
        assert_eq!(statistics.pulls, 5);
        // The built arm's factor is the factor of the decoded design.
        let built = BuiltArm::from_leaf(&leaf, &LinUcbConfig::new(3, 1)).unwrap();
        assert_eq!(built.arm.factor, Cholesky::new(&statistics.design).unwrap());
        assert_eq!(built.arm.reward_vector, statistics.reward_vector);
        assert_eq!(built.arm.pulls, statistics.pulls);
        // An asymmetric (noised) block is averaged, a negative noisy pull
        // count floors at zero, and a mis-sized leaf is a typed error.
        let noisy = [1.0, 0.5, 1.5, 1.0, 0.0, 0.0, -0.6];
        let repaired = ArmSums::from_leaf(&noisy, &LinUcbConfig::new(2, 1)).unwrap();
        assert_eq!(repaired.design.get(0, 1), 1.0);
        assert_eq!(repaired.design.get(1, 0), 1.0);
        assert_eq!(repaired.pulls, 0);
        assert!(matches!(
            ArmSums::from_leaf(&noisy, &LinUcbConfig::new(3, 1)),
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

    /// Copy-on-write cost as counts: the arms a write copies show as
    /// unshared arms. A model keeps no second copy of its arms' state, so
    /// there is no mirror left to copy.
    #[test]
    fn a_clones_first_update_copies_one_arm_and_no_mirror() {
        let ctx = Vector::from(vec![0.6, 0.3, 0.1]);
        let mut source = LinUcb::new(LinUcbConfig::new(3, 4)).unwrap();
        source.update(&ctx, Action::new(1), 1.0).unwrap();
        let mut clone = source.clone();
        assert!(unshared_arms(&clone, &source).is_empty());
        let stamps = source.stamps.clone();
        clone.update(&ctx, Action::new(2), 0.5).unwrap();
        assert_eq!(unshared_arms(&clone, &source), vec![2]);
        // Only the written arm is re-stamped, and only in the clone.
        assert_eq!(source.stamps, stamps);
        let restamped: Vec<usize> = (0..4).filter(|&a| clone.stamps[a] != stamps[a]).collect();
        assert_eq!(restamped, vec![2]);
        assert_eq!(
            clone.theta(Action::new(2)).unwrap(),
            clone.arms[2]
                .factor
                .solve(&clone.arms[2].reward_vector)
                .unwrap()
        );
        assert_eq!(
            clone.scores(&ctx).unwrap(),
            clone.scores_reference(&ctx).unwrap()
        );
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    /// A model of `arms` arms trained on five deterministic contexts each.
    fn trained(arms: usize, dim: usize) -> LinUcb {
        let mut model = LinUcb::new(LinUcbConfig::new(dim, arms)).unwrap();
        for a in 0..arms {
            for t in 0..5 {
                let x: Vector = (0..dim)
                    .map(|k| ((a * 31 + t * 7 + k * 3) % 11) as f64 / 11.0)
                    .collect();
                let reward = ((a + t) % 3) as f64 / 2.0;
                model.update(&x, Action::new(a), reward).unwrap();
            }
        }
        model
    }

    /// The scores `scratch` remembers for `context` once brought up to date.
    fn through(model: &LinUcb, context: &[f64], scratch: &mut SelectScratch) -> Vec<u64> {
        model
            .refresh_memo(&Vector::from(context.to_vec()), scratch)
            .unwrap();
        bits(&scratch.scores)
    }

    /// The scores of a fresh scratch, which scores every arm.
    fn fresh(model: &LinUcb, context: &[f64]) -> Vec<u64> {
        through(model, context, &mut SelectScratch::new())
    }

    fn reference(model: &LinUcb, context: &[f64]) -> Vec<u64> {
        bits(
            &model
                .scores_reference(&Vector::from(context.to_vec()))
                .unwrap(),
        )
    }

    #[test]
    fn scores_are_bit_identical_to_the_scalar_reference() {
        let mut model = trained(7, 6);
        let x: Vec<f64> = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        let context = Vector::from(x.clone());
        assert_eq!(
            bits(&model.scores(&context).unwrap()),
            reference(&model, &x)
        );
        assert_eq!(fresh(&model, &x), reference(&model, &x));
        // Two arms written while a clone shares them: still bit for bit, in
        // the writer and in the clone.
        let clone = model.clone();
        for arm in [1usize, 4] {
            model.update(&context, Action::new(arm), 1.0).unwrap();
        }
        assert_eq!(unshared_arms(&model, &clone), vec![1, 4]);
        for model in [&model, &clone] {
            assert_eq!(bits(&model.scores(&context).unwrap()), reference(model, &x));
            assert_eq!(fresh(model, &x), reference(model, &x));
        }
    }

    #[test]
    fn memo_rescores_only_restamped_arms_and_matches_a_fresh_scratch() {
        let mut model = trained(7, 6);
        let x: Vec<f64> = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        let context = Vector::from(x.clone());
        let mut memo = SelectScratch::new();

        assert_eq!(through(&model, &x, &mut memo), fresh(&model, &x));
        assert_eq!(memo.arms_scored(), 7);
        // Nothing written since: nothing scored.
        assert_eq!(through(&model, &x, &mut memo), fresh(&model, &x));
        assert_eq!(memo.arms_scored(), 7);

        // Three arms written: three arms scored.
        for arm in [1usize, 4, 6] {
            model.update(&context, Action::new(arm), 0.5).unwrap();
        }
        assert_eq!(through(&model, &x, &mut memo), fresh(&model, &x));
        assert_eq!(memo.arms_scored(), 10);

        // Another α, and a context that differs only in the sign of a zero,
        // each re-score every arm.
        model.config.alpha = 0.5;
        assert_eq!(through(&model, &x, &mut memo), fresh(&model, &x));
        assert_eq!(memo.arms_scored(), 17);
        let mut zeroed = x.clone();
        zeroed[0] = 0.0;
        assert_eq!(through(&model, &zeroed, &mut memo), fresh(&model, &zeroed));
        zeroed[0] = -0.0;
        assert_eq!(through(&model, &zeroed, &mut memo), fresh(&model, &zeroed));
        assert_eq!(memo.arms_scored(), 31);
        // More than half the arms re-stamped with their content unchanged:
        // those arms alone are re-scored, to the same bits.
        for arm in 0..4 {
            model.sync_arm(arm).unwrap();
        }
        assert_eq!(through(&model, &zeroed, &mut memo), fresh(&model, &zeroed));
        assert_eq!(memo.arms_scored(), 35);

        // Two arms written while a clone shares them: the memo re-scores
        // them off their own state, and every score matches the oracle.
        let clone = model.clone();
        for arm in [2usize, 5] {
            let written = Vector::from(zeroed.clone());
            model.update(&written, Action::new(arm), 1.0).unwrap();
        }
        assert_eq!(
            through(&model, &zeroed, &mut memo),
            reference(&model, &zeroed)
        );
        assert_eq!(memo.arms_scored(), 37);
        model.config.alpha = 0.75;
        assert_eq!(
            through(&model, &zeroed, &mut memo),
            reference(&model, &zeroed)
        );
        assert_eq!(memo.arms_scored(), 44);
        drop(clone);

        let mut rng = rng();
        assert!(model
            .select_action_with(&Vector::from(x[..5].to_vec()), &mut rng, &mut memo)
            .is_err());
        assert_eq!(memo.arms_scored(), 44);
    }

    #[test]
    fn one_scratch_serves_diverged_clones_and_unrelated_models() {
        let base = trained(5, 4);
        let x = [0.4, 0.3, 0.2, 0.1];
        let reload = |model: &mut LinUcb, arm: usize, reward_scale: f64| {
            let written = Arc::make_mut(&mut model.arms[arm]);
            written.reward_vector = written.reward_vector.scaled(reward_scale);
            model.sync_arm(arm).unwrap();
        };
        // Two clones diverge on the same arm, a third on another arm; a
        // fourth model has the same shape and no shared history.
        let (mut left, mut right, mut third) = (base.clone(), base.clone(), base.clone());
        reload(&mut left, 2, 2.0);
        reload(&mut right, 2, 3.0);
        reload(&mut third, 3, 2.0);
        let other = trained(5, 4);
        let mut memo = SelectScratch::new();
        for model in [&base, &left, &right, &left, &other, &base, &right, &third] {
            assert_eq!(through(model, &x, &mut memo), fresh(model, &x));
            assert_eq!(through(model, &x, &mut memo), reference(model, &x));
        }
        // base → left → right → left re-score arm 2 alone; `other` shares no
        // stamp with anything and is re-scored whole, as is `base` after it;
        // right → third re-scores arms 2 and 3.
        assert_eq!(memo.arms_scored(), 5 + 3 + 5 + 5 + 1 + 2);
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
