//! The scenario-matrix driver: the cross product of
//! scenario × privacy regime × policy, executed with seeded determinism and
//! per-cell repeats.
//!
//! Every cell simulates a population of users sequentially. Each user
//! warm-starts a local policy from the current central policy (by cloning —
//! policy-agnostic), interacts for `interactions_per_user` rounds with local
//! learning, and then gets **one** reporting opportunity taken with the
//! participation probability `p` — the same cadence for every regime, so the
//! regimes differ only in *how* the shared tuple is protected:
//!
//! * **non-private** — the raw `(x, a, r)` tuple updates the central policy
//!   immediately;
//! * **LDP randomized response** — the *whole* report is randomized on-device
//!   ([`p2b_privacy::RandomizedResponse`]), the ε budget split evenly across
//!   its three components (context code over `k` categories, action over `A`,
//!   reward as a binary bit); the central policy trains on the randomized
//!   code's representative context with the randomized action and reward.
//!   This is the RAPPOR-style regime LDP bandit work operates in, and exactly
//!   the per-report noise the paper argues is too high for model training;
//! * **P2B shuffle** — the exact code is queued and periodically flushed
//!   through the sharded [`p2b_shuffler::ShufflerEngine`] (anonymize,
//!   shuffle, crowd-blending threshold); released reports update the central
//!   policy and every batch's (ε, δ) lands in an
//!   [`p2b_privacy::AmplificationLedger`];
//! * **central DP (tree aggregation)** — the raw tuple goes to a *trusted
//!   curator*, which folds it into per-arm [`p2b_privacy::TreeAggregator`]
//!   streams over the LinUCB sufficient statistics and periodically
//!   publishes a model rebuilt from the noisy prefix releases
//!   (Gaussian noise on O(log T) dyadic partial sums — the classic
//!   PrivateLinUCB baseline). Privacy cost is accounted in ρ-zCDP by a
//!   [`p2b_privacy::ZcdpAccountant`].
//! * **secure aggregation (additive shares)** — the device turns its report
//!   into a LinUCB sufficient-statistic leaf, fixed-point encodes it and
//!   additively secret-shares it across [`SECURE_AGG_SHARDS`] aggregator
//!   shards ([`p2b_core::SecureIngestService`]); the published model is
//!   rebuilt from the *recombined* per-arm sums only. No single aggregator
//!   sees a contribution in the clear, and no noise is added — utility is
//!   the non-private ceiling up to fixed-point quantization, with a trust
//!   split instead of a DP guarantee (the cell reports no (ε, δ)).
//!
//! Selection always uses the device's true context — what is privatized is
//! what reaches the central model, exactly as in the paper's architecture.

use crate::{
    AnyPolicy, ExperimentError, PolicyKind, PrivacyRegime, ScenarioData, ScenarioKind,
    ScenarioShape,
};
use p2b_bandit::{Action, ArmStatistics, CoalescedUpdate, LinUcb, LinUcbConfig};
use p2b_core::{DecisionTicket, RewardJoinBuffer, SecureIngestService};
use p2b_encoding::{ContextCode, Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::{Matrix, Vector};
use p2b_privacy::{
    AmplificationLedger, Participation, RandomizedResponse, TreeAggregator, TreeConfig,
    ZcdpAccountant,
};
use p2b_shuffler::{splitmix64, EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
use p2b_sim::parallel_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Gaussian noise scale σ of every tree-aggregation node in the central-DP
/// regime.
///
/// Like the drift constants in the scenario module, the central-DP knobs are
/// documented constants rather than [`MatrixConfig`] fields: the config's
/// serialized form is schema-frozen by the emitter goldens. σ = 4 with the
/// smoke-scale horizons gives a per-stream ρ around 0.4 — an honestly noisy
/// central-DP baseline whose utility gap against P2B is the paper's point.
pub const CENTRAL_SIGMA: f64 = 4.0;

/// Target δ at which the central-DP cell's composed ρ-zCDP loss is converted
/// to an ε for reporting ([`p2b_privacy::ZcdpAccountant::epsilon`]).
pub const CENTRAL_TARGET_DELTA: f64 = 1e-6;

/// L2 sensitivity of one tree leaf in the central-DP regime: the leaf vector
/// `[vec(x xᵀ), r·x, 1]` with the context clipped to the unit ball and the
/// reward in `[0, 1]` has norm at most `√(‖x‖⁴ + r²‖x‖² + 1) ≤ √3`.
pub const CENTRAL_LEAF_SENSITIVITY: f64 = 1.732_050_807_568_877_2;

/// Aggregator shard count `k` of the secure-aggregation regime's in-cell
/// [`p2b_core::SecureIngestService`].
///
/// A documented constant rather than a [`MatrixConfig`] field for the same
/// schema-freeze reason as [`CENTRAL_SIGMA`]. The value is immaterial to the
/// results: recombined share sums are exact wrapping-`i128` group elements,
/// so cell output is bit-identical at any `k` (the secure-agg golden pins
/// `k = 2` against the checked-in files, and the bench ingest stage asserts
/// digest equality across `k ∈ {1, 2, 4}` on every run).
pub const SECURE_AGG_SHARDS: usize = 2;

/// Configuration of one matrix run: the three axes plus the shared workload,
/// privacy and accounting knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Scenario axis (workloads).
    pub scenarios: Vec<ScenarioKind>,
    /// Privacy-regime axis.
    pub regimes: Vec<PrivacyRegime>,
    /// Policy axis.
    pub policies: Vec<PolicyKind>,
    /// Independent repeats per cell (each with its own derived seed).
    pub repeats: u32,
    /// Users simulated per cell.
    pub num_users: usize,
    /// Local interactions `T` per user.
    pub interactions_per_user: u64,
    /// Shape parameters of the workloads.
    pub shape: ScenarioShape,
    /// Number of encoder codes `k` shared by both private regimes.
    pub num_codes: usize,
    /// Contexts sampled to fit the k-means encoder.
    pub encoder_corpus_size: usize,
    /// Participation probability `p` (reporting opportunities taken).
    pub participation: f64,
    /// Budget ε of the LDP randomized-response baseline.
    pub ldp_epsilon: f64,
    /// Crowd-blending threshold `l` enforced by the shuffler.
    pub shuffler_threshold: usize,
    /// Shard workers of the shuffler engine (1 keeps cells bit-deterministic).
    pub shuffler_shards: usize,
    /// Merged batch size delivered by the engine.
    pub shuffler_batch_size: usize,
    /// Flush queued P2B reports through the engine whenever this many are
    /// pending (and once more at the end of the cell).
    pub flush_every_reports: usize,
    /// δ-bound constant Ω of the amplification ledger.
    pub delta_omega: f64,
    /// LinUCB exploration parameter α.
    pub alpha: f64,
    /// Record a series point every this many rounds (the final round is
    /// always recorded).
    pub record_every: u64,
    /// Worker threads for running cells in parallel (cells are independent
    /// and individually seeded, so results are identical at any count).
    pub cell_workers: usize,
    /// Base seed; every cell derives its own seed from it.
    pub seed: u64,
}

impl MatrixConfig {
    /// The default matrix: every scenario and regime, the paper's LinUCB
    /// policy, laptop-friendly sizes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scenarios: ScenarioKind::ALL.to_vec(),
            regimes: PrivacyRegime::ALL.to_vec(),
            policies: vec![PolicyKind::LinUcb],
            repeats: 1,
            num_users: 400,
            interactions_per_user: 10,
            shape: ScenarioShape::default(),
            num_codes: 32,
            encoder_corpus_size: 1024,
            participation: 0.5,
            ldp_epsilon: 0.5,
            shuffler_threshold: 2,
            shuffler_shards: 1,
            shuffler_batch_size: 256,
            flush_every_reports: 64,
            delta_omega: 0.1,
            alpha: 1.0,
            record_every: 100,
            cell_workers: 4,
            seed: 0,
        }
    }

    /// A CI-sized smoke matrix: tiny rounds/users, every axis still exercised.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            num_users: 120,
            interactions_per_user: 5,
            shape: ScenarioShape {
                logged_instances: 128,
                ..ScenarioShape::default()
            },
            num_codes: 16,
            encoder_corpus_size: 256,
            flush_every_reports: 24,
            shuffler_batch_size: 64,
            record_every: 50,
            ..Self::new()
        }
    }

    /// Sets the scenario axis.
    #[must_use]
    pub fn with_scenarios(mut self, scenarios: Vec<ScenarioKind>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Sets the privacy-regime axis.
    #[must_use]
    pub fn with_regimes(mut self, regimes: Vec<PrivacyRegime>) -> Self {
        self.regimes = regimes;
        self
    }

    /// Sets the policy axis.
    #[must_use]
    pub fn with_policies(mut self, policies: Vec<PolicyKind>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the per-cell repeat count.
    #[must_use]
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        self.repeats = repeats;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether a (regime, policy) combination is runnable: the central-DP
    /// curator and the secure-aggregation service both traffic in *LinUCB
    /// sufficient statistics*, so they only serve [`PolicyKind::LinUcb`];
    /// every other regime is policy-agnostic.
    #[must_use]
    pub fn cell_supported(regime: PrivacyRegime, policy: PolicyKind) -> bool {
        !matches!(
            regime,
            PrivacyRegime::CentralDp | PrivacyRegime::SecureAgg
        ) || policy == PolicyKind::LinUcb
    }

    /// Total number of cells the matrix will run (unsupported
    /// regime × policy combinations are skipped, see
    /// [`MatrixConfig::cell_supported`]).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        let regime_policy: usize = self
            .regimes
            .iter()
            .map(|&r| {
                self.policies
                    .iter()
                    .filter(|&&p| Self::cell_supported(r, p))
                    .count()
            })
            .sum();
        self.scenarios.len() * regime_policy * self.repeats as usize
    }

    fn validate(&self) -> Result<(), ExperimentError> {
        if self.scenarios.is_empty() || self.regimes.is_empty() || self.policies.is_empty() {
            return Err(ExperimentError::InvalidConfig {
                parameter: "axes",
                message: "scenarios, regimes and policies must all be non-empty".to_owned(),
            });
        }
        if self.repeats == 0 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "repeats",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_users == 0 || self.interactions_per_user == 0 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "num_users/interactions_per_user",
                message: "must both be at least 1".to_owned(),
            });
        }
        if self.num_codes < 2 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "num_codes",
                message: "must be at least 2 (randomized response needs k >= 2)".to_owned(),
            });
        }
        if self.encoder_corpus_size < self.num_codes {
            return Err(ExperimentError::InvalidConfig {
                parameter: "encoder_corpus_size",
                message: format!(
                    "must be at least num_codes ({}), got {}",
                    self.num_codes, self.encoder_corpus_size
                ),
            });
        }
        if self.flush_every_reports == 0 || self.shuffler_batch_size == 0 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "flush_every_reports/shuffler_batch_size",
                message: "must both be at least 1".to_owned(),
            });
        }
        if self.record_every == 0 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "record_every",
                message: "must be at least 1".to_owned(),
            });
        }
        // Participation, ε and Ω are validated by the privacy crate's own
        // constructors at cell start; fail fast here for clearer messages.
        // The LDP budget only constrains configs that actually run the
        // LocalDp regime.
        Participation::new(self.participation)?;
        if self.regimes.contains(&PrivacyRegime::LocalDp) {
            LocalDpRandomizer::new(self.num_codes, 2, self.ldp_epsilon)?;
        }
        if self.regimes.contains(&PrivacyRegime::CentralDp)
            && !self.policies.contains(&PolicyKind::LinUcb)
        {
            return Err(ExperimentError::InvalidConfig {
                parameter: "regimes/policies",
                message: "the central-DP regime releases LinUCB sufficient statistics and needs \
                          PolicyKind::LinUcb on the policy axis"
                    .to_owned(),
            });
        }
        if self.regimes.contains(&PrivacyRegime::SecureAgg)
            && !self.policies.contains(&PolicyKind::LinUcb)
        {
            return Err(ExperimentError::InvalidConfig {
                parameter: "regimes/policies",
                message: "the secure-aggregation regime aggregates LinUCB sufficient statistics \
                          and needs PolicyKind::LinUcb on the policy axis"
                    .to_owned(),
            });
        }
        Ok(())
    }
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Identity of one matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellSpec {
    /// The workload of this cell.
    pub scenario: ScenarioKind,
    /// The privacy regime of this cell.
    pub regime: PrivacyRegime,
    /// The bandit policy of this cell.
    pub policy: PolicyKind,
    /// Zero-based repeat index.
    pub repeat: u32,
    /// The derived seed this cell ran with.
    pub seed: u64,
}

/// One recorded point of a cell's per-round series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundPoint {
    /// One-based global round index.
    pub round: u64,
    /// Cumulative realized reward up to this round.
    pub cumulative_reward: f64,
    /// Cumulative pseudo-regret (vs. per-round expected optimum) up to this
    /// round.
    pub cumulative_regret: f64,
    /// Average realized reward per round so far (CTR for click workloads).
    pub average_reward: f64,
}

/// Everything one cell produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's identity (axes, repeat, derived seed).
    pub spec: CellSpec,
    /// Total simulated rounds.
    pub rounds: u64,
    /// Final cumulative realized reward.
    pub final_cumulative_reward: f64,
    /// Final cumulative pseudo-regret.
    pub final_cumulative_regret: f64,
    /// Average realized reward per round (CTR for click workloads).
    pub average_reward: f64,
    /// Reports that updated the central policy (released reports for P2B).
    pub shared_reports: u64,
    /// Reports submitted toward the central policy before thresholding
    /// (equals `shared_reports` outside P2B).
    pub submitted_reports: u64,
    /// The per-report ε achieved by the regime: `None` for non-private,
    /// the configured LDP budget for randomized response, Equation 3's
    /// amplified ε for P2B.
    pub epsilon: Option<f64>,
    /// The δ achieved by the regime: `None` for non-private, 0 for pure-LDP
    /// randomized response, the weakest released batch's δ from the
    /// amplification ledger for P2B.
    pub delta: Option<f64>,
    /// Per-batch (ε, δ) records from the shuffler engine (P2B cells only).
    pub batch_guarantees: Vec<BatchGuarantee>,
    /// The recorded per-round series.
    pub series: Vec<RoundPoint>,
}

/// A flattened [`p2b_privacy::BatchAmplification`] record for result files.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchGuarantee {
    /// Delivery index of the batch within the cell.
    pub batch_index: u64,
    /// Reports the batch released after thresholding.
    pub released: usize,
    /// Empirical crowd size of the batch.
    pub crowd_size: u64,
    /// The batch's ε.
    pub epsilon: f64,
    /// The batch's δ.
    pub delta: f64,
}

/// The full output of one matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixResult {
    /// The configuration the matrix ran with.
    pub config: MatrixConfig,
    /// One result per cell, in axis order
    /// (scenario-major, then regime, policy, repeat).
    pub cells: Vec<CellResult>,
}

impl MatrixResult {
    /// Looks up the first cell matching the given axes.
    #[must_use]
    pub fn cell(
        &self,
        scenario: ScenarioKind,
        regime: PrivacyRegime,
        policy: PolicyKind,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.spec.scenario == scenario && c.spec.regime == regime && c.spec.policy == policy
        })
    }
}

/// The delivery delay of one interaction's reward, deterministic in
/// `(cell seed, user, interaction)`. With a zero join window rewards land
/// in-round; otherwise delays are uniform over `[0, max_delay + 1]`, and
/// the `max_delay + 1` case never delivers — the lost-conversion tail that
/// exercises decision expiry.
fn delivery_delay(seed: u64, user: u64, t: u64, max_delay: u64) -> Option<u64> {
    if max_delay == 0 {
        return Some(0);
    }
    let mix = splitmix64(
        seed ^ user
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t.wrapping_mul(0xA24B_AED4_963E_E407)),
    );
    let delay = mix % (max_delay + 2);
    (delay <= max_delay).then_some(delay)
}

fn cell_seed(base: u64, scenario: usize, regime: usize, policy: usize, repeat: u32) -> u64 {
    let mut seed = splitmix64(base);
    for component in [
        scenario as u64,
        regime as u64,
        policy as u64,
        u64::from(repeat),
    ] {
        seed = splitmix64(seed ^ component.wrapping_mul(0xA24B_AED4_963E_E407));
    }
    seed
}

/// Runs the full cross product of the configured axes and returns every
/// cell's result, in axis order.
///
/// Cells are independent and individually seeded, so they run on
/// [`MatrixConfig::cell_workers`] threads with results identical to a serial
/// run — two invocations with the same configuration produce identical
/// [`MatrixResult`]s bit for bit.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for invalid configurations and
/// propagates the first failing cell's error.
pub fn run_matrix(config: &MatrixConfig) -> Result<MatrixResult, ExperimentError> {
    config.validate()?;
    let mut specs = Vec::with_capacity(config.num_cells());
    for (si, &scenario) in config.scenarios.iter().enumerate() {
        for (ri, &regime) in config.regimes.iter().enumerate() {
            for (pi, &policy) in config.policies.iter().enumerate() {
                if !MatrixConfig::cell_supported(regime, policy) {
                    continue;
                }
                for repeat in 0..config.repeats {
                    specs.push(CellSpec {
                        scenario,
                        regime,
                        policy,
                        repeat,
                        seed: cell_seed(config.seed, si, ri, pi, repeat),
                    });
                }
            }
        }
    }
    let results = parallel_map(specs, config.cell_workers, |spec| run_cell(config, spec));
    let cells = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(MatrixResult {
        config: config.clone(),
        cells,
    })
}

/// Runs one cell of the matrix.
///
/// # Errors
///
/// Propagates workload, policy, encoder, privacy and engine errors.
pub fn run_cell(config: &MatrixConfig, spec: CellSpec) -> Result<CellResult, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut scenario = ScenarioData::build(spec.scenario, &config.shape, &mut rng)?;
    let dimension = scenario.context_dimension();
    let num_actions = scenario.num_actions();

    let mut central = spec.policy.build(dimension, num_actions, config.alpha)?;
    let encoder = if spec.regime.uses_encoder() {
        let corpus = scenario.encoder_corpus(config.encoder_corpus_size, &mut rng);
        Some(KMeansEncoder::fit(
            &corpus,
            KMeansConfig::new(config.num_codes).with_iterations(20),
            &mut rng,
        )?)
    } else {
        None
    };
    let randomizer = match spec.regime {
        PrivacyRegime::LocalDp => Some(LocalDpRandomizer::new(
            config.num_codes,
            num_actions,
            config.ldp_epsilon,
        )?),
        _ => None,
    };
    let mut curator = match spec.regime {
        PrivacyRegime::CentralDp => {
            if spec.policy != PolicyKind::LinUcb {
                return Err(ExperimentError::InvalidConfig {
                    parameter: "policy",
                    message: format!(
                        "the central-DP regime only serves LinUCB sufficient statistics, got {}",
                        spec.policy
                    ),
                });
            }
            Some(CentralCurator::new(
                dimension,
                num_actions,
                config.alpha,
                config.num_users as u64,
                spec.seed,
            )?)
        }
        _ => None,
    };
    let mut curator_pending = 0usize;
    let mut secure = match spec.regime {
        PrivacyRegime::SecureAgg => {
            if spec.policy != PolicyKind::LinUcb {
                return Err(ExperimentError::InvalidConfig {
                    parameter: "policy",
                    message: format!(
                        "the secure-aggregation regime only serves LinUCB sufficient statistics, \
                         got {}",
                        spec.policy
                    ),
                });
            }
            Some(SecureIngestService::new(
                LinUcbConfig::new(dimension, num_actions).with_alpha(config.alpha),
                SECURE_AGG_SHARDS,
                spec.seed,
            )?)
        }
        _ => None,
    };
    let mut secure_pending = 0usize;
    let participation = Participation::new(config.participation)?;
    let mut ledger = AmplificationLedger::new(participation, config.delta_omega)?;

    let total_rounds = config.num_users as u64 * config.interactions_per_user;
    let mut series = Vec::with_capacity((total_rounds / config.record_every + 2) as usize);
    let mut cumulative_reward = 0.0f64;
    let mut cumulative_regret = 0.0f64;
    let mut round = 0u64;
    let mut shared_reports = 0u64;
    let mut submitted_reports = 0u64;
    let mut pending: Vec<RawReport> = Vec::new();
    let mut epoch = 0u64;

    let max_delay = spec.scenario.max_reward_delay();
    for user in 0..config.num_users {
        // Policy-agnostic warm start: the device begins from a clone of the
        // current central policy (the paper's model-snapshot warm start).
        let mut local = central.clone();
        // Local learning flows through a delayed-reward join buffer. With a
        // zero window — every stationary scenario — each reward joins in
        // its own round and the fold is exactly the historical immediate
        // update (the emitter goldens pin this); the delayed scenario joins
        // rewards up to `max_delay` rounds late and loses the overflow.
        let mut joiner: RewardJoinBuffer<(Vector, Action)> = RewardJoinBuffer::new(max_delay);
        let horizon = config.interactions_per_user + max_delay + 1;
        let mut deliveries: Vec<Vec<(DecisionTicket, f64)>> = vec![Vec::new(); horizon as usize];
        let mut last_joined: Option<(Vector, Action, f64)> = None;
        for t in 0..horizon {
            if t < config.interactions_per_user {
                let round_data = scenario.next_round(&mut rng);
                let action = local.select_action(&round_data.context, &mut rng)?;
                let reward = scenario.sample_reward(&round_data, action.index(), &mut rng)?;
                let expected = scenario.expected_reward(&round_data, action.index())?;
                let optimum = scenario.optimal_reward(&round_data)?;
                cumulative_reward += reward;
                cumulative_regret += optimum - expected;
                round += 1;
                if round % config.record_every == 0 {
                    series.push(point(round, cumulative_reward, cumulative_regret));
                }
                let ticket = joiner.record((round_data.context, action));
                if let Some(delay) = delivery_delay(spec.seed, user as u64, t, max_delay) {
                    deliveries[(t + delay) as usize].push((ticket, reward));
                }
            }
            for (ticket, reward) in deliveries[t as usize].drain(..) {
                joiner.join(ticket, reward)?;
            }
            for joined in joiner.advance_round().joined {
                let (context, action) = joined.payload;
                local.update(&context, action, joined.reward)?;
                last_joined = Some((context, action, joined.reward));
            }
        }

        // One reporting opportunity per user, taken with probability p —
        // the same data budget for every regime. Only an interaction whose
        // reward actually arrived can be shared: the device never learned
        // the outcome of the others.
        let opportunity = rng.gen::<f64>() < participation.value();
        if let (true, Some((context, action, reward))) = (opportunity, last_joined) {
            submitted_reports += 1;
            match spec.regime {
                PrivacyRegime::NonPrivate => {
                    central.update(&context, action, reward)?;
                    shared_reports += 1;
                }
                PrivacyRegime::LocalDp => {
                    let encoder = encoder.as_ref().expect("LocalDp builds an encoder");
                    let randomizer = randomizer.as_ref().expect("LocalDp builds a randomizer");
                    let code = encoder.encode(&context)?;
                    let (noisy_code, noisy_action, noisy_reward) = randomizer.randomize_report(
                        code.value(),
                        action.index(),
                        reward,
                        &mut rng,
                    )?;
                    let representative = encoder.representative(ContextCode::new(noisy_code))?;
                    central.update(
                        &representative,
                        p2b_bandit::Action::new(noisy_action),
                        noisy_reward,
                    )?;
                    shared_reports += 1;
                }
                PrivacyRegime::P2bShuffle => {
                    let encoder = encoder.as_ref().expect("P2bShuffle builds an encoder");
                    let code = encoder.encode(&context)?;
                    pending.push(RawReport::new(
                        format!("user-{user}"),
                        EncodedReport::new(code.value(), action.index(), reward)?,
                    ));
                }
                PrivacyRegime::CentralDp => {
                    let curator = curator.as_mut().expect("CentralDp builds a curator");
                    curator.ingest(&context, action, reward)?;
                    curator_pending += 1;
                    shared_reports += 1;
                }
                PrivacyRegime::SecureAgg => {
                    let service = secure.as_mut().expect("SecureAgg builds a service");
                    // One report is a coalesced group of count 1; the
                    // service clips the context and clamps the reward
                    // exactly as the central-DP curator does.
                    let update =
                        CoalescedUpdate::new(context, action, 1, reward.clamp(0.0, 1.0))?;
                    service.ingest(&update)?;
                    secure_pending += 1;
                    shared_reports += 1;
                }
            }
        }

        if spec.regime == PrivacyRegime::CentralDp && curator_pending >= config.flush_every_reports
        {
            let curator = curator.as_ref().expect("CentralDp builds a curator");
            central = AnyPolicy::LinUcb(curator.publish()?);
            curator_pending = 0;
        }

        if spec.regime == PrivacyRegime::SecureAgg && secure_pending >= config.flush_every_reports {
            let service = secure.as_mut().expect("SecureAgg builds a service");
            central = AnyPolicy::LinUcb(service.assemble()?);
            secure_pending = 0;
        }

        if spec.regime == PrivacyRegime::P2bShuffle && pending.len() >= config.flush_every_reports {
            shared_reports += flush_through_engine(
                config,
                spec.seed ^ splitmix64(epoch.wrapping_add(1)),
                &mut pending,
                &mut central,
                encoder.as_ref().expect("P2bShuffle builds an encoder"),
                &mut ledger,
            )?;
            epoch += 1;
        }
    }

    if spec.regime == PrivacyRegime::P2bShuffle && !pending.is_empty() {
        shared_reports += flush_through_engine(
            config,
            spec.seed ^ splitmix64(epoch.wrapping_add(1)),
            &mut pending,
            &mut central,
            encoder.as_ref().expect("P2bShuffle builds an encoder"),
            &mut ledger,
        )?;
    }

    if series.last().map(|p| p.round) != Some(round) {
        series.push(point(round, cumulative_reward, cumulative_regret));
    }

    let (epsilon, delta) = match spec.regime {
        PrivacyRegime::NonPrivate => (None, None),
        PrivacyRegime::LocalDp => (Some(config.ldp_epsilon), Some(0.0)),
        PrivacyRegime::P2bShuffle => (
            Some(ledger.per_report_epsilon()),
            Some(ledger.weakest().map_or(0.0, |w| w.guarantee.delta())),
        ),
        PrivacyRegime::CentralDp => {
            let curator = curator.as_ref().expect("CentralDp builds a curator");
            (Some(curator.epsilon()?), Some(CENTRAL_TARGET_DELTA))
        }
        // A trust split, not a DP mechanism: there is no (ε, δ) to report.
        PrivacyRegime::SecureAgg => (None, None),
    };
    let batch_guarantees = ledger
        .records()
        .iter()
        .map(|r| BatchGuarantee {
            batch_index: r.batch_index,
            released: r.released,
            crowd_size: r.crowd_size,
            epsilon: r.guarantee.epsilon(),
            delta: r.guarantee.delta(),
        })
        .collect();

    Ok(CellResult {
        spec,
        rounds: round,
        final_cumulative_reward: cumulative_reward,
        final_cumulative_regret: cumulative_regret,
        average_reward: if round == 0 {
            0.0
        } else {
            cumulative_reward / round as f64
        },
        shared_reports,
        submitted_reports,
        epsilon,
        delta,
        batch_guarantees,
        series,
    })
}

/// On-device randomizer of the LDP baseline: the full `(y, a, r)` report is
/// ε-LDP by composition, the budget split evenly across the context code
/// (k-ary randomized response), the action (A-ary) and the reward (the
/// reward in `[0, 1]` is sampled to a bit, then the bit is flipped by binary
/// randomized response). This is what a RAPPOR-style collector actually
/// receives — and why the paper argues per-report LDP noise is too high to
/// train a shared model from.
#[derive(Debug, Clone, Copy)]
struct LocalDpRandomizer {
    code: RandomizedResponse,
    action: RandomizedResponse,
    reward: RandomizedResponse,
}

impl LocalDpRandomizer {
    fn new(num_codes: usize, num_actions: usize, epsilon: f64) -> Result<Self, ExperimentError> {
        if num_actions < 2 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "num_actions",
                message: "the LDP baseline needs at least 2 actions".to_owned(),
            });
        }
        let per_component = epsilon / 3.0;
        Ok(Self {
            code: RandomizedResponse::new(num_codes.max(2), per_component)?,
            action: RandomizedResponse::new(num_actions, per_component)?,
            reward: RandomizedResponse::new(2, per_component)?,
        })
    }

    fn randomize_report(
        &self,
        code: usize,
        action: usize,
        reward: f64,
        rng: &mut StdRng,
    ) -> Result<(usize, usize, f64), ExperimentError> {
        let noisy_code = self.code.randomize(code, rng)?;
        let noisy_action = self.action.randomize(action, rng)?;
        let reward_bit = usize::from(rng.gen::<f64>() < reward.clamp(0.0, 1.0));
        let noisy_reward = self.reward.randomize(reward_bit, rng)? as f64;
        Ok((noisy_code, noisy_action, noisy_reward))
    }
}

/// The trusted curator of the central-DP regime.
///
/// It keeps one [`TreeAggregator`] per arm over leaf vectors
/// `[vec(x xᵀ), r·x, 1]` (dimension `d² + d + 1`), with contexts clipped to
/// the unit L2 ball so one leaf has sensitivity at most
/// [`CENTRAL_LEAF_SENSITIVITY`]. A published model is rebuilt from the noisy
/// prefix releases: the Gram block is symmetrized and ridge-shifted until
/// the design matrix is positive definite (Shariff & Sheffet 2018's
/// shifted-regularizer repair), then folded into a fresh [`LinUcb`] via
/// [`LinUcb::from_sufficient_statistics`].
///
/// Privacy accounting is the binary mechanism's: one user's single report is
/// a single leaf, covered by at most `nodes_per_leaf` noisy partial sums, so
/// the *entire* release stream costs
/// `ρ = nodes_per_leaf · Δ² / (2σ²)` — charged once to the
/// [`ZcdpAccountant`] at construction, independent of how many snapshots are
/// published. All noise is counter-based ([`TreeAggregator::node_noise`]),
/// so cells stay bit-deterministic at any worker count.
struct CentralCurator {
    config: LinUcbConfig,
    trees: Vec<TreeAggregator>,
    accountant: ZcdpAccountant,
    ingested: u64,
}

impl CentralCurator {
    fn new(
        dimension: usize,
        num_actions: usize,
        alpha: f64,
        horizon: u64,
        seed: u64,
    ) -> Result<Self, ExperimentError> {
        let leaf_dim = dimension * dimension + dimension + 1;
        let trees = (0..num_actions)
            .map(|arm| {
                TreeAggregator::new(TreeConfig::new(
                    leaf_dim,
                    horizon,
                    CENTRAL_SIGMA,
                    splitmix64(seed ^ (arm as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut accountant = ZcdpAccountant::new();
        // The whole stream's cost is fixed upfront by (σ, T): every leaf is
        // covered by at most nodes_per_leaf noisy nodes, regardless of how
        // many prefixes are later released.
        let rho = trees[0].rho_per_leaf(CENTRAL_LEAF_SENSITIVITY)?;
        accountant.spend_rho(rho, "tree_stream")?;
        Ok(Self {
            config: LinUcbConfig::new(dimension, num_actions).with_alpha(alpha),
            trees,
            accountant,
            ingested: 0,
        })
    }

    /// Folds one raw report into the chosen arm's statistics stream.
    fn ingest(
        &mut self,
        context: &Vector,
        action: Action,
        reward: f64,
    ) -> Result<(), ExperimentError> {
        let d = self.config.context_dimension;
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
        self.trees[action.index()].push(&leaf)?;
        self.ingested += 1;
        Ok(())
    }

    /// Rebuilds a servable model from the current noisy prefix releases.
    fn publish(&self) -> Result<LinUcb, ExperimentError> {
        let d = self.config.context_dimension;
        let mut statistics = Vec::with_capacity(self.trees.len());
        for tree in &self.trees {
            let release = tree.release();
            let mut gram = Matrix::zeros(d, d);
            for i in 0..d {
                for j in 0..d {
                    // Symmetrize: noise is not symmetric even though x xᵀ is.
                    gram.set(i, j, (release[i * d + j] + release[j * d + i]) / 2.0);
                }
            }
            let reward_vector = Vector::from(release[d * d..d * d + d].to_vec());
            let pulls = release[d * d + d].round().max(0.0) as u64;
            statistics.push(ArmStatistics::with_ridge_repair(
                &gram,
                reward_vector,
                pulls,
                self.config.regularizer,
            )?);
        }
        Ok(LinUcb::from_sufficient_statistics(
            self.config,
            &statistics,
        )?)
    }

    /// The (ε at [`CENTRAL_TARGET_DELTA`]) of the whole release stream.
    fn epsilon(&self) -> Result<f64, ExperimentError> {
        Ok(self.accountant.epsilon(CENTRAL_TARGET_DELTA)?)
    }
}

fn point(round: u64, cumulative_reward: f64, cumulative_regret: f64) -> RoundPoint {
    RoundPoint {
        round,
        cumulative_reward,
        cumulative_regret,
        average_reward: cumulative_reward / round as f64,
    }
}

/// Flushes the pending reports through a freshly spawned shuffler engine,
/// folds every released report into the central policy (as the representative
/// context of its code) and merges the engine's per-batch (ε, δ) records into
/// the cell ledger. Returns the number of released reports.
///
/// The representative context is memoized per flush, mirroring the central
/// model service's coalescing ingester (`p2b_core`): codes repeat heavily
/// within a released batch, so the encoder lookup runs once per distinct
/// code instead of once per report. (The per-report *update* order is kept —
/// `AnyPolicy` is policy-agnostic and not every policy folds coalesced
/// sufficient statistics — so cell results are byte-identical to the
/// pre-memoization harness.)
fn flush_through_engine(
    config: &MatrixConfig,
    seed: u64,
    pending: &mut Vec<RawReport>,
    central: &mut AnyPolicy,
    encoder: &KMeansEncoder,
    ledger: &mut AmplificationLedger,
) -> Result<u64, ExperimentError> {
    let engine = ShufflerEngine::builder(ShufflerConfig::new(config.shuffler_threshold))
        .shards(config.shuffler_shards)
        .batch_size(config.shuffler_batch_size)
        .privacy_accounting(ledger.participation(), config.delta_omega)
        .build()?;
    let handle = engine.spawn(seed);
    for report in pending.drain(..) {
        handle.submit(report)?;
    }
    let output = handle.finish();
    let mut released = 0u64;
    let mut representatives: HashMap<usize, Vector> = HashMap::new();
    for batch in &output.batches {
        for report in batch.batch.reports() {
            let representative = match representatives.entry(report.code()) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => {
                    entry.insert(encoder.representative(ContextCode::new(report.code()))?)
                }
            };
            central.update(
                representative,
                p2b_bandit::Action::new(report.action()),
                report.reward(),
            )?;
            released += 1;
        }
        let stats = batch.batch.stats();
        let crowd = batch.amplification.map_or(0, |a| a.crowd_size);
        ledger.record_batch(stats.released, crowd)?;
    }
    Ok(released)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MatrixConfig {
        MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle])
            .with_policies(vec![PolicyKind::LinUcb])
            .with_seed(7)
    }

    #[test]
    fn validates_configuration() {
        let mut bad = tiny();
        bad.repeats = 0;
        assert!(run_matrix(&bad).is_err());
        let mut bad = tiny();
        bad.num_codes = 1;
        assert!(run_matrix(&bad).is_err());
        let mut bad = tiny();
        bad.scenarios.clear();
        assert!(run_matrix(&bad).is_err());
        let mut bad = tiny();
        bad.encoder_corpus_size = 2;
        assert!(run_matrix(&bad).is_err());
        // An unused (invalid) LDP budget only matters when LocalDp runs.
        let mut no_ldp = tiny();
        no_ldp.ldp_epsilon = 0.0;
        no_ldp.num_users = 10;
        assert!(run_matrix(&no_ldp).is_ok());
        let mut with_ldp = MatrixConfig::smoke().with_seed(1);
        with_ldp.ldp_epsilon = 0.0;
        assert!(run_matrix(&with_ldp).is_err());
    }

    #[test]
    fn matrix_covers_the_cross_product_in_axis_order() {
        let config = tiny().with_repeats(2);
        assert_eq!(config.num_cells(), 4);
        let result = run_matrix(&config).unwrap();
        assert_eq!(result.cells.len(), 4);
        let expected_rounds = config.num_users as u64 * config.interactions_per_user;
        for cell in &result.cells {
            assert_eq!(cell.rounds, expected_rounds);
            assert!(cell.average_reward >= 0.0 && cell.average_reward <= 1.0);
            assert!(cell.final_cumulative_regret >= -1e-9);
            let last = cell.series.last().unwrap();
            assert_eq!(last.round, expected_rounds);
            assert!((last.cumulative_reward - cell.final_cumulative_reward).abs() < 1e-9);
        }
        // Axis order: regime-major within the scenario, repeats innermost.
        assert_eq!(result.cells[0].spec.regime, PrivacyRegime::NonPrivate);
        assert_eq!(result.cells[0].spec.repeat, 0);
        assert_eq!(result.cells[1].spec.repeat, 1);
        assert_eq!(result.cells[2].spec.regime, PrivacyRegime::P2bShuffle);
    }

    #[test]
    fn repeats_and_cells_get_distinct_seeds() {
        let config = tiny().with_repeats(3);
        let result = run_matrix(&config).unwrap();
        let seeds: std::collections::HashSet<u64> =
            result.cells.iter().map(|c| c.spec.seed).collect();
        assert_eq!(seeds.len(), result.cells.len());
    }

    #[test]
    fn same_config_is_bit_deterministic_at_any_worker_count() {
        let mut serial = tiny();
        serial.cell_workers = 1;
        let mut threaded = tiny();
        threaded.cell_workers = 4;
        let a = run_matrix(&serial).unwrap();
        let b = run_matrix(&threaded).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn privacy_accounting_follows_the_regime() {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_seed(11);
        let result = run_matrix(&config).unwrap();
        let non_private = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::NonPrivate,
                PolicyKind::LinUcb,
            )
            .unwrap();
        assert_eq!(non_private.epsilon, None);
        assert_eq!(non_private.delta, None);
        assert!(non_private.batch_guarantees.is_empty());
        assert_eq!(non_private.shared_reports, non_private.submitted_reports);

        let ldp = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::LocalDp,
                PolicyKind::LinUcb,
            )
            .unwrap();
        assert_eq!(ldp.epsilon, Some(config.ldp_epsilon));
        assert_eq!(ldp.delta, Some(0.0));

        let p2b = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::P2bShuffle,
                PolicyKind::LinUcb,
            )
            .unwrap();
        // p = 0.5 gives the paper's headline ε = ln 2 (Equation 3).
        assert!((p2b.epsilon.unwrap() - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(p2b.delta.unwrap() >= 0.0);
        assert!(!p2b.batch_guarantees.is_empty());
        // Thresholding can only drop reports, never invent them.
        assert!(p2b.shared_reports <= p2b.submitted_reports);
        for batch in &p2b.batch_guarantees {
            if batch.released > 0 {
                assert!(batch.crowd_size >= config.shuffler_threshold as u64);
            }
        }
    }

    #[test]
    fn central_dp_cells_run_and_account_in_zcdp() {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::CentralDp])
            .with_policies(vec![PolicyKind::LinUcb])
            .with_seed(13);
        let result = run_matrix(&config).unwrap();
        assert_eq!(result.cells.len(), config.num_cells());
        let central = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::CentralDp,
                PolicyKind::LinUcb,
            )
            .unwrap();
        // The curator ingests every taken reporting opportunity directly.
        assert_eq!(central.shared_reports, central.submitted_reports);
        assert!(central.shared_reports > 0);
        // ε is the stream's zCDP cost converted at the documented target δ.
        let eps = central.epsilon.unwrap();
        assert!(eps.is_finite() && eps > 0.0);
        assert_eq!(central.delta, Some(CENTRAL_TARGET_DELTA));
        assert!(central.batch_guarantees.is_empty());
        // The expected ρ is the closed-form binary-mechanism bound.
        let leaf_nodes = u64::BITS - (config.num_users as u64).leading_zeros();
        let rho = f64::from(leaf_nodes) * CENTRAL_LEAF_SENSITIVITY * CENTRAL_LEAF_SENSITIVITY
            / (2.0 * CENTRAL_SIGMA * CENTRAL_SIGMA);
        let expected = p2b_privacy::rho_to_epsilon(rho, CENTRAL_TARGET_DELTA).unwrap();
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn central_dp_is_bit_deterministic_at_any_worker_count() {
        let base = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::CentralDp])
            .with_policies(vec![PolicyKind::LinUcb])
            .with_seed(23);
        let mut serial = base.clone();
        serial.cell_workers = 1;
        let mut threaded = base;
        threaded.cell_workers = 4;
        let a = run_matrix(&serial).unwrap();
        let b = run_matrix(&threaded).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn central_dp_requires_linucb_on_the_policy_axis() {
        let bad = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::CentralDp])
            .with_policies(vec![PolicyKind::Ucb1]);
        assert!(run_matrix(&bad).is_err());

        // With LinUcb present, unsupported combinations are skipped, not run.
        let mixed = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::CentralDp])
            .with_policies(vec![PolicyKind::LinUcb, PolicyKind::Ucb1])
            .with_seed(3);
        // NonPrivate × {LinUcb, Ucb1} + CentralDp × {LinUcb} = 3 cells.
        assert_eq!(mixed.num_cells(), 3);
        let result = run_matrix(&mixed).unwrap();
        assert_eq!(result.cells.len(), 3);
        assert!(result
            .cells
            .iter()
            .all(|c| MatrixConfig::cell_supported(c.spec.regime, c.spec.policy)));
    }

    #[test]
    fn secure_agg_cells_run_without_a_guarantee_and_track_the_ceiling() {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::SecureAgg])
            .with_policies(vec![PolicyKind::LinUcb])
            .with_seed(17);
        let result = run_matrix(&config).unwrap();
        assert_eq!(result.cells.len(), config.num_cells());
        let secure = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::SecureAgg,
                PolicyKind::LinUcb,
            )
            .unwrap();
        // Every taken reporting opportunity is shared (no thresholding).
        assert_eq!(secure.shared_reports, secure.submitted_reports);
        assert!(secure.shared_reports > 0);
        // A trust split, not a DP mechanism: no (ε, δ) is reported.
        assert_eq!(secure.epsilon, None);
        assert_eq!(secure.delta, None);
        assert!(secure.batch_guarantees.is_empty());
        // No noise is added, so the regime stays within striking distance of
        // the non-private ceiling (it differs only by epoch-snapshot lag and
        // ~2⁻⁴⁸ quantization).
        let ceiling = result
            .cell(
                ScenarioKind::SyntheticGaussian,
                PrivacyRegime::NonPrivate,
                PolicyKind::LinUcb,
            )
            .unwrap();
        assert!(
            secure.final_cumulative_reward > 0.5 * ceiling.final_cumulative_reward,
            "secure agg ({:.2}) should track the non-private ceiling ({:.2})",
            secure.final_cumulative_reward,
            ceiling.final_cumulative_reward
        );
    }

    #[test]
    fn secure_agg_is_bit_deterministic_at_any_worker_count() {
        let base = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::SecureAgg])
            .with_policies(vec![PolicyKind::LinUcb])
            .with_seed(29);
        let mut serial = base.clone();
        serial.cell_workers = 1;
        let mut threaded = base;
        threaded.cell_workers = 4;
        let a = run_matrix(&serial).unwrap();
        let b = run_matrix(&threaded).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn secure_agg_requires_linucb_on_the_policy_axis() {
        let bad = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::SecureAgg])
            .with_policies(vec![PolicyKind::Ucb1]);
        assert!(run_matrix(&bad).is_err());

        // With LinUcb present, unsupported combinations are skipped, not run.
        let mixed = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::SecureAgg])
            .with_policies(vec![PolicyKind::LinUcb, PolicyKind::Ucb1])
            .with_seed(31);
        // NonPrivate × {LinUcb, Ucb1} + SecureAgg × {LinUcb} = 3 cells.
        assert_eq!(mixed.num_cells(), 3);
        let result = run_matrix(&mixed).unwrap();
        assert_eq!(result.cells.len(), 3);
        assert!(result
            .cells
            .iter()
            .all(|c| MatrixConfig::cell_supported(c.spec.regime, c.spec.policy)));
    }

    #[test]
    fn p2b_retains_more_utility_than_randomized_response() {
        // The paper's core empirical claim (Figures 4-7), at smoke scale on
        // the synthetic benchmark: the non-private regime is the ceiling,
        // P2B tracks it, and per-report randomized response trails.
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_seed(5);
        let result = run_matrix(&config).unwrap();
        let reward = |regime| {
            result
                .cell(ScenarioKind::SyntheticGaussian, regime, PolicyKind::LinUcb)
                .unwrap()
                .final_cumulative_reward
        };
        let non_private = reward(PrivacyRegime::NonPrivate);
        let ldp = reward(PrivacyRegime::LocalDp);
        let p2b = reward(PrivacyRegime::P2bShuffle);
        assert!(
            p2b >= ldp,
            "P2B ({p2b:.2}) must retain at least randomized response's utility ({ldp:.2})"
        );
        assert!(
            non_private >= ldp,
            "non-private ({non_private:.2}) must be the ceiling over LDP ({ldp:.2})"
        );
    }
}
