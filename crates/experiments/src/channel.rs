//! One report channel per privacy regime: what happens to a shared
//! `(x, a, r)` tuple between the device and the central model.
//!
//! Every regime has the same shape — contributions in ([`ReportChannel::submit`]),
//! a privatized update of the central policy out, either at once or at a
//! release point ([`ReportChannel::flush`]), plus a guarantee claim
//! ([`ReportChannel::claim`]) — so the cell loop in [`crate::run_cell`] is
//! regime-blind. [`open`] holds the only `match` over [`PrivacyRegime`]
//! that builds regime state:
//!
//! * **non-private** ([`ImmediateChannel`]) — the raw tuple updates the
//!   central policy immediately;
//! * **LDP randomized response** ([`RandomizedChannel`]) — the same
//!   immediate fold behind [`LocalDpRandomizer`]: the *whole* report is
//!   randomized on-device ([`p2b_privacy::RandomizedResponse`]), the ε
//!   budget split evenly across its three components (context code over
//!   `k` categories, action over `A`, reward as a binary bit); the central
//!   policy trains on the randomized code's representative context with the
//!   randomized action and reward. This is the RAPPOR-style regime LDP
//!   bandit work operates in, and exactly the per-report noise the paper
//!   argues is too high for model training;
//! * **P2B shuffle** ([`ShuffledChannel`]) — the exact code is queued and
//!   each flush runs the queue through the [`p2b_shuffler::ShufflerEngine`]
//!   (anonymize, tabulate `(code, action)` cells, crowd-blending threshold);
//!   every released batch goes to the serving [`p2b_core::CentralServer`],
//!   whose publish becomes the central policy, and every batch's (ε, δ) is
//!   booked once, in the channel's [`p2b_privacy::AmplificationLedger`] (the
//!   engine runs without its own accounting; the channel reads the crowd off
//!   each batch, the statistic the engine's lane books in serving);
//! * **central DP (tree aggregation)** ([`TreeCuratorChannel`]) — the raw
//!   tuple goes to a *trusted curator*, which folds its statistics leaf
//!   into per-arm [`p2b_privacy::TreeAggregator`] streams and at each flush
//!   publishes a model rebuilt from the noisy prefix releases (Gaussian
//!   noise on O(log T) dyadic partial sums — the classic PrivateLinUCB
//!   baseline). The stream's privacy cost is one ρ-zCDP charge, converted
//!   to an ε once by [`p2b_privacy::rho_to_epsilon`];
//! * **secure aggregation (additive shares)** ([`SecureAggChannel`]) — the
//!   same leaves, summed by [`SECURE_AGG_SHARDS`] aggregator shards over
//!   fixed-point additive shares ([`p2b_core::SecureIngestService`]) in
//!   place of a curator; the published model is rebuilt from the
//!   *recombined* per-arm sums only. No single aggregator sees a
//!   contribution in the clear, and no noise is added — utility is the
//!   non-private ceiling up to fixed-point quantization, with a trust split
//!   instead of a DP guarantee (the cell reports no (ε, δ)).
//!
//! The two leaf-aggregating channels differ only in who sums the leaves;
//! the leaf layout itself is written once, in [`ArmSums::leaf`] /
//! [`ArmSums::from_leaf`]. Every channel that publishes from sums installs
//! them with [`LinUcb::set_arm`], the P2B channel through the server's
//! publish.

use crate::{BatchGuarantee, CellSpec, ExperimentError, MatrixConfig, PrivacyRegime, ScenarioData};
use p2b_bandit::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_core::{CentralServer, P2bConfig, SecureIngestService};
use p2b_encoding::{ContextCode, Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_privacy::{
    rho_to_epsilon, AmplificationLedger, BatchAmplification, Participation, RandomizedResponse,
    TreeAggregator, TreeConfig,
};
use p2b_shuffler::{splitmix64, EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Gaussian noise scale σ of every tree-aggregation node in the central-DP
/// regime.
///
/// Like the drift constants in the scenario module, the central-DP knobs are
/// documented constants rather than [`MatrixConfig`] fields: the config's
/// serialized form is schema-frozen by the emitter goldens. σ = 4 with the
/// smoke-scale horizons gives a per-stream ρ around 0.4 — an honestly noisy
/// central-DP baseline whose utility gap against P2B is the paper's point.
pub const CENTRAL_SIGMA: f64 = 4.0;

/// Target δ at which the central-DP cell's ρ-zCDP loss is converted to an ε
/// for reporting ([`p2b_privacy::rho_to_epsilon`]).
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
const SECURE_AGG_SHARDS: usize = 2;

/// One taken reporting opportunity: the last interaction of `user` whose
/// reward arrived.
pub(crate) struct Report {
    pub user: usize,
    pub context: Vector,
    pub action: Action,
    pub reward: f64,
}

/// The path of shared reports from the devices to the central policy under
/// one privacy regime. The cell loop owns the cadence and the counts (submit
/// on a reporting opportunity, flush every `flush_every_reports` submissions
/// and once at the end); the channel owns everything regime-specific.
///
/// `submit` and `flush` return how many reports the call shared with the
/// central side: one per submission for every channel but the shuffled one,
/// whose crowd-blending threshold decides at the release point.
pub(crate) trait ReportChannel {
    /// Takes one report. Immediate channels fold it into `central` here
    /// (drawing any on-device randomness from the cell's `rng`); the others
    /// hold it until [`ReportChannel::flush`].
    fn submit(
        &mut self,
        report: Report,
        central: &mut LinUcb,
        rng: &mut StdRng,
    ) -> Result<u64, ExperimentError>;

    /// The release point: brings `central` up to date with everything
    /// submitted so far.
    fn flush(&mut self, _central: &mut LinUcb) -> Result<u64, ExperimentError> {
        Ok(0)
    }

    /// The `(ε, δ)` the regime achieved; `None` where there is no DP
    /// guarantee to report (non-private, and secure aggregation's trust
    /// split).
    fn claim(&self) -> Option<(f64, f64)> {
        None
    }

    /// Per-batch records behind the claim (the shuffler engine's, P2B only).
    fn batch_guarantees(&self) -> Vec<BatchGuarantee> {
        Vec::new()
    }
}

/// Builds the channel of `spec.regime` toward a central LinUCB of shape
/// `model`, fitting the context encoder from the cell's `rng` for the
/// regimes that share codes rather than raw contexts. `max_reports` is the
/// most reports the cell can submit: the curator's tree horizon.
pub(crate) fn open(
    config: &MatrixConfig,
    spec: CellSpec,
    model: LinUcbConfig,
    participation: Participation,
    max_reports: u64,
    scenario: &mut ScenarioData,
    rng: &mut StdRng,
) -> Result<Box<dyn ReportChannel>, ExperimentError> {
    let num_actions = model.num_actions;
    Ok(match spec.regime {
        PrivacyRegime::NonPrivate => Box::new(ImmediateChannel),
        PrivacyRegime::LocalDp => Box::new(RandomizedChannel {
            encoder: fit_encoder(config, scenario, rng)?,
            randomizer: LocalDpRandomizer::new(config.num_codes, num_actions, config.ldp_epsilon)?,
            epsilon: config.ldp_epsilon,
        }),
        PrivacyRegime::P2bShuffle => {
            let encoder = Arc::new(fit_encoder(config, scenario, rng)?);
            let serving =
                P2bConfig::new(model.context_dimension, num_actions).with_alpha(model.alpha);
            Box::new(ShuffledChannel {
                server: CentralServer::new(&serving, encoder.clone())?,
                encoder,
                engine: ShufflerEngine::builder(ShufflerConfig::new(config.shuffler_threshold))
                    .batch_size(config.shuffler_batch_size)
                    .build()?,
                ledger: AmplificationLedger::new(participation, config.delta_omega)?,
                pending: Vec::new(),
            })
        }
        PrivacyRegime::CentralDp => {
            Box::new(TreeCuratorChannel::new(model, max_reports, spec.seed)?)
        }
        PrivacyRegime::SecureAgg => Box::new(SecureAggChannel(SecureIngestService::new(
            model,
            SECURE_AGG_SHARDS,
            spec.seed,
        )?)),
    })
}

fn fit_encoder(
    config: &MatrixConfig,
    scenario: &mut ScenarioData,
    rng: &mut StdRng,
) -> Result<KMeansEncoder, ExperimentError> {
    let corpus = scenario.encoder_corpus(config.encoder_corpus_size, rng);
    Ok(KMeansEncoder::fit(
        &corpus,
        KMeansConfig::new(config.num_codes).with_iterations(20),
        rng,
    )?)
}

struct ImmediateChannel;

impl ReportChannel for ImmediateChannel {
    fn submit(
        &mut self,
        report: Report,
        central: &mut LinUcb,
        _rng: &mut StdRng,
    ) -> Result<u64, ExperimentError> {
        central.update(&report.context, report.action, report.reward)?;
        Ok(1)
    }
}

struct RandomizedChannel {
    encoder: KMeansEncoder,
    randomizer: LocalDpRandomizer,
    epsilon: f64,
}

impl ReportChannel for RandomizedChannel {
    fn submit(
        &mut self,
        report: Report,
        central: &mut LinUcb,
        rng: &mut StdRng,
    ) -> Result<u64, ExperimentError> {
        let code = self.encoder.encode(&report.context)?.value();
        let noisy_code = self.randomizer.code.randomize(code, rng)?;
        let noisy_action = self
            .randomizer
            .action
            .randomize(report.action.index(), rng)?;
        let reward_bit = usize::from(rng.gen::<f64>() < report.reward.clamp(0.0, 1.0));
        let noisy_reward = self.randomizer.reward.randomize(reward_bit, rng)? as f64;
        let representative = self.encoder.representative(ContextCode::new(noisy_code))?;
        central.update(&representative, Action::new(noisy_action), noisy_reward)?;
        Ok(1)
    }

    fn claim(&self) -> Option<(f64, f64)> {
        Some((self.epsilon, 0.0))
    }
}

/// On-device randomizer of the LDP baseline: the full `(y, a, r)` report is
/// ε-LDP by composition, the budget split evenly across the context code
/// (k-ary randomized response), the action (A-ary) and the reward (the
/// reward in `[0, 1]` is sampled to a bit, then the bit is flipped by binary
/// randomized response). This is what a RAPPOR-style collector actually
/// receives — and why the paper argues per-report LDP noise is too high to
/// train a shared model from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalDpRandomizer {
    code: RandomizedResponse,
    action: RandomizedResponse,
    reward: RandomizedResponse,
}

impl LocalDpRandomizer {
    pub(crate) fn new(
        num_codes: usize,
        num_actions: usize,
        epsilon: f64,
    ) -> Result<Self, ExperimentError> {
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
}

struct ShuffledChannel {
    encoder: Arc<KMeansEncoder>,
    engine: ShufflerEngine,
    /// The serving central server, over the same encoder: every released
    /// batch is folded by its publish.
    server: CentralServer,
    ledger: AmplificationLedger,
    pending: Vec<RawReport>,
}

impl ReportChannel for ShuffledChannel {
    fn submit(
        &mut self,
        report: Report,
        _central: &mut LinUcb,
        _rng: &mut StdRng,
    ) -> Result<u64, ExperimentError> {
        let code = self.encoder.encode(&report.context)?;
        self.pending.push(RawReport::new(
            format!("user-{}", report.user),
            EncodedReport::new(code.value(), report.action.index(), report.reward)?,
        ));
        Ok(0)
    }

    /// Runs the pending reports through a freshly spawned engine, records
    /// each batch's (ε, δ) in the ledger, hands each batch to the central
    /// server, and makes the server's publish the central policy.
    fn flush(&mut self, central: &mut LinUcb) -> Result<u64, ExperimentError> {
        let handle = self.engine.spawn();
        for report in self.pending.drain(..) {
            handle.submit(report)?;
        }
        let mut released = 0u64;
        for batch in &handle.finish().batches {
            let stats = batch.batch.stats();
            released += stats.released as u64;
            let crowd = batch.batch.min_released_code_frequency() as u64;
            self.ledger.record_batch(stats.released, crowd)?;
            self.server.ingest_batch_coalesced(&batch.batch)?;
        }
        *central = self.server.model()?.clone();
        Ok(released)
    }

    fn claim(&self) -> Option<(f64, f64)> {
        let delta = self.ledger.weakest().map_or(0.0, |w| w.guarantee.delta());
        Some((self.ledger.per_report_epsilon(), delta))
    }

    fn batch_guarantees(&self) -> Vec<BatchGuarantee> {
        let flatten = |r: &BatchAmplification| BatchGuarantee {
            batch_index: r.batch_index,
            released: r.released,
            crowd_size: r.crowd_size,
            epsilon: r.guarantee.epsilon(),
            delta: r.guarantee.delta(),
        };
        self.ledger.records().iter().map(flatten).collect()
    }
}

/// The trusted curator of the central-DP regime.
///
/// It keeps one [`TreeAggregator`] per arm over [`ArmSums::leaf`] vectors
/// of single reports, whose unit-ball clip bounds one leaf's sensitivity by
/// [`CENTRAL_LEAF_SENSITIVITY`]. A published model is rebuilt from the
/// noisy prefix releases by [`ArmSums::from_leaf`]: the Gram block is
/// symmetrized and ridge-shifted until the design matrix is positive
/// definite (Shariff & Sheffet 2018's shifted-regularizer repair), then
/// every arm of a fresh [`LinUcb`] is installed with [`LinUcb::set_arm`].
///
/// Privacy accounting is the binary mechanism's: one report is a single
/// leaf (in [`crate::run_cell`] a user's single report; in
/// [`crate::run_held_out`] one of a training user's several, so the claim is
/// per report, as P2B's is), covered by at most `nodes_per_leaf` noisy
/// partial sums, so the *entire* release stream costs
/// `ρ = nodes_per_leaf · Δ² / (2σ²)` — computed once at construction and
/// converted to the cell's ε there by [`rho_to_epsilon`], independent of how
/// many snapshots are published. All noise is
/// counter-based ([`TreeAggregator::node_noise`]), so cells stay
/// bit-deterministic at any worker count.
struct TreeCuratorChannel {
    model: LinUcbConfig,
    trees: Vec<TreeAggregator>,
    /// ε of the whole release stream at [`CENTRAL_TARGET_DELTA`].
    epsilon: f64,
}

impl TreeCuratorChannel {
    fn new(model: LinUcbConfig, horizon: u64, seed: u64) -> Result<Self, ExperimentError> {
        let trees = (0..model.num_actions)
            .map(|arm| {
                TreeAggregator::new(TreeConfig::new(
                    ArmSums::leaf_dimension(model.context_dimension),
                    horizon,
                    CENTRAL_SIGMA,
                    splitmix64(seed ^ (arm as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The whole stream's cost is fixed upfront by (σ, T): every leaf is
        // covered by at most nodes_per_leaf noisy nodes, regardless of how
        // many prefixes are later released.
        let rho = match trees.first() {
            Some(tree) => tree.rho_per_leaf(CENTRAL_LEAF_SENSITIVITY)?,
            None => 0.0,
        };
        Ok(Self {
            model,
            trees,
            epsilon: rho_to_epsilon(rho, CENTRAL_TARGET_DELTA)?,
        })
    }
}

impl ReportChannel for TreeCuratorChannel {
    fn submit(
        &mut self,
        report: Report,
        _central: &mut LinUcb,
        _rng: &mut StdRng,
    ) -> Result<u64, ExperimentError> {
        let leaf = ArmSums::leaf(&report.context, 1, report.reward);
        self.trees[report.action.index()].push(&leaf)?;
        Ok(1)
    }

    fn flush(&mut self, central: &mut LinUcb) -> Result<u64, ExperimentError> {
        let mut model = LinUcb::new(self.model)?;
        for (arm, tree) in self.trees.iter().enumerate() {
            let sums = ArmSums::from_leaf(&tree.release(), &self.model)?;
            model.set_arm(Action::new(arm), &sums)?;
        }
        *central = model;
        Ok(0)
    }

    fn claim(&self) -> Option<(f64, f64)> {
        Some((self.epsilon, CENTRAL_TARGET_DELTA))
    }
}

/// A trust split, not a DP mechanism: it keeps the default claim, `None`.
struct SecureAggChannel(SecureIngestService);

impl ReportChannel for SecureAggChannel {
    fn submit(
        &mut self,
        report: Report,
        _central: &mut LinUcb,
        _rng: &mut StdRng,
    ) -> Result<u64, ExperimentError> {
        // One report is a coalesced group of count 1, whose reward sum must
        // already lie in [0, 1].
        let reward = report.reward.clamp(0.0, 1.0);
        self.0.ingest(&report.context, report.action, 1, reward)?;
        Ok(1)
    }

    fn flush(&mut self, central: &mut LinUcb) -> Result<u64, ExperimentError> {
        *central = self.0.assemble()?;
        Ok(0)
    }
}
