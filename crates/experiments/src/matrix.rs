//! The scenario-matrix driver: the cross product of scenario × privacy
//! regime, executed with seeded determinism and per-cell repeats. Every cell
//! runs LinUCB.
//!
//! Every cell simulates a population of users sequentially. Each user
//! warm-starts a local LinUCB from the current central model (by cloning
//! it), interacts for `interactions_per_user` rounds with local
//! learning, and then gets **one** reporting opportunity taken with the
//! participation probability `p` — the same cadence for every regime, so the
//! regimes differ only in *how* the shared tuple is protected. That "how" is
//! the cell's report channel (`channel.rs`, one implementation per
//! [`PrivacyRegime`]): the loop here submits to it, flushes it every
//! [`MatrixConfig::flush_every_reports`] pending reports and once at the
//! end, and reads its guarantee claim — it never asks which regime it runs.
//! The same per-user loop (`Cell::run_users`) drives the training phase of
//! [`crate::run_held_out`], with an opportunity after every
//! [`crate::HELD_OUT_REPORT_EVERY`]-th interaction instead.
//!
//! Selection always uses the device's true context — what is privatized is
//! what reaches the central model, exactly as in the paper's architecture.

use crate::channel::{self, LocalDpRandomizer, Report, ReportChannel};
use crate::{
    ExperimentError, PolicyKind, PrivacyRegime, ScenarioData, ScenarioKind, ScenarioShape,
};
use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_core::{DecisionTicket, RewardJoinBuffer};
use p2b_linalg::Vector;
use p2b_privacy::{validate_omega, Participation};
use p2b_shuffler::splitmix64;
use p2b_sim::parallel_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one matrix run: the two axes plus the shared workload,
/// privacy and accounting knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Scenario axis (workloads).
    pub scenarios: Vec<ScenarioKind>,
    /// Privacy-regime axis.
    pub regimes: Vec<PrivacyRegime>,
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
    /// The default matrix: every scenario and regime, laptop-friendly sizes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scenarios: ScenarioKind::ALL.to_vec(),
            regimes: PrivacyRegime::ALL.to_vec(),
            repeats: 1,
            num_users: 400,
            interactions_per_user: 10,
            shape: ScenarioShape::default(),
            num_codes: 32,
            encoder_corpus_size: 1024,
            participation: 0.5,
            ldp_epsilon: 0.5,
            shuffler_threshold: 2,
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

    /// A held-out configuration for the paper's Figs. 6–7 and Table 1
    /// ([`crate::run_held_out`]) over one logged `scenario`: `num_users`
    /// users of `interactions_per_user` rounds, LinUCB, k = 2⁵ codes and the
    /// paper's threshold l = 10. The log holds
    /// `num_users × interactions_per_user` instances, so every user meets
    /// fresh examples, and the encoder is fitted on the training users'
    /// share of it. Training reports gather into one shuffler batch per
    /// 4 096, and only a cell's final round is recorded.
    #[must_use]
    pub fn held_out(scenario: ScenarioKind, num_users: usize, interactions_per_user: u64) -> Self {
        let logged_instances = num_users * interactions_per_user as usize;
        let training_rounds = logged_instances as f64 * crate::HELD_OUT_TRAIN_FRACTION;
        Self {
            scenarios: vec![scenario],
            num_users,
            interactions_per_user,
            shape: ScenarioShape {
                logged_instances,
                ..ScenarioShape::default()
            },
            encoder_corpus_size: training_rounds.round() as usize,
            shuffler_threshold: 10,
            shuffler_batch_size: 8192,
            flush_every_reports: 4096,
            record_every: u64::MAX,
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

    /// Total number of cells the matrix will run.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.scenarios.len() * self.regimes.len() * self.repeats as usize
    }

    /// The cold-start LinUCB of a cell over `scenario`: its shape, with
    /// exploration [`MatrixConfig::alpha`].
    pub(crate) fn linucb(&self, scenario: &ScenarioData) -> LinUcbConfig {
        LinUcbConfig::new(scenario.context_dimension(), scenario.num_actions())
            .with_alpha(self.alpha)
    }

    /// Checks the whole matrix: the axes, then everything a single cell
    /// needs ([`MatrixConfig::validate_cell`]).
    fn validate(&self) -> Result<(), ExperimentError> {
        if self.scenarios.is_empty() || self.regimes.is_empty() {
            return Err(ExperimentError::InvalidConfig {
                parameter: "axes",
                message: "scenarios and regimes must both be non-empty".to_owned(),
            });
        }
        if self.repeats == 0 {
            return Err(ExperimentError::InvalidConfig {
                parameter: "repeats",
                message: "must be at least 1".to_owned(),
            });
        }
        self.validate_cell()?;
        // The LDP budget only constrains configs that actually run the
        // LocalDp regime.
        if self.regimes.contains(&PrivacyRegime::LocalDp) {
            LocalDpRandomizer::new(self.num_codes, 2, self.ldp_epsilon)?;
        }
        Ok(())
    }

    /// Checks the parameters every cell reads, whatever its regime, and
    /// returns the validated participation probability. [`run_cell`] is
    /// public and starts here, so a configuration [`run_matrix`] rejects
    /// cannot reach a cell's arithmetic.
    fn validate_cell(&self) -> Result<Participation, ExperimentError> {
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
        // Participation and Ω are validated by the privacy crate's own
        // checks, for every cell: only the shuffled channel keeps the
        // ledger, but a bad Ω is a bad configuration under any regime.
        let participation = Participation::new(self.participation)?;
        validate_omega(self.delta_omega)?;
        Ok(participation)
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
    /// The bandit policy of this cell (always [`PolicyKind::LinUcb`]).
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
    /// (scenario-major, then regime, repeat).
    pub cells: Vec<CellResult>,
}

impl MatrixResult {
    /// Looks up the first cell matching the given axes.
    #[must_use]
    pub fn cell(&self, scenario: ScenarioKind, regime: PrivacyRegime) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.spec.scenario == scenario && c.spec.regime == regime)
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

fn cell_seed(base: u64, scenario: usize, regime: usize, repeat: u32) -> u64 {
    let mut seed = splitmix64(base);
    // The 0 stands where a policy index used to go: every golden config put
    // LinUCB at index 0, so no golden cell's seed moves.
    for component in [scenario as u64, regime as u64, 0, u64::from(repeat)] {
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
            for repeat in 0..config.repeats {
                specs.push(CellSpec {
                    scenario,
                    regime,
                    policy: PolicyKind::LinUcb,
                    repeat,
                    seed: cell_seed(config.seed, si, ri, repeat),
                });
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
/// Returns [`ExperimentError::InvalidConfig`] for cell-level parameters
/// [`run_matrix`] would reject, and propagates workload, policy, encoder,
/// privacy and engine errors.
pub fn run_cell(config: &MatrixConfig, spec: CellSpec) -> Result<CellResult, ExperimentError> {
    let mut cell = Cell::open(config, spec, config.num_users as u64)?;
    // One reporting opportunity per user: the cadence is the user's whole
    // run of rounds.
    cell.run_users(config, config.num_users, config.interactions_per_user)?;
    Ok(cell.finish())
}

/// One cell in progress: its rounds, the central model, and the report
/// channel between them.
pub(crate) struct Cell {
    spec: CellSpec,
    participation: Participation,
    /// The rounds the cell's users have played.
    pub(crate) rounds: Rounds,
    /// The central model every user warm-starts from.
    pub(crate) central: LinUcb,
    channel: Box<dyn ReportChannel>,
    submitted_reports: u64,
    shared_reports: u64,
}

impl Cell {
    /// Validates the cell parameters, builds the workload, the central
    /// model and the report channel (in that order, all from the cell's
    /// RNG). `max_reports` bounds how many reports the channel may take.
    pub(crate) fn open(
        config: &MatrixConfig,
        spec: CellSpec,
        max_reports: u64,
    ) -> Result<Self, ExperimentError> {
        let participation = config.validate_cell()?;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut scenario = ScenarioData::build(spec.scenario, &config.shape, &mut rng)?;
        let model = config.linucb(&scenario);
        let central = LinUcb::new(model)?;
        let channel = channel::open(
            config,
            spec,
            model,
            participation,
            max_reports,
            &mut scenario,
            &mut rng,
        )?;
        Ok(Self {
            spec,
            participation,
            rounds: Rounds::new(spec, scenario, rng, config.record_every),
            central,
            channel,
            submitted_reports: 0,
            shared_reports: 0,
        })
    }

    /// Plays users `0..num_users`, each warm-started from a clone of the
    /// central model (the paper's model-snapshot warm start), with a
    /// reporting opportunity after every `report_every`-th interaction taken
    /// with probability `p` — the same data budget for every regime. The
    /// channel flushes whenever `flush_every_reports` reports are pending at
    /// the end of a user, and once more after the last user.
    pub(crate) fn run_users(
        &mut self,
        config: &MatrixConfig,
        num_users: usize,
        report_every: u64,
    ) -> Result<(), ExperimentError> {
        let p = self.participation.value();
        let mut unflushed = 0usize;
        for user in 0..num_users {
            let mut local = self.central.clone();
            let (channel, central) = (&mut self.channel, &mut self.central);
            let (submitted, shared) = (&mut self.submitted_reports, &mut self.shared_reports);
            self.rounds.play_user(
                config.interactions_per_user,
                user,
                &mut local,
                report_every,
                |report, rng| {
                    // Only an interaction whose reward actually arrived can
                    // be shared: the device never learned the outcome of
                    // the others.
                    if let (true, Some(report)) = (rng.gen::<f64>() < p, report) {
                        *shared += channel.submit(report, central, rng)?;
                        *submitted += 1;
                        unflushed += 1;
                    }
                    Ok(())
                },
            )?;
            // The release cadence is the loop's, the same for every regime;
            // an immediate channel has nothing to release and its flush is a
            // no-op.
            if unflushed >= config.flush_every_reports {
                self.shared_reports += self.channel.flush(&mut self.central)?;
                unflushed = 0;
            }
        }
        if unflushed > 0 {
            self.shared_reports += self.channel.flush(&mut self.central)?;
        }
        Ok(())
    }

    /// The cell's result: its tallies, report counts and the channel's
    /// guarantee claim.
    pub(crate) fn finish(&mut self) -> CellResult {
        let rounds = &mut self.rounds;
        if rounds.series.last().map(|p| p.round) != Some(rounds.round) {
            rounds.series.push(rounds.point());
        }
        let claim = self.channel.claim();
        CellResult {
            spec: self.spec,
            rounds: rounds.round,
            final_cumulative_reward: rounds.cumulative_reward,
            final_cumulative_regret: rounds.cumulative_regret,
            average_reward: rounds.cumulative_reward / rounds.round as f64,
            shared_reports: self.shared_reports,
            submitted_reports: self.submitted_reports,
            epsilon: claim.map(|(epsilon, _)| epsilon),
            delta: claim.map(|(_, delta)| delta),
            batch_guarantees: self.channel.batch_guarantees(),
            series: std::mem::take(&mut rounds.series),
        }
    }
}

/// The rounds a run of users plays: the workload, the RNG that drives it,
/// and the running reward and regret of what the users earned.
pub(crate) struct Rounds {
    spec: CellSpec,
    pub(crate) scenario: ScenarioData,
    rng: StdRng,
    record_every: u64,
    round: u64,
    cumulative_reward: f64,
    cumulative_regret: f64,
    series: Vec<RoundPoint>,
}

impl Rounds {
    /// Rounds over `scenario` driven by `rng`, recording a series point every
    /// `record_every` rounds (`u64::MAX` keeps no series).
    pub(crate) fn new(
        spec: CellSpec,
        scenario: ScenarioData,
        rng: StdRng,
        record_every: u64,
    ) -> Self {
        Self {
            spec,
            scenario,
            rng,
            record_every,
            round: 0,
            cumulative_reward: 0.0,
            cumulative_regret: 0.0,
            series: Vec::new(),
        }
    }

    /// The running totals as a series point.
    pub(crate) fn point(&self) -> RoundPoint {
        RoundPoint {
            round: self.round,
            cumulative_reward: self.cumulative_reward,
            cumulative_regret: self.cumulative_regret,
            average_reward: self.cumulative_reward / self.round as f64,
        }
    }

    /// Plays one user for `interactions` rounds with local learning on
    /// `local`. After every `report_every`-th interaction the user has a
    /// reporting opportunity: `opportunity` receives the last interaction
    /// joined since the previous one, if any, and the cell's RNG. The
    /// opportunity that ends the user's rounds waits until the join window
    /// has drained.
    pub(crate) fn play_user(
        &mut self,
        interactions: u64,
        user: usize,
        local: &mut LinUcb,
        report_every: u64,
        mut opportunity: impl FnMut(Option<Report>, &mut StdRng) -> Result<(), ExperimentError>,
    ) -> Result<(), ExperimentError> {
        // Local learning flows through a delayed-reward join buffer. With a
        // zero window — every stationary scenario — each reward joins in
        // its own round and the fold is exactly the historical immediate
        // update (the emitter goldens pin this); the delayed scenario joins
        // rewards up to `max_delay` rounds late and loses the overflow.
        let max_delay = self.spec.scenario.max_reward_delay();
        let mut joiner: RewardJoinBuffer<(Vector, Action)> = RewardJoinBuffer::new(max_delay);
        let horizon = interactions + max_delay + 1;
        let mut deliveries: Vec<Vec<(DecisionTicket, f64)>> = vec![Vec::new(); horizon as usize];
        let mut last_joined: Option<Report> = None;
        for t in 0..horizon {
            if t < interactions {
                let (scenario, rng) = (&mut self.scenario, &mut self.rng);
                let round_data = scenario.next_round(rng);
                let action = local.select_action(&round_data.context, rng)?;
                let reward = scenario.sample_reward(&round_data, action.index(), rng)?;
                let expected = scenario.expected_reward(&round_data, action.index())?;
                let optimum = scenario.optimal_reward(&round_data)?;
                self.cumulative_reward += reward;
                self.cumulative_regret += optimum - expected;
                self.round += 1;
                if self.round % self.record_every == 0 {
                    self.series.push(self.point());
                }
                let ticket = joiner.record((round_data.context, action));
                if let Some(delay) = delivery_delay(self.spec.seed, user as u64, t, max_delay) {
                    deliveries[(t + delay) as usize].push((ticket, reward));
                }
            }
            for (ticket, reward) in deliveries[t as usize].drain(..) {
                joiner.join(ticket, reward)?;
            }
            for joined in joiner.advance_round().joined {
                let (context, action) = joined.payload;
                local.update(&context, action, joined.reward)?;
                last_joined = Some(Report {
                    user,
                    context,
                    action,
                    reward: joined.reward,
                });
            }
            if t + 1 < interactions && (t + 1) % report_every == 0 {
                opportunity(last_joined.take(), &mut self.rng)?;
            }
        }
        if interactions % report_every == 0 {
            opportunity(last_joined.take(), &mut self.rng)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CENTRAL_LEAF_SENSITIVITY, CENTRAL_SIGMA, CENTRAL_TARGET_DELTA};
    use p2b_privacy::amplified_delta;

    fn tiny() -> MatrixConfig {
        MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle])
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
    fn run_cell_rejects_the_cell_parameters_run_matrix_rejects() {
        let spec = CellSpec {
            scenario: ScenarioKind::SyntheticGaussian,
            regime: PrivacyRegime::NonPrivate,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed: 7,
        };
        // `run_cell` is public and `record_every` is a divisor in its loop.
        let mut bad = tiny();
        bad.record_every = 0;
        assert!(matches!(
            run_cell(&bad, spec),
            Err(ExperimentError::InvalidConfig {
                parameter: "record_every",
                ..
            })
        ));
        // Participation and Ω stay checked for every cell, not only the
        // shuffled ones that keep the ledger.
        let mut bad = tiny();
        bad.delta_omega = 0.0;
        assert!(matches!(
            run_cell(&bad, spec),
            Err(ExperimentError::Privacy(_))
        ));
        let mut bad = tiny();
        bad.participation = 1.5;
        assert!(matches!(
            run_cell(&bad, spec),
            Err(ExperimentError::Privacy(_))
        ));
        assert!(run_cell(&tiny(), spec).is_ok());
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
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::NonPrivate)
            .unwrap();
        assert_eq!(non_private.epsilon, None);
        assert_eq!(non_private.delta, None);
        assert!(non_private.batch_guarantees.is_empty());
        assert_eq!(non_private.shared_reports, non_private.submitted_reports);

        let ldp = result
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::LocalDp)
            .unwrap();
        assert_eq!(ldp.epsilon, Some(config.ldp_epsilon));
        assert_eq!(ldp.delta, Some(0.0));

        let p2b = result
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::P2bShuffle)
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
        // One booking per batch: the channel's ledger holds every delivered
        // batch once, in order, with the closed-form (ε, δ) of its crowd.
        let participation = Participation::new(config.participation).unwrap();
        let mut max_delta = 0.0f64;
        for (index, batch) in p2b.batch_guarantees.iter().enumerate() {
            assert_eq!(batch.batch_index, index as u64);
            if batch.released > 0 {
                let delta =
                    amplified_delta(participation, batch.crowd_size, config.delta_omega).unwrap();
                assert_eq!(batch.delta.to_bits(), delta.to_bits());
                assert_eq!(batch.epsilon.to_bits(), std::f64::consts::LN_2.to_bits());
                max_delta = max_delta.max(batch.delta);
            } else {
                assert_eq!((batch.epsilon, batch.delta), (0.0, 0.0));
            }
        }
        assert_eq!(p2b.delta.unwrap().to_bits(), max_delta.to_bits());
    }

    #[test]
    fn central_dp_cells_run_and_account_in_zcdp() {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::CentralDp])
            .with_seed(13);
        let result = run_matrix(&config).unwrap();
        assert_eq!(result.cells.len(), config.num_cells());
        let central = result
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::CentralDp)
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
    fn secure_agg_cells_run_without_a_guarantee_and_track_the_ceiling() {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::SecureAgg])
            .with_seed(17);
        let result = run_matrix(&config).unwrap();
        assert_eq!(result.cells.len(), config.num_cells());
        let secure = result
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::SecureAgg)
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
            .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::NonPrivate)
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
                .cell(ScenarioKind::SyntheticGaussian, regime)
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
