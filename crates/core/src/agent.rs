//! The local P2B agent: LinUCB + encoder + randomized reporter.

use crate::{CoreError, ModelSnapshot, P2bConfig, RandomizedReporter};
use p2b_bandit::{Action, ContextualPolicy, LinUcb, SelectScratch};
use p2b_encoding::{ContextCode, Encoder};
use p2b_linalg::Vector;
use p2b_privacy::{amplified_epsilon, PrivacyGuarantee};
use p2b_shuffler::{EncodedReport, RawReport};
use rand::Rng;
use std::sync::Arc;

/// The agent's policy state: either a pointer into the shared central
/// snapshot (no per-agent model memory at all) or an owned policy.
///
/// A warm agent starts in [`AgentPolicy::Shared`] and is promoted to
/// [`AgentPolicy::Owned`] copy-on-write, the first time it needs to fold a
/// local observation. Selection-only agents — the overwhelming majority in a
/// serving deployment — therefore never copy the central model; cold agents
/// start owned (their model is empty, there is nothing to share).
#[derive(Debug, Clone)]
enum AgentPolicy {
    /// Reads go straight through the epoch's shared [`ModelSnapshot`].
    Shared(Arc<ModelSnapshot>),
    /// The agent has local observations of its own.
    Owned(LinUcb),
}

/// Rejects a central snapshot whose model shape is not the `(d, A)` an
/// agent serves: the one check behind a warm start, a still-shared agent's
/// hop to a newer snapshot, and a shared rehydration.
fn check_snapshot_shape(
    context_dimension: usize,
    num_actions: usize,
    snapshot: &ModelSnapshot,
) -> Result<(), CoreError> {
    let found = snapshot.model().config();
    if (found.context_dimension, found.num_actions) != (context_dimension, num_actions) {
        return Err(CoreError::InvalidConfig {
            parameter: "snapshot",
            message: format!(
                "snapshot model shape ({}, {}) does not match the agent's \
                 ({context_dimension}, {num_actions})",
                found.context_dimension, found.num_actions
            ),
        });
    }
    Ok(())
}

/// The raw context of an agent's last decision and the code it encoded to.
///
/// An interaction hands one context to [`LocalAgent::select_action`] and then
/// to [`LocalAgent::observe_reward`]; the reward, and every later decision
/// on the same context, take the code from here instead of repeating the
/// encoder's scan. Only a decision writes it. Contexts are compared by bit
/// pattern, so a code taken from here is the code `encode` would return —
/// under the encoder it was computed with. Like the select memo it is not
/// behavioral state. A dormant agent keeps it together with that encoder,
/// and rehydration restores it only under the same encoder allocation.
#[derive(Debug, Clone, Default)]
struct DecidedContext {
    raw: Vec<f64>,
    code: Option<ContextCode>,
}

impl DecidedContext {
    fn remember(&mut self, raw_context: &Vector, code: ContextCode) {
        self.raw.clear();
        self.raw.extend_from_slice(raw_context.as_slice());
        self.code = Some(code);
    }

    fn code_of(&self, raw_context: &Vector) -> Option<ContextCode> {
        let decided = self.raw.iter().map(|x| x.to_bits());
        let observed = raw_context.iter().map(|x| x.to_bits());
        self.code.filter(|_| decided.eq(observed))
    }
}

/// The policy portion of a dormant (evicted) agent.
///
/// A still-shared agent persists **nothing** — its policy was a pointer into
/// the epoch's shared snapshot, so rehydration just points it at the current
/// snapshot (the same refresh it would have received on its next checkout).
/// An owned agent persists its full local policy; in a production deployment
/// this is the state written back to device/disk storage, here it lives in
/// the pool's dormant tier.
#[derive(Debug, Clone)]
enum DormantPolicy {
    /// The agent never folded a local observation; no model bytes persist.
    Shared,
    /// The agent's private policy, local observations included.
    Owned(LinUcb),
}

/// The compact persisted form of an evicted [`LocalAgent`]: everything a
/// bit-identical rehydration needs (reporter phase, privacy spent, owned
/// policy if any), plus the agent's two memos (its select memo and its
/// decided code, with the encoder that code came from) so that a
/// rehydrated agent neither re-scores unchanged arms nor re-encodes, and
/// nothing else
/// (shared snapshots are re-acquired from the current epoch).
///
/// Produced by [`LocalAgent::dehydrate`], consumed by
/// [`LocalAgent::rehydrate`]; the [`crate::AgentPool`] moves agents through
/// this form on eviction.
#[derive(Debug, Clone)]
pub struct DormantAgent {
    id: u64,
    interactions: u64,
    reporter: RandomizedReporter,
    spent: PrivacyGuarantee,
    per_report_guarantee: PrivacyGuarantee,
    /// Action count of the policy the agent was serving — checked against
    /// the snapshot on shared rehydration, exactly like a fresh warm start.
    num_actions: usize,
    policy: DormantPolicy,
    scratch: SelectScratch,
    decided: DecidedContext,
    /// The encoder `decided` was computed under.
    encoder: Arc<dyn Encoder>,
}

impl DormantAgent {
    /// The dehydrated agent's identifier.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the dormant agent carries an owned policy (local
    /// observations) rather than rehydrating from the shared snapshot.
    #[must_use]
    pub fn has_local_state(&self) -> bool {
        matches!(self.policy, DormantPolicy::Owned(_))
    }

    /// Checks that [`LocalAgent::rehydrate`] would accept `snapshot` under
    /// `encoder`, without consuming the dormant agent — so a holder can
    /// validate before it gives the agent up. Only a still-shared agent
    /// constrains the snapshot: it must have the model shape the agent was
    /// serving. An owned policy comes back as it is.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a mis-shaped snapshot.
    pub fn check_rehydration(
        &self,
        encoder: &dyn Encoder,
        snapshot: &ModelSnapshot,
    ) -> Result<(), CoreError> {
        match self.policy {
            DormantPolicy::Owned(_) => Ok(()),
            DormantPolicy::Shared => {
                check_snapshot_shape(encoder.context_dimension(), self.num_actions, snapshot)
            }
        }
    }

    /// Approximate heap bytes of the persisted policy state: zero for a
    /// still-shared agent, the LinUCB sufficient statistics otherwise.
    #[must_use]
    pub fn approx_model_bytes(&self) -> usize {
        match &self.policy {
            DormantPolicy::Shared => 0,
            DormantPolicy::Owned(policy) => approx_linucb_bytes(policy),
        }
    }
}

/// Heap footprint of the `f64` state a LinUCB model's arms hold: per action
/// the packed Cholesky factor of its design (`d(d+1)/2` words) and two
/// `d`-vectors (reward vector, cached θ, which a fold also uses as its
/// lane). Selection scores every arm off exactly this state; the model
/// keeps no second copy of it and no scratch. A promoted agent shares the
/// arms it has not written with its epoch snapshot, so the figure is what
/// the agent would own once every arm is written. A written arm holds
/// exactly this (`crates/core/tests/cow_arm_bytes.rs` pins the bytes a
/// copy-on-write fold keeps). Not counted: the model's one-word content
/// stamp per action, the agent's select memo (`2·d + 2·A` words: the last
/// context, the score kernel's lane, and a stamp and a score per action)
/// and its `DecidedContext` (`d` words), resident or dormant —
/// bookkeeping that decides how many arms a decision re-scores and whether
/// a context is encoded again, never which action is picked or which code
/// is reported.
fn approx_linucb_bytes(policy: &LinUcb) -> usize {
    let d = policy.config().context_dimension;
    let actions = policy.config().num_actions;
    actions * (d * (d + 1) / 2 + 2 * d) * std::mem::size_of::<f64>()
}

/// A local agent running on a (simulated) user device.
///
/// The agent observes raw contexts, encodes them, feeds the code's centroid
/// to its LinUCB policy, and — after every `T` interactions,
/// with probability `p` — queues the most recent interaction tuple `(y, a, r)`
/// for transmission to the shuffler. It also keeps the (ε, δ) its reporting
/// opportunities have cost so far, composed sequentially.
///
/// Agents are created through [`crate::P2bSystem::make_warm_agent`] (warm start:
/// the agent selects against the epoch's shared central snapshot and clones
/// it copy-on-write at its first local update) or
/// [`crate::P2bSystem::make_cold_agent`] (no warm start, used by the
/// cold-start baseline).
#[derive(Debug, Clone)]
pub struct LocalAgent {
    id: u64,
    policy: AgentPolicy,
    encoder: Arc<dyn Encoder>,
    reporter: RandomizedReporter,
    spent: PrivacyGuarantee,
    per_report_guarantee: PrivacyGuarantee,
    pending: Vec<RawReport>,
    interactions: u64,
    /// Reused buffers for allocation-free selection, plus the memo of the
    /// scores this agent last decided on (context, per-arm content stamps,
    /// scores): while
    /// the agent keeps deciding on one code, only the arms folded in between
    /// are re-scored. A remembered score is bit-equal to the recomputed one
    /// against any model (see [`SelectScratch`]), so the memo is not
    /// behavioral state, and it travels through [`LocalAgent::dehydrate`]
    /// and [`LocalAgent::rehydrate`] as it is: a rehydrated agent re-scores
    /// only the arms written since its last decision.
    scratch: SelectScratch,
    /// What the last decision encoded, so that neither its reward nor a
    /// later decision on the same context encodes it a second time.
    decided: DecidedContext,
}

impl LocalAgent {
    /// Creates an agent. Prefer the factory methods on [`crate::P2bSystem`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`]/[`CoreError::Bandit`] for invalid
    /// configurations and [`CoreError::EncoderMismatch`] if the encoder does
    /// not handle contexts of the configured dimension.
    pub fn new(
        id: u64,
        config: &P2bConfig,
        encoder: Arc<dyn Encoder>,
        warm_start: Option<Arc<ModelSnapshot>>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        if encoder.context_dimension() != config.context_dimension {
            return Err(CoreError::EncoderMismatch {
                expected: config.context_dimension,
                found: encoder.context_dimension(),
            });
        }
        let policy = match warm_start {
            // The warm start is a *pointer* to the epoch's shared snapshot —
            // no model bytes are copied until the agent first updates.
            Some(snapshot) => {
                check_snapshot_shape(config.context_dimension, config.num_actions, &snapshot)?;
                AgentPolicy::Shared(snapshot)
            }
            None => AgentPolicy::Owned(LinUcb::new(config.linucb())?),
        };
        let participation = config.participation()?;
        let epsilon = amplified_epsilon(participation, 0.0)?;
        let per_report_guarantee = PrivacyGuarantee::pure(epsilon)?;
        Ok(Self {
            id,
            policy,
            encoder,
            reporter: RandomizedReporter::new(participation, config.local_interactions),
            spent: PrivacyGuarantee::zero(),
            per_report_guarantee,
            pending: Vec::new(),
            interactions: 0,
            scratch: SelectScratch::new(),
            decided: DecidedContext::default(),
        })
    }

    /// The agent's identifier (used only as shuffler-stripped metadata).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of interactions the agent has observed.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Arms scored by this agent's decisions since it was created — the
    /// machine-independent cost of its select path; eviction and
    /// rehydration carry the count over. Steady traffic on one code stays
    /// near one arm per decision (the arm the last reward folded into);
    /// every context switch re-scores all arms.
    #[must_use]
    pub fn arms_scored(&self) -> u64 {
        self.scratch.arms_scored()
    }

    /// Borrows the agent's policy (e.g. to inspect per-arm statistics).
    ///
    /// While the agent has no local observations of its own this is the
    /// shared central snapshot; afterwards it is the agent's private copy.
    #[must_use]
    pub fn policy(&self) -> &LinUcb {
        match &self.policy {
            AgentPolicy::Shared(snapshot) => snapshot.model(),
            AgentPolicy::Owned(policy) => policy,
        }
    }

    /// The shared central snapshot this agent still reads through, if it has
    /// not yet been promoted to an owned policy by a local update.
    ///
    /// Two agents warm-started within the same epoch return pointers to the
    /// *same* allocation — the property that replaced the per-agent model
    /// clone/merge of the pre-service design.
    #[must_use]
    pub fn warm_snapshot(&self) -> Option<&Arc<ModelSnapshot>> {
        match &self.policy {
            AgentPolicy::Shared(snapshot) => Some(snapshot),
            AgentPolicy::Owned(_) => None,
        }
    }

    /// The agent's policy for writing: promotes a shared snapshot to an
    /// owned copy (copy-on-write) on first use.
    fn policy_mut(&mut self) -> &mut LinUcb {
        match self.policy {
            AgentPolicy::Owned(ref mut policy) => policy,
            AgentPolicy::Shared(ref snapshot) => {
                self.policy = AgentPolicy::Owned(snapshot.model().clone());
                self.policy_mut()
            }
        }
    }

    /// Borrows the agent's reporter statistics.
    #[must_use]
    pub fn reporter(&self) -> &RandomizedReporter {
        &self.reporter
    }

    /// Total privacy spent by this agent so far (sequential composition over
    /// its reporting opportunities).
    #[must_use]
    pub fn privacy_spent(&self) -> PrivacyGuarantee {
        self.spent
    }

    /// Maps a raw observed context to the model context the policy consumes:
    /// the centroid of its code.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for mis-sized contexts.
    pub fn model_context(&self, raw_context: &Vector) -> Result<Vector, CoreError> {
        let code = self.encoder.encode(raw_context)?;
        Ok(self.encoder.representative(code)?)
    }

    /// The code of `raw_context`: the last decision's when the context is
    /// bit-equal to the one decided on, as it is for the usual reward and
    /// for a user who keeps coming back with one context; an encode
    /// otherwise.
    fn code_of(&self, raw_context: &Vector) -> Result<ContextCode, CoreError> {
        match self.decided.code_of(raw_context) {
            Some(code) => Ok(code),
            None => Ok(self.encoder.encode(raw_context)?),
        }
    }

    /// Proposes an action for the observed raw context.
    ///
    /// # Errors
    ///
    /// Propagates encoder and policy errors (mis-sized contexts).
    pub fn select_action<R: Rng>(
        &mut self,
        raw_context: &Vector,
        rng: &mut R,
    ) -> Result<Action, CoreError> {
        let code = self.code_of(raw_context)?;
        self.decided.remember(raw_context, code);
        let model_context = self.encoder.representative(code)?;
        // Selection never mutates the statistics, so it reads through the
        // shared snapshot for as long as the agent has one. The agent-owned
        // scratch makes the per-decision path allocation-free, and its memo
        // survives the shared→owned promotion: a clone carries the stamps.
        let policy = match &self.policy {
            AgentPolicy::Shared(snapshot) => snapshot.model(),
            AgentPolicy::Owned(policy) => policy,
        };
        Ok(policy.select_action_with(&model_context, rng, &mut self.scratch)?)
    }

    /// Feeds back the observed reward, updates the local policy, and lets the
    /// randomized reporter decide whether to queue the interaction for
    /// sharing.
    ///
    /// # Errors
    ///
    /// Propagates encoder/policy errors; rewards must lie in `[0, 1]`.
    pub fn observe_reward<R: Rng>(
        &mut self,
        raw_context: &Vector,
        action: Action,
        reward: f64,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        let code = self.code_of(raw_context)?;
        let model_context = self.encoder.representative(code)?;
        self.policy_mut().update(&model_context, action, reward)?;
        self.interactions += 1;

        let opportunities_before = self.reporter.opportunities();
        if let Some(pending) = self.reporter.observe(code, action, reward, rng) {
            let payload = EncodedReport::new(pending.code, pending.action, pending.reward)?;
            self.pending.push(RawReport::with_timestamp(
                format!("agent-{}", self.id),
                self.interactions,
                payload,
            ));
        }
        // Every reporting *opportunity* consumes privacy budget, whether or
        // not the coin flip elected to share: the sampling itself is part of
        // the differentially private mechanism.
        if self.reporter.opportunities() > opportunities_before {
            self.spent = self.spent.compose(&self.per_report_guarantee);
        }
        Ok(())
    }

    /// Drains the reports queued since the last call.
    #[must_use]
    pub fn take_reports(&mut self) -> Vec<RawReport> {
        std::mem::take(&mut self.pending)
    }

    /// Approximate heap bytes of model state this agent *owns*: zero while
    /// it still reads through the shared snapshot, its private LinUCB
    /// statistics once promoted. The pool's memory accounting sums this.
    #[must_use]
    pub fn approx_owned_model_bytes(&self) -> usize {
        match &self.policy {
            AgentPolicy::Shared(_) => 0,
            AgentPolicy::Owned(policy) => approx_linucb_bytes(policy),
        }
    }

    /// Tears the agent down into its compact persisted form, draining any
    /// queued reports so eviction never strands them on the way to the
    /// shuffler.
    ///
    /// The round trip `rehydrate(dehydrate(agent))` is *lossless for
    /// behavior*: the rehydrated agent selects the same actions and flips
    /// the same reporter coins as the original would have, which is what
    /// makes a bounded [`crate::AgentPool`] equivalent to an unbounded one
    /// (pinned by the `pool_equivalence` property suite).
    #[must_use]
    pub fn dehydrate(mut self) -> (Vec<RawReport>, DormantAgent) {
        let reports = std::mem::take(&mut self.pending);
        let num_actions = self.policy().config().num_actions;
        let policy = match self.policy {
            AgentPolicy::Shared(_) => DormantPolicy::Shared,
            AgentPolicy::Owned(policy) => DormantPolicy::Owned(policy),
        };
        (
            reports,
            DormantAgent {
                id: self.id,
                interactions: self.interactions,
                reporter: self.reporter,
                spent: self.spent,
                per_report_guarantee: self.per_report_guarantee,
                num_actions,
                policy,
                scratch: self.scratch,
                decided: self.decided,
                encoder: self.encoder,
            },
        )
    }

    /// Rebuilds an agent from its dormant form. A still-shared agent is
    /// pointed at `snapshot` (the current epoch); an agent with local state
    /// gets its own policy back untouched.
    ///
    /// The select memo comes back as it is: its stamps make a remembered
    /// score the score a fresh scratch would compute against whatever model
    /// the agent now serves. The decided code comes back only when `encoder` is
    /// the very allocation it was computed under; under any other encoder
    /// the agent encodes its next context afresh.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a shared rehydration is
    /// handed a snapshot whose model shape is not `encoder`'s context
    /// dimension by the dormant agent's action count.
    pub fn rehydrate(
        dormant: DormantAgent,
        encoder: Arc<dyn Encoder>,
        snapshot: &Arc<ModelSnapshot>,
    ) -> Result<Self, CoreError> {
        dormant.check_rehydration(encoder.as_ref(), snapshot)?;
        Ok(Self::revive(dormant, encoder, snapshot))
    }

    /// [`LocalAgent::rehydrate`] past its check, for a holder that has
    /// already run [`DormantAgent::check_rehydration`] against the same
    /// encoder and snapshot: it cannot fail, so the holder never has to give
    /// the dormant agent up before it knows the agent comes back.
    pub(crate) fn revive(
        dormant: DormantAgent,
        encoder: Arc<dyn Encoder>,
        snapshot: &Arc<ModelSnapshot>,
    ) -> Self {
        let policy = match dormant.policy {
            DormantPolicy::Shared => AgentPolicy::Shared(Arc::clone(snapshot)),
            DormantPolicy::Owned(policy) => AgentPolicy::Owned(policy),
        };
        let decided = if Arc::ptr_eq(&dormant.encoder, &encoder) {
            dormant.decided
        } else {
            DecidedContext::default()
        };
        Self {
            id: dormant.id,
            policy,
            encoder,
            reporter: dormant.reporter,
            spent: dormant.spent,
            per_report_guarantee: dormant.per_report_guarantee,
            pending: Vec::new(),
            interactions: dormant.interactions,
            scratch: dormant.scratch,
            decided,
        }
    }

    /// Points a still-shared agent at a newer central snapshot, without
    /// copying. An agent that owns its policy is left untouched: that policy
    /// is the snapshot it was cloned from plus its own observations, and
    /// adding a newer snapshot on top would count the central statistics
    /// twice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a still-shared agent is
    /// handed a snapshot of another model shape; the agent keeps its own.
    pub fn refresh_from_snapshot(&mut self, snapshot: Arc<ModelSnapshot>) -> Result<(), CoreError> {
        if let AgentPolicy::Shared(current) = &self.policy {
            let serving = current.model().config();
            check_snapshot_shape(serving.context_dimension, serving.num_actions, &snapshot)?;
            self.policy = AgentPolicy::Shared(snapshot);
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use p2b_encoding::{EncoderStats, EncodingError, KMeansConfig, KMeansEncoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn encoder(seed: u64) -> Arc<dyn Encoder> {
        encoder_with_shoulder(seed, 0.1)
    }

    /// Four clusters of contexts, each peaked at one coordinate and raised
    /// to `shoulder` at the next: the shoulder moves every centroid.
    fn encoder_with_shoulder(seed: u64, shoulder: f64) -> Arc<dyn Encoder> {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vector> = (0..60)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                v[(i + 1) % 4] = shoulder;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap())
    }

    fn config() -> P2bConfig {
        P2bConfig::new(4, 3).with_local_interactions(2)
    }

    #[test]
    fn rejects_mismatched_encoder() {
        let cfg = P2bConfig::new(7, 3);
        let err = LocalAgent::new(0, &cfg, encoder(0), None);
        assert!(matches!(err, Err(CoreError::EncoderMismatch { .. })));
    }

    #[test]
    fn rejects_mis_shaped_warm_start_snapshots() {
        let cfg = config(); // 4-dimensional contexts, 3 actions
        let enc = encoder(9);
        // Wrong action count and wrong context dimension must both be
        // rejected at construction, exactly like the old merge-based path.
        for bad_model in [
            LinUcb::new(p2b_bandit::LinUcbConfig::new(4, 5)).unwrap(),
            LinUcb::new(p2b_bandit::LinUcbConfig::new(6, 3)).unwrap(),
        ] {
            let snapshot = Arc::new(crate::ModelSnapshot::new(0, bad_model));
            let err = LocalAgent::new(7, &cfg, Arc::clone(&enc), Some(snapshot));
            assert!(matches!(err, Err(CoreError::InvalidConfig { .. })));
        }

        // And a still-shared agent refuses to hop onto a mis-shaped snapshot.
        let good = Arc::new(crate::ModelSnapshot::new(
            0,
            LinUcb::new(cfg.linucb()).unwrap(),
        ));
        let mut agent = LocalAgent::new(8, &cfg, Arc::clone(&enc), Some(good)).unwrap();
        let bad = Arc::new(crate::ModelSnapshot::new(
            1,
            LinUcb::new(p2b_bandit::LinUcbConfig::new(4, 5)).unwrap(),
        ));
        assert!(agent.refresh_from_snapshot(bad).is_err());
        assert!(
            agent.warm_snapshot().is_some(),
            "failed refresh must not detach"
        );
    }

    #[test]
    fn rehydration_rejects_mis_shaped_snapshots() {
        let cfg = config(); // 4-dimensional contexts, 3 actions
        let enc = encoder(11);
        let good = Arc::new(crate::ModelSnapshot::new(
            0,
            LinUcb::new(cfg.linucb()).unwrap(),
        ));
        let agent = LocalAgent::new(9, &cfg, Arc::clone(&enc), Some(good)).unwrap();
        let (_, dormant) = agent.dehydrate();
        assert!(!dormant.has_local_state());
        // Wrong action count and wrong dimension are both rejected, exactly
        // like a fresh warm start would reject them.
        for bad_model in [
            LinUcb::new(p2b_bandit::LinUcbConfig::new(4, 5)).unwrap(),
            LinUcb::new(p2b_bandit::LinUcbConfig::new(6, 3)).unwrap(),
        ] {
            let bad = Arc::new(crate::ModelSnapshot::new(1, bad_model));
            assert!(matches!(
                LocalAgent::rehydrate(dormant.clone(), Arc::clone(&enc), &bad),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
        // A well-shaped snapshot rehydrates fine.
        let fresh = Arc::new(crate::ModelSnapshot::new(
            2,
            LinUcb::new(cfg.linucb()).unwrap(),
        ));
        let revived = LocalAgent::rehydrate(dormant, Arc::clone(&enc), &fresh).unwrap();
        assert!(revived
            .warm_snapshot()
            .is_some_and(|s| Arc::ptr_eq(s, &fresh)));
        assert_eq!(revived.id(), 9);
    }

    #[test]
    fn interactions_update_the_policy_and_queue_reports() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = LocalAgent::new(1, &config(), encoder(1), None).unwrap();
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1])
            .normalized_l1()
            .unwrap();
        for _ in 0..20 {
            let action = agent.select_action(&ctx, &mut rng).unwrap();
            agent.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        }
        assert_eq!(agent.interactions(), 20);
        assert_eq!(agent.policy().observations(), 20);
        // With T = 2 there were 10 opportunities; at p = 0.5 some reports are
        // queued with overwhelming probability under this seed.
        let reports = agent.take_reports();
        assert!(!reports.is_empty());
        assert!(
            agent.take_reports().is_empty(),
            "drain must clear the queue"
        );
        assert_eq!(agent.reporter().opportunities(), 10);
    }

    #[test]
    fn select_counters_follow_the_folds_between_decisions() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = encoder(6);
        // Three arms; the two contexts fall in different codes.
        let mut agent = LocalAgent::new(3, &config(), Arc::clone(&enc), None).unwrap();
        let here = Vector::from(vec![1.0, 0.1, 0.1, 0.1]);
        let there = Vector::from(vec![0.1, 0.1, 0.1, 1.0]);
        assert_ne!(enc.encode(&here).unwrap(), enc.encode(&there).unwrap());
        assert_eq!(agent.arms_scored(), 0);

        // Ten decisions on one code, one fold after each: all three arms
        // once, then only the arm the last reward went into.
        for _ in 0..10 {
            let action = agent.select_action(&here, &mut rng).unwrap();
            agent.observe_reward(&here, action, 1.0, &mut rng).unwrap();
        }
        assert_eq!(agent.arms_scored(), 3 + 9);
        // A context switch re-scores every arm, each way, whatever was
        // folded.
        agent.select_action(&there, &mut rng).unwrap();
        assert_eq!(agent.arms_scored(), 3 + 9 + 3);
        agent.select_action(&here, &mut rng).unwrap();
        assert_eq!(agent.arms_scored(), 3 + 9 + 3 + 3);
        // Nothing folded since: nothing scored.
        agent.select_action(&here, &mut rng).unwrap();
        assert_eq!(agent.arms_scored(), 18);

        // The memo and its count travel through eviction: a rehydrated agent
        // keeps both and, nothing folded since, scores nothing.
        let (_, dormant) = agent.dehydrate();
        let snapshot = Arc::new(crate::ModelSnapshot::new(
            0,
            LinUcb::new(config().linucb()).unwrap(),
        ));
        let mut revived = LocalAgent::rehydrate(dormant, enc, &snapshot).unwrap();
        assert_eq!(revived.arms_scored(), 18);
        revived.select_action(&here, &mut rng).unwrap();
        assert_eq!(revived.arms_scored(), 18);
    }

    /// Counts the `encode` calls that reach the encoder it wraps.
    #[derive(Debug)]
    pub(crate) struct CountingEncoder {
        inner: Arc<dyn Encoder>,
        encodes: AtomicUsize,
        representatives: AtomicUsize,
    }

    impl CountingEncoder {
        pub(crate) fn wrap(inner: Arc<dyn Encoder>) -> Arc<Self> {
            Arc::new(Self {
                inner,
                encodes: AtomicUsize::new(0),
                representatives: AtomicUsize::new(0),
            })
        }

        pub(crate) fn encodes(&self) -> usize {
            self.encodes.load(Ordering::Relaxed)
        }

        pub(crate) fn representatives(&self) -> usize {
            self.representatives.load(Ordering::Relaxed)
        }
    }

    impl Encoder for CountingEncoder {
        fn num_codes(&self) -> usize {
            self.inner.num_codes()
        }
        fn context_dimension(&self) -> usize {
            self.inner.context_dimension()
        }
        fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError> {
            self.encodes.fetch_add(1, Ordering::Relaxed);
            self.inner.encode(context)
        }
        fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError> {
            self.representatives.fetch_add(1, Ordering::Relaxed);
            self.inner.representative(code)
        }
        fn stats(&self) -> &EncoderStats {
            self.inner.stats()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    #[test]
    fn an_interaction_encodes_its_context_once() {
        let counting = CountingEncoder::wrap(encoder(8));
        let encodes = || counting.encodes();
        let enc: Arc<dyn Encoder> = counting.clone();
        // The same encoder behind another allocation: an agent rehydrated
        // under it cannot know its decided code still holds, so forgets it.
        let elsewhere: Arc<dyn Encoder> = CountingEncoder::wrap(Arc::clone(&enc));
        let snapshot = Arc::new(crate::ModelSnapshot::new(
            0,
            LinUcb::new(config().linucb()).unwrap(),
        ));
        let here = Vector::from(vec![1.0, 0.1, 0.1, 0.0]);
        let there = Vector::from(vec![0.1, 0.1, 0.1, 1.0]);

        // A decision encodes, its reward reuses the decision's code, and so
        // does every later decision on the same context …
        let mut rng = StdRng::seed_from_u64(8);
        let mut agent = LocalAgent::new(4, &config(), Arc::clone(&enc), None).unwrap();
        for _ in 0..10 {
            let action = agent.select_action(&here, &mut rng).unwrap();
            agent.observe_reward(&here, action, 1.0, &mut rng).unwrap();
        }
        assert_eq!(encodes(), 1);

        // … and leaves the agent where two encodes an interaction leave it:
        // the twin forgets its decided code before every decision and every
        // reward, by being rehydrated under the other encoder allocation.
        let mut rng = StdRng::seed_from_u64(8);
        let mut twin = LocalAgent::new(4, &config(), Arc::clone(&enc), None).unwrap();
        let mut twin_reports = Vec::new();
        let mut hop = |agent: LocalAgent| {
            let next = if Arc::ptr_eq(&agent.encoder, &enc) {
                &elsewhere
            } else {
                &enc
            };
            let (reports, dormant) = agent.dehydrate();
            twin_reports.extend(reports);
            LocalAgent::rehydrate(dormant, Arc::clone(next), &snapshot).unwrap()
        };
        for _ in 0..10 {
            twin = hop(twin);
            let action = twin.select_action(&here, &mut rng).unwrap();
            twin = hop(twin);
            twin.observe_reward(&here, action, 1.0, &mut rng).unwrap();
        }
        assert_eq!(encodes(), 1 + 20);
        let bits = |agent: &LocalAgent| -> Vec<u64> {
            let scores = agent.policy().scores(&agent.model_context(&there).unwrap());
            scores.unwrap().into_iter().map(f64::to_bits).collect()
        };
        assert_eq!(bits(&agent), bits(&twin));
        twin_reports.extend(twin.take_reports());
        assert!(!twin_reports.is_empty());
        assert_eq!(agent.take_reports(), twin_reports);
        let before = encodes();

        // Only the bits of the last decision's context are reused: not
        // another context, not its `-0.0` twin, not a non-finite one.
        let action = agent.select_action(&here, &mut rng).unwrap();
        agent.observe_reward(&there, action, 0.0, &mut rng).unwrap();
        let mut negated = here.clone();
        negated.as_mut_slice()[3] = -0.0;
        agent
            .observe_reward(&negated, action, 0.0, &mut rng)
            .unwrap();
        assert_eq!(encodes(), before + 2);
        negated.as_mut_slice()[3] = f64::NAN;
        assert!(matches!(
            agent.observe_reward(&negated, action, 0.0, &mut rng),
            Err(CoreError::Encoding(EncodingError::NonFiniteContext {
                index: 3
            }))
        ));
        assert!(matches!(
            agent.select_action(&negated, &mut rng),
            Err(CoreError::Encoding(EncodingError::NonFiniteContext {
                index: 3
            }))
        ));
        // The decision is still remembered after rewards for other contexts
        // and a decision that failed to encode …
        agent.observe_reward(&here, action, 0.0, &mut rng).unwrap();
        assert_eq!(encodes(), before + 4);
        // … and only a decision on another context replaces it.
        agent.select_action(&there, &mut rng).unwrap();
        agent.observe_reward(&there, action, 0.0, &mut rng).unwrap();
        agent.select_action(&here, &mut rng).unwrap();
        assert_eq!(encodes(), before + 6);
    }

    #[test]
    fn rehydration_under_another_encoder_forgets_the_decided_code() {
        let cfg = config().with_local_interactions(1);
        // The second encoder's clusters have shoulders, so its centroid of
        // the context's cluster is another point than the first encoder's.
        let (first, second) = (encoder(12), encoder_with_shoulder(13, 0.5));
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1]);
        let (was, is) = (first.encode(&ctx).unwrap(), second.encode(&ctx).unwrap());
        assert_ne!(was, is, "the two encoders must disagree on the context");

        // A model under which the three centroids the agent can reach want
        // different arms: arm 0 pays on the first encoder's centroid of its
        // code, arm 1 on the second encoder's centroid of that stale code,
        // arm 2 on the second encoder's centroid of its own code.
        let centroid = |encoder: &Arc<dyn Encoder>, code| encoder.representative(code).unwrap();
        let mut model = LinUcb::new(cfg.linucb()).unwrap();
        for _ in 0..30 {
            for (context, paying) in [
                (centroid(&first, was), 0),
                (centroid(&second, was), 1),
                (centroid(&second, is), 2),
            ] {
                for arm in 0..3 {
                    let reward = if arm == paying { 1.0 } else { 0.0 };
                    model.update(&context, Action::new(arm), reward).unwrap();
                }
            }
        }
        let snapshot = Arc::new(crate::ModelSnapshot::new(0, model));
        let mut rng = StdRng::seed_from_u64(13);
        let mut agent =
            LocalAgent::new(12, &cfg, Arc::clone(&first), Some(Arc::clone(&snapshot))).unwrap();
        assert_eq!(agent.select_action(&ctx, &mut rng).unwrap(), Action::new(0));

        // Same context, same model, another encoder: the decided code is the
        // first encoder's and must not survive into the second's agent.
        let (_, dormant) = agent.dehydrate();
        let mut revived = LocalAgent::rehydrate(dormant, Arc::clone(&second), &snapshot).unwrap();
        let action = revived.select_action(&ctx, &mut rng).unwrap();
        assert_eq!(action, Action::new(2), "decided on the stale code");
        revived.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        let mut expected = snapshot.model().clone();
        expected
            .update(&centroid(&second, is), action, 1.0)
            .unwrap();
        assert_eq!(
            revived.policy().reward_vector(action).unwrap(),
            expected.reward_vector(action).unwrap(),
            "folded the stale code"
        );
        let reports = revived.take_reports();
        assert_eq!(reports.len(), 1, "T = 1, p = 0.5: this seed reports");
        assert_eq!(
            reports[0].payload().code(),
            is.value(),
            "reported the stale code"
        );
    }

    #[test]
    fn privacy_accounting_tracks_opportunities() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut agent = LocalAgent::new(2, &config(), encoder(2), None).unwrap();
        let ctx = Vector::filled(4, 0.25);
        for _ in 0..10 {
            let action = agent.select_action(&ctx, &mut rng).unwrap();
            agent.observe_reward(&ctx, action, 0.5, &mut rng).unwrap();
        }
        // T = 2 → 5 opportunities → ε = 5 · ln 2.
        let spent = agent.privacy_spent();
        assert!((spent.epsilon() - 5.0 * std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn privacy_spent_is_n_fold_composition_across_eviction() {
        let mut rng = StdRng::seed_from_u64(12);
        let enc = encoder(12);
        let cfg = config();
        let per_report =
            PrivacyGuarantee::pure(amplified_epsilon(cfg.participation().unwrap(), 0.0).unwrap())
                .unwrap();
        let n_fold = |n: u64| {
            (0..n).fold(PrivacyGuarantee::zero(), |total, _| {
                total.compose(&per_report)
            })
        };
        let assert_bits = |agent: &LocalAgent, n: u64| {
            let spent = agent.privacy_spent();
            let expected = n_fold(n);
            assert_eq!(spent.epsilon().to_bits(), expected.epsilon().to_bits());
            assert_eq!(spent.delta().to_bits(), expected.delta().to_bits());
        };
        let ctx = Vector::filled(4, 0.25);
        let mut agent = LocalAgent::new(12, &cfg, Arc::clone(&enc), None).unwrap();
        for _ in 0..14 {
            let action = agent.select_action(&ctx, &mut rng).unwrap();
            agent.observe_reward(&ctx, action, 0.5, &mut rng).unwrap();
        }
        // T = 2 → 7 opportunities.
        assert_eq!(agent.reporter().opportunities(), 7);
        assert_bits(&agent, 7);

        let snapshot = Arc::new(crate::ModelSnapshot::new(
            0,
            LinUcb::new(cfg.linucb()).unwrap(),
        ));
        let (_, dormant) = agent.dehydrate();
        let mut revived = LocalAgent::rehydrate(dormant, Arc::clone(&enc), &snapshot).unwrap();
        assert_bits(&revived, 7);

        // The revived agent keeps composing from where it left off.
        for _ in 0..6 {
            let action = revived.select_action(&ctx, &mut rng).unwrap();
            revived.observe_reward(&ctx, action, 0.5, &mut rng).unwrap();
        }
        assert_eq!(revived.reporter().opportunities(), 10);
        assert_bits(&revived, 10);
    }

    #[test]
    fn warm_start_transfers_central_knowledge() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = encoder(3);
        let cfg = config();

        // Train a central model that prefers action 2 for the centroid of
        // whatever code the test context falls into.
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1])
            .normalized_l1()
            .unwrap();
        let code = enc.encode(&ctx).unwrap();
        let model_ctx = enc.representative(code).unwrap();
        let mut central = LinUcb::new(cfg.linucb()).unwrap();
        for _ in 0..200 {
            central.update(&model_ctx, Action::new(2), 1.0).unwrap();
            central.update(&model_ctx, Action::new(0), 0.0).unwrap();
            central.update(&model_ctx, Action::new(1), 0.0).unwrap();
        }
        let snapshot = Arc::new(crate::ModelSnapshot::new(1, central));

        let mut warm =
            LocalAgent::new(4, &cfg, Arc::clone(&enc), Some(Arc::clone(&snapshot))).unwrap();
        // Until its first local update, the agent reads straight through the
        // shared snapshot — no copy.
        assert!(warm
            .warm_snapshot()
            .is_some_and(|s| Arc::ptr_eq(s, &snapshot)));
        // A warm agent should immediately prefer action 2.
        let mut votes = [0usize; 3];
        for _ in 0..20 {
            votes[warm.select_action(&ctx, &mut rng).unwrap().index()] += 1;
        }
        assert!(votes[2] >= 15, "warm agent votes: {votes:?}");

        // The first local observation promotes the agent to an owned copy.
        let action = warm.select_action(&ctx, &mut rng).unwrap();
        warm.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        assert!(warm.warm_snapshot().is_none());
        assert_eq!(
            warm.policy().observations(),
            snapshot.model().observations() + 1
        );

        // A still-shared sibling can hop to a newer snapshot without copying.
        let mut sibling =
            LocalAgent::new(5, &cfg, Arc::clone(&enc), Some(Arc::clone(&snapshot))).unwrap();
        let newer = Arc::new(crate::ModelSnapshot::new(
            2,
            LinUcb::new(cfg.linucb()).unwrap(),
        ));
        sibling.refresh_from_snapshot(Arc::clone(&newer)).unwrap();
        assert!(sibling
            .warm_snapshot()
            .is_some_and(|s| Arc::ptr_eq(s, &newer)));
    }

    #[test]
    fn refreshing_an_owned_agent_leaves_its_policy_untouched() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = encoder(4);
        let cfg = config();
        let ctx = Vector::from(vec![1.0, 0.1, 0.1, 0.1]);
        let mut central = LinUcb::new(cfg.linucb()).unwrap();
        let centroid = enc.representative(enc.encode(&ctx).unwrap()).unwrap();
        for arm in 0..3 {
            central.update(&centroid, Action::new(arm), 1.0).unwrap();
        }
        let snapshot = Arc::new(crate::ModelSnapshot::new(1, central));

        // One local observation promotes the agent to an owned copy of the
        // snapshot: its policy already holds the central statistics.
        let mut agent = LocalAgent::new(5, &cfg, Arc::clone(&enc), Some(snapshot)).unwrap();
        let action = agent.select_action(&ctx, &mut rng).unwrap();
        agent.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        assert!(agent.warm_snapshot().is_none());
        let bits = |agent: &LocalAgent| -> Vec<u64> {
            (0..3)
                .flat_map(|arm| agent.policy().factor(Action::new(arm)).unwrap().packed())
                .map(|x| x.to_bits())
                .collect()
        };
        let (observations, design) = (agent.policy().observations(), bits(&agent));
        assert_eq!(observations, 3 + 1);

        // A newer epoch's snapshot, which still holds those statistics, must
        // not be added on top of them.
        let mut newer = LinUcb::new(cfg.linucb()).unwrap();
        for arm in 0..3 {
            newer.update(&centroid, Action::new(arm), 1.0).unwrap();
        }
        newer.update(&centroid, Action::new(0), 0.0).unwrap();
        let newer = Arc::new(crate::ModelSnapshot::new(2, newer));
        agent.refresh_from_snapshot(newer).unwrap();
        assert!(agent.warm_snapshot().is_none());
        assert_eq!(agent.policy().observations(), observations);
        assert_eq!(bits(&agent), design);
    }

    #[test]
    fn rejects_out_of_range_rewards() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut agent = LocalAgent::new(6, &config(), encoder(5), None).unwrap();
        let ctx = Vector::filled(4, 0.25);
        let action = agent.select_action(&ctx, &mut rng).unwrap();
        assert!(agent.observe_reward(&ctx, action, 1.5, &mut rng).is_err());
    }
}
