//! Bounded-memory serving pool of warm local agents.
//!
//! The paper's deployment story (Fig. 2) is millions of devices
//! warm-starting from one central model. A serving tier that simulates or
//! fronts that population cannot keep every agent materialized: policies
//! are `O(A·d²)` each, so residency must be bounded and cold agents must be
//! evicted and rehydrated on demand. [`AgentPool`] is that tier:
//!
//! * **Keyed by context code** — one agent per encoded context bucket, the
//!   granularity the central model is trained at.
//! * **Bounded residency** — at most
//!   [`AgentPoolConfig::max_resident_agents`] agents are held warm; the
//!   least-recently-used resident is evicted when the budget is exceeded.
//! * **Eviction persists deltas** — an evicted agent is
//!   [dehydrated](crate::LocalAgent::dehydrate): its queued reports drain
//!   into the pool outbox (the reporter path to the shuffler never loses
//!   data) and its local policy state moves to the dormant tier, together
//!   with its select memo and decided code, so a rehydrated agent neither
//!   re-sweeps its arms nor re-encodes its context.
//! * **Rehydration from the current snapshot** — a dormant agent that never
//!   folded a local observation costs *zero* persisted model bytes and is
//!   rebuilt as a pointer into the current epoch's shared
//!   [`crate::ModelSnapshot`]; agents with local observations get their
//!   policy back untouched.
//! * **One checkout path** — every checkout goes through
//!   [`AgentPool::with_agent_at`] against an [`AgentSource`]: one epoch's
//!   snapshot, the encoder and the configuration, captured once from the
//!   [`P2bSystem`] and shared by pointer. A pool never holds the system.
//!
//! Because dehydration is lossless for behavior, a bounded pool selects
//! exactly the same actions as an unbounded one — the `pool_equivalence`
//! property suite pins this.

use crate::{CoreError, LocalAgent, ModelSnapshot, P2bConfig, P2bSystem};
use p2b_encoding::Encoder;
use p2b_shuffler::RawReport;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Configuration of an [`AgentPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentPoolConfig {
    /// Maximum number of resident (warm) agents; `None` means unbounded.
    pub max_resident_agents: Option<usize>,
}

impl AgentPoolConfig {
    /// An unbounded pool.
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            max_resident_agents: None,
        }
    }

    /// A pool holding at most `max_resident_agents` warm agents.
    #[must_use]
    pub fn bounded(max_resident_agents: usize) -> Self {
        Self {
            max_resident_agents: Some(max_resident_agents),
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.max_resident_agents == Some(0) {
            return Err(CoreError::InvalidConfig {
                parameter: "max_resident_agents",
                message: "must be at least 1 (or None for unbounded)".to_owned(),
            });
        }
        Ok(())
    }
}

/// Lifetime counters of an [`AgentPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Checkouts served by a resident agent.
    pub hits: u64,
    /// Checkouts that rebuilt a dormant agent.
    pub rehydrations: u64,
    /// Checkouts that created a brand-new warm agent.
    pub creations: u64,
    /// Residents evicted to the dormant tier.
    pub evictions: u64,
}

impl PoolStats {
    /// Checkouts not served by a resident agent.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.rehydrations + self.creations
    }
}

/// A cloneable, thread-safe checkout source: one epoch's shared central
/// snapshot plus everything needed to mint, refresh or rehydrate agents
/// *without* holding `&mut P2bSystem` — the device's view of the paper's
/// deployment (Fig. 2), which warm-starts from the current epoch's central
/// model.
///
/// It is the only thing an [`AgentPool`] checks out against. The
/// orchestrator captures the current epoch once ([`AgentSource::capture`]),
/// hands clones to its worker threads (clones share the snapshot
/// allocation — capturing is a pointer copy, not a model copy), and each
/// worker drives its own pool through [`AgentPool::with_agent_at`].
/// After an ingestion epoch bump the orchestrator captures a fresh source;
/// still-shared residents hop to it lazily at their next checkout.
#[derive(Debug, Clone)]
pub struct AgentSource {
    config: P2bConfig,
    encoder: Arc<dyn Encoder>,
    snapshot: Arc<ModelSnapshot>,
}

impl AgentSource {
    /// Captures the current epoch's snapshot (plus the configuration and
    /// encoder agents are built from) out of a system.
    ///
    /// # Errors
    ///
    /// Surfaces internal model-service failures from snapshot assembly.
    pub fn capture(system: &mut P2bSystem) -> Result<Self, CoreError> {
        let snapshot = system.central_snapshot()?;
        Ok(Self {
            config: system.config().clone(),
            encoder: Arc::clone(system.encoder()),
            snapshot,
        })
    }

    /// The captured epoch's shared model snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &Arc<ModelSnapshot> {
        &self.snapshot
    }

    /// The captured snapshot's ingestion epoch — the "decision epoch" a
    /// serving harness records against the applied epoch to measure ingest
    /// lag.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Mints a warm agent pointed at the captured snapshot. The caller
    /// chooses the id; the serving pool uses the checkout key, which is
    /// unique per agent by construction (one agent per context code).
    fn make_agent(&self, id: u64) -> Result<LocalAgent, CoreError> {
        LocalAgent::new(
            id,
            &self.config,
            Arc::clone(&self.encoder),
            Some(Arc::clone(&self.snapshot)),
        )
    }
}

/// A resident agent plus its current LRU stamp.
struct Resident {
    agent: LocalAgent,
    stamp: u64,
}

/// The bounded-memory agent pool; see the module docs for the design.
///
/// # Example
///
/// ```
/// use p2b_core::{AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem};
/// use p2b_encoding::{KMeansConfig, KMeansEncoder};
/// use p2b_linalg::Vector;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let corpus: Vec<Vector> = (0..64)
///     .map(|i| Vector::from(vec![(i % 4) as f64 + 0.5, 1.0, 2.0]).normalized_l1().unwrap())
///     .collect();
/// let encoder = Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng)?);
/// let mut system = P2bSystem::new(P2bConfig::new(3, 5), encoder)?;
/// let source = AgentSource::capture(&mut system)?;
///
/// // Hold at most 2 agents warm over a 4-code space.
/// let mut pool = AgentPool::new(AgentPoolConfig::bounded(2))?;
/// let ctx = Vector::from(vec![1.0, 0.5, 0.25]).normalized_l1()?;
/// for code in [0u64, 1, 2, 3, 0, 1] {
///     let action = pool.with_agent_at(&source, code, |agent| {
///         agent.select_action(&ctx, &mut rng)
///     })?;
///     assert!(action.index() < 5);
/// }
/// assert!(pool.resident_agents() <= 2);
/// assert_eq!(pool.stats().evictions, 4);
/// # Ok(())
/// # }
/// ```
pub struct AgentPool {
    config: AgentPoolConfig,
    residents: HashMap<u64, Resident>,
    dormant: HashMap<u64, crate::DormantAgent>,
    /// LRU index: stamp → key. Stamps are unique, so the minimum entry is
    /// always the single least-recently-used resident.
    lru: BTreeMap<u64, u64>,
    clock: u64,
    outbox: Vec<RawReport>,
    stats: PoolStats,
}

impl AgentPool {
    /// Creates an empty pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero residency budget.
    pub fn new(config: AgentPoolConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self {
            config,
            residents: HashMap::new(),
            dormant: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            outbox: Vec::new(),
            stats: PoolStats::default(),
        })
    }

    /// The pool configuration.
    #[must_use]
    pub fn config(&self) -> &AgentPoolConfig {
        &self.config
    }

    /// Number of agents currently held warm.
    #[must_use]
    pub fn resident_agents(&self) -> usize {
        self.lru.len()
    }

    /// Number of agents persisted in the dormant tier.
    #[must_use]
    pub fn dormant_agents(&self) -> usize {
        self.dormant.len()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Approximate heap bytes of model state owned by resident agents, plus
    /// the model bytes persisted in the dormant tier. Still-shared agents
    /// (resident or dormant) contribute zero: they read through the epoch's
    /// shared snapshot.
    #[must_use]
    pub fn approx_model_bytes(&self) -> (usize, usize) {
        let resident = self
            .residents
            .values()
            .map(|r| r.agent.approx_owned_model_bytes())
            .sum();
        let dormant = self
            .dormant
            .values()
            .map(crate::DormantAgent::approx_model_bytes)
            .sum();
        (resident, dormant)
    }

    /// Checks the agent for `key` out of the pool against a captured
    /// [`AgentSource`], runs `f` on it, and checks it back in — evicting the
    /// least-recently-used resident if the residency budget is now exceeded.
    /// Worker threads each own a pool and share (clones of) one source per
    /// epoch.
    ///
    /// Checkout order of preference: resident (a still-shared resident hops
    /// to the source's snapshot if its epoch differs — a pointer swap, not a
    /// copy), dormant (rehydrated against the source), fresh (a new warm
    /// agent whose id is the checkout key). Reports the agent queued during
    /// `f` are drained into the pool outbox at checkin, so the reporter path
    /// survives any later eviction.
    ///
    /// # Errors
    ///
    /// Propagates snapshot, rehydration and closure errors. The agent is
    /// checked back in even when `f` fails, and a checkout that fails — a
    /// mis-shaped snapshot — never ran `f` and leaves the agent where it
    /// was, resident or dormant.
    pub fn with_agent_at<T>(
        &mut self,
        source: &AgentSource,
        key: u64,
        f: impl FnOnce(&mut LocalAgent) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let mut agent = self.checkout_at(source, key)?;
        let result = f(&mut agent);
        self.checkin(key, agent);
        result
    }

    // Checkout asks whatever can refuse it — a shape check — while the agent
    // still sits in its map, and takes it out only afterwards: a failed
    // checkout leaves the pool as it found it.
    fn checkout_at(&mut self, source: &AgentSource, key: u64) -> Result<LocalAgent, CoreError> {
        if let Entry::Occupied(mut held) = self.residents.entry(key) {
            let agent = &mut held.get_mut().agent;
            if let Some(snapshot) = agent.warm_snapshot() {
                if snapshot.epoch() != source.epoch() {
                    agent.refresh_from_snapshot(Arc::clone(source.snapshot()))?;
                }
            }
            let resident = held.remove();
            self.lru.remove(&resident.stamp);
            self.stats.hits += 1;
            return Ok(resident.agent);
        }
        if let Entry::Occupied(parked) = self.dormant.entry(key) {
            parked
                .get()
                .check_rehydration(source.encoder.as_ref(), &source.snapshot)?;
            self.stats.rehydrations += 1;
            return LocalAgent::rehydrate(
                parked.remove(),
                Arc::clone(&source.encoder),
                &source.snapshot,
            );
        }
        self.stats.creations += 1;
        source.make_agent(key)
    }

    fn checkin(&mut self, key: u64, mut agent: LocalAgent) {
        self.outbox.extend(agent.take_reports());
        let stamp = self.clock;
        self.clock += 1;
        self.residents.insert(key, Resident { agent, stamp });
        self.lru.insert(stamp, key);
        if let Some(budget) = self.config.max_resident_agents {
            while self.lru.len() > budget {
                self.evict_lru();
                self.stats.evictions += 1;
            }
        }
    }

    /// Dehydrates the least-recently-used resident into the dormant tier.
    /// Budget accounting happens at the call sites: only budget pressure
    /// counts as an eviction in [`PoolStats`], a [`AgentPool::park_all`]
    /// drain does not.
    fn evict_lru(&mut self) {
        let Some((_, key)) = self.lru.pop_first() else {
            return;
        };
        // The LRU index and the resident map move in lockstep; if an entry
        // is somehow stale, dropping it from the index already repaired the
        // books and there is nothing to dehydrate.
        let Some(resident) = self.residents.remove(&key) else {
            return;
        };
        let (reports, dormant) = resident.agent.dehydrate();
        self.outbox.extend(reports);
        self.dormant.insert(key, dormant);
    }

    /// Evicts every resident agent (in LRU order), persisting all local
    /// state to the dormant tier — the shutdown/drain path of a serving
    /// deployment, and how simulations flush trailing reports.
    pub fn park_all(&mut self) {
        while !self.lru.is_empty() {
            self.evict_lru();
        }
    }

    /// Drains the reports funneled through the pool (queued at checkin and
    /// eviction), in funnel order.
    #[must_use]
    pub fn drain_reports(&mut self) -> Vec<RawReport> {
        std::mem::take(&mut self.outbox)
    }
}

impl std::fmt::Debug for AgentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentPool")
            .field("config", &self.config)
            .field("resident_agents", &self.resident_agents())
            .field("dormant_agents", &self.dormant_agents())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::CountingEncoder;
    use crate::P2bConfig;
    use p2b_bandit::ContextualPolicy;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn system() -> P2bSystem {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus: Vec<Vector> = (0..80)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        let encoder =
            Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap());
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(1)
            .with_shuffler_threshold(1);
        P2bSystem::new(config, encoder).unwrap()
    }

    fn source() -> AgentSource {
        AgentSource::capture(&mut system()).unwrap()
    }

    fn ctx(cluster: usize) -> Vector {
        let mut raw = vec![0.05; 4];
        raw[cluster] = 1.0;
        Vector::from(raw).normalized_l1().unwrap()
    }

    #[test]
    fn validates_configuration() {
        assert!(AgentPool::new(AgentPoolConfig::bounded(0)).is_err());
        assert!(AgentPool::new(AgentPoolConfig::bounded(1)).is_ok());
    }

    #[test]
    fn residency_never_exceeds_the_budget() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(3)).unwrap();
        for step in 0..40u64 {
            let key = step % 7;
            pool.with_agent_at(&source, key, |agent| {
                agent.select_action(&ctx((key % 4) as usize), &mut rng)
            })
            .unwrap();
            assert!(
                pool.resident_agents() <= 3,
                "budget violated at step {step}"
            );
        }
        assert!(pool.stats().evictions > 0);
        assert!(pool.stats().rehydrations > 0);
        // Every key's agent was created exactly once: rehydration, not
        // re-creation, serves returning keys.
        assert_eq!(pool.stats().creations, 7);
        assert_eq!(pool.resident_agents() + pool.dormant_agents(), 7);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(2);
        let mut pool = AgentPool::new(AgentPoolConfig::unbounded()).unwrap();
        for key in 0..20u64 {
            pool.with_agent_at(&source, key, |agent| {
                agent.select_action(&ctx((key % 4) as usize), &mut rng)
            })
            .unwrap();
        }
        assert_eq!(pool.resident_agents(), 20);
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.stats().creations, 20);
    }

    #[test]
    fn eviction_funnels_reports_to_the_outbox() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(3);
        // T = 1, p = 0.5: interactions queue reports with high probability.
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(1)).unwrap();
        let mut selected = 0u64;
        for step in 0..30u64 {
            let key = step % 3;
            pool.with_agent_at(&source, key, |agent| {
                let c = ctx((key % 4) as usize);
                let action = agent.select_action(&c, &mut rng)?;
                agent.observe_reward(&c, action, 1.0, &mut rng)?;
                selected += 1;
                Ok(())
            })
            .unwrap();
        }
        let reports = pool.drain_reports();
        assert!(!reports.is_empty(), "some coin flips must have landed");
        assert!(
            pool.drain_reports().is_empty(),
            "drain must clear the outbox"
        );
        assert_eq!(selected, 30);
    }

    #[test]
    fn rehydrated_agents_keep_their_local_observations() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(1)).unwrap();
        // Key 0's agent folds 5 local observations.
        pool.with_agent_at(&source, 0, |agent| {
            for _ in 0..5 {
                let c = ctx(0);
                let action = agent.select_action(&c, &mut rng)?;
                agent.observe_reward(&c, action, 1.0, &mut rng)?;
            }
            Ok(())
        })
        .unwrap();
        // Key 1 evicts key 0.
        pool.with_agent_at(&source, 1, |agent| {
            agent.select_action(&ctx(1), &mut rng).map(|_| ())
        })
        .unwrap();
        assert_eq!(pool.dormant_agents(), 1);
        // Key 0 comes back with its observations intact.
        pool.with_agent_at(&source, 0, |agent| {
            assert_eq!(agent.interactions(), 5);
            assert_eq!(agent.policy().observations(), 5);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn shared_agents_cost_no_resident_model_bytes() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(2)).unwrap();
        // Selection-only traffic: agents stay shared, owning no model bytes.
        for key in 0..4u64 {
            pool.with_agent_at(&source, key, |agent| {
                agent
                    .select_action(&ctx((key % 4) as usize), &mut rng)
                    .map(|_| ())
            })
            .unwrap();
        }
        let (resident, dormant) = pool.approx_model_bytes();
        assert_eq!(resident, 0);
        assert_eq!(dormant, 0);
        // One local update promotes ownership and shows up in the ceiling.
        pool.with_agent_at(&source, 0, |agent| {
            let c = ctx(0);
            let action = agent.select_action(&c, &mut rng)?;
            agent.observe_reward(&c, action, 1.0, &mut rng)
        })
        .unwrap();
        let (resident, _) = pool.approx_model_bytes();
        assert!(resident > 0);
    }

    #[test]
    fn park_all_persists_everything() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(6);
        let mut pool = AgentPool::new(AgentPoolConfig::unbounded()).unwrap();
        for key in 0..6u64 {
            pool.with_agent_at(&source, key, |agent| {
                agent
                    .select_action(&ctx((key % 4) as usize), &mut rng)
                    .map(|_| ())
            })
            .unwrap();
        }
        pool.park_all();
        assert_eq!(pool.resident_agents(), 0);
        assert_eq!(pool.dormant_agents(), 6);
        // Parked agents come back.
        pool.with_agent_at(&source, 3, |agent| {
            assert_eq!(agent.interactions(), 0);
            Ok(())
        })
        .unwrap();
        assert_eq!(pool.stats().rehydrations, 1);
    }

    #[test]
    fn checkin_happens_even_when_the_closure_fails() {
        let source = source();
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(2)).unwrap();
        let err = pool.with_agent_at(&source, 0, |_agent| -> Result<(), CoreError> {
            Err(CoreError::InvalidConfig {
                parameter: "test",
                message: "boom".to_owned(),
            })
        });
        assert!(err.is_err());
        assert_eq!(pool.resident_agents(), 1, "agent must be checked back in");
    }

    #[test]
    fn failed_checkout_leaves_the_pool_as_it_found_it() {
        let source = source();
        let mut rng = StdRng::seed_from_u64(8);
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(2)).unwrap();
        // Key 0 folds three observations (owned, reports queued); keys 1–3
        // only select. Budget 2 leaves 2 and 3 resident, 0 and 1 dormant.
        pool.with_agent_at(&source, 0, |agent| {
            for _ in 0..3 {
                let action = agent.select_action(&ctx(0), &mut rng)?;
                agent.observe_reward(&ctx(0), action, 1.0, &mut rng)?;
            }
            Ok(())
        })
        .unwrap();
        for key in 1..4u64 {
            pool.with_agent_at(&source, key, |agent| {
                agent
                    .select_action(&ctx(key as usize), &mut rng)
                    .map(|_| ())
            })
            .unwrap();
        }
        let books = |pool: &AgentPool| {
            (
                pool.resident_agents(),
                pool.dormant_agents(),
                *pool.stats(),
                pool.outbox.len(),
            )
        };
        let before = books(&pool);
        assert_eq!((before.0, before.1), (2, 2));
        assert!(before.3 > 0, "key 0 must have queued a report");

        // A later epoch of a five-action model: residents must hop to it and
        // dormant shared agents rehydrate from it, and neither can.
        let mis_shaped = |epoch| {
            let model = p2b_bandit::LinUcb::new(p2b_bandit::LinUcbConfig::new(4, 5)).unwrap();
            Arc::new(ModelSnapshot::new(epoch, model).unwrap())
        };
        let bad = AgentSource {
            snapshot: mis_shaped(1),
            ..source.clone()
        };
        let never = |_: &mut LocalAgent| -> Result<(), CoreError> {
            panic!("a failed checkout must not reach the closure")
        };
        for key in [2u64, 1] {
            assert!(matches!(
                pool.with_agent_at(&bad, key, never),
                Err(CoreError::InvalidConfig { .. })
            ));
            assert_eq!(books(&pool), before, "key {key}");
        }
        // Every agent is still there for a well-shaped checkout: a hit and
        // two rehydrations, no re-creation, nothing forgotten.
        pool.with_agent_at(&source, 2, |agent| {
            assert!(agent
                .warm_snapshot()
                .is_some_and(|s| Arc::ptr_eq(s, source.snapshot())));
            Ok(())
        })
        .unwrap();
        pool.with_agent_at(&source, 1, |agent| {
            assert_eq!((agent.id(), agent.interactions()), (1, 0));
            Ok(())
        })
        .unwrap();
        pool.with_agent_at(&source, 0, |agent| {
            assert_eq!(agent.interactions(), 3);
            assert_eq!(agent.policy().observations(), 3);
            Ok(())
        })
        .unwrap();
        let after = *pool.stats();
        assert_eq!(after.creations, before.2.creations);
        assert_eq!(after.hits, before.2.hits + 1);
        assert_eq!(after.rehydrations, before.2.rehydrations + 2);
        assert_eq!(pool.drain_reports().len(), before.3);
    }

    #[test]
    fn steady_serving_scores_under_one_arm_per_decision() {
        // The `serve_steady` shape in small: twenty arms, every agent
        // resident, skewed codes, a round of decisions and then three in
        // four of its rewards folded in a burst. A sweep per decision would
        // score twenty arms each time.
        let config = P2bConfig::new(4, 20).with_local_interactions(1);
        let mut sys = P2bSystem::new(config, Arc::clone(system().encoder())).unwrap();
        let source = AgentSource::capture(&mut sys).unwrap();
        let mut pool = AgentPool::new(AgentPoolConfig::unbounded()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut decisions = 0u64;
        for _round in 0..8 {
            let mut taken = Vec::new();
            for event in 0..48usize {
                let key = [0u64, 0, 0, 1, 1, 2, 0, 3][event % 8];
                let action = pool
                    .with_agent_at(&source, key, |agent| {
                        agent.select_action(&ctx(key as usize), &mut rng)
                    })
                    .unwrap();
                taken.push((key, action));
                decisions += 1;
            }
            for (event, (key, action)) in taken.into_iter().enumerate() {
                if event % 4 != 3 {
                    pool.with_agent_at(&source, key, |agent| {
                        agent.observe_reward(&ctx(key as usize), action, 1.0, &mut rng)
                    })
                    .unwrap();
                }
            }
        }
        let (mut sweeps, mut arms_scored) = (0, 0);
        for key in 0..4u64 {
            let counters = pool
                .with_agent_at(&source, key, |agent| Ok(agent.select_counters()))
                .unwrap();
            sweeps += counters.sweeps;
            arms_scored += counters.arms_scored;
        }
        assert!(
            arms_scored < decisions,
            "{arms_scored} arms scored ({sweeps} sweeps) over {decisions} decisions"
        );
    }

    #[test]
    fn eviction_keeps_each_keys_code_so_a_pool_encodes_once_per_key() {
        // The `serve_churn` shape in small: six keys over a budget of two,
        // one context per key, and each decision's reward folded three
        // checkouts later, by which time its agent has been evicted.
        let counting = CountingEncoder::wrap(Arc::clone(system().encoder()));
        let encoder: Arc<dyn Encoder> = counting.clone();
        let run = |pool_config: AgentPoolConfig| {
            let config = P2bConfig::new(4, 3)
                .with_local_interactions(1)
                .with_shuffler_threshold(1);
            let mut sys = P2bSystem::new(config, Arc::clone(&encoder)).unwrap();
            let source = AgentSource::capture(&mut sys).unwrap();
            let mut pool = AgentPool::new(pool_config).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let mut decided = std::collections::VecDeque::new();
            let before = counting.encodes();
            for step in 0..48u64 {
                let key = step % 6;
                let action = pool
                    .with_agent_at(&source, key, |agent| {
                        agent.select_action(&ctx(key as usize % 4), &mut rng)
                    })
                    .unwrap();
                decided.push_back((key, action));
                if decided.len() > 3 {
                    let (key, action) = decided.pop_front().unwrap();
                    pool.with_agent_at(&source, key, |agent| {
                        agent.observe_reward(&ctx(key as usize % 4), action, 1.0, &mut rng)
                    })
                    .unwrap();
                }
            }
            (counting.encodes() - before, *pool.stats())
        };
        let (bounded, stats) = run(AgentPoolConfig::bounded(2));
        assert!(stats.rehydrations > 0, "{stats:?}");
        assert_eq!(bounded, 6, "bounded pool encodes per key, not per checkout");
        let (unbounded, stats) = run(AgentPoolConfig::unbounded());
        assert_eq!(stats.rehydrations, 0);
        assert_eq!(unbounded, 6, "unbounded pool encodes per key");
    }

    #[test]
    fn source_clones_share_the_snapshot_and_refresh_across_epochs() {
        let mut sys = system();
        let source = AgentSource::capture(&mut sys).unwrap();
        let clone = source.clone();
        assert!(Arc::ptr_eq(source.snapshot(), clone.snapshot()));
        assert_eq!(source.epoch(), 0);

        // An ingestion round bumps the epoch; a fresh capture sees it and a
        // resident checked out against the new source hops snapshots.
        let mut pool = AgentPool::new(AgentPoolConfig::unbounded()).unwrap();
        let mut rng = StdRng::seed_from_u64(40);
        pool.with_agent_at(&source, 0, |agent| {
            agent.select_action(&ctx(0), &mut rng).map(|_| ())
        })
        .unwrap();
        let mut teacher = sys.make_warm_agent().unwrap();
        for _ in 0..8 {
            let c = ctx(0);
            let action = teacher.select_action(&c, &mut rng).unwrap();
            teacher.observe_reward(&c, action, 1.0, &mut rng).unwrap();
        }
        sys.streaming_round(teacher.take_reports(), 1).unwrap();
        let fresh = AgentSource::capture(&mut sys).unwrap();
        assert_eq!(fresh.epoch(), 1);
        pool.with_agent_at(&fresh, 0, |agent| {
            let snap = agent.warm_snapshot().expect("still shared");
            assert_eq!(snap.epoch(), 1, "resident must hop to the new epoch");
            Ok(())
        })
        .unwrap();
    }
}
