//! Property suite for the bounded-memory agent pool: a bounded
//! [`AgentPool`] with eviction and rehydration must select exactly the same
//! actions as an unbounded pool, for any seed and any operation
//! interleaving — because dehydration persists every local delta (policy
//! state, reporter phase, queued reports) and rehydration restores it.
//!
//! The argument: every checkout runs against one captured [`AgentSource`];
//! it refreshes still-shared residents to the source's snapshot, and
//! rehydration hands dormant still-shared agents that same snapshot, so
//! both tiers serve from identical model state; agents
//! with local observations persist their policy verbatim. The only
//! difference between the bounded and unbounded runs is therefore *where*
//! an agent's bytes live, never what they are.
//!
//! Eviction does not drop the agent's memos either: the dormant form keeps
//! the select memo (the scores of its last decision) and the decided code, so
//! a rehydrated agent re-scores only the arms folded since, exactly as the
//! never-evicted one does. The suite therefore also pins that eviction
//! costs nothing in the select path — every bounded run scores exactly as
//! many arms as the unbounded run.
//!
//! Which agent is evicted is pinned separately, against [`StampLru`]: the
//! stamp-ordered LRU the pool kept before it linked its residents through
//! their slots, kept here as the reference.

use p2b_core::{AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem, PoolStats};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

const DIMENSION: usize = 4;
const NUM_CODES: usize = 4;
const NUM_ACTIONS: usize = 3;
const KEY_SPACE: u64 = 6;

/// One fitted encoder shared by every proptest case.
fn encoder() -> Arc<dyn Encoder> {
    static ENCODER: OnceLock<Arc<KMeansEncoder>> = OnceLock::new();
    Arc::clone(ENCODER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(42);
        let corpus: Vec<Vector> = (0..80)
            .map(|i| {
                let mut raw = vec![0.1; DIMENSION];
                raw[i % DIMENSION] = 1.0;
                Vector::from(raw).normalized_l1().expect("non-empty")
            })
            .collect();
        Arc::new(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(NUM_CODES), &mut rng)
                .expect("corpus is larger than k"),
        )
    })) as Arc<dyn Encoder>
}

fn source() -> AgentSource {
    let config = P2bConfig::new(DIMENSION, NUM_ACTIONS)
        .with_local_interactions(1)
        .with_shuffler_threshold(1);
    let mut system = P2bSystem::new(config, encoder()).expect("static configuration is valid");
    AgentSource::capture(&mut system).expect("a fresh system publishes its snapshot")
}

fn context(cluster: usize) -> Vector {
    let mut raw = vec![0.05; DIMENSION];
    raw[cluster % DIMENSION] = 1.0;
    Vector::from(raw).normalized_l1().expect("non-empty")
}

/// One pool operation: touch `key` with a context from `cluster`, selecting
/// an action and (when `update`) folding a reward locally.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: u64,
    cluster: usize,
    update: bool,
    reward: f64,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    const REWARDS: [f64; 3] = [0.0, 0.5, 1.0];
    prop::collection::vec(
        (0..KEY_SPACE, 0..DIMENSION, any::<bool>(), 0..REWARDS.len()).prop_map(
            |(key, cluster, update, reward)| Op {
                key,
                cluster,
                update,
                reward: REWARDS[reward],
            },
        ),
        1..60,
    )
}

/// What [`run_pool`] digests: the selected action sequence, the funneled
/// report stream and the final per-key agent state — plus, last and not
/// part of the behavior, the number of arms the decisions scored.
type Observed = (Vec<usize>, Vec<String>, Vec<(u64, u64)>, u64);

/// Runs the operation stream through a pool and digests everything
/// observable.
fn run_pool(pool_config: AgentPoolConfig, ops: &[Op], seed: u64) -> Observed {
    let source = source();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = AgentPool::new(pool_config).expect("valid pool configuration");
    let mut actions = Vec::with_capacity(ops.len());
    let mut arms_scored = 0;
    for op in ops {
        let action = pool
            .with_agent_at(&source, op.key, |agent| {
                let ctx = context(op.cluster);
                let before = agent.arms_scored();
                let action = agent.select_action(&ctx, &mut rng)?;
                arms_scored += agent.arms_scored() - before;
                if op.update {
                    agent.observe_reward(&ctx, action, op.reward, &mut rng)?;
                }
                Ok(action)
            })
            .expect("pool operations succeed");
        actions.push(action.index());
        if let Some(budget) = pool_config.max_resident_agents {
            assert!(
                pool.resident_agents() <= budget,
                "residency budget exceeded"
            );
        }
    }
    // Reports leave through the pool in checkin order; stringify them so the
    // comparison covers payload and metadata alike.
    let reports: Vec<String> = pool
        .drain_reports()
        .into_iter()
        .map(|r| format!("{r:?}"))
        .collect();
    // Probe every touched key's final agent state through the pool itself —
    // rehydrating dormant agents along the way.
    let mut keys: Vec<u64> = ops.iter().map(|o| o.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let state: Vec<(u64, u64)> = keys
        .into_iter()
        .map(|key| {
            pool.with_agent_at(&source, key, |agent| Ok((agent.id(), agent.interactions())))
                .expect("probe succeeds")
        })
        .collect();
    (actions, reports, state, arms_scored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bounded pools with eviction+rehydration are observationally identical
    /// to an unbounded pool, at residency budgets that force heavy eviction
    /// over the 6-key space.
    #[test]
    fn bounded_pool_matches_unbounded_pool(
        ops in ops(),
        seed in any::<u64>(),
        budget in 1usize..4,
    ) {
        let unbounded = run_pool(AgentPoolConfig::unbounded(), &ops, seed);
        let bounded = run_pool(AgentPoolConfig::bounded(budget), &ops, seed);
        prop_assert_eq!(
            &unbounded.0, &bounded.0,
            "action sequence drifted (budget {})", budget
        );
        prop_assert_eq!(
            &unbounded.1, &bounded.1,
            "report stream drifted (budget {})", budget
        );
        prop_assert_eq!(
            &unbounded.2, &bounded.2,
            "final agent state drifted (budget {})", budget
        );
        // Never-evicted memos against rehydrated ones: the same cost.
        prop_assert_eq!(
            unbounded.3, bounded.3,
            "arms scored drifted (budget {})", budget
        );
    }
}

/// The reference LRU: every checkin takes a fresh stamp from a clock, the
/// smallest stamp is the least-recently-used resident, and an evicted key
/// joins the dormant set. It models only residency, which is all the pool's
/// counters depend on.
struct StampLru {
    budget: Option<usize>,
    clock: u64,
    /// Resident key → its stamp.
    residents: HashMap<u64, u64>,
    /// Stamp → resident key; stamps are unique, so the first entry is the
    /// single least-recently-used resident.
    lru: BTreeMap<u64, u64>,
    dormant: HashSet<u64>,
}

impl StampLru {
    fn new(budget: Option<usize>) -> Self {
        Self {
            budget,
            clock: 0,
            residents: HashMap::new(),
            lru: BTreeMap::new(),
            dormant: HashSet::new(),
        }
    }

    /// Checks `key` out and back in; returns the counter increments the
    /// checkout should cause.
    fn checkout(&mut self, key: u64) -> PoolStats {
        let mut delta = PoolStats::default();
        if let Some(stamp) = self.residents.remove(&key) {
            self.lru.remove(&stamp);
            delta.hits = 1;
        } else if self.dormant.remove(&key) {
            delta.rehydrations = 1;
        } else {
            delta.creations = 1;
        }
        self.residents.insert(key, self.clock);
        self.lru.insert(self.clock, key);
        self.clock += 1;
        while self.budget.is_some_and(|budget| self.lru.len() > budget) {
            self.evict_lru();
            delta.evictions += 1;
        }
        delta
    }

    fn evict_lru(&mut self) {
        if let Some((_, key)) = self.lru.pop_first() {
            self.residents.remove(&key);
            self.dormant.insert(key);
        }
    }

    fn park_all(&mut self) {
        while !self.lru.is_empty() {
            self.evict_lru();
        }
    }
}

const ORACLE_KEYS: u64 = 12;
const ORACLE_BUDGETS: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(5), None];

/// One step of an oracle stream: a checkout of a key, or a `park_all`.
#[derive(Debug, Clone, Copy)]
enum Step {
    Checkout(u64),
    ParkAll,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    // One step in sixteen drains the pool.
    prop::collection::vec(
        (0..ORACLE_KEYS, 0..16u8).prop_map(|(key, roll)| {
            if roll == 0 {
                Step::ParkAll
            } else {
                Step::Checkout(key)
            }
        }),
        1..120,
    )
}

fn stats_delta(after: &PoolStats, before: &PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        rehydrations: after.rehydrations - before.rehydrations,
        creations: after.creations - before.creations,
        evictions: after.evictions - before.evictions,
    }
}

/// Drives `steps` through a pool and the reference at `budget`, checking
/// the counters and the tier sizes after every step.
fn check_against_oracle(budget: Option<usize>, steps: &[Step]) {
    let source = source();
    let config = AgentPoolConfig {
        max_resident_agents: budget,
    };
    let mut pool = AgentPool::new(config).expect("valid pool configuration");
    let mut oracle = StampLru::new(budget);
    let tiers = |pool: &AgentPool, oracle: &StampLru, at: usize| {
        assert_eq!(
            (pool.resident_agents(), pool.dormant_agents()),
            (oracle.residents.len(), oracle.dormant.len()),
            "tier sizes drifted at step {at} (budget {budget:?})"
        );
    };
    for (at, step) in steps.iter().enumerate() {
        let before = *pool.stats();
        match *step {
            Step::Checkout(key) => {
                pool.with_agent_at(&source, key, |_| Ok(()))
                    .expect("checkout succeeds");
                assert_eq!(
                    stats_delta(pool.stats(), &before),
                    oracle.checkout(key),
                    "checkout of key {key} at step {at} (budget {budget:?})"
                );
            }
            Step::ParkAll => {
                pool.park_all();
                oracle.park_all();
                assert_eq!(*pool.stats(), before, "park_all counts nothing");
            }
        }
        tiers(&pool, &oracle, at);
    }
    let before = *pool.stats();
    pool.park_all();
    oracle.park_all();
    assert_eq!(*pool.stats(), before, "park_all counts nothing");
    tiers(&pool, &oracle, steps.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool evicts exactly the resident the stamp-ordered LRU evicts:
    /// every checkout is the same hit, rehydration or creation with the same
    /// number of evictions, and the resident and dormant tiers keep the same
    /// sizes, through `park_all` drains too.
    #[test]
    fn eviction_order_matches_the_stamp_lru_oracle(steps in steps()) {
        for budget in ORACLE_BUDGETS {
            check_against_oracle(budget, &steps);
        }
    }
}
