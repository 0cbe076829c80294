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

use p2b_core::{AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
