//! Golden regression suite for the end-to-end P2B pipeline.
//!
//! Every future scaling refactor (sharding, batching, async) must leave the
//! seeded behavior of the system bit-for-bit unchanged unless the change is
//! deliberate — in which case the golden values below are updated in the
//! same commit, making behavioral drift visible in review.
//!
//! The scenario runs the full pipeline — k-means encoder fit, warm agents
//! with randomized reporting, shuffler-engine rounds with crowd-blending
//! thresholds, coalesced central LinUCB updates — and digests it into
//! integers and `f64` bit patterns, so equality below means byte-identical
//! behavior.

use p2b::core::{P2bConfig, P2bSystem, RoundStats};
use p2b::encoding::{KMeansConfig, KMeansEncoder};
use p2b::linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Seed for the encoder fit and the simulation stream.
const SCENARIO_SEED: u64 = 7;
/// Agents per collection round.
const AGENTS_PER_ROUND: usize = 20;
/// Local interactions per agent before its reports are collected.
const INTERACTIONS_PER_AGENT: usize = 4;
/// Shuffling rounds.
const ROUNDS: usize = 3;

/// Everything the scenario observes, reduced to exactly comparable values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    round_stats: Vec<RoundStats>,
    cumulative_reward_bits: u64,
    ingested_reports: u64,
    epsilon_bits: u64,
    delta_bits: u64,
}

/// A deterministic 4-cluster corpus: 24 near-one-hot vectors per cluster
/// with a small index-dependent perturbation so the clusters are
/// well-separated but not degenerate.
fn corpus() -> Vec<Vector> {
    (0..96)
        .map(|i| {
            let cluster = i % 4;
            let mut raw = vec![0.05 + 0.001 * (i / 4) as f64; 4];
            raw[cluster] = 1.0;
            Vector::from(raw).normalized_l1().expect("non-empty vector")
        })
        .collect()
}

/// One cluster-representative context per cluster.
fn contexts() -> Vec<Vector> {
    (0..4)
        .map(|cluster| {
            let mut raw = vec![0.05; 4];
            raw[cluster] = 1.0;
            Vector::from(raw).normalized_l1().expect("non-empty vector")
        })
        .collect()
}

fn run_scenario() -> Digest {
    let mut rng = StdRng::seed_from_u64(SCENARIO_SEED);
    let encoder = Arc::new(
        KMeansEncoder::fit(&corpus(), KMeansConfig::new(4), &mut rng)
            .expect("corpus is larger than k and dimensionally consistent"),
    );
    let config = P2bConfig::new(4, 3)
        .with_local_interactions(2)
        .with_shuffler_threshold(3);
    let mut system = P2bSystem::new(config, encoder).expect("valid configuration");

    let contexts = contexts();
    let mut cumulative_reward = 0.0f64;
    let mut round_stats = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut reports = Vec::new();
        for agent_index in 0..AGENTS_PER_ROUND {
            let mut agent = system.make_warm_agent().expect("agent construction");
            let cluster = agent_index % contexts.len();
            let ctx = &contexts[cluster];
            for _ in 0..INTERACTIONS_PER_AGENT {
                let action = agent.select_action(ctx, &mut rng).expect("selection");
                // Deterministic reward rule: the action matching the
                // generating cluster pays (modulo the action count).
                let reward = if action.index() == cluster % 3 {
                    1.0
                } else {
                    0.0
                };
                cumulative_reward += reward;
                agent
                    .observe_reward(ctx, action, reward, &mut rng)
                    .expect("reward in range");
            }
            reports.extend(agent.take_reports());
        }
        let (stats, _ledger) = system
            .streaming_round(reports, rng.gen())
            .expect("flush succeeds");
        round_stats.extend(stats);
    }

    let guarantee = system.privacy_guarantee().expect("valid configuration");
    Digest {
        round_stats,
        cumulative_reward_bits: cumulative_reward.to_bits(),
        ingested_reports: system.server().ingested_reports(),
        epsilon_bits: guarantee.epsilon().to_bits(),
        delta_bits: guarantee.delta().to_bits(),
    }
}

/// The committed golden digest of `run_scenario`. Update deliberately, never
/// incidentally: a mismatch means the seeded pipeline behavior changed.
///
/// Each round flushes through the seeded engine (`streaming_round`), which
/// draws its seed from the scenario RNG. No round here drops a report;
/// crowd-blending drops are pinned by the engine tests and `end_to_end.rs`.
fn golden() -> Digest {
    Digest {
        round_stats: vec![
            RoundStats {
                received: 23,
                released: 23,
                dropped: 0,
                accepted: 23,
            },
            RoundStats {
                received: 22,
                released: 22,
                dropped: 0,
                accepted: 22,
            },
            RoundStats {
                received: 21,
                released: 21,
                dropped: 0,
                accepted: 21,
            },
        ],
        // 218 successes over 240 interactions.
        cumulative_reward_bits: 218.0f64.to_bits(),
        ingested_reports: 66,
        // ε = ln 2 (Equation 3 with p = 0.5, ε̄ = 0).
        epsilon_bits: std::f64::consts::LN_2.to_bits(),
        // δ = e^{-Ω·l·(1-p)²} = e^{-0.075} ≈ 0.927743 at Ω = 0.1, l = 3.
        delta_bits: 0x3FED_B013_1B9B_7607,
    }
}

#[test]
fn seeded_run_matches_committed_golden_digest() {
    let digest = run_scenario();
    assert_eq!(
        digest,
        golden(),
        "seeded end-to-end behavior drifted; if intentional, update golden() \
         in the same commit\nactual: {digest:#?}"
    );
}

#[test]
fn scenario_is_bitwise_reproducible() {
    assert_eq!(run_scenario(), run_scenario());
}

#[test]
fn privacy_guarantee_is_closed_form() {
    // The (ε, δ) digest values are not arbitrary constants: ε must equal the
    // paper's Equation 3 at p = 1/2 exactly, and δ the Gehrke et al. bound
    // e^{-Ω·l·(1-p)²} at Ω = 0.1, l = 3.
    let digest = run_scenario();
    assert_eq!(digest.epsilon_bits, std::f64::consts::LN_2.to_bits());
    // Same arithmetic order as `amplified_delta`, so the comparison is exact.
    let q = 1.0 - 0.5f64;
    let expected_delta = (-0.1f64 * 3.0 * q * q).exp();
    assert_eq!(digest.delta_bits, expected_delta.to_bits());
}

#[test]
fn conservation_laws_hold_every_round() {
    let digest = run_scenario();
    let mut total_accepted = 0;
    for stats in &digest.round_stats {
        assert_eq!(stats.received, stats.released + stats.dropped);
        assert_eq!(stats.accepted, stats.released as u64);
        total_accepted += stats.accepted;
    }
    assert_eq!(total_accepted, digest.ingested_reports);
}
