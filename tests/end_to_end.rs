//! Cross-crate integration tests: the full P2B pipeline, from raw contexts
//! through encoding, randomized reporting, shuffling and central-model
//! updates, plus the privacy invariants the paper's analysis relies on.

use p2b::core::{P2bConfig, P2bSystem};
use p2b::encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b::linalg::Vector;
use p2b::privacy::CrowdBlending;
use p2b::shuffler::{RawReport, ShuffledBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn simplex_context(dimension: usize, rng: &mut StdRng) -> Vector {
    let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
    Vector::from(raw).normalized_l1().expect("non-empty")
}

fn clustered_context(cluster: usize, dimension: usize, rng: &mut StdRng) -> Vector {
    let mut raw = vec![0.05; dimension];
    raw[cluster % dimension] = 1.0 + rng.gen_range(-0.05..0.05);
    Vector::from(raw).normalized_l1().expect("non-empty")
}

fn fit_encoder(dimension: usize, codes: usize, rng: &mut StdRng) -> Arc<dyn Encoder> {
    let corpus: Vec<Vector> = (0..codes * 16)
        .map(|i| clustered_context(i % dimension, dimension, rng))
        .collect();
    Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(codes), rng).expect("encoder fits"))
}

/// Flushes `reports` through the system's shuffler engine, hands every
/// released batch to `audit`, then folds it into the central model.
fn flush_audited(
    system: &mut P2bSystem,
    reports: Vec<RawReport>,
    seed: u64,
    audit: impl Fn(&ShuffledBatch),
) {
    let handle = system
        .spawn_engine(seed)
        .expect("engine configuration is valid");
    for report in reports {
        handle
            .submit(report)
            .expect("engine accepts reports until finish");
    }
    for batch in &handle.finish().batches {
        audit(&batch.batch);
        system.ingest_engine_batch(batch).expect("batch folds");
    }
}

#[test]
fn full_pipeline_improves_fresh_agents_and_respects_crowd_blending() {
    let dimension = 6;
    let num_actions = 6;
    let mut rng = StdRng::seed_from_u64(11);
    let encoder = fit_encoder(dimension, 6, &mut rng);

    let config = P2bConfig::new(dimension, num_actions)
        .with_local_interactions(2)
        .with_shuffler_threshold(3);
    let mut system = P2bSystem::new(config, encoder).expect("system builds");

    // The optimal action for a context is the index of its dominant feature.
    let optimal = |ctx: &Vector| ctx.argmax().unwrap() % num_actions;

    // Phase 1: a training population teaches the central model.
    // Crowd-blending: every released code appears at least l times.
    let crowd = CrowdBlending::exact(3).unwrap();
    let audit = |batch: &ShuffledBatch| {
        let codes: Vec<usize> = batch.reports().iter().map(|r| r.code()).collect();
        assert!(crowd.is_satisfied_by(&codes));
    };
    let mut pending = Vec::new();
    for user in 0..150 {
        let mut agent = system.make_warm_agent().unwrap();
        for _ in 0..4 {
            let ctx = clustered_context(user % dimension, dimension, &mut rng);
            let action = agent.select_action(&ctx, &mut rng).unwrap();
            let reward = if action.index() == optimal(&ctx) {
                1.0
            } else {
                0.0
            };
            agent
                .observe_reward(&ctx, action, reward, &mut rng)
                .unwrap();
        }
        pending.extend(agent.take_reports());
        if pending.len() >= 60 {
            flush_audited(&mut system, std::mem::take(&mut pending), rng.gen(), audit);
        }
    }
    flush_audited(&mut system, pending, rng.gen(), audit);
    assert!(
        system.server().ingested_reports() > 0,
        "server saw no reports"
    );

    // Phase 2: fresh warm and cold agents are evaluated on a short horizon.
    let evaluate = |agent: &mut p2b::core::LocalAgent, rng: &mut StdRng| -> f64 {
        let mut total = 0.0;
        let mut count = 0.0;
        for cluster in 0..dimension {
            for _ in 0..5 {
                let ctx = clustered_context(cluster, dimension, rng);
                let action = agent.select_action(&ctx, rng).unwrap();
                if action.index() == optimal(&ctx) {
                    total += 1.0;
                }
                count += 1.0;
                // Probes feed a constant zero reward: the update still
                // tightens LinUCB's confidence bounds (and consumes
                // reporting opportunities), but no action is preferentially
                // reinforced, so the ranking under comparison is unchanged.
                agent.observe_reward(&ctx, action, 0.0, rng).ok();
            }
        }
        total / count
    };

    let mut warm = system.make_warm_agent().unwrap();
    let mut cold = system.make_cold_agent().unwrap();
    let warm_score = evaluate(&mut warm, &mut rng);
    let cold_score = evaluate(&mut cold, &mut rng);
    assert!(
        warm_score > cold_score,
        "warm-started agent ({warm_score:.3}) should beat the cold agent ({cold_score:.3})"
    );
}

#[test]
fn privacy_guarantee_matches_the_closed_form_for_several_participations() {
    let mut rng = StdRng::seed_from_u64(12);
    let encoder = fit_encoder(4, 4, &mut rng);
    for &(p, expected_epsilon) in &[
        (0.25_f64, (0.25 * (1.75 / 0.75) + 0.75_f64).ln()),
        (0.5, std::f64::consts::LN_2),
        (0.75, (0.75 * (1.25 / 0.25) + 0.25_f64).ln()),
    ] {
        let config = P2bConfig::new(4, 3).with_participation(p);
        let system = P2bSystem::new(config, Arc::clone(&encoder)).unwrap();
        let guarantee = system.privacy_guarantee().unwrap();
        assert!(
            (guarantee.epsilon() - expected_epsilon).abs() < 1e-12,
            "p = {p}: epsilon {} vs expected {expected_epsilon}",
            guarantee.epsilon()
        );
    }
}

#[test]
fn agent_privacy_spend_composes_linearly_with_reporting_opportunities() {
    let mut rng = StdRng::seed_from_u64(13);
    let encoder = fit_encoder(4, 4, &mut rng);
    let config = P2bConfig::new(4, 3).with_local_interactions(5);
    let mut system = P2bSystem::new(config, encoder).unwrap();
    let mut agent = system.make_warm_agent().unwrap();
    for _ in 0..50 {
        let ctx = simplex_context(4, &mut rng);
        let action = agent.select_action(&ctx, &mut rng).unwrap();
        agent.observe_reward(&ctx, action, 0.5, &mut rng).unwrap();
    }
    // 50 interactions / T = 5 → 10 opportunities → ε = 10 · ln 2.
    let spent = agent.privacy_spent();
    assert!((spent.epsilon() - 10.0 * std::f64::consts::LN_2).abs() < 1e-9);
}

#[test]
fn anonymized_batches_never_contain_agent_identifiers() {
    let mut rng = StdRng::seed_from_u64(15);
    let encoder = fit_encoder(4, 4, &mut rng);
    let config = P2bConfig::new(4, 3)
        .with_local_interactions(1)
        .with_shuffler_threshold(1);
    let mut system = P2bSystem::new(config, encoder).unwrap();
    let mut reports = Vec::new();
    for _ in 0..20 {
        let mut agent = system.make_warm_agent().unwrap();
        let ctx = simplex_context(4, &mut rng);
        let action = agent.select_action(&ctx, &mut rng).unwrap();
        agent.observe_reward(&ctx, action, 1.0, &mut rng).unwrap();
        reports.extend(agent.take_reports());
    }
    assert!(
        format!("{reports:?}").contains("agent-"),
        "raw reports carry agent identifiers"
    );
    flush_audited(&mut system, reports, 15, |batch| {
        let debug_dump = format!("{batch:?}");
        assert!(
            !debug_dump.contains("agent-"),
            "released batch leaks agent identifiers"
        );
    });
}
