//! Quickstart: build a P2B system, run a handful of local agents, and print
//! the privacy guarantee and the central model's progress.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use p2b::core::{P2bConfig, P2bSystem};
use p2b::encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b::linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let dimension = 5;
    let num_actions = 8;

    // 1. Fit the context encoder on a public corpus of normalized contexts.
    let corpus: Vec<Vector> = (0..512)
        .map(|_| {
            let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
            Vector::from(raw)
                .normalized_l1()
                .expect("non-empty context")
        })
        .collect();
    let encoder = Arc::new(KMeansEncoder::fit(
        &corpus,
        KMeansConfig::new(16),
        &mut rng,
    )?);
    println!(
        "fitted a k-means encoder with {} codes (smallest cluster: {} samples)",
        encoder.num_codes(),
        encoder.stats().min_cluster_size
    );

    // 2. Assemble the P2B system with the paper's defaults (p = 0.5, T = 10,
    //    shuffler threshold 10, alpha = 1).
    let config = P2bConfig::new(dimension, num_actions)
        .with_local_interactions(5)
        .with_shuffler_threshold(3);
    let mut system = P2bSystem::new(config, encoder)?;
    println!(
        "differential privacy guarantee per report: {}",
        system.privacy_guarantee()?
    );

    // 3. Simulate a population: the "true" best action is the index of the
    //    largest context entry, modulo the action count.
    //    Reports queue up and reach the server through the trusted shuffler
    //    engine in rounds of at least 50.
    let mut total_reward = 0.0;
    let mut interactions = 0u64;
    let mut pending = Vec::new();
    for _ in 0..200 {
        let mut agent = system.make_warm_agent()?;
        for _ in 0..5 {
            let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
            let context = Vector::from(raw).normalized_l1()?;
            let best = context.argmax().unwrap_or(0) % num_actions;
            let action = agent.select_action(&context, &mut rng)?;
            let reward = if action.index() == best { 1.0 } else { 0.0 };
            agent.observe_reward(&context, action, reward, &mut rng)?;
            total_reward += reward;
            interactions += 1;
        }
        pending.extend(agent.take_reports());
        if pending.len() >= 50 {
            for stats in system
                .streaming_round(std::mem::take(&mut pending), rng.gen())?
                .0
            {
                println!(
                    "shuffling round: received {}, released {}, dropped {} (threshold {})",
                    stats.received,
                    stats.released,
                    stats.dropped,
                    system.config().shuffler_threshold
                );
            }
        }
    }
    for stats in system.streaming_round(pending, rng.gen())?.0 {
        println!(
            "final round: received {}, released {}, dropped {}",
            stats.received, stats.released, stats.dropped
        );
    }
    println!(
        "population average reward: {:.3} over {} interactions",
        total_reward / interactions as f64,
        interactions
    );
    println!(
        "central model has absorbed {} anonymous reports",
        system.server().ingested_reports()
    );
    Ok(())
}
