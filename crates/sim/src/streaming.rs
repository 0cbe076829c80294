//! Tests of a streaming collection wave: a synthetic population simulated
//! on parallel producer threads, each submitting its reports straight into
//! the system's shuffler engine, with every delivered batch folded into the
//! central model on the model service's ingest shards and accounted in the
//! amplification ledger.

#[cfg(test)]
mod tests {
    use crate::parallel_map;
    use p2b_core::{P2bConfig, P2bSystem, RoundStats};
    use p2b_datasets::{ContextualEnvironment, SyntheticConfig, SyntheticPreferenceEnvironment};
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use p2b_privacy::AmplificationLedger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// What one wave produced.
    struct Wave {
        round_stats: Vec<RoundStats>,
        ledger: AmplificationLedger,
        interactions: u64,
        submitted: u64,
    }

    fn system(ingest_shards: usize, threshold: usize) -> P2bSystem {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus: Vec<Vector> = (0..256)
            .map(|_| {
                let env_config = SyntheticConfig::new(4, 3);
                let mut env = SyntheticPreferenceEnvironment::new(env_config, &mut rng).unwrap();
                env.sample_context(&mut rng)
            })
            .collect();
        let encoder =
            Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(8), &mut rng).unwrap());
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(2)
            .with_shuffler_threshold(threshold)
            .with_shuffler_batch_size(32)
            .with_ingest_shards(ingest_shards);
        P2bSystem::new(config, encoder).unwrap()
    }

    /// Runs `users` warm agents for `interactions` rounds each on `producers`
    /// threads, submitting concurrently into one engine, then ingests every
    /// delivered batch.
    fn wave(
        system: &mut P2bSystem,
        users: usize,
        interactions: u64,
        producers: usize,
        seed: u64,
    ) -> Wave {
        let agents: Vec<_> = (0..users)
            .map(|_| system.make_warm_agent().unwrap())
            .collect();
        let env = SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3),
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        let handle = system.spawn_engine(seed).unwrap();
        let (env, handle_ref) = (&env, &handle);
        let submitted = parallel_map(
            agents.into_iter().enumerate().collect(),
            producers,
            |(user, mut agent)| {
                let mut env = env.clone();
                let mut rng = StdRng::seed_from_u64(seed ^ (user as u64 + 1));
                for _ in 0..interactions {
                    let context = env.sample_context(&mut rng);
                    let action = agent.select_action(&context, &mut rng).unwrap();
                    let reward = env
                        .sample_reward(&context, action.index(), &mut rng)
                        .unwrap();
                    agent
                        .observe_reward(&context, action, reward, &mut rng)
                        .unwrap();
                }
                let reports = agent.take_reports();
                let submitted = reports.len() as u64;
                for report in reports {
                    handle_ref.submit(report).unwrap();
                }
                submitted
            },
        )
        .into_iter()
        .sum();
        let output = handle.finish();
        let round_stats = output
            .batches
            .iter()
            .map(|batch| system.ingest_engine_batch(batch).unwrap())
            .collect();
        Wave {
            round_stats,
            ledger: output.ledger.unwrap(),
            interactions: users as u64 * interactions,
            submitted,
        }
    }

    #[test]
    fn streaming_wave_conserves_reports_and_accounts_batches() {
        let mut sys = system(4, 2);
        let outcome = wave(&mut sys, 40, 4, 4, 17);
        assert_eq!(outcome.interactions, 160);
        let received: u64 = outcome.round_stats.iter().map(|s| s.received as u64).sum();
        assert_eq!(received, outcome.submitted, "engine must conserve reports");
        assert_eq!(outcome.ledger.records().len(), outcome.round_stats.len());
        // p = 0.5: the ledger's shared ε is the paper's headline ln 2.
        assert!((outcome.ledger.per_report_epsilon() - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn ledger_records_every_delivered_batch() {
        let mut sys = system(2, 2);
        let outcome = wave(&mut sys, 60, 2, 3, 4);
        assert_eq!(outcome.ledger.records().len(), outcome.round_stats.len());
        assert!(
            (outcome.ledger.per_report_epsilon() - std::f64::consts::LN_2).abs() < 1e-12,
            "p = 0.5 must give the paper's headline ε = ln 2"
        );
        // Any batch that released reports achieved at least the configured
        // crowd-blending threshold.
        for record in outcome.ledger.records() {
            if record.released > 0 {
                assert!(record.crowd_size >= 2);
            }
        }
    }
}
