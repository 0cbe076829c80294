//! Figure 7: Criteo-like online advertising — click-through rate of the three
//! regimes as local agents accumulate interactions, for k = 2⁵ and k = 2⁷
//! encoder codes (d = 10, A = 40, shuffling threshold 10).
//!
//! The paper uses 3 000 agents with 300 interactions each; the default scale
//! runs 300 agents to keep the synthetic log generation and the sweep fast.

use p2b_bench::{print_series, save_series, Scale};
use p2b_datasets::{CriteoConfig, CriteoLikeGenerator, LoggedImpression};
use p2b_sim::{parallel_map, run_logged_experiment, LoggedExperimentConfig, Regime, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(failure) => return Ok(failure.report("fig7_criteo")),
    };
    let num_agents = scale.pick(60, 300, 3_000);
    let interaction_sweep: Vec<usize> = scale.pick(
        vec![25, 50],
        vec![25, 50, 100, 200, 300],
        vec![50, 100, 200, 300],
    );
    let max_per_agent = *interaction_sweep.iter().max().expect("sweep is non-empty");

    // Generate enough retained impressions: the top-40 filter discards a
    // fraction of the raw records, so oversample by 2x and verify.
    let mut rng = StdRng::seed_from_u64(70);
    let generator = CriteoLikeGenerator::new(CriteoConfig::new(), &mut rng)?;
    let needed = num_agents * max_per_agent;
    let mut impressions = generator.generate(needed * 2, &mut rng)?;
    while impressions.len() < needed {
        impressions.extend(generator.generate(needed, &mut rng)?);
    }
    println!(
        "generated {} retained impressions for {} agents x {} interactions",
        impressions.len(),
        num_agents,
        max_per_agent
    );

    for &num_codes in &[1usize << 5, 1 << 7] {
        let mut series = Vec::new();
        for &per_agent in &interaction_sweep {
            let agents: Vec<Vec<LoggedImpression>> =
                CriteoLikeGenerator::split_agents(&impressions, num_agents, per_agent)?;
            let outcomes = parallel_map(Regime::ALL.to_vec(), 3, |regime| {
                let config = LoggedExperimentConfig::new(regime, 10, 40)
                    .with_num_codes(num_codes)
                    .with_shuffler_threshold(10)
                    .with_seed(71);
                run_logged_experiment(&agents, config)
            });
            let outcomes: Result<Vec<_>, _> = outcomes.into_iter().collect();
            series.push(SeriesPoint::new(
                "local_interactions",
                per_agent as f64,
                outcomes?,
            ));
        }
        print_series(
            &format!("Figure 7: Criteo-like CTR, k = {num_codes} (d=10, A=40)"),
            &series,
        );
        save_series(&format!("fig7_criteo_k{num_codes}"), &series)?;
    }
    Ok(ExitCode::SUCCESS)
}
