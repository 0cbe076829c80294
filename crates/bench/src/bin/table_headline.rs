//! Headline numbers quoted in the abstract and conclusion of the paper:
//!
//! * ε ≈ 0.693 for p = 0.5;
//! * multi-label accuracy gap between the non-private and private warm
//!   regimes of ≈ 2.6 % (MediaMill) and ≈ 3.6 % (TextMining);
//! * a CTR difference of ≈ +0.0025 *in favour of* the private agents on the
//!   Criteo workload.

use p2b_bench::{save_series, Scale};
use p2b_datasets::{CriteoConfig, CriteoLikeGenerator, MultiLabelDataset};
use p2b_privacy::{amplified_epsilon, Participation};
use p2b_sim::{run_logged_experiment, LoggedExperimentConfig, Regime, RegimeOutcome, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn gap(outcomes: &[RegimeOutcome]) -> (f64, f64, f64) {
    let get = |regime: Regime| {
        outcomes
            .iter()
            .find(|o| o.regime == regime)
            .map(|o| o.average_reward)
            .unwrap_or(f64::NAN)
    };
    let non_private = get(Regime::WarmNonPrivate);
    let private = get(Regime::WarmPrivate);
    (non_private, private, non_private - private)
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(failure) => return Ok(failure.report("table_headline")),
    };
    println!("=== Headline numbers (paper abstract / Section 7) ===\n");

    // 1. Privacy budget at p = 0.5.
    let epsilon = amplified_epsilon(Participation::new(0.5)?, 0.0)?;
    println!("privacy budget at p = 0.5: epsilon = {epsilon:.6} (paper: ~0.693)\n");

    let num_agents = scale.pick(40, 200, 600);
    let per_agent = scale.pick(30, 100, 100);
    let mut all_points = Vec::new();

    // 2. Multi-label accuracy gaps.
    let mut rng = StdRng::seed_from_u64(80);
    for (name, dataset) in [
        (
            "mediamill",
            MultiLabelDataset::mediamill_like(num_agents * per_agent, &mut rng)?,
        ),
        (
            "textmining",
            MultiLabelDataset::textmining_like(num_agents * per_agent, &mut rng)?,
        ),
    ] {
        let agents = dataset.split_agents(num_agents, per_agent, &mut rng)?;
        let outcomes: Result<Vec<_>, _> = Regime::ALL
            .iter()
            .map(|&regime| {
                run_logged_experiment(
                    &agents,
                    LoggedExperimentConfig::new(
                        regime,
                        dataset.context_dimension(),
                        dataset.num_labels(),
                    )
                    .with_num_codes(1 << 5)
                    .with_seed(81),
                )
            })
            .collect();
        let outcomes = outcomes?;
        let (non_private, private, delta) = gap(&outcomes);
        println!(
            "{name}: non-private accuracy {non_private:.4}, private accuracy {private:.4}, \
             gap {delta:+.4} (paper: gap of 0.026 / 0.036)"
        );
        all_points.push(SeriesPoint::new(name, per_agent as f64, outcomes));
    }

    // 3. Criteo CTR difference.
    let generator = CriteoLikeGenerator::new(CriteoConfig::new(), &mut rng)?;
    let needed = num_agents * per_agent;
    let mut impressions = generator.generate(needed * 2, &mut rng)?;
    while impressions.len() < needed {
        impressions.extend(generator.generate(needed, &mut rng)?);
    }
    let agents = CriteoLikeGenerator::split_agents(&impressions, num_agents, per_agent)?;
    let outcomes: Result<Vec<_>, _> = Regime::ALL
        .iter()
        .map(|&regime| {
            run_logged_experiment(
                &agents,
                LoggedExperimentConfig::new(regime, 10, 40)
                    .with_num_codes(1 << 5)
                    .with_shuffler_threshold(10)
                    .with_seed(82),
            )
        })
        .collect();
    let outcomes = outcomes?;
    let (non_private, private, delta) = gap(&outcomes);
    println!(
        "criteo: non-private CTR {non_private:.4}, private CTR {private:.4}, \
         private - non-private = {:+.4} (paper: +0.0025 in favour of private)",
        -delta
    );
    all_points.push(SeriesPoint::new("criteo", per_agent as f64, outcomes));

    save_series("table_headline", &all_points)?;
    Ok(ExitCode::SUCCESS)
}
