//! Figure 6: multi-label classification accuracy (MediaMill-like, d = 20,
//! A = 40; TextMining-like, d = 20, A = 22) as local agents observe more
//! interactions. 70 % of the agents train / share, the remaining 30 % are the
//! test population whose accuracy is reported. k = 2⁵ codes.

use p2b_bench::{print_series, save_series, Scale};
use p2b_datasets::{MultiLabelDataset, MultiLabelInstance};
use p2b_sim::{parallel_map, run_logged_experiment, LoggedExperimentConfig, Regime, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn run_dataset(
    name: &str,
    dataset: &MultiLabelDataset,
    num_agents: usize,
    interaction_sweep: &[usize],
    seed: u64,
) -> Result<Vec<SeriesPoint>, Box<dyn std::error::Error>> {
    let mut series = Vec::new();
    for &samples_per_agent in interaction_sweep {
        let mut rng = StdRng::seed_from_u64(seed + samples_per_agent as u64);
        let agents: Vec<Vec<MultiLabelInstance>> =
            dataset.split_agents(num_agents, samples_per_agent, &mut rng)?;
        let outcomes = parallel_map(Regime::ALL.to_vec(), 3, |regime| {
            let config = LoggedExperimentConfig::new(
                regime,
                dataset.context_dimension(),
                dataset.num_labels(),
            )
            .with_num_codes(1 << 5)
            .with_seed(seed);
            run_logged_experiment(&agents, config)
        });
        let outcomes: Result<Vec<_>, _> = outcomes.into_iter().collect();
        series.push(SeriesPoint::new(
            "local_interactions",
            samples_per_agent as f64,
            outcomes?,
        ));
    }
    print_series(&format!("Figure 6: {name}"), &series);
    Ok(series)
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(failure) => return Ok(failure.report("fig6_multilabel")),
    };
    let num_agents = scale.pick(40, 200, 600);
    let interaction_sweep: Vec<usize> = scale.pick(
        vec![10, 25],
        vec![10, 25, 50, 75, 100],
        vec![10, 25, 50, 75, 100],
    );
    let max_per_agent = *interaction_sweep.iter().max().expect("sweep is non-empty");

    let mut rng = StdRng::seed_from_u64(60);
    let mediamill = MultiLabelDataset::mediamill_like(num_agents * max_per_agent, &mut rng)?;
    let textmining = MultiLabelDataset::textmining_like(num_agents * max_per_agent, &mut rng)?;

    let mm_series = run_dataset(
        "MediaMill-like (d=20, A=40)",
        &mediamill,
        num_agents,
        &interaction_sweep,
        61,
    )?;
    save_series("fig6_mediamill", &mm_series)?;

    let tm_series = run_dataset(
        "TextMining-like (d=20, A=22)",
        &textmining,
        num_agents,
        &interaction_sweep,
        62,
    )?;
    save_series("fig6_textmining", &tm_series)?;
    Ok(ExitCode::SUCCESS)
}
