//! A scaled-down version of the paper's synthetic preference benchmark
//! (Section 5.1 / Figure 4): average reward of the three regimes as the user
//! population grows.
//!
//! Each regime is one matrix cell at the largest population; a cell's series
//! point at round U·T is exactly a U-user run, so every population is read
//! off that one series. The cold baseline is a secure-aggregation cell whose
//! release cadence is longer than the run: the central policy changes only
//! after the last user, so every device learns from its own feedback alone.
//!
//! ```bash
//! cargo run --release --example synthetic_benchmark
//! ```

use p2b::experiments::{
    run_cell, CellResult, CellSpec, ExperimentError, MatrixConfig, PolicyKind, PrivacyRegime,
    ScenarioKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let populations = [100u64, 300, 1_000, 3_000];
    // d = 10, A = 20 at the matrix's reward scale β = 0.8 (the paper's 0.1
    // needs far larger populations to separate the regimes).
    let mut config = MatrixConfig::new();
    config.shape.context_dimension = 10;
    config.shape.num_actions = 20;
    config.num_users = 3_000;
    config.num_codes = 256;
    config.encoder_corpus_size = 1024;
    config.record_every = 100 * config.interactions_per_user;

    let run = |regime, flush_every_reports| -> Result<CellResult, ExperimentError> {
        let mut config = config.clone();
        config.flush_every_reports = flush_every_reports;
        let spec = CellSpec {
            scenario: ScenarioKind::SyntheticGaussian,
            regime,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed: 42,
        };
        run_cell(&config, spec)
    };
    let cells = [
        run(PrivacyRegime::SecureAgg, usize::MAX)?,
        run(PrivacyRegime::NonPrivate, config.flush_every_reports)?,
        run(PrivacyRegime::P2bShuffle, config.flush_every_reports)?,
    ];

    println!("synthetic preference benchmark: d = 10, A = 20, T = 10 interactions per user");
    println!(
        "{:>10} {:>10} {:>20} {:>20}",
        "users", "cold", "warm non-private", "warm private (P2B)"
    );
    for users in populations {
        let round = users * config.interactions_per_user;
        let reward = |cell: &CellResult| {
            cell.series
                .iter()
                .find(|p| p.round == round)
                .map_or(f64::NAN, |p| p.average_reward)
        };
        println!(
            "{:>10} {:>10.4} {:>20.4} {:>20.4}",
            users,
            reward(&cells[0]),
            reward(&cells[1]),
            reward(&cells[2])
        );
    }
    println!(
        "\nexpected shape (paper Figure 4): both warm regimes improve with the population size \
         and clearly beat the cold baseline; the private regime trails the non-private one."
    );
    Ok(())
}
