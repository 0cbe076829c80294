//! Reproduces the paper's utility-vs-privacy comparison (Figures 4–7) at
//! example scale through the `p2b::experiments` scenario matrix: every
//! workload × every privacy regime with the paper's LinUCB policy, printing
//! final utility and the achieved (ε, δ) per cell.
//!
//! Run with `cargo run --release --example paper_figures`. For the full
//! harness (CSV/JSON emission, Figs. 2–5 with the cold
//! baseline) see `cargo run --release -p p2b-bench --bin figures` and
//! docs/REPRODUCING.md.

use p2b::experiments::{run_matrix, MatrixConfig, PrivacyRegime, ScenarioKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = MatrixConfig::smoke().with_seed(2020);
    config.num_users = 160;
    let result = run_matrix(&config)?;

    println!("P2B scenario matrix — final cumulative reward per regime");
    println!(
        "({} users x {} rounds per cell, participation p = {}, k = {} codes, threshold l = {})\n",
        config.num_users,
        config.interactions_per_user,
        config.participation,
        config.num_codes,
        config.shuffler_threshold,
    );
    println!(
        "{:>20} {:>12} {:>14} {:>12} {:>22}",
        "scenario", "non-private", "LDP (RR)", "P2B", "P2B (eps, delta)"
    );
    for &scenario in &config.scenarios {
        let reward = |regime| {
            result
                .cell(scenario, regime)
                .map_or(0.0, |c| c.final_cumulative_reward)
        };
        let p2b = result
            .cell(scenario, PrivacyRegime::P2bShuffle)
            .expect("matrix covers every regime");
        println!(
            "{:>20} {:>12.1} {:>14.1} {:>12.1} {:>22}",
            scenario.key(),
            reward(PrivacyRegime::NonPrivate),
            reward(PrivacyRegime::LocalDp),
            reward(PrivacyRegime::P2bShuffle),
            format!(
                "({:.3}, {:.2e})",
                p2b.epsilon.unwrap_or(0.0),
                p2b.delta.unwrap_or(0.0)
            ),
        );
    }

    let synthetic = |regime| {
        result
            .cell(ScenarioKind::SyntheticGaussian, regime)
            .expect("matrix covers every regime")
            .final_cumulative_reward
    };
    println!(
        "\nheadline (synthetic benchmark): P2B retains {:.0}% of the non-private utility; \
         randomized response retains {:.0}%",
        100.0 * synthetic(PrivacyRegime::P2bShuffle) / synthetic(PrivacyRegime::NonPrivate),
        100.0 * synthetic(PrivacyRegime::LocalDp) / synthetic(PrivacyRegime::NonPrivate),
    );
    Ok(())
}
