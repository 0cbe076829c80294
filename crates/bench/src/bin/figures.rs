//! All-in-one reproduction of the paper's utility-vs-privacy results
//! (Figures 4–7): the scenario matrix of `p2b_experiments` crossed over
//! every workload, all five privacy regimes (non-private / LDP / P2B
//! shuffle / central-DP tree aggregation / secure aggregation) and every
//! policy, emitted as JSON + CSV under `target/experiments/`, plus an
//! `accounting.json` artifact comparing the shuffle ledger's
//! pure-composition ε against the ρ-zCDP-accounted ε at horizon T = 10⁴.
//!
//! Flags:
//!
//! * `--smoke` — tiny rounds/users for CI; also *enforces* the paper's
//!   headline ordering (P2B ≥ randomized response on the synthetic
//!   benchmark), the presence of per-cell (ε, δ) — central-DP included —
//!   the absence of a claimed (ε, δ) on secure-aggregation cells (a trust
//!   split is not a DP guarantee), and the strict zCDP tightening at
//!   T = 10⁴. Each failure class exits with its own nonzero code (see
//!   [`BenchFailure::exit_code`]) and a one-line diagnostic, so the CI
//!   harness can tell a broken invariant from a broken environment.
//! * `--seed <n>` — base seed (default 2026).

use p2b_bench::{experiments_dir, BenchFailure};
use p2b_experiments::{
    run_matrix, run_streaming_shuffle, write_matrix_csv, write_matrix_json, MatrixConfig,
    MatrixResult, PolicyKind, PrivacyRegime, ScenarioKind, CENTRAL_TARGET_DELTA,
};
use p2b_privacy::CompositionComparison;
use std::process::ExitCode;

/// Horizon of the pure-vs-zCDP shuffle-ledger comparison in the accounting
/// artifact: 10⁴ reporting opportunities, the scale at which zCDP's O(√k)
/// composition visibly separates from pure O(k) composition.
const ACCOUNTING_HORIZON: u32 = 10_000;

/// One central-DP cell's quoted stream ε in the accounting artifact.
#[derive(serde::Serialize)]
struct CentralEpsilon {
    /// `scenario_key#repeat` of the cell.
    cell: String,
    /// The ε quoted at the documented target δ.
    epsilon: f64,
}

/// The emitted accounting artifact: the same per-batch shuffle guarantee
/// composed through both backends, plus the central-DP stream's quoted ε.
#[derive(serde::Serialize)]
struct AccountingArtifact {
    /// Side-by-side shuffle-ledger composition over [`ACCOUNTING_HORIZON`].
    shuffle_ledger: CompositionComparison,
    /// ε quoted by each central-DP cell, straight from the matrix result.
    central_dp_epsilon: Vec<CentralEpsilon>,
    /// The δ the central-DP ε values are quoted at.
    central_dp_target_delta: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = match args.iter().position(|a| a == "--seed") {
        Some(i) => {
            let raw = match args.get(i + 1) {
                Some(raw) => raw,
                None => {
                    return BenchFailure::Usage("--seed requires a value".into()).report("figures")
                }
            };
            match raw.parse::<u64>() {
                Ok(seed) => seed,
                Err(e) => return BenchFailure::Usage(format!("--seed: {e}")).report("figures"),
            }
        }
        None => 2026,
    };
    match run(smoke, seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => failure.report("figures"),
    }
}

fn run(smoke: bool, seed: u64) -> Result<(), BenchFailure> {
    let config = if smoke {
        MatrixConfig::smoke()
    } else {
        let mut full = MatrixConfig::new();
        full.policies = PolicyKind::ALL.to_vec();
        full
    }
    .with_seed(seed);

    println!(
        "Scenario matrix: {} scenarios x {} regimes x {} policies x {} repeat(s) = {} cells \
         ({} users x {} rounds each, seed {seed})",
        config.scenarios.len(),
        config.regimes.len(),
        config.policies.len(),
        config.repeats,
        config.num_cells(),
        config.num_users,
        config.interactions_per_user,
    );

    let result =
        run_matrix(&config).map_err(|e| BenchFailure::Runtime(format!("scenario matrix: {e}")))?;
    for &scenario in &config.scenarios {
        print_scenario_table(&config, &result, scenario);
    }

    // Serving-scale cross-check of the shuffled regime: the same pipeline
    // driven through p2b_sim::run_streaming_population (parallel producers
    // into the sharded engine of a full P2bSystem).
    let streaming = run_streaming_shuffle(&config, 4, seed ^ 0x5EED)
        .map_err(|e| BenchFailure::Runtime(format!("streaming cross-check: {e}")))?;
    let received: u64 = streaming
        .round_stats
        .iter()
        .map(|s| s.received as u64)
        .sum();
    println!(
        "\nStreaming cross-check (4 producers, {} shards): {} submitted, {} received, \
         {} batches, per-report eps = {:.4}",
        config.shuffler_shards,
        streaming.submitted,
        received,
        streaming.ledger.records().len(),
        streaming.ledger.per_report_epsilon(),
    );
    if received != streaming.submitted {
        return Err(BenchFailure::InvariantViolation(format!(
            "streaming engine lost reports ({} submitted, {received} received)",
            streaming.submitted
        )));
    }

    let dir = experiments_dir();
    let json_path = dir.join("figures.json");
    let csv_path = dir.join("figures.csv");
    write_matrix_json(&json_path, &result)
        .map_err(|e| BenchFailure::Io(format!("{}: {e}", json_path.display())))?;
    write_matrix_csv(&csv_path, &result)
        .map_err(|e| BenchFailure::Io(format!("{}: {e}", csv_path.display())))?;
    let csv_rows: usize = result.cells.iter().map(|c| c.series.len()).sum();
    println!(
        "\nresults written to {} and {} ({csv_rows} CSV rows)",
        json_path.display(),
        csv_path.display(),
    );

    // Accounting artifact: the shuffle ledger's weakest batch guarantee
    // composed over 10^4 opportunities through both backends, plus the
    // central-DP cells' quoted stream ε values.
    let comparison = streaming
        .ledger
        .zcdp_composed_over(ACCOUNTING_HORIZON, 1e-6)
        .map_err(|e| BenchFailure::Runtime(format!("zCDP composition: {e}")))?
        .ok_or_else(|| {
            BenchFailure::InvariantViolation(
                "streaming ledger recorded no non-empty batch".to_owned(),
            )
        })?;
    let central_dp_epsilon: Vec<CentralEpsilon> = result
        .cells
        .iter()
        .filter(|c| c.spec.regime == PrivacyRegime::CentralDp)
        .filter_map(|c| {
            c.epsilon.map(|e| CentralEpsilon {
                cell: format!("{}#{}", c.spec.scenario.key(), c.spec.repeat),
                epsilon: e,
            })
        })
        .collect();
    let artifact = AccountingArtifact {
        shuffle_ledger: comparison,
        central_dp_epsilon,
        central_dp_target_delta: CENTRAL_TARGET_DELTA,
    };
    let accounting_path = dir.join("accounting.json");
    let accounting_json = serde_json::to_string_pretty(&artifact)
        .map_err(|e| BenchFailure::Runtime(format!("accounting artifact: {e}")))?;
    std::fs::write(&accounting_path, accounting_json)
        .map_err(|e| BenchFailure::Io(format!("{}: {e}", accounting_path.display())))?;
    println!(
        "accounting artifact written to {}: horizon {} pure eps = {:.1}, zCDP eps = {:.1}",
        accounting_path.display(),
        ACCOUNTING_HORIZON,
        artifact.shuffle_ledger.pure_epsilon,
        artifact.shuffle_ledger.zcdp_epsilon,
    );

    if smoke {
        enforce_headline_invariants(&result)?;
        enforce_accounting_invariants(&artifact)?;
        println!(
            "smoke invariants hold: P2B >= randomized response on the synthetic scenario; \
             every private cell (central-DP included) reports (eps, delta); \
             secure-agg cells claim no guarantee; \
             zCDP eps {:.1} < pure eps {:.1} at horizon {}",
            artifact.shuffle_ledger.zcdp_epsilon,
            artifact.shuffle_ledger.pure_epsilon,
            ACCOUNTING_HORIZON,
        );
    }
    Ok(())
}

/// The zCDP acceptance invariant: at horizon 10⁴ the zCDP-accounted shuffle
/// ledger must be *strictly* tighter than pure sequential composition, and
/// every central-DP cell must quote a finite positive ε.
fn enforce_accounting_invariants(artifact: &AccountingArtifact) -> Result<(), BenchFailure> {
    let cmp = &artifact.shuffle_ledger;
    if cmp.zcdp_epsilon >= cmp.pure_epsilon {
        return Err(BenchFailure::InvariantViolation(format!(
            "zCDP accounting must be strictly tighter at horizon {}: zCDP {:.3} vs pure {:.3}",
            cmp.horizon, cmp.zcdp_epsilon, cmp.pure_epsilon
        )));
    }
    if artifact.central_dp_epsilon.is_empty() {
        return Err(BenchFailure::InvariantViolation(
            "no central-DP cell reported an epsilon".to_owned(),
        ));
    }
    for entry in &artifact.central_dp_epsilon {
        if !entry.epsilon.is_finite() || entry.epsilon <= 0.0 {
            return Err(BenchFailure::InvariantViolation(format!(
                "central-DP cell {} quotes a degenerate eps {}",
                entry.cell, entry.epsilon
            )));
        }
    }
    Ok(())
}

/// Prints one scenario's utility table: one row per policy × repeat, one
/// column per regime, plus the achieved per-report guarantee.
fn print_scenario_table(config: &MatrixConfig, result: &MatrixResult, scenario: ScenarioKind) {
    println!(
        "\n=== {} ({}) — final cumulative reward ===",
        scenario,
        scenario.paper_figure()
    );
    print!("{:>20}", "policy");
    for regime in &config.regimes {
        print!(" {:>24}", regime.key());
    }
    println!();
    for &policy in &config.policies {
        for repeat in 0..config.repeats {
            let label = if config.repeats > 1 {
                format!("{}#{repeat}", policy.key())
            } else {
                policy.key().to_owned()
            };
            print!("{label:>20}");
            for &regime in &config.regimes {
                let found = result.cells.iter().find(|c| {
                    c.spec.scenario == scenario
                        && c.spec.regime == regime
                        && c.spec.policy == policy
                        && c.spec.repeat == repeat
                });
                let text = found.map_or_else(
                    || "-".to_owned(),
                    |cell| {
                        let guarantee = match (cell.epsilon, cell.delta) {
                            (Some(e), Some(d)) => format!(" (eps {e:.3}, delta {d:.1e})"),
                            _ => String::new(),
                        };
                        format!("{:.1}{guarantee}", cell.final_cumulative_reward)
                    },
                );
                print!(" {text:>24}");
            }
            println!();
        }
    }
}

/// The acceptance invariants of the smoke run: the paper's qualitative
/// ordering on the synthetic benchmark and complete — but never
/// overclaimed — privacy accounting.
fn enforce_headline_invariants(result: &MatrixResult) -> Result<(), BenchFailure> {
    let cell = |regime| {
        result
            .cell(ScenarioKind::SyntheticGaussian, regime, PolicyKind::LinUcb)
            .ok_or_else(|| {
                BenchFailure::InvariantViolation(
                    "smoke matrix must include the synthetic LinUCB cells".to_owned(),
                )
            })
    };
    let ldp = cell(PrivacyRegime::LocalDp)?;
    let p2b = cell(PrivacyRegime::P2bShuffle)?;
    if p2b.final_cumulative_reward < ldp.final_cumulative_reward {
        return Err(BenchFailure::InvariantViolation(format!(
            "headline violated: P2B cumulative reward {:.2} < randomized response {:.2}",
            p2b.final_cumulative_reward, ldp.final_cumulative_reward
        )));
    }
    for cell in &result.cells {
        if cell.spec.regime.is_private() && (cell.epsilon.is_none() || cell.delta.is_none()) {
            return Err(BenchFailure::InvariantViolation(format!(
                "cell {}/{}/{} is private but missing its (eps, delta) record",
                cell.spec.scenario, cell.spec.regime, cell.spec.policy
            )));
        }
        // The converse overclaim: a regime without a DP guarantee (the
        // non-private ceiling, the secure-aggregation trust split) must
        // never publish one.
        if !cell.spec.regime.is_private() && (cell.epsilon.is_some() || cell.delta.is_some()) {
            return Err(BenchFailure::InvariantViolation(format!(
                "cell {}/{}/{} claims an (eps, delta) but its regime offers no DP guarantee",
                cell.spec.scenario, cell.spec.regime, cell.spec.policy
            )));
        }
    }
    Ok(())
}
