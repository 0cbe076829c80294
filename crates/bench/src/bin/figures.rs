//! All-in-one reproduction of the paper's utility-vs-privacy results
//! (Figures 4–7): the scenario matrix of `p2b_experiments` crossed over
//! every workload, all five privacy regimes (non-private / LDP / P2B
//! shuffle / central-DP tree aggregation / secure aggregation) and every
//! policy, emitted as JSON + CSV under `target/experiments/`, plus an
//! `accounting.json` artifact comparing the weakest P2B cell's
//! pure-composition ε against the ρ-zCDP-accounted ε at horizon T = 10⁴.
//!
//! Four sections follow, each printing its table and writing one JSON under
//! `target/experiments/`:
//!
//! * Fig. 2 (`fig2_encoding.json`) — the d = 3, q = 1 simplex grid
//!   (n = 66 points) encoded into k = 6 codes, and its smallest cluster l;
//! * Fig. 3 (`fig3_epsilon.json`) — ε as a function of the participation
//!   probability p (Equation 3), with δ at l = 10;
//! * Fig. 4 (`fig4_synthetic.json`) — average reward of the cold, warm
//!   non-private and warm private (P2B) regimes against the population, for
//!   A ∈ {10, 20, 50}, d = 10, T = 10, read off one run per A;
//! * Fig. 5 (`fig5_dimensionality.json`) — the same three regimes against
//!   the context dimension d, one run per d (A = 20, T = 20).
//!
//! Figs. 4–5 run through the matrix. The cold baseline is a
//! secure-aggregation cell whose release cadence (`flush_every_reports =
//! usize::MAX`) is longer than the run, so the central policy changes only
//! after the last user and every device learns from its own feedback alone.
//! Their sizes follow `P2B_SCALE` (see [`Scale`]); the paper's 10⁶ users
//! need `P2B_SCALE=full`.
//!
//! Flags:
//!
//! * `--smoke` — tiny rounds/users for CI (and `Scale::Quick` for Figs.
//!   4–5); also *enforces* the paper's headline ordering (P2B ≥ randomized
//!   response on the synthetic benchmark), the presence of per-cell (ε, δ) —
//!   central-DP included — the absence of a claimed (ε, δ) on
//!   secure-aggregation cells (a trust split is not a DP guarantee), and the
//!   strict zCDP tightening at T = 10⁴. Each failure class exits with its
//!   own nonzero code (see [`BenchFailure::exit_code`]) and a one-line
//!   diagnostic, so the CI harness can tell a broken invariant from a broken
//!   environment.
//! * `--seed <n>` — base seed (default 2026).

use p2b_bench::failure::write_artifact;
use p2b_bench::{experiments_dir, BenchFailure, Scale};
use p2b_encoding::{
    enumerate_simplex_grid, simplex_cardinality, Encoder, KMeansConfig, KMeansEncoder,
};
use p2b_experiments::{
    run_matrix, write_matrix_csv, write_matrix_json, CellResult, MatrixConfig, MatrixResult,
    PolicyKind, PrivacyRegime, ScenarioKind, ScenarioShape, CENTRAL_TARGET_DELTA,
};
use p2b_privacy::{
    amplified_delta, compare_composition, epsilon_sweep, CompositionComparison, Participation,
    PrivacyGuarantee,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Display;
use std::process::ExitCode;

/// Horizon of the pure-vs-zCDP P2B-guarantee comparison in the accounting
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

/// The emitted accounting artifact: the weakest P2B cell's guarantee
/// composed through both backends, plus the central-DP stream's quoted ε.
#[derive(serde::Serialize)]
struct AccountingArtifact {
    /// Side-by-side composition of the weakest P2B cell's (ε, δ) over
    /// [`ACCOUNTING_HORIZON`] (the field keeps its historical name).
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
    let scale = if smoke {
        Ok(Scale::Quick)
    } else {
        Scale::from_env()
    };
    match scale.and_then(|scale| run(smoke, seed, scale)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => failure.report("figures"),
    }
}

fn run(smoke: bool, seed: u64, scale: Scale) -> Result<(), BenchFailure> {
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

    // Accounting artifact: the weakest (largest-δ) P2B cell's guarantee
    // composed over 10^4 opportunities through both backends, plus the
    // central-DP cells' quoted stream ε values.
    let (epsilon, delta) = result
        .cells
        .iter()
        .filter(|c| c.spec.regime == PrivacyRegime::P2bShuffle)
        .filter_map(|c| c.epsilon.zip(c.delta))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| {
            BenchFailure::InvariantViolation("no P2B cell reported its (eps, delta)".to_owned())
        })?;
    let comparison = PrivacyGuarantee::new(epsilon, delta)
        .and_then(|guarantee| compare_composition(guarantee, ACCOUNTING_HORIZON, 1e-6))
        .map_err(runtime("zCDP composition"))?;
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

    fig2_encoding()?;
    fig3_epsilon()?;
    fig4_synthetic(scale, seed)?;
    fig5_dimensionality(scale, seed)
}

/// Maps a library error to a [`BenchFailure::Runtime`] naming what failed.
fn runtime<E: Display>(what: &'static str) -> impl FnOnce(E) -> BenchFailure {
    move |e| BenchFailure::Runtime(format!("{what}: {e}"))
}

/// Writes one section's JSON to `target/experiments/<name>.json`.
fn write_section<T: serde::Serialize>(name: &str, value: &T) -> Result<(), BenchFailure> {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(runtime("section JSON"))?;
    std::fs::create_dir_all(experiments_dir())
        .map_err(|e| BenchFailure::Io(format!("{}: {e}", path.display())))?;
    write_artifact(&path.to_string_lossy(), &json)?;
    println!("written to {}", path.display());
    Ok(())
}

/// Fig. 2: the normalized 3-dimensional space at q = 1 decimal digit is a
/// simplex grid of n = 66 points; k-means encodes it into k = 6 codes, and
/// the smallest cluster is the crowd-blending l (the paper's example: 9).
fn fig2_encoding() -> Result<(), BenchFailure> {
    let (dimension, precision, num_codes) = (3, 1, 6);
    let cardinality = simplex_cardinality(dimension, precision).map_err(runtime("fig. 2"))?;
    let grid = enumerate_simplex_grid(dimension, precision, 10_000).map_err(runtime("fig. 2"))?;
    let corpus: Vec<_> = grid.iter().map(|point| point.to_vector()).collect();
    let encoder = KMeansEncoder::fit(
        &corpus,
        KMeansConfig::new(num_codes).with_iterations(200),
        &mut StdRng::seed_from_u64(2),
    )
    .map_err(runtime("fig. 2"))?;
    let stats = encoder.stats();

    println!("\n=== Figure 2: d = {dimension}, q = {precision}, k = {num_codes} ===");
    println!("simplex grid cardinality n = {cardinality} (paper: 66)");
    for (code, size) in stats.cluster_sizes.iter().enumerate() {
        println!("  code y{code}: {size} grid points");
    }
    println!(
        "minimum cluster size l = {} (paper's example: 9), mean distortion {:.5}",
        stats.min_cluster_size, stats.mean_distortion
    );
    write_section("fig2_encoding", &stats)
}

/// One point of Fig. 3.
#[derive(serde::Serialize)]
struct EpsilonDelta {
    /// Participation probability.
    p: f64,
    /// Equation 3's ε at ε̄ = 0.
    epsilon: f64,
    /// The δ of a batch whose crowd is l = 10 (Ω = 0.1).
    delta: f64,
}

/// Fig. 3: ε as a function of the participation probability p (Equation 3,
/// ε̄ = 0), with the δ of a crowd of l = 10.
fn fig3_epsilon() -> Result<(), BenchFailure> {
    let sweep = epsilon_sweep(0.05, 0.95, 19).map_err(runtime("fig. 3"))?;
    println!("\n=== Figure 3: epsilon as a function of the participation probability p ===");
    println!("{:>8} {:>10} {:>14}", "p", "epsilon", "delta (l=10)");
    let mut points = Vec::with_capacity(sweep.len());
    for point in sweep {
        let delta = Participation::new(point.p)
            .and_then(|p| amplified_delta(p, 10, 0.1))
            .map_err(runtime("fig. 3"))?;
        println!("{:>8.2} {:>10.4} {:>14.3e}", point.p, point.epsilon, delta);
        points.push(EpsilonDelta {
            p: point.p,
            epsilon: point.epsilon,
            delta,
        });
    }
    write_section("fig3_epsilon", &points)
}

/// The three regimes of Figs. 4–5 on one synthetic shape: warm non-private
/// and warm private (P2B) as one matrix run, and the cold baseline as
/// another.
#[derive(serde::Serialize)]
struct RegimeRuns {
    /// The non-private and P2B cells.
    warm: MatrixResult,
    /// The cold cell: secure aggregation released only after the last user.
    cold: MatrixResult,
}

impl RegimeRuns {
    /// Runs the three regimes of `config`'s synthetic shape. The cold cell
    /// is secure aggregation with a cadence longer than the run: the final
    /// flush comes after the last reward is counted, so no device ever
    /// starts from anything but a fresh policy.
    fn run(config: MatrixConfig) -> Result<Self, BenchFailure> {
        let warm = config
            .clone()
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle]);
        let mut cold = config.with_regimes(vec![PrivacyRegime::SecureAgg]);
        cold.flush_every_reports = usize::MAX;
        Ok(Self {
            warm: run_matrix(&warm).map_err(runtime("warm regimes"))?,
            cold: run_matrix(&cold).map_err(runtime("cold regime"))?,
        })
    }

    /// The cold, non-private and P2B cells, in the paper's column order.
    fn cells(&self) -> [Option<&CellResult>; 3] {
        let (scenario, policy) = (ScenarioKind::SyntheticGaussian, PolicyKind::LinUcb);
        [
            self.cold.cell(scenario, PrivacyRegime::SecureAgg, policy),
            self.warm.cell(scenario, PrivacyRegime::NonPrivate, policy),
            self.warm.cell(scenario, PrivacyRegime::P2bShuffle, policy),
        ]
    }

    /// Prints one table row: each regime's average reward at `round`.
    fn print_row(&self, label: f64, round: u64) {
        print!("{label:>14}");
        for cell in self.cells() {
            let reward = cell
                .and_then(|c| c.series.iter().find(|p| p.round == round))
                .map_or_else(|| "-".to_owned(), |p| format!("{:.4}", p.average_reward));
            print!(" {reward:>20}");
        }
        println!();
    }
}

/// Prints the header of a Fig. 4–5 table.
fn print_regime_header(title: &str, x: &str) {
    println!("\n=== {title} ===");
    println!(
        "{x:>14} {:>20} {:>20} {:>20}",
        "cold", "warm non-private", "warm private (P2B)"
    );
}

/// The synthetic benchmark at the paper's β = 0.1 and σ² = 0.01 with one
/// LinUCB cell per regime. The paper pairs k = 2¹⁰ codes and l = 10 with
/// populations up to 10⁶ users; at smaller populations that would drop
/// almost every report, so the code space, the threshold, the release
/// cadence and the encoder corpus shrink with the scale (the paper notes
/// that l "can always be matched to the shuffler's threshold"). A release
/// is one shuffler batch.
fn synthetic_config(
    scale: Scale,
    seed: u64,
    shape: (usize, usize),
    num_users: usize,
    interactions_per_user: u64,
) -> MatrixConfig {
    let (context_dimension, num_actions) = shape;
    let mut config = MatrixConfig::new()
        .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
        .with_policies(vec![PolicyKind::LinUcb])
        .with_seed(seed);
    config.num_users = num_users;
    config.interactions_per_user = interactions_per_user;
    config.shape = ScenarioShape {
        context_dimension,
        num_actions,
        beta: 0.1,
        noise_variance: 0.01,
        ..ScenarioShape::default()
    };
    config.num_codes = scale.pick(64, 256, 1 << 10);
    config.shuffler_threshold = scale.pick(2, 3, 10);
    config.flush_every_reports = scale.pick(256, 1024, 8192);
    config.shuffler_batch_size = config.flush_every_reports;
    config.encoder_corpus_size = scale.pick(512, 2048, 4096);
    config
}

/// Fig. 4: average reward against the user population for A ∈ {10, 20, 50},
/// d = 10, T = 10. A cell's series point at round U·T is exactly a U-user
/// run, so each A is one run at the largest population, recorded every 100
/// users.
fn fig4_synthetic(scale: Scale, seed: u64) -> Result<(), BenchFailure> {
    let populations: Vec<usize> = scale.pick(
        vec![100, 300],
        vec![100, 300, 1_000, 3_000, 10_000],
        vec![100, 1_000, 10_000, 100_000, 1_000_000],
    );
    let action_counts = scale.pick(vec![10], vec![10, 20, 50], vec![10, 20, 50]);
    let (dimension, interactions) = (10, 10);
    let largest = populations.iter().copied().max().unwrap_or(0);
    let mut runs = Vec::with_capacity(action_counts.len());
    for num_actions in action_counts {
        let mut config =
            synthetic_config(scale, seed, (dimension, num_actions), largest, interactions);
        config.record_every = interactions * 100;
        let regimes = RegimeRuns::run(config)?;
        print_regime_header(
            &format!("Figure 4: A = {num_actions}, d = {dimension}, T = {interactions}"),
            "users",
        );
        for &users in &populations {
            regimes.print_row(users as f64, users as u64 * interactions);
        }
        runs.push(regimes);
    }
    write_section("fig4_synthetic", &runs)
}

/// Fig. 5: average reward against the context dimension d with A = 20 and
/// T = 20, one run per d.
fn fig5_dimensionality(scale: Scale, seed: u64) -> Result<(), BenchFailure> {
    let num_users = scale.pick(200, 2_000, 20_000);
    let dimensions: Vec<usize> = scale.pick(
        vec![6, 10, 14],
        vec![6, 8, 10, 12, 14, 16, 18, 20],
        (6..=20).collect(),
    );
    let (num_actions, interactions) = (20, 20);
    let rounds = num_users as u64 * interactions;
    print_regime_header(
        &format!("Figure 5: U = {num_users}, A = {num_actions}, T = {interactions}"),
        "d",
    );
    let mut runs = Vec::with_capacity(dimensions.len());
    for dimension in dimensions {
        let mut config = synthetic_config(
            scale,
            seed,
            (dimension, num_actions),
            num_users,
            interactions,
        );
        config.record_every = rounds;
        let regimes = RegimeRuns::run(config)?;
        regimes.print_row(dimension as f64, rounds);
        runs.push(regimes);
    }
    write_section("fig5_dimensionality", &runs)
}

/// The zCDP acceptance invariant: at horizon 10⁴ the zCDP-accounted P2B
/// guarantee must be *strictly* tighter than pure sequential composition, and
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
