//! All-in-one reproduction of the paper's utility-vs-privacy results
//! (Figures 2–7 and Table 1): the scenario matrix of `p2b_experiments`
//! crossed over every workload, all five privacy regimes (non-private / LDP /
//! P2B shuffle / central-DP tree aggregation / secure aggregation), every
//! cell running LinUCB, emitted as JSON + CSV under `target/experiments/`, plus an
//! `accounting.json` artifact comparing the weakest P2B cell's
//! pure-composition ε against the ρ-zCDP-accounted ε at horizon T = 10⁴.
//!
//! Seven sections follow, each printing its table and writing one JSON under
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
//!   the context dimension d, one run per d (A = 20, T = 20);
//! * Fig. 6 (`fig6_accuracy.json`) — accuracy of held-out users on the
//!   MediaMill-like and TextMining-like workloads against the interactions
//!   per user, cold and every regime, k = 2⁵, l = 10;
//! * Fig. 7 (`fig7_ctr.json`) — click-through rate of held-out users on the
//!   Criteo-like log, for k ∈ {2⁵, 2⁷}, l = 10;
//! * Table 1 (`table1_headline.json`) — ε at p = 0.5, the non-private − P2B
//!   accuracy gaps and the P2B − non-private CTR difference.
//!
//! Figs. 4–5 run through the matrix. The cold baseline is a
//! secure-aggregation cell whose release cadence (`flush_every_reports =
//! usize::MAX`) is longer than the run, so the central policy changes only
//! after the last user and every device learns from its own feedback alone.
//! Figs. 6–7 and Table 1 run `run_held_out`: 70 % of the users train and
//! share, and the rest are scored from the final central policy and, as
//! cold, from a fresh one. Sizes follow `P2B_SCALE` (see [`Scale`]); the
//! paper's 10⁶ users (Fig. 4) and 3 000 Criteo users need `P2B_SCALE=full`.
//!
//! Flags (any other argument is a usage error, exit 2):
//!
//! * `--smoke` — tiny rounds/users for CI (and `Scale::Quick` for the
//!   figure sections); also *enforces* the paper's headline ordering (P2B ≥
//!   randomized response on the synthetic benchmark), the presence of
//!   per-cell (ε, δ) — central-DP included — the absence of a claimed
//!   (ε, δ) on secure-aggregation cells (a trust split is not a DP
//!   guarantee), and the strict zCDP tightening at T = 10⁴. Each failure
//!   class exits with its own nonzero code (see [`BenchFailure::exit_code`])
//!   and a one-line diagnostic, so the CI harness can tell a broken
//!   invariant from a broken environment.
//! * `--seed <n>` — base seed (default 2026).

use p2b_bench::failure::write_artifact;
use p2b_bench::{experiments_dir, BenchFailure, Scale};
use p2b_encoding::{
    enumerate_simplex_grid, simplex_cardinality, Encoder, KMeansConfig, KMeansEncoder,
};
use p2b_experiments::{
    run_held_out, run_matrix, write_matrix_csv, write_matrix_json, CellResult, CellSpec,
    HeldOutResult, MatrixConfig, MatrixResult, PolicyKind, PrivacyRegime, ScenarioKind,
    ScenarioShape, CENTRAL_TARGET_DELTA,
};
use p2b_privacy::{
    amplified_delta, compare_composition, epsilon_sweep, CompositionComparison, Participation,
    PrivacyGuarantee,
};
use p2b_sim::parallel_map;
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

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Cli {
    smoke: bool,
    seed: u64,
}

/// Parses the flags the way `p2b-serve` does: an unknown flag or a missing
/// or malformed value is an error, never a silently ignored argument.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        seed: 2026,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                cli.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => return BenchFailure::Usage(message).report("figures"),
    };
    let scale = if cli.smoke {
        Ok(Scale::Quick)
    } else {
        Scale::from_env()
    };
    match scale.and_then(|scale| run(cli.smoke, cli.seed, scale)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => failure.report("figures"),
    }
}

fn run(smoke: bool, seed: u64, scale: Scale) -> Result<(), BenchFailure> {
    let config = if smoke {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::new()
    }
    .with_seed(seed);

    println!(
        "Scenario matrix: {} scenarios x {} regimes x {} repeat(s) = {} cells \
         ({} users x {} rounds each, seed {seed})",
        config.scenarios.len(),
        config.regimes.len(),
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
    fig5_dimensionality(scale, seed)?;
    fig6_accuracy(scale, seed)?;
    fig7_ctr(scale, seed)?;
    table1_headline(scale, seed)
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
        let scenario = ScenarioKind::SyntheticGaussian;
        [
            self.cold.cell(scenario, PrivacyRegime::SecureAgg),
            self.warm.cell(scenario, PrivacyRegime::NonPrivate),
            self.warm.cell(scenario, PrivacyRegime::P2bShuffle),
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

/// One row of a held-out section: every regime's held-out run of one
/// configuration, all at the configuration's seed, so they share one cold
/// score.
#[derive(serde::Serialize)]
struct HeldOutRow {
    /// The logged workload.
    scenario: ScenarioKind,
    /// Encoder codes k.
    num_codes: usize,
    /// Interactions per user.
    interactions_per_user: u64,
    /// One run per regime, in `PrivacyRegime::ALL` order.
    runs: Vec<HeldOutResult>,
}

impl HeldOutRow {
    fn run(config: &MatrixConfig) -> Result<Self, BenchFailure> {
        let scenario = config.scenarios[0];
        let specs = PrivacyRegime::ALL.map(|regime| CellSpec {
            scenario,
            regime,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed: config.seed,
        });
        let runs = parallel_map(specs.to_vec(), config.cell_workers, |spec| {
            run_held_out(config, spec)
        });
        Ok(Self {
            scenario,
            num_codes: config.num_codes,
            interactions_per_user: config.interactions_per_user,
            runs: runs
                .into_iter()
                .collect::<Result<_, _>>()
                .map_err(runtime("held-out run"))?,
        })
    }

    /// The warm score of `regime`'s run.
    fn warm(&self, regime: PrivacyRegime) -> f64 {
        self.runs
            .iter()
            .find(|run| run.training.spec.regime == regime)
            .map_or(f64::NAN, |run| run.warm.average_reward)
    }

    /// Prints the row: the shared cold score, then every regime's warm one.
    fn print(&self, label: impl Display) {
        let cold = self
            .runs
            .first()
            .map_or(f64::NAN, |r| r.cold.average_reward);
        print!("{label:>14} {cold:>8.4}");
        for run in &self.runs {
            print!(" {:>24.4}", run.warm.average_reward);
        }
        println!();
    }
}

/// Prints the header of a held-out table: cold, then one warm column per
/// regime.
fn print_held_out_header(title: &str, x: &str) {
    println!("\n=== {title} ===");
    print!("{x:>14} {:>8}", "cold");
    for regime in PrivacyRegime::ALL {
        print!(" {:>24}", regime.key());
    }
    println!();
}

/// Fig. 6: multi-label accuracy of held-out users against the interactions
/// per user, on the MediaMill-like (d = 20, A = 40) and TextMining-like
/// (d = 20, A = 22) workloads, k = 2⁵, l = 10.
fn fig6_accuracy(scale: Scale, seed: u64) -> Result<(), BenchFailure> {
    let num_users = scale.pick(40, 200, 600);
    let sweep: Vec<u64> = scale.pick(
        vec![10, 25],
        vec![10, 25, 50, 75, 100],
        vec![10, 25, 50, 75, 100],
    );
    let mut rows = Vec::new();
    for scenario in [ScenarioKind::MediaMill, ScenarioKind::TextMining] {
        print_held_out_header(
            &format!("Figure 6: {scenario} accuracy, {num_users} users, k = 32, l = 10"),
            "interactions",
        );
        for &interactions in &sweep {
            let config = MatrixConfig::held_out(scenario, num_users, interactions);
            let row = HeldOutRow::run(&config.with_seed(seed))?;
            row.print(interactions);
            rows.push(row);
        }
    }
    write_section("fig6_accuracy", &rows)
}

/// Fig. 7: click-through rate of held-out users on the Criteo-like log
/// (d = 10, A = 40) against the interactions per user, for k = 2⁵ and
/// k = 2⁷ codes, l = 10. The paper runs 3 000 users of up to 300
/// interactions (`P2B_SCALE=full`).
fn fig7_ctr(scale: Scale, seed: u64) -> Result<(), BenchFailure> {
    let num_users = scale.pick(60, 300, 3_000);
    let sweep: Vec<u64> = scale.pick(
        vec![25, 50],
        vec![25, 50, 100, 200, 300],
        vec![50, 100, 200, 300],
    );
    let mut rows = Vec::new();
    for num_codes in [1 << 5, 1 << 7] {
        print_held_out_header(
            &format!("Figure 7: criteo CTR, {num_users} users, k = {num_codes}, l = 10"),
            "interactions",
        );
        for &interactions in &sweep {
            let mut config = MatrixConfig::held_out(ScenarioKind::Criteo, num_users, interactions);
            config.num_codes = num_codes;
            let row = HeldOutRow::run(&config.with_seed(seed))?;
            row.print(interactions);
            rows.push(row);
        }
    }
    write_section("fig7_ctr", &rows)
}

/// The Table 1 section's artifact.
#[derive(serde::Serialize)]
struct Headline {
    /// ε claimed by the first P2B held-out run (p = 0.5).
    epsilon: Option<f64>,
    /// One row per paper-shaped logged workload.
    rows: Vec<HeldOutRow>,
}

/// Table 1: the paper's headline numbers — ε ≈ 0.693 at p = 0.5, the
/// non-private − P2B accuracy gaps (2.6 pp MediaMill, 3.6 pp TextMining) and
/// the P2B − non-private CTR difference on Criteo (+0.0025) — from one
/// held-out row per workload.
fn table1_headline(scale: Scale, seed: u64) -> Result<(), BenchFailure> {
    let num_users = scale.pick(40, 200, 600);
    let interactions = scale.pick(30, 100, 100);
    println!(
        "\n=== Table 1: headline numbers ({num_users} users x {interactions} interactions, \
         k = 32, l = 10) ==="
    );
    let mut rows = Vec::with_capacity(ScenarioKind::HELD_OUT.len());
    for scenario in ScenarioKind::HELD_OUT {
        let config = MatrixConfig::held_out(scenario, num_users, interactions);
        let row = HeldOutRow::run(&config.with_seed(seed))?;
        let non_private = row.warm(PrivacyRegime::NonPrivate);
        let p2b = row.warm(PrivacyRegime::P2bShuffle);
        if scenario == ScenarioKind::Criteo {
            println!(
                "{scenario}: non-private CTR {non_private:.4}, P2B CTR {p2b:.4}, \
                 P2B - non-private {:+.4} (paper: +0.0025)",
                p2b - non_private
            );
        } else {
            println!(
                "{scenario}: non-private accuracy {non_private:.4}, P2B accuracy {p2b:.4}, \
                 gap {:+.4} (paper: 0.026 mediamill, 0.036 textmining)",
                non_private - p2b
            );
        }
        rows.push(row);
    }
    let epsilon = rows.first().and_then(|row| {
        row.runs
            .iter()
            .find(|run| run.training.spec.regime == PrivacyRegime::P2bShuffle)
            .and_then(|run| run.training.epsilon)
    });
    if let Some(epsilon) = epsilon {
        println!("P2B epsilon at p = 0.5: {epsilon:.6} (paper: ~0.693)");
    }
    write_section("table1_headline", &Headline { epsilon, rows })
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

/// Prints one scenario's utility table: one row per repeat, one column per
/// regime, plus the achieved per-report guarantee.
fn print_scenario_table(config: &MatrixConfig, result: &MatrixResult, scenario: ScenarioKind) {
    println!(
        "\n=== {} ({}) — final cumulative reward ===",
        scenario,
        scenario.paper_figure()
    );
    print!("{:>20}", "repeat");
    for regime in &config.regimes {
        print!(" {:>24}", regime.key());
    }
    println!();
    for repeat in 0..config.repeats {
        print!("{repeat:>20}");
        for &regime in &config.regimes {
            let found = result.cells.iter().find(|c| {
                c.spec.scenario == scenario && c.spec.regime == regime && c.spec.repeat == repeat
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

/// The acceptance invariants of the smoke run: the paper's qualitative
/// ordering on the synthetic benchmark and complete — but never
/// overclaimed — privacy accounting.
fn enforce_headline_invariants(result: &MatrixResult) -> Result<(), BenchFailure> {
    let cell = |regime| {
        result
            .cell(ScenarioKind::SyntheticGaussian, regime)
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
                "cell {}/{} is private but missing its (eps, delta) record",
                cell.spec.scenario, cell.spec.regime
            )));
        }
        // The converse overclaim: a regime without a DP guarantee (the
        // non-private ceiling, the secure-aggregation trust split) must
        // never publish one.
        if !cell.spec.regime.is_private() && (cell.epsilon.is_some() || cell.delta.is_some()) {
            return Err(BenchFailure::InvariantViolation(format!(
                "cell {}/{} claims an (eps, delta) but its regime offers no DP guarantee",
                cell.spec.scenario, cell.spec.regime
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_the_known_flags() {
        assert_eq!(
            parse(&[]),
            Ok(Cli {
                smoke: false,
                seed: 2026
            })
        );
        assert_eq!(
            parse(&["--smoke", "--seed", "7"]),
            Ok(Cli {
                smoke: true,
                seed: 7
            })
        );
        assert_eq!(parse(&["--seed", "9", "--smoke"]).map(|c| c.seed), Ok(9));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--smok"][..],
            &["--smoke", "extra"],
            &["-s"],
            &["--seed"],
            &["--seed", "x"],
            &["--seed", "-1"],
        ] {
            let message = parse(bad).unwrap_err();
            assert_eq!(BenchFailure::Usage(message).exit_code(), 2, "{bad:?}");
        }
        assert!(parse(&["--smok"]).unwrap_err().contains("--smok"));
    }
}
