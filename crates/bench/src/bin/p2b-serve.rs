//! `p2b-serve` — the closed-loop serving harness with latency SLOs.
//!
//! Drives the whole P2B pipeline (pool checkout → select → report →
//! shuffler engine → coalesced ingest → reward joins) as one service under
//! an open-loop seeded arrival process, measures decision latency, ingest
//! lag, join-buffer occupancy and pool churn, and writes `BENCH_serve.json`.
//! Exits non-zero when an SLO bar is violated.
//!
//! ```text
//! p2b-serve [--mode ingest|full] [--quick]
//!           [--workers N] [--seed N]
//!           [--slo-p99-ms F] [--slo-ingest-lag-epochs N] [--slo-occupancy N]
//!           [--summary PATH] [--out PATH]
//! ```
//!
//! * `--mode` picks the slice; `full` (the default) runs the closed loop,
//!   `ingest` benchmarks the ingest subsystem and writes its model digests.
//!   Bounded-pool serving is the `serve_churn` workload of
//!   `bash benchmark/run.sh`.
//! * `--quick` forces the CI smoke scale (equivalent to `P2B_SCALE=quick`).
//! * `--summary PATH` additionally writes the *redacted* report — the
//!   worker-count-invariant deterministic summary with all wall-clock
//!   fields zeroed — which must be byte-identical across runs; the CI smoke
//!   job diffs two of them.
//! * `--out PATH` overrides the `BENCH_serve.json` destination.
//! * The three `--slo-*` flags tighten (or loosen) the default bars.

use p2b_bench::failure::write_artifact;
use p2b_bench::serve::{
    print_full_report, run_full, run_ingest_mode, ServeConfig, ServeMode, SloConfig,
};
use p2b_bench::{BenchFailure, Scale};
use std::process::ExitCode;

struct Cli {
    mode: ServeMode,
    quick: bool,
    workers: Option<usize>,
    seed: Option<u64>,
    slo_p99_ms: Option<f64>,
    slo_ingest_lag_epochs: Option<u64>,
    slo_occupancy: Option<u64>,
    summary_path: Option<String>,
    out_path: String,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: ServeMode::Full,
        quick: false,
        workers: None,
        seed: None,
        slo_p99_ms: None,
        slo_ingest_lag_epochs: None,
        slo_occupancy: None,
        summary_path: None,
        out_path: "BENCH_serve.json".to_owned(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--mode" => {
                let raw = value("--mode")?;
                cli.mode = ServeMode::parse(&raw)
                    .ok_or_else(|| format!("unknown mode {raw:?} (ingest|full)"))?;
            }
            "--quick" => cli.quick = true,
            "--workers" => {
                cli.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--seed" => {
                cli.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--slo-p99-ms" => {
                cli.slo_p99_ms = Some(
                    value("--slo-p99-ms")?
                        .parse()
                        .map_err(|e| format!("--slo-p99-ms: {e}"))?,
                );
            }
            "--slo-ingest-lag-epochs" => {
                cli.slo_ingest_lag_epochs = Some(
                    value("--slo-ingest-lag-epochs")?
                        .parse()
                        .map_err(|e| format!("--slo-ingest-lag-epochs: {e}"))?,
                );
            }
            "--slo-occupancy" => {
                cli.slo_occupancy = Some(
                    value("--slo-occupancy")?
                        .parse()
                        .map_err(|e| format!("--slo-occupancy: {e}"))?,
                );
            }
            "--summary" => cli.summary_path = Some(value("--summary")?),
            "--out" => cli.out_path = value("--out")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn exit_code(result: Result<(), BenchFailure>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => failure.report("p2b-serve"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => return BenchFailure::Usage(message).report("p2b-serve"),
    };

    let scale = if cli.quick {
        Scale::Quick
    } else {
        Scale::from_env()
    };
    match cli.mode {
        ServeMode::Ingest => exit_code(run_ingest_mode(scale)),
        ServeMode::Full => {
            let mut config = ServeConfig::at_scale(scale);
            if let Some(workers) = cli.workers {
                config.workers = workers.max(1);
            }
            if let Some(seed) = cli.seed {
                config.seed = seed;
            }
            let mut slo = SloConfig::for_config(&config);
            if let Some(ms) = cli.slo_p99_ms {
                slo.max_p99_decision_nanos = (ms * 1e6) as u64;
            }
            if let Some(lag) = cli.slo_ingest_lag_epochs {
                slo.max_ingest_lag_epochs = lag;
            }
            if let Some(occupancy) = cli.slo_occupancy {
                slo.max_join_occupancy = occupancy;
            }

            let scale_label = match scale {
                Scale::Quick => "quick",
                Scale::Default => "default",
                Scale::Full => "full",
            };
            let report = run_full(&config, &slo, scale_label);
            print_full_report(&report);

            let json = serde_json::to_string_pretty(&report).expect("reports serialize");
            if let Err(failure) = write_artifact(&cli.out_path, &json) {
                return failure.report("p2b-serve");
            }
            println!("machine-readable results written to {}", cli.out_path);

            if let Some(path) = &cli.summary_path {
                let redacted =
                    serde_json::to_string_pretty(&report.redacted()).expect("reports serialize");
                if let Err(failure) = write_artifact(path, &redacted) {
                    return failure.report("p2b-serve");
                }
                println!("deterministic summary written to {path}");
            }

            if report.slo.pass {
                ExitCode::SUCCESS
            } else {
                BenchFailure::SloViolation(format!(
                    "{} of the serve SLO bars failed (see table above)",
                    report.slo.violations.len()
                ))
                .report("p2b-serve")
            }
        }
    }
}
