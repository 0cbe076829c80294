//! `p2b-serve` — the closed-loop serving harness with latency SLOs.
//!
//! Drives the whole P2B pipeline (pool checkout → select → report →
//! shuffler engine → coalesced ingest → reward joins) as one service under
//! an open-loop seeded arrival process, measures decision latency, ingest
//! lag, join-buffer occupancy and pool churn, and writes `BENCH_serve.json`.
//! Exits non-zero when an SLO bar is violated.
//!
//! ```text
//! p2b-serve [--quick] [--workers N] [--seed N]
//!           [--slo-p99-ms F] [--slo-ingest-lag-epochs N] [--slo-occupancy N]
//!           [--summary PATH] [--out PATH]
//! ```
//!
//! * `--quick` forces the CI smoke scale (equivalent to `P2B_SCALE=quick`).
//! * `--workers N` must lie in `1..=codes` (the scale's code count): a
//!   worker owns the pool partition of the codes hashed to it, so one past
//!   the code count could own nothing.
//! * `--summary PATH` additionally writes the *redacted* report — the
//!   worker-count-invariant deterministic summary with all wall-clock
//!   fields zeroed — which must be byte-identical across runs; the CI smoke
//!   job diffs two of them.
//! * `--out PATH` overrides the `BENCH_serve.json` destination.
//! * The three `--slo-*` flags tighten (or loosen) the default bars.
//!
//! The stages underneath are measured elsewhere: the ingest path's model
//! digests by `cargo test -p p2b-bench --test ingest_golden`, its timings by
//! `cargo bench -p p2b-bench --bench ingest` / `--bench shuffler`, and
//! bounded-pool serving and bulk ingest by the `serve_churn` and
//! `ingest_bulk` workloads of `bash benchmark/run.sh`.

use p2b_bench::failure::write_artifact;
use p2b_bench::serve::{print_full_report, run_full, ServeConfig, SloConfig};
use p2b_bench::{BenchFailure, Scale};
use std::process::ExitCode;

struct Cli {
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

/// The run's scale and configuration from the parsed flags.
///
/// # Errors
///
/// Returns [`BenchFailure::Usage`] for a bad `P2B_SCALE` or a `--workers`
/// outside `1..=codes`.
fn configure(cli: &Cli) -> Result<(Scale, ServeConfig), BenchFailure> {
    let scale = if cli.quick {
        Scale::Quick
    } else {
        Scale::from_env()?
    };
    let mut config = ServeConfig::at_scale(scale);
    if let Some(workers) = cli.workers {
        if workers == 0 || workers as u64 > config.codes {
            return Err(BenchFailure::Usage(format!(
                "--workers must lie in 1..={} (the code count), got {workers}",
                config.codes
            )));
        }
        config.workers = workers;
    }
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    Ok((scale, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => return BenchFailure::Usage(message).report("p2b-serve"),
    };
    let (scale, config) = match configure(&cli) {
        Ok(configured) => configured,
        Err(failure) => return failure.report("p2b-serve"),
    };
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
    let report = match run_full(&config, &slo, scale_label) {
        Ok(report) => report,
        Err(failure) => return failure.report("p2b-serve"),
    };
    print_full_report(&report);

    let json = serde_json::to_string_pretty(&report).expect("reports serialize");
    if let Err(failure) = write_artifact(&cli.out_path, &json) {
        return failure.report("p2b-serve");
    }
    println!("machine-readable results written to {}", cli.out_path);

    if let Some(path) = &cli.summary_path {
        let redacted = serde_json::to_string_pretty(&report.redacted()).expect("reports serialize");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn configured(args: &[&str]) -> Result<(Scale, ServeConfig), BenchFailure> {
        let args: Vec<String> = args.iter().map(|&arg| arg.to_owned()).collect();
        configure(&parse_args(&args).expect("flags parse"))
    }

    #[test]
    fn workers_outside_one_to_the_code_count_are_a_usage_error() {
        let codes = ServeConfig::at_scale(Scale::Quick).codes;
        for workers in [0, codes + 1, 1_000_000] {
            assert!(
                matches!(
                    configured(&["--quick", "--workers", &workers.to_string()]),
                    Err(BenchFailure::Usage(_))
                ),
                "--workers {workers} must be refused"
            );
        }
        for workers in [1, 2, codes] {
            let (_, config) = configured(&["--quick", "--workers", &workers.to_string()])
                .expect("an in-range worker count is accepted");
            assert_eq!(config.workers as u64, workers);
        }
    }
}
