//! The repo benchmark driver: one workload per process, one load-generating
//! thread, the library's public serving-path functions called inline.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures one
//! workload and ends its output with the one-line JSON result. Without
//! `--workload` every workload is run in a process of its own, untraced and
//! then traced; `--selfcheck` runs the untraced set twice and compares.

mod flush;
mod ingest;
mod matrix;
mod metrics;
mod selfcheck;
mod serve;
mod spec;
mod stats;
mod trace;
mod workload;
mod world;

use metrics::{Values, WORKLOADS};
use stats::{latency_point, percentile_nanos, summarize, Floor, Samples, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{PacedOutcome, RepOutcome, Scale, Timings, Workload};

/// Fewest timed repetitions a run reports on.
const MIN_REPS: usize = 3;
/// Fewest untraced/traced pairs, and fewest paced repetitions, of a traced run.
const MIN_TRACED_PAIRS: usize = 2;
const MIN_PACED_REPS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: spec::Spec::embedded()?.run_seconds as f64,
        trace: false,
        selfcheck: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--selfcheck" => parsed.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve_steady" => Box::new(serve::Serve::new(serve::ServeShape::steady(scale), seed)?),
        "serve_churn" => Box::new(serve::Serve::new(serve::ServeShape::churn(scale), seed)?),
        "ingest_bulk" => Box::new(ingest::Ingest::new(scale, seed)?),
        "matrix_regimes" => Box::new(matrix::Matrix::new(scale, seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// What the workload's operation and batch are, for the printed aliases.
fn aliases(workload: &str) -> (&'static str, &'static str, &'static str) {
    match workload {
        "ingest_bulk" => ("reports_per_s", "submit chunk, per report", "flush_p50_ms"),
        "matrix_regimes" => ("interactions_per_s", "cell, per interaction", "cell_p50_ms"),
        _ => ("decisions_per_s", "decision", "flush_p50_ms"),
    }
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The timings of a run's untraced repetitions: their floor, which the timed
/// metrics are read from, and each repetition's own samples, whose spread is
/// printed beside them.
#[derive(Default)]
struct Timed {
    segment_floor: Floor,
    op_floor: Floor,
    batch_floor: Floor,
    op: Vec<Samples>,
    batch: Vec<Samples>,
}

impl Timed {
    fn fold(&mut self, timings: Timings) -> Result<(), String> {
        self.segment_floor.fold(&timings.segment_ns)?;
        self.op_floor.fold(&timings.op_ns)?;
        self.batch_floor.fold(&timings.batch_ns)?;
        self.op.push(Samples::new(timings.op_ns));
        self.batch.push(Samples::new(timings.batch_ns));
        Ok(())
    }
}

/// Everything one measured process gathered.
struct Measured {
    setup: Summary,
    untraced: Vec<RepOutcome>,
    timed: Timed,
    traced: Vec<RepOutcome>,
    paced: Vec<PacedOutcome>,
    tracer: Tracer,
    tail_cap: f64,
    probes: Values,
}

/// Sets up and runs one timed repetition, over and over for about `seconds`.
///
/// Every repetition gets a set-up of its own, so `setup_s` is read as often,
/// and over as long a stretch of the host's moods, as the timed metrics are.
fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Measured, String> {
    let mut tracer = match scale {
        Scale::Full => Tracer::new(),
        Scale::Smoke => Tracer::sampling_every(1),
    };
    let mut untraced = Vec::new();
    let mut timed = Timed::default();
    let mut traced = Vec::new();
    let mut paced = Vec::new();
    let mut setup_s = Vec::new();
    let mut previous: Option<Box<dyn Workload>> = None;

    let phase = Instant::now();
    let workload = loop {
        // The inputs of two set-ups are never alive at once.
        drop(previous.take());
        let started = Instant::now();
        let workload = build(name, seed, scale)?;
        workload.warm_up()?;
        setup_s.push(started.elapsed().as_secs_f64());

        tracer.set_enabled(false);
        let mut rep = workload.rep(&mut tracer)?;
        timed.fold(std::mem::take(&mut rep.timings))?;
        untraced.push(rep);
        if trace {
            tracer.set_enabled(true);
            traced.push(workload.rep(&mut tracer)?);
            tracer.set_enabled(false);
        }
        // A traced run with an open-loop phase splits its time between the two.
        let closed_budget = if trace && workload.is_paced() {
            seconds / 2.0
        } else {
            seconds
        };
        let rounds = untraced.len();
        let elapsed = phase.elapsed().as_secs_f64();
        let enough = rounds >= if trace { MIN_TRACED_PAIRS } else { MIN_REPS };
        if enough && elapsed + elapsed / rounds as f64 > closed_budget {
            break workload;
        }
        previous = Some(workload);
    };
    if trace && workload.is_paced() {
        let phase = Instant::now();
        loop {
            paced.push(workload.paced_rep()?);
            let elapsed = phase.elapsed().as_secs_f64();
            if paced.len() >= MIN_PACED_REPS
                && elapsed + elapsed / paced.len() as f64 > seconds / 2.0
            {
                break;
            }
        }
    }
    let mut probes = Values::zeroed(metrics::per_layer());
    // The probes' iteration counts are fixed; a smoke run goes without them.
    if trace && scale == Scale::Full {
        workload.probes(&mut probes)?;
    }
    Ok(Measured {
        setup: summarize(&setup_s),
        untraced,
        timed,
        traced,
        paced,
        tracer,
        tail_cap: workload.tail_cap(),
        probes,
    })
}

/// Output checks that span repetitions: the digest, the counts and the
/// utility are pure functions of the seed.
fn cross_rep_failures(measured: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    let all: Vec<&RepOutcome> = measured.untraced.iter().chain(&measured.traced).collect();
    let first = all[0];
    for (i, rep) in all.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            failures.push(format!(
                "repetition {i}: digest {:016x} differs from the first, {:016x}",
                rep.digest, first.digest
            ));
        }
        if rep.counts != first.counts {
            failures.push(format!("repetition {i}: counts differ from the first"));
        }
        if rep.utility.to_bits() != first.utility.to_bits() {
            failures.push(format!("repetition {i}: utility differs from the first"));
        }
    }
    failures
}

fn throughput(reps: &[RepOutcome]) -> Summary {
    let values: Vec<f64> = reps
        .iter()
        .map(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    summarize(&values)
}

/// Prints one end-to-end metric and records its value, with the median, the
/// quartiles and the spread of the repetitions' own readings beside it.
///
/// The benchmark's home is a shared two-core virtual machine whose memory
/// system slows by up to a third for seconds to minutes at a time, with nothing
/// else running in the guest. That disturbance only ever slows an operation,
/// so a timed metric's value is read from the floor of the repetitions (see
/// [`Floor`]); the median over repetitions moved with the host by two to three
/// times as much from run to run.
fn emit(values: &mut Values, name: &str, unit: &str, value: f64, per_rep: Summary, note: &str) {
    println!(
        "e2e {name} {value} {unit} median {} q1 {} q3 {} n {} spread {:.4} {note}",
        per_rep.median,
        per_rep.q1,
        per_rep.q3,
        per_rep.n,
        per_rep.spread()
    );
    values.set(name, value);
}

/// Prints the end-to-end metrics of an untraced run and returns them.
fn report_end_to_end(
    name: &str,
    measured: &Measured,
    failures: &mut Vec<String>,
) -> Result<Values, String> {
    let (ops_alias, op_alias, batch_alias) = aliases(name);
    let reps = &measured.untraced;
    let timed = &measured.timed;
    let mut values = Values::zeroed(metrics::end_to_end());

    // Every repetition completes the same operations; the wall they need is
    // each segment's least disturbed time, added up.
    emit(
        &mut values,
        "ops_per_s",
        "1/s",
        reps[0].ops as f64 / (timed.segment_floor.sum() as f64 / 1e9),
        throughput(reps),
        &format!("({ops_alias})"),
    );

    let op_samples: Vec<&Samples> = timed.op.iter().collect();
    let batch_samples: Vec<&Samples> = timed.batch.iter().collect();
    for (metric, nanos_per_unit, unit, floor, samples, alias) in [
        (
            "op_p50_us",
            1e3,
            "us",
            &timed.op_floor,
            &op_samples,
            op_alias,
        ),
        (
            "batch_p50_ms",
            1e6,
            "ms",
            &timed.batch_floor,
            &batch_samples,
            batch_alias,
        ),
    ] {
        let Some(point) = latency_point(floor, samples, 0.50) else {
            failures.push(format!("{metric}: too few samples for a median"));
            continue;
        };
        emit(
            &mut values,
            metric,
            unit,
            point.floor / nanos_per_unit,
            point.per_rep.scaled(1.0 / nanos_per_unit),
            &format!("samples {} ({alias})", point.samples),
        );
    }
    let utility = reps[0].utility;
    emit(
        &mut values,
        "utility_ratio",
        "ratio",
        utility,
        Summary::exact(utility),
        "(exact per seed)",
    );
    let rss = peak_rss_mb()?;
    emit(
        &mut values,
        "peak_rss_mb",
        "MB",
        rss,
        Summary::exact(rss),
        "(VmHWM)",
    );
    emit(
        &mut values,
        "setup_s",
        "s",
        measured.setup.min,
        measured.setup,
        "(inputs, encoder fit, warm-up)",
    );
    Ok(values)
}

/// Derives and prints the per-layer metrics of a traced run.
fn report_per_layer(measured: &Measured) -> Values {
    let mut values = measured.probes.clone();
    let spans = measured.tracer.spans();
    let overhead = measured.tracer.overhead();
    let wall_ns = trace::traced_wall_ns(spans, overhead).max(1) as f64;
    let mut share_sum = 0.0;
    for (name, totals) in trace::totals_by_name(spans, overhead) {
        let share = totals.weighted_self_ns as f64 / wall_ns;
        share_sum += share;
        let mean_us = totals.self_ns as f64 / totals.spans.max(1) as f64 / 1e3;
        values.set(&format!("{name}.us_mean"), mean_us);
        values.set(&format!("{name}.share"), share);
    }
    values.set("driver.share_sum", share_sum);
    values.set(
        "driver.trace_overhead_ratio",
        throughput(&measured.traced).max / throughput(&measured.untraced).max,
    );
    // Which decisions are slow differs from repetition to repetition, so the
    // floor has no tail; this is the least disturbed repetition's own.
    let op_samples: Vec<&Samples> = measured.timed.op.iter().collect();
    if let Some(point) = latency_point(&measured.timed.op_floor, &op_samples, measured.tail_cap) {
        values.set("driver.op_tail_us", point.per_rep.min / 1e3);
    }

    let rep = &measured.traced[0];
    let c = &rep.counts;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let checkouts = c.pool_hits + c.pool_creations + c.pool_rehydrations;
    values.set("core.pool.hit_ratio", ratio(c.pool_hits, checkouts));
    values.set(
        "core.pool.evictions_per_1k",
        ratio(c.pool_evictions * 1_000, c.admitted),
    );
    values.set("core.pool.rehydrations", c.pool_rehydrations as f64);
    values.set("core.pool.creations", c.pool_creations as f64);
    values.set("core.join.shed", c.shed as f64);
    values.set("core.join.expired_ratio", ratio(c.expired, c.admitted));
    values.set("core.join.late_rewards", c.late_rewards as f64);
    values.set("core.join.peak_pending", c.peak_pending as f64);
    values.set("shuffler.reports_submitted", c.reports_submitted as f64);
    values.set(
        "shuffler.released_ratio",
        ratio(c.reports_released, c.reports_submitted),
    );
    values.set("shuffler.batches", c.batches as f64);
    values.set(
        "shuffler.min_released_code_freq",
        c.min_released_code_freq as f64,
    );
    values.set("core.server.accepted", c.accepted as f64);
    values.set(
        "core.server.coalesce_ratio",
        ratio(rep.distinct_pairs, c.accepted),
    );
    values.set("core.service.epochs", c.epochs as f64);
    values.set("privacy.eps_per_batch", c.eps_per_batch);
    values.set("privacy.delta_per_batch_max", c.delta_per_batch_max);
    for (key, reward) in metrics::REGIME_KEYS.iter().zip(c.regime_reward) {
        values.set(&format!("experiments.reward.{key}"), reward);
    }

    if !measured.paced.is_empty() {
        let over_reps = |pick: &dyn Fn(&PacedOutcome) -> f64| {
            let values: Vec<f64> = measured.paced.iter().map(pick).collect();
            summarize(&values).min
        };
        values.set(
            "driver.paced_p50_us",
            over_reps(&|p| percentile_nanos(&p.latency_ns, 0.50) as f64 / 1e3),
        );
        values.set(
            "driver.paced_p99_us",
            over_reps(&|p| percentile_nanos(&p.latency_ns, 0.99) as f64 / 1e3),
        );
        values.set(
            "driver.paced_late_p99_us",
            over_reps(&|p| percentile_nanos(&p.late_ns, 0.99) as f64 / 1e3),
        );
        values.set(
            "driver.paced_backlog_max",
            measured
                .paced
                .iter()
                .map(|p| p.backlog_max)
                .max()
                .unwrap_or(0) as f64,
        );
        values.set(
            "driver.paced_shed",
            measured.paced.iter().map(|p| p.shed).sum::<u64>() as f64,
        );
    }
    for (metric, value) in values.iter() {
        println!("layer {} {value} {}", metric.name, metric.unit);
    }
    values
}

/// Where `trace-<workload>.json` goes: the directory `run.sh` names (`out/`
/// beside this package's manifest), or `out/` under the working directory.
fn trace_path(workload: &str) -> PathBuf {
    std::env::var_os("P2B_BENCHMARK_OUT")
        .map_or_else(|| PathBuf::from("out"), PathBuf::from)
        .join(format!("trace-{workload}.json"))
}

/// Measures one workload and prints its metrics and the result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let measured = measure(name, args.seed, args.seconds, args.trace, Scale::Full)?;
    println!(
        "workload {name} seed {} trace {} seconds {} reps {} nproc {nproc}",
        args.seed,
        u8::from(args.trace),
        args.seconds,
        measured.untraced.len() + measured.traced.len(),
    );

    let mut failures = cross_rep_failures(&measured);
    let mut attempted = 0u64;
    let mut shed = 0u64;
    for rep in measured.untraced.iter().chain(&measured.traced) {
        attempted += rep.attempted + rep.checks.run;
        shed += rep.counts.shed;
        failures.extend(rep.checks.failures.iter().cloned());
    }
    for rep in &measured.paced {
        attempted += rep.offered + rep.checks.run;
        shed += rep.shed;
        failures.extend(rep.checks.failures.iter().cloned());
    }

    let values = if args.trace {
        let path = trace_path(name);
        measured
            .tracer
            .write_json(&path, name, args.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace {} spans {}",
            path.display(),
            measured.tracer.spans().len()
        );
        report_per_layer(&measured)
    } else {
        report_end_to_end(name, &measured, &mut failures)?
    };

    for (count, value) in measured.untraced[0].counts.pairs() {
        println!("count {count} {value}");
    }
    println!("digest {:016x}", measured.untraced[0].digest);
    for failure in &failures {
        println!("check failed: {failure}");
    }
    let failed = shed + failures.len() as u64;
    println!(
        "failed_share {} ratio ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        values.to_json()
    );
    Ok(correct && failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        if args.selfcheck {
            selfcheck::run(&args)
        } else if let Some(name) = args.workload.clone() {
            run_one(&name, &args)
        } else {
            selfcheck::run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("p2b-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args: Vec<String> = "--workload ingest_bulk --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("ingest_bulk"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.seed, 42);
        assert_eq!(
            defaults.seconds,
            spec::Spec::embedded().unwrap().run_seconds as f64
        );
    }

    /// A traced smoke run of the serving loop: the span shares must add up to
    /// the wall they were taken from, and tracing must not change the digest.
    #[test]
    fn traced_smoke_run_reconciles() {
        let measured = measure("serve_steady", 3, 0.01, true, Scale::Smoke).unwrap();
        assert!(cross_rep_failures(&measured).is_empty());
        for rep in measured.untraced.iter().chain(&measured.traced) {
            assert!(rep.checks.failures.is_empty(), "{:?}", rep.checks.failures);
            assert_eq!(rep.counts.shed, 0);
        }
        let values = report_per_layer(&measured);
        let share_sum = values.get("driver.share_sum");
        assert!((share_sum - 1.0).abs() <= 0.05, "share_sum = {share_sum}");
        assert!(values.get("core.agent.select.share") > values.get("core.agent.observe.share"));
        assert_eq!(measured.paced.len(), MIN_PACED_REPS);
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_scale() {
        for name in ["serve_churn", "ingest_bulk", "matrix_regimes"] {
            let measured = measure(name, 5, 0.01, false, Scale::Smoke).unwrap();
            assert!(cross_rep_failures(&measured).is_empty(), "{name}");
            let mut failures = Vec::new();
            let values = report_end_to_end(name, &measured, &mut failures).unwrap();
            for rep in &measured.untraced {
                assert!(
                    rep.checks.failures.is_empty(),
                    "{name}: {:?}",
                    rep.checks.failures
                );
            }
            // Smoke runs are too short for every percentile; only the
            // metrics that do not need a sample floor must be non-zero.
            for metric in ["ops_per_s", "utility_ratio", "peak_rss_mb", "setup_s"] {
                assert!(values.get(metric) > 0.0, "{name}: {metric} is zero");
            }
        }
    }
}
