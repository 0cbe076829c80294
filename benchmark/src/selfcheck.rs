//! Running every workload, each in a process of its own: the plain all-
//! workloads mode and `--selfcheck`, which measures the untraced set twice on
//! the same build and holds the second to the bounds in `BENCHMARK.json`.

use crate::metrics::WORKLOADS;
use crate::spec::Spec;
use crate::Args;
use std::process::{Command, Stdio};

/// What one child run printed: `e2e <name> <value> … spread <s>` lines,
/// `count <name> <value>` lines and the digest.
#[derive(Debug, Default, PartialEq)]
struct ChildReport {
    end_to_end: Vec<(String, f64, f64)>,
    counts: Vec<(String, String)>,
    digest: String,
}

fn parse_report(stdout: &str) -> ChildReport {
    let mut report = ChildReport::default();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["e2e", name, value, rest @ ..] => {
                let spread = rest
                    .iter()
                    .position(|w| *w == "spread")
                    .and_then(|i| rest.get(i + 1))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0.0);
                if let Ok(value) = value.parse() {
                    report.end_to_end.push(((*name).to_owned(), value, spread));
                }
            }
            ["count", name, value] => {
                report
                    .counts
                    .push(((*name).to_owned(), (*value).to_owned()));
            }
            ["digest", digest] => report.digest = (*digest).to_owned(),
            _ => {}
        }
    }
    report
}

/// Runs this binary on one workload; returns whether it passed, and what it
/// printed when `capture` is set (otherwise the child prints for itself).
fn run_child(
    workload: &str,
    args: &Args,
    trace: bool,
    capture: bool,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if capture {
        let output = command
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        Ok((
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        ))
    } else {
        let status = command
            .status()
            .map_err(|e| format!("running {workload}: {e}"))?;
        Ok((status.success(), String::new()))
    }
}

/// Every workload, untraced then traced.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut passed = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (ok, _) = run_child(workload, args, trace, false)?;
            passed &= ok;
        }
    }
    println!("benchmark {}", if passed { "passed" } else { "FAILED" });
    Ok(passed)
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it is better.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Two untraced sets on the same build: every end-to-end metric of the second
/// within its bound of the first, every count and digest equal.
pub fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::embedded()?;
    let mut passed = true;
    for workload in WORKLOADS {
        let mut sets = Vec::with_capacity(2);
        for set in 1..=2 {
            let (ok, stdout) = run_child(workload, args, false, true)?;
            if !ok {
                print!("{stdout}");
                println!("selfcheck {workload} set {set}: the run itself FAILED");
                passed = false;
            }
            sets.push(parse_report(&stdout));
        }
        let (first, second) = (&sets[0], &sets[1]);
        println!("selfcheck {workload}");
        println!(
            "  {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}",
            "metric", "first", "second", "worse_by", "bound", "spread_1", "spread_2"
        );
        for declared in &spec.end_to_end {
            let find = |set: &ChildReport| {
                set.end_to_end
                    .iter()
                    .find(|(name, _, _)| *name == declared.name)
                    .map(|(_, value, spread)| (*value, *spread))
            };
            let (Some((a, spread_a)), Some((b, spread_b))) = (find(first), find(second)) else {
                println!("  {:<14} missing from a set: FAILED", declared.name);
                passed = false;
                continue;
            };
            let worse_by = worsening(a, b, &declared.better);
            let ok = worse_by <= declared.bound;
            passed &= ok;
            println!(
                "  {:<14} {a:>14.4} {b:>14.4} {worse_by:>+9.4} {:>7.2} {spread_a:>9.4} {spread_b:>9.4}{}",
                declared.name,
                declared.bound,
                if ok { "" } else { "  FAILED" }
            );
        }
        let counts_equal = first.counts == second.counts && !first.counts.is_empty();
        let digests_equal = first.digest == second.digest && !first.digest.is_empty();
        println!(
            "  counts {} ({}), digest {} ({})",
            if counts_equal { "equal" } else { "DIFFER" },
            first.counts.len(),
            if digests_equal { "equal" } else { "DIFFER" },
            first.digest
        );
        passed &= counts_equal && digests_equal;
    }
    println!("selfcheck {}", if passed { "passed" } else { "FAILED" });
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_back() {
        let report = parse_report(
            "workload serve_steady seed 42 trace 0 seconds 24 reps 7 nproc 2\n\
             e2e ops_per_s 81234.5 1/s median 81000 q1 80000 q3 82000 n 7 spread 0.0246 (decisions_per_s)\n\
             e2e peak_rss_mb 31.5 MB median 31.5 q1 31.5 q3 31.5 n 1 spread 0.0000 (VmHWM)\n\
             count offered 307200\n\
             digest 00ff\n\
             {\"correct\": true}\n",
        );
        assert_eq!(
            report.end_to_end,
            vec![
                ("ops_per_s".to_owned(), 81234.5, 0.0246),
                ("peak_rss_mb".to_owned(), 31.5, 0.0)
            ]
        );
        assert_eq!(
            report.counts,
            vec![("offered".to_owned(), "307200".to_owned())]
        );
        assert_eq!(report.digest, "00ff");
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 12.0, "lower") - 0.20).abs() < 1e-12);
    }
}
