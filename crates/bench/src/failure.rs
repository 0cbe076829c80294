//! Typed failure categories for the bench binaries, each mapped to a
//! distinct nonzero exit code.
//!
//! The harness binaries (`p2b-serve`, `figures`) are run by CI jobs and by
//! scripted sweeps that branch on *why* a run failed: a violated latency
//! SLO means "the machine was slow or the code regressed", a violated
//! determinism or accounting invariant means "the reproduction is wrong",
//! and an unwritable artifact means "the environment is broken". Folding
//! all three into `exit 1` (or, worse, a panic backtrace) makes those
//! scripts guess from stderr. Every failure therefore carries one
//! diagnostic line and maps to its own exit code via
//! [`BenchFailure::exit_code`]; the mapping is pinned by unit test and
//! `0`/`1` are left to "success" and the generic platform failure.

use std::fmt;
use std::process::ExitCode;

/// Why a bench binary is exiting nonzero. Each variant carries the one-line
/// diagnostic the binary prints to stderr (no backtraces on expected
/// failure paths) and maps to a distinct exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchFailure {
    /// The command line could not be parsed (unknown flag, missing value).
    Usage(String),
    /// The experiment or simulation itself failed to run.
    Runtime(String),
    /// A result artifact could not be written.
    Io(String),
    /// A latency/throughput service-level objective was violated.
    SloViolation(String),
    /// A determinism or privacy-accounting invariant failed — digests
    /// diverged across shard counts, a guarantee went missing, or an
    /// accounting bound did not hold.
    InvariantViolation(String),
}

impl BenchFailure {
    /// The exit code of this failure category: distinct, nonzero, and
    /// stable (scripts branch on these).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            BenchFailure::Usage(_) => 2,
            BenchFailure::Runtime(_) => 3,
            BenchFailure::Io(_) => 4,
            BenchFailure::SloViolation(_) => 5,
            BenchFailure::InvariantViolation(_) => 6,
        }
    }

    /// `Ok(())` when `holds`, otherwise [`BenchFailure::InvariantViolation`]
    /// carrying `message()` — how the bench modes report a lost report or a
    /// breached budget without panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation when `holds` is false.
    pub fn ensure_invariant(holds: bool, message: impl FnOnce() -> String) -> Result<(), Self> {
        if holds {
            Ok(())
        } else {
            Err(BenchFailure::InvariantViolation(message()))
        }
    }

    /// Prints the one-line diagnostic to stderr (prefixed with the binary
    /// name) and returns the mapped [`ExitCode`] — the single exit path of
    /// the bench binaries' failure branches.
    #[must_use]
    pub fn report(&self, binary: &str) -> ExitCode {
        eprintln!("{binary}: {self}");
        ExitCode::from(self.exit_code())
    }
}

impl fmt::Display for BenchFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchFailure::Usage(m) => write!(f, "usage error: {m}"),
            BenchFailure::Runtime(m) => write!(f, "runtime failure: {m}"),
            BenchFailure::Io(m) => write!(f, "cannot write artifact: {m}"),
            BenchFailure::SloViolation(m) => write!(f, "SLO violation: {m}"),
            BenchFailure::InvariantViolation(m) => write!(f, "invariant violation: {m}"),
        }
    }
}

impl std::error::Error for BenchFailure {}

/// Writes a result artifact, mapping a filesystem error to
/// [`BenchFailure::Io`].
///
/// # Errors
///
/// Returns [`BenchFailure::Io`] naming the path when it cannot be written.
pub fn write_artifact(path: &str, contents: &str) -> Result<(), BenchFailure> {
    std::fs::write(path, contents).map_err(|e| BenchFailure::Io(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [BenchFailure; 5] {
        [
            BenchFailure::Usage("u".into()),
            BenchFailure::Runtime("r".into()),
            BenchFailure::Io("i".into()),
            BenchFailure::SloViolation("s".into()),
            BenchFailure::InvariantViolation("v".into()),
        ]
    }

    #[test]
    fn exit_codes_are_distinct_nonzero_and_pinned() {
        let codes: Vec<u8> = all().iter().map(BenchFailure::exit_code).collect();
        // Pinned values: scripts and CI branch on these.
        assert_eq!(codes, vec![2, 3, 4, 5, 6]);
        let unique: std::collections::HashSet<u8> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "codes must be distinct");
        assert!(codes.iter().all(|&c| c != 0), "codes must be nonzero");
        assert!(
            codes.iter().all(|&c| c != 1),
            "1 is reserved for generic platform failure"
        );

        // The bench modes' own failure sites land on those codes instead of
        // panicking (exit 101): a breached pool budget or a lost report is an
        // invariant violation, an unwritable artifact an I/O failure.
        let code = |result: Result<(), BenchFailure>| result.map_err(|f| f.exit_code());
        let lost = || "engine lost a report: 99 != 100".to_owned();
        assert_eq!(code(BenchFailure::ensure_invariant(false, lost)), Err(6));
        assert_eq!(code(BenchFailure::ensure_invariant(true, lost)), Ok(()));
        let missing_dir = std::env::temp_dir().join("p2b-no-such-dir/BENCH_pool.json");
        assert_eq!(
            code(write_artifact(&missing_dir.to_string_lossy(), "{}")),
            Err(4)
        );
    }

    #[test]
    fn diagnostics_are_one_line() {
        for failure in all() {
            let line = failure.to_string();
            assert!(!line.contains('\n'), "multi-line diagnostic: {line:?}");
            assert!(!line.is_empty());
        }
        assert_eq!(
            BenchFailure::SloViolation("p99 over budget".into()).to_string(),
            "SLO violation: p99 over budget"
        );
    }
}
