//! What the four workloads share: the shape of one repetition's outcome, the
//! deterministic counts, the output checks and the digest.

use crate::metrics::Values;
use crate::trace::Tracer;

/// How much work a workload does per repetition. `Smoke` is for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Scale {
    Full,
    Smoke,
}

/// Counts taken at layer boundaries. Everything here is a pure function of
/// the seed, so it must be equal across repetitions and between traced and
/// untraced runs; all of it goes into the digest.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub joined: u64,
    pub expired: u64,
    pub in_flight: u64,
    pub late_rewards: u64,
    pub peak_pending: u64,
    pub pool_hits: u64,
    pub pool_creations: u64,
    pub pool_rehydrations: u64,
    pub pool_evictions: u64,
    pub reports_submitted: u64,
    pub reports_released: u64,
    pub reports_thresholded: u64,
    pub batches: u64,
    /// Smallest per-code frequency among released reports, over all batches
    /// that released anything (0 when none did).
    pub min_released_code_freq: u64,
    pub accepted: u64,
    pub epochs: u64,
    pub eps_per_batch: f64,
    pub delta_per_batch_max: f64,
    /// Mean reward per regime on the synthetic scenario (matrix only).
    pub regime_reward: [f64; 5],
}

impl Counts {
    /// The counts as `name value` pairs, for the digest and `--selfcheck`.
    pub fn pairs(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("offered", self.offered as f64),
            ("admitted", self.admitted as f64),
            ("shed", self.shed as f64),
            ("joined", self.joined as f64),
            ("expired", self.expired as f64),
            ("in_flight", self.in_flight as f64),
            ("late_rewards", self.late_rewards as f64),
            ("peak_pending", self.peak_pending as f64),
            ("pool_hits", self.pool_hits as f64),
            ("pool_creations", self.pool_creations as f64),
            ("pool_rehydrations", self.pool_rehydrations as f64),
            ("pool_evictions", self.pool_evictions as f64),
            ("reports_submitted", self.reports_submitted as f64),
            ("reports_released", self.reports_released as f64),
            ("reports_thresholded", self.reports_thresholded as f64),
            ("batches", self.batches as f64),
            ("min_released_code_freq", self.min_released_code_freq as f64),
            ("accepted", self.accepted as f64),
            ("epochs", self.epochs as f64),
            ("eps_per_batch", self.eps_per_batch),
            ("delta_per_batch_max", self.delta_per_batch_max),
            ("reward_non_private", self.regime_reward[0]),
            ("reward_ldp", self.regime_reward[1]),
            ("reward_p2b_shuffle", self.regime_reward[2]),
            ("reward_central_dp", self.regime_reward[3]),
            ("reward_secure_agg", self.regime_reward[4]),
        ]
    }
}

/// Output checks of one repetition: how many ran and which failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `describe` is only evaluated on failure.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(describe());
        }
    }
}

/// What one repetition timed, each list in the order the work was done:
/// repetitions of one seed do the same work, so their lists line up.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// The timed wall, cut into consecutive segments (a round with its folds
    /// and flush, an epoch, a cell).
    pub segment_ns: Vec<u64>,
    /// Per-operation latencies.
    pub op_ns: Vec<u64>,
    /// Per-batch latencies (flushes or cells).
    pub batch_ns: Vec<u64>,
}

/// Everything one timed repetition produced.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Timed wall of the repetition: its segments added up.
    pub wall_ns: u64,
    /// Operations completed (decisions, reports or interactions).
    pub ops: u64,
    /// Operations attempted, shed ones included.
    pub attempted: u64,
    /// Taken by the driver once it has folded them into the run's readings.
    pub timings: Timings,
    /// Share of the attainable reward the run kept.
    pub utility: f64,
    pub counts: Counts,
    /// Distinct (code, action) pairs over accepted reports; only counted on
    /// traced repetitions.
    pub distinct_pairs: u64,
    /// Counts-plus-model digest.
    pub digest: u64,
    pub checks: Checks,
}

/// What the open-loop phase of `serve_steady` measured.
#[derive(Debug, Clone)]
pub struct PacedOutcome {
    /// Completion minus due time of every arrival, ascending; a shed arrival
    /// is a miss and reads as `u64::MAX`.
    pub latency_ns: Vec<u64>,
    /// Start of service minus due time of every arrival, ascending: how late
    /// the generator ran.
    pub late_ns: Vec<u64>,
    pub backlog_max: u64,
    pub shed: u64,
    pub offered: u64,
    pub checks: Checks,
}

/// One benchmark workload, set up from a seed.
pub trait Workload {
    /// A short discarded repetition that lets caches fill and lazy set-up
    /// finish; part of the set-up time.
    fn warm_up(&self) -> Result<(), String>;

    /// One timed repetition from a fresh system. Spans go to `tracer` when it
    /// is enabled.
    fn rep(&self, tracer: &mut Tracer) -> Result<RepOutcome, String>;

    /// The highest latency percentile `driver.op_tail_us` may report here.
    fn tail_cap(&self) -> f64 {
        0.99
    }

    /// Whether the workload has an open-loop phase.
    fn is_paced(&self) -> bool {
        false
    }

    /// One open-loop repetition at the frozen arrival rate.
    fn paced_rep(&self) -> Result<PacedOutcome, String> {
        Err("this workload has no arrival schedule".to_owned())
    }

    /// Direct calls into single layers on this run's inputs, to split what
    /// one inline span hides.
    fn probes(&self, _out: &mut Values) -> Result<(), String> {
        Ok(())
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    pub fn counts(&mut self, counts: &Counts) {
        for (_, value) in counts.pairs() {
            self.float(value);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Maps a uniform `u64` onto `0..n` without modulo bias.
pub fn bounded_draw(noise: u64, n: u64) -> u64 {
    ((u128::from(noise) * u128::from(n)) >> 64) as u64
}

/// Maps a uniform `u64` onto `[0, 1)`.
pub fn unit_draw(noise: u64) -> f64 {
    (noise >> 11) as f64 / (1u64 << 53) as f64
}

/// Converts a library error into the driver's error type.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |error| format!("{what}: {error}")
}
