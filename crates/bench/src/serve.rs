//! Closed-loop serving harness: the whole P2B pipeline under load.
//!
//! `p2b-serve` drives AgentPool checkout → LinUCB select → randomized
//! report → ShufflerEngine → coalesced ModelService ingest →
//! RewardJoinBuffer joins as **one** service fed by the seeded open-loop
//! arrival process of [`p2b_sim::ArrivalProcess`], under admission control
//! with a hard in-flight ceiling. It measures what a deployment would page
//! on — p50/p95/p99 decision latency, ingest lag (decision epoch vs applied
//! epoch), join-buffer occupancy, pool eviction rate — and emits
//! `BENCH_serve.json` with configurable SLO assertions.
//!
//! # Execution model
//!
//! A thread-per-core event loop on a [`ShardPool`] and [`std::sync::mpsc`]
//! channels: `W` persistent workers each own the [`AgentPool`] partition
//! for the codes hashed to them (`splitmix64(code) % W`) plus a local
//! [`LatencyHistogram`], and answer on one shared reply channel; the main
//! thread owns the [`P2bSystem`], the [`RewardJoinBuffer`] and the arrival
//! clock. Per round it admits up to `events_per_round` arrivals through the
//! join buffer's ceiling ([`RewardJoinBuffer::try_record`] sheds the rest —
//! open-loop load does not wait), sends `Decide` jobs to the owning
//! workers' queues, joins the rewards that came due, finalizes the round,
//! and sends `Fold` jobs for the joined decisions. Every
//! `rounds_per_epoch` rounds the workers' report outboxes are drained,
//! canonically sorted, and flushed through [`P2bSystem::streaming_round`];
//! the refreshed epoch snapshot is then broadcast to the workers as a new
//! [`AgentSource`]. At shutdown [`ShardPool::join`] closes the queues; each
//! worker parks its agents and returns their last reports, its histogram
//! and its pool counters.
//!
//! A worker that hits an error replies with it and stops, so a barrier
//! waiting on it ends with [`BenchFailure::Runtime`]; a broken
//! conservation law ends the run with [`BenchFailure::InvariantViolation`].
//!
//! # Determinism contract
//!
//! The **deterministic summary** (admitted/shed/joined/expired counts,
//! report conservation, epochs, ingest-lag and occupancy integers) is
//! byte-identical across runs *and across worker counts*. Three mechanisms
//! buy this:
//!
//! 1. every per-event random variable (select RNG, fold RNG, reward
//!    presence/delay/noise) derives from the arrival process's pure
//!    counter-based noise lanes, never from a shared RNG stream;
//! 2. per-worker job channels are FIFO and jobs for one code always go to
//!    one worker, so each agent sees its events in arrival order no matter
//!    how many workers exist;
//! 3. reports are canonically sorted before each engine flush, so the
//!    shuffler sees an identical stream regardless of which worker drained
//!    which report first.
//!
//! Wall-clock measurements (latency quantiles, throughput) and pool
//! counters (eviction timing depends on the code partition) are reported
//! but excluded from the summary; [`ServeReport::redacted`] zeroes them for
//! golden comparisons.
//!
//! The stages beneath the loop are measured elsewhere: the ingest path's
//! model digests are pinned by the `ingest_golden` test, its timings by the
//! Criterion groups in `benches/` (`shuffler_engine`, `central_ingest`,
//! `model_update`, `epoch_assembly`, `secure_agg_ingest`) and by the
//! `ingest_bulk` workload of `bash benchmark/run.sh`. Bounded-pool serving
//! is that benchmark's `serve_churn` workload; per-decision select latency
//! is `benches/select.rs` and its `bandit.select` / `core.agent.select`
//! layers.

use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::{BenchFailure, Scale};
use p2b_bandit::Action;
use p2b_core::{
    AgentPool, AgentPoolConfig, AgentSource, CoreError, DecisionTicket, P2bConfig, P2bSystem,
    PoolStats, RewardJoinBuffer, ShardPool,
};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{splitmix64, RawReport, ShufflerError};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Noise lane seeding each decision's selection RNG.
const LANE_SELECT_SEED: u64 = LANE_CONSUMER_BASE;
/// Noise lane seeding each joined decision's fold RNG.
const LANE_FOLD_SEED: u64 = LANE_CONSUMER_BASE + 1;
/// Noise lane deciding whether a decision ever gets a reward.
const LANE_REWARD_PRESENT: u64 = LANE_CONSUMER_BASE + 2;
/// Noise lane drawing the reward's delivery delay in rounds.
const LANE_REWARD_DELAY: u64 = LANE_CONSUMER_BASE + 3;
/// Noise lane adding stochastic reward noise off the target action.
const LANE_REWARD_NOISE: u64 = LANE_CONSUMER_BASE + 4;

/// Configuration of one closed-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Worker threads (each owns a pool partition). Changes wall-clock
    /// behavior only, never the deterministic summary.
    pub workers: usize,
    /// Simulated user population the arrival process draws from.
    pub users: u64,
    /// Distinct context codes (the pool's key space).
    pub codes: u64,
    /// Total arrival events offered to admission control.
    pub events: u64,
    /// Arrivals offered per round (the round is the join/fold cadence).
    pub events_per_round: u64,
    /// Rounds between engine flushes (epoch boundaries).
    pub rounds_per_epoch: u64,
    /// Join window: rewards may arrive up to this many rounds late.
    pub max_delay: u64,
    /// Hard ceiling on in-flight decisions; arrivals beyond it are shed.
    pub in_flight_ceiling: usize,
    /// Residency budget of each worker's agent-pool partition.
    pub pool_budget: usize,
    /// Raw context dimension `d`.
    pub dimension: usize,
    /// Number of actions.
    pub actions: usize,
    /// Crowd-blending threshold `l` of the shuffler.
    pub threshold: usize,
    /// Local interactions `T` between reporting opportunities.
    pub local_interactions: u64,
    /// Engine batch size; kept above the per-flush report volume so each
    /// flush releases exactly one batch (deterministic epoch cadence).
    pub shuffler_batch_size: usize,
    /// Probability a decision's reward ever materializes.
    pub reward_probability: f64,
    /// Seed for the arrival process, all noise lanes and flush seeds.
    pub seed: u64,
}

impl ServeConfig {
    /// The closed-loop configuration at a benchmark scale.
    #[must_use]
    pub fn at_scale(scale: Scale) -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(scale.pick(4, 8, 16)),
            users: scale.pick(50_000, 500_000, 2_000_000),
            codes: scale.pick(64, 128, 256),
            events: scale.pick(4_000, 50_000, 400_000),
            events_per_round: scale.pick(256, 1_024, 4_096),
            rounds_per_epoch: 2,
            max_delay: 3,
            in_flight_ceiling: scale.pick(640, 2_048, 8_192),
            pool_budget: scale.pick(16, 32, 64),
            dimension: 16,
            actions: 10,
            threshold: scale.pick(2, 10, 10),
            local_interactions: 2,
            shuffler_batch_size: 1 << 20,
            reward_probability: 0.75,
            seed: 42,
        }
    }

    /// The miniature configuration behind the `tiny_serve.json` golden:
    /// small enough to run in milliseconds, large enough to exercise
    /// shedding, expiry, late rewards and several epochs.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            workers: 2,
            users: 1_000,
            codes: 16,
            events: 600,
            events_per_round: 64,
            rounds_per_epoch: 2,
            max_delay: 2,
            in_flight_ceiling: 160,
            pool_budget: 6,
            dimension: 8,
            actions: 5,
            threshold: 2,
            local_interactions: 1,
            shuffler_batch_size: 1 << 20,
            reward_probability: 0.75,
            seed: 42,
        }
    }

    /// Total rounds the event stream spans.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.events.div_ceil(self.events_per_round.max(1))
    }
}

/// Service-level objectives asserted over a [`ServeReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Ceiling on p99 decision latency, nanoseconds.
    pub max_p99_decision_nanos: u64,
    /// Ceiling on the worst observed ingest lag, epochs.
    pub max_ingest_lag_epochs: u64,
    /// Ceiling on peak join-buffer occupancy (should equal the admission
    /// ceiling — the buffer must never exceed it).
    pub max_join_occupancy: u64,
}

impl SloConfig {
    /// Defaults generous enough for CI machines: 5 ms p99 decisions, lag
    /// bounded by the join window's epoch span, occupancy bounded by the
    /// admission ceiling.
    #[must_use]
    pub fn for_config(config: &ServeConfig) -> Self {
        Self {
            max_p99_decision_nanos: 5_000_000,
            max_ingest_lag_epochs: (config.max_delay + 1).div_ceil(config.rounds_per_epoch) + 1,
            max_join_occupancy: config.in_flight_ceiling as u64,
        }
    }
}

/// One ingest-lag bucket: how many joined decisions were finalized `lag`
/// epochs after the epoch they were decided in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestLagBucket {
    /// Applied epoch minus decided epoch.
    pub lag_epochs: u64,
    /// Joined decisions finalized at this lag.
    pub decisions: u64,
}

/// The worker-count-invariant, wall-clock-free portion of a run: pure
/// counts and epochs. Two runs of the same [`ServeConfig`] — at *any*
/// worker count — must produce byte-identical summaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicSummary {
    /// Arrivals offered to admission control.
    pub events: u64,
    /// Arrivals admitted (decisions made).
    pub admitted: u64,
    /// Arrivals shed by the in-flight ceiling.
    pub shed: u64,
    /// Decisions finalized with a joined reward.
    pub joined: u64,
    /// Decisions finalized without a reward.
    pub expired: u64,
    /// Decisions still in flight when the service shut down.
    pub in_flight_at_shutdown: u64,
    /// Reward deliveries that arrived after their ticket finalized.
    pub late_rewards: u64,
    /// Reports drained from the pools and submitted to the engine.
    pub reports_submitted: u64,
    /// Reports the shuffler released past the crowd-blending threshold.
    pub reports_released: u64,
    /// Reports the central model accepted.
    pub reports_accepted: u64,
    /// Rounds driven.
    pub rounds: u64,
    /// Engine flushes (epoch boundaries, plus the shutdown flush).
    pub flushes: u64,
    /// Central-model epoch after the final flush.
    pub final_epoch: u64,
    /// High-water mark of join-buffer occupancy.
    pub peak_join_occupancy: u64,
    /// Sum of per-round occupancy samples (divide by `rounds` for the mean).
    pub join_occupancy_sum: u64,
    /// Ingest-lag histogram over joined decisions, ascending by lag.
    pub ingest_lag: Vec<IngestLagBucket>,
}

/// Wall-clock throughput of the run (excluded from the summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSection {
    /// End-to-end wall time, seconds.
    pub wall_secs: f64,
    /// Admitted decisions per wall-clock second.
    pub decisions_per_sec: f64,
}

/// Merged agent-pool counters (worker-partition dependent, so excluded
/// from the deterministic summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolSection {
    /// Agents created across all partitions.
    pub creations: u64,
    /// Budget-pressure evictions across all partitions.
    pub evictions: u64,
    /// Dormant agents rehydrated across all partitions.
    pub rehydrations: u64,
    /// Warm-checkout fraction.
    pub hit_rate: f64,
    /// Evictions per 1 000 admitted decisions.
    pub evictions_per_1k_decisions: f64,
}

/// SLO verdict carried in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSection {
    /// The bars the run was held to.
    pub limits: SloConfig,
    /// Human-readable violations; empty when the run passed.
    pub violations: Vec<String>,
    /// Whether every bar held.
    pub pass: bool,
}

/// Everything `BENCH_serve.json` carries for a full closed-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version of this report layout.
    pub schema_version: u32,
    /// Harness mode (always `"full"` for the closed loop).
    pub mode: String,
    /// Benchmark scale label (`quick`/`default`/`full`/`tiny`).
    pub scale: String,
    /// The run's configuration.
    pub config: ServeConfig,
    /// The worker-count-invariant counts-and-epochs summary.
    pub deterministic: DeterministicSummary,
    /// Decision latency digest (checkout + select + checkin).
    pub decision_latency: LatencySummary,
    /// Per-epoch flush latency digest: drain barrier + canonical sort +
    /// engine flush + coalesced ingest + snapshot assembly, one sample per
    /// flush (including the shutdown flush).
    pub flush_latency: LatencySummary,
    /// Wall-clock throughput.
    pub throughput: ThroughputSection,
    /// Merged pool counters.
    pub pool: PoolSection,
    /// SLO verdict.
    pub slo: SloSection,
}

impl ServeReport {
    /// Copy with every wall-clock-derived or worker-partition-dependent
    /// field normalized away: latency timings zeroed, throughput zeroed,
    /// pool counters zeroed, worker count zeroed, SLO verdict cleared. What
    /// remains — schema, configuration and the deterministic summary — must
    /// be byte-identical across runs and worker counts; the golden test
    /// pins it.
    #[must_use]
    pub fn redacted(&self) -> ServeReport {
        let mut redacted = self.clone();
        redacted.config.workers = 0;
        redacted.decision_latency = self.decision_latency.redact_timing();
        redacted.flush_latency = self.flush_latency.redact_timing();
        redacted.throughput = ThroughputSection {
            wall_secs: 0.0,
            decisions_per_sec: 0.0,
        };
        redacted.pool = PoolSection {
            creations: 0,
            evictions: 0,
            rehydrations: 0,
            hit_rate: 0.0,
            evictions_per_1k_decisions: 0.0,
        };
        redacted.slo.violations.clear();
        redacted.slo.pass = true;
        redacted
    }
}

/// Payload recorded with each in-flight decision.
struct InFlight {
    index: u64,
    code: u64,
    decided_epoch: u64,
}

/// Work items on a worker's FIFO queue. The queue closing is the shutdown:
/// the worker then parks its agents and returns its [`WorkerOutput`].
#[derive(Debug)]
enum Job {
    /// Make the decision for arrival `index`.
    Decide { index: u64, code: u64 },
    /// Fold the joined reward for arrival `index` into its agent.
    Fold {
        index: u64,
        code: u64,
        action: usize,
        reward: f64,
    },
    /// Point subsequent checkouts at a new epoch snapshot.
    Refresh(AgentSource),
    /// Hand the drained report outbox back (epoch boundary).
    Drain,
}

/// Worker responses on the shared reply channel.
#[derive(Debug)]
enum Reply {
    Decided {
        index: u64,
        action: usize,
    },
    Drained {
        reports: Vec<RawReport>,
    },
    /// The worker hit this error and stopped; its queue is closed.
    Failed(CoreError),
}

/// What a worker returns when its queue closes.
struct WorkerOutput {
    /// The reports its agents held once parked.
    reports: Vec<RawReport>,
    /// Its decision latencies.
    histogram: LatencyHistogram,
    /// Its pool partition's counters.
    stats: PoolStats,
}

/// Maps a uniform `u64` onto `0..n` without modulo bias.
fn bounded_draw(noise: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((u128::from(noise) * u128::from(n)) >> 64) as u64
}

/// Maps a uniform `u64` onto `[0, 1)`.
fn unit_draw(noise: u64) -> f64 {
    (noise >> 11) as f64 / (1u64 << 53) as f64
}

/// The worker that owns the pool partition for code `c` under `workers`
/// partitions.
fn owner_of(code: u64, workers: usize) -> usize {
    (splitmix64(code) % workers as u64) as usize
}

/// A library error that stops the run.
fn runtime(error: impl fmt::Display) -> BenchFailure {
    BenchFailure::Runtime(error.to_string())
}

/// The first `count` deterministic raw contexts of `dimension` coordinates,
/// L1-normalized: the encoder's corpus, whose first `codes` rows are also
/// the one context per code that every worker shares.
///
/// # Errors
///
/// Returns [`BenchFailure::Runtime`] when `dimension` is zero.
fn serve_contexts(count: u64, dimension: usize) -> Result<Vec<Vector>, BenchFailure> {
    if dimension == 0 {
        return Err(runtime("serve contexts need at least one coordinate"));
    }
    (0..count as usize)
        .map(|i| {
            let mut raw = vec![0.05; dimension];
            raw[i % dimension] = 1.0 + 0.05 * ((i / dimension) % 7) as f64;
            raw[(i / 3) % dimension] += 0.25;
            Vector::from(raw).normalized_l1().map_err(runtime)
        })
        .collect()
}

/// Fits the k-means encoder the serving system validates against: `codes`
/// centroids over a fixed corpus of `8·codes` L1-normalized contexts of
/// `dimension` coordinates, seeded, so every caller gets the same encoder.
///
/// # Errors
///
/// Returns [`BenchFailure::Runtime`] when `codes` or `dimension` is zero.
pub fn fit_serve_encoder(codes: u64, dimension: usize) -> Result<Arc<dyn Encoder>, BenchFailure> {
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = serve_contexts(codes * 8, dimension)?;
    let encoder = KMeansEncoder::fit(
        &corpus,
        KMeansConfig::new(codes as usize).with_iterations(10),
        &mut rng,
    )
    .map_err(runtime)?;
    Ok(Arc::new(encoder))
}

/// Canonical report order: (sender, timestamp, code, action, reward bits).
/// Reports are drained from per-worker outboxes in a partition-dependent
/// order; sorting by content restores a stream that is identical for every
/// worker count before it reaches the shuffler engine.
fn canonical_sort(reports: &mut [RawReport]) {
    reports.sort_by(|a, b| {
        let ka = (
            &a.metadata().sender,
            a.metadata().timestamp,
            a.payload().code(),
            a.payload().action(),
            a.payload().reward().to_bits(),
        );
        let kb = (
            &b.metadata().sender,
            b.metadata().timestamp,
            b.payload().code(),
            b.payload().action(),
            b.payload().reward().to_bits(),
        );
        ka.cmp(&kb)
    });
}

/// One worker's loop: owns one pool partition and a latency histogram and
/// processes its FIFO job stream until the queue closes, then parks its
/// agents and returns what they left.
///
/// # Errors
///
/// Returns the first pool or agent error; the worker stops there.
fn serve_jobs(
    jobs: &Receiver<Job>,
    replies: &Sender<Reply>,
    mut source: AgentSource,
    arrival: &ArrivalProcess,
    contexts: &[Vector],
    pool_budget: usize,
) -> Result<WorkerOutput, CoreError> {
    let mut pool = AgentPool::new(AgentPoolConfig::bounded(pool_budget))?;
    let mut histogram = LatencyHistogram::new();
    // A send fails only once the main thread has stopped listening, after
    // a failure of its own; the worker then runs out its queue unheard.
    for job in jobs {
        match job {
            Job::Decide { index, code } => {
                let mut rng = StdRng::seed_from_u64(arrival.noise(index, LANE_SELECT_SEED));
                let context = &contexts[code as usize];
                let started = Instant::now();
                let action = pool.with_agent_at(&source, code, |agent| {
                    agent.select_action(context, &mut rng)
                })?;
                histogram.record(started.elapsed().as_nanos() as u64);
                let _ = replies.send(Reply::Decided {
                    index,
                    action: action.index(),
                });
            }
            Job::Fold {
                index,
                code,
                action,
                reward,
            } => {
                let mut rng = StdRng::seed_from_u64(arrival.noise(index, LANE_FOLD_SEED));
                let context = &contexts[code as usize];
                pool.with_agent_at(&source, code, |agent| {
                    agent.observe_reward(context, Action::new(action), reward, &mut rng)
                })?;
            }
            Job::Refresh(next) => source = next,
            Job::Drain => {
                let _ = replies.send(Reply::Drained {
                    reports: pool.drain_reports(),
                });
            }
        }
    }
    pool.park_all();
    Ok(WorkerOutput {
        reports: pool.drain_reports(),
        histogram,
        stats: *pool.stats(),
    })
}

/// The next worker reply. A worker's failure, or every worker gone, ends
/// the waiting barrier with [`BenchFailure::Runtime`] instead of blocking
/// it forever.
fn receive(replies: &Receiver<Reply>) -> Result<Reply, BenchFailure> {
    match replies.recv() {
        Ok(Reply::Failed(error)) => Err(runtime(format!("a serve worker failed: {error}"))),
        Ok(reply) => Ok(reply),
        Err(_) => Err(runtime("every serve worker has exited")),
    }
}

/// A send to a worker whose queue is closed, or the join of one that
/// panicked.
fn worker_stopped(_: ShufflerError) -> BenchFailure {
    runtime("a serve worker has stopped")
}

/// A reply of the wrong kind at a barrier: a worker answered a job it was
/// not sent.
fn out_of_turn(barrier: &str) -> BenchFailure {
    BenchFailure::InvariantViolation(format!(
        "a worker's reply arrived out of turn at the {barrier} barrier"
    ))
}

/// Checks a run's conservation laws: every admitted decision was joined,
/// expired or still in flight at shutdown; every offered arrival was
/// admitted or shed; and the join buffer never held more decisions than
/// the admission ceiling.
///
/// # Errors
///
/// Returns [`BenchFailure::InvariantViolation`] naming the first law that
/// broke: a decision was lost or invented.
fn check_conservation(
    summary: &DeterministicSummary,
    in_flight_ceiling: usize,
) -> Result<(), BenchFailure> {
    let finalized = summary.joined + summary.expired + summary.in_flight_at_shutdown;
    if summary.admitted != finalized {
        return Err(BenchFailure::InvariantViolation(format!(
            "decision conservation: {} admitted, but {} joined + {} expired + {} in flight at shutdown",
            summary.admitted, summary.joined, summary.expired, summary.in_flight_at_shutdown
        )));
    }
    if summary.admitted + summary.shed != summary.events {
        return Err(BenchFailure::InvariantViolation(format!(
            "admission conservation: {} offered, but {} admitted + {} shed",
            summary.events, summary.admitted, summary.shed
        )));
    }
    if summary.peak_join_occupancy > in_flight_ceiling as u64 {
        return Err(BenchFailure::InvariantViolation(format!(
            "the join buffer held {} decisions, past the admission ceiling of {in_flight_ceiling}",
            summary.peak_join_occupancy
        )));
    }
    Ok(())
}

/// Runs the closed-loop service and assembles its report.
///
/// # Errors
///
/// Returns [`BenchFailure::Runtime`] when the system cannot be built, a
/// flush or a worker fails, or a worker exits early, and
/// [`BenchFailure::InvariantViolation`] when a conservation law breaks.
pub fn run_full(
    config: &ServeConfig,
    slo: &SloConfig,
    scale_label: &str,
) -> Result<ServeReport, BenchFailure> {
    let workers = config.workers.max(1);
    let arrival = ArrivalProcess::new(ArrivalConfig::new(config.users, config.codes, config.seed))
        .map_err(runtime)?;
    let contexts: Arc<[Vector]> = serve_contexts(config.codes, config.dimension)?.into();
    let system_config = P2bConfig::new(config.dimension, config.actions)
        .with_local_interactions(config.local_interactions)
        .with_shuffler_threshold(config.threshold)
        .with_shuffler_batch_size(config.shuffler_batch_size);
    let mut system = P2bSystem::new(
        system_config,
        fit_serve_encoder(config.codes, config.dimension)?,
    )
    .map_err(runtime)?;
    let mut source = AgentSource::capture(&mut system).map_err(runtime)?;

    let mut join: RewardJoinBuffer<InFlight> =
        RewardJoinBuffer::new(config.max_delay).with_in_flight_ceiling(config.in_flight_ceiling);
    let rounds = config.rounds();
    // Rewards scheduled past the last round are simply never delivered —
    // the service shuts down with those decisions in flight.
    let mut due_rewards: Vec<Vec<(DecisionTicket, f64)>> =
        (0..rounds).map(|_| Vec::new()).collect();
    let mut actions_by_index: HashMap<u64, usize> = HashMap::new();
    let mut tickets_by_index: HashMap<u64, DecisionTicket> = HashMap::new();

    let mut lag_counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut occupancy_sum = 0u64;
    let mut reports_submitted = 0u64;
    let mut reports_released = 0u64;
    let mut reports_accepted = 0u64;
    let mut flushes = 0u64;
    let mut admitted = 0u64;
    let mut histogram = LatencyHistogram::new();
    let mut flush_histogram = LatencyHistogram::new();
    let mut pool_stats_sum = PoolStats::default();

    // Each worker holds the only senders of the reply channel, which is
    // unbounded, so a worker never blocks on a reply. A job queue's
    // capacity covers one round's decides plus one window's folds, so the
    // main thread never blocks on a send: no deadlock is possible.
    let (reply_tx, reply_rx) = channel();
    let worker_pool = ShardPool::spawn(
        workers,
        (config.events_per_round as usize + config.in_flight_ceiling + 16).max(64),
        {
            let (initial, arrival, contexts) =
                (source.clone(), arrival.clone(), Arc::clone(&contexts));
            let budget = config.pool_budget;
            move |_, jobs| {
                let output = serve_jobs(&jobs, &reply_tx, initial, &arrival, &contexts, budget);
                if let Err(error) = &output {
                    let _ = reply_tx.send(Reply::Failed(error.clone()));
                }
                output
            }
        },
    );

    let started = Instant::now();
    let mut next_event = 0u64;
    let mut flush_reports: Vec<RawReport> = Vec::new();
    for round in 0..rounds {
        // ── Admission + decide fan-out ──────────────────────────────────
        let offered = (config.events - next_event).min(config.events_per_round);
        let mut sent = 0usize;
        for index in next_event..next_event + offered {
            let event = arrival.event(index);
            let payload = InFlight {
                index,
                code: event.code,
                decided_epoch: source.epoch(),
            };
            let Some(ticket) = join.try_record(payload) else {
                continue; // shed: open-loop arrivals do not wait.
            };
            tickets_by_index.insert(index, ticket);
            admitted += 1;
            worker_pool
                .send(
                    owner_of(event.code, workers),
                    Job::Decide {
                        index,
                        code: event.code,
                    },
                )
                .map_err(worker_stopped)?;
            sent += 1;
        }
        next_event += offered;

        // ── Decision barrier (replies arrive in any order) ──────────────
        let mut decided: Vec<(u64, usize)> = Vec::with_capacity(sent);
        for _ in 0..sent {
            let Reply::Decided { index, action } = receive(&reply_rx)? else {
                return Err(out_of_turn("decision"));
            };
            decided.push((index, action));
        }
        decided.sort_unstable_by_key(|&(index, _)| index);

        // ── Reward scheduling (pure per-event noise) ────────────────────
        for &(index, action) in &decided {
            actions_by_index.insert(index, action);
            if unit_draw(arrival.noise(index, LANE_REWARD_PRESENT)) >= config.reward_probability {
                continue; // no reward ever: the decision will expire.
            }
            // Delay in 0..=max_delay+1: the last value lands after the
            // window closes, exercising the late-reward path.
            let delay = bounded_draw(
                arrival.noise(index, LANE_REWARD_DELAY),
                config.max_delay + 2,
            );
            let event = arrival.event(index);
            let target = (event.code % config.actions as u64) as usize;
            // Correct action pays 1; anything else pays 1 with 10%
            // probability (noise), so expired/late paths see both values.
            let noisy_hit = unit_draw(arrival.noise(index, LANE_REWARD_NOISE)) < 0.1;
            let reward = if action == target || noisy_hit {
                1.0
            } else {
                0.0
            };
            let due = round + delay;
            if due < rounds {
                let ticket = tickets_by_index.get(&index).copied().ok_or_else(|| {
                    BenchFailure::InvariantViolation(format!("decision {index} has no ticket"))
                })?;
                due_rewards[due as usize].push((ticket, reward));
            }
        }

        // ── Deliver due rewards (late ones are counted and dropped) ─────
        for (ticket, reward) in due_rewards[round as usize].drain(..) {
            join.join(ticket, reward).map_err(runtime)?;
        }

        // ── Finalize the round; fold joined rewards ─────────────────────
        let finalized = join.advance_round();
        for joined in &finalized.joined {
            let lag = source.epoch() - joined.payload.decided_epoch;
            *lag_counts.entry(lag).or_insert(0) += 1;
            let index = joined.payload.index;
            let action = actions_by_index.remove(&index).ok_or_else(|| {
                BenchFailure::InvariantViolation(format!("joined decision {index} has no action"))
            })?;
            tickets_by_index.remove(&index);
            worker_pool
                .send(
                    owner_of(joined.payload.code, workers),
                    Job::Fold {
                        index,
                        code: joined.payload.code,
                        action,
                        reward: joined.reward,
                    },
                )
                .map_err(worker_stopped)?;
        }
        for expired in &finalized.expired {
            actions_by_index.remove(&expired.payload.index);
            tickets_by_index.remove(&expired.payload.index);
        }
        occupancy_sum += join.pending() as u64;

        // ── Epoch boundary: drain, flush, refresh ───────────────────────
        if (round + 1) % config.rounds_per_epoch == 0 || round + 1 == rounds {
            let flush_started = Instant::now();
            for worker in 0..workers {
                worker_pool
                    .send(worker, Job::Drain)
                    .map_err(worker_stopped)?;
            }
            for _ in 0..workers {
                let Reply::Drained { reports } = receive(&reply_rx)? else {
                    return Err(out_of_turn("drain"));
                };
                flush_reports.extend(reports);
            }
            canonical_sort(&mut flush_reports);
            reports_submitted += flush_reports.len() as u64;
            let flush_seed = splitmix64(config.seed ^ (0xF1A5 << 16) ^ flushes);
            let (round_stats, _ledger) = system
                .streaming_round(std::mem::take(&mut flush_reports), flush_seed)
                .map_err(runtime)?;
            for stats in &round_stats {
                reports_released += stats.released as u64;
                reports_accepted += stats.accepted;
            }
            flushes += 1;
            source = AgentSource::capture(&mut system).map_err(runtime)?;
            flush_histogram.record(flush_started.elapsed().as_nanos() as u64);
            for worker in 0..workers {
                worker_pool
                    .send(worker, Job::Refresh(source.clone()))
                    .map_err(worker_stopped)?;
            }
        }
    }

    // ── Shutdown: whatever is still pending stays in flight ─────────────
    let in_flight_at_shutdown = join.pending() as u64;
    let mut final_reports: Vec<RawReport> = Vec::new();
    for output in worker_pool.join().map_err(worker_stopped)? {
        let output = output.map_err(runtime)?;
        final_reports.extend(output.reports);
        histogram.merge(&output.histogram);
        pool_stats_sum.hits += output.stats.hits;
        pool_stats_sum.creations += output.stats.creations;
        pool_stats_sum.rehydrations += output.stats.rehydrations;
        pool_stats_sum.evictions += output.stats.evictions;
    }
    if !final_reports.is_empty() {
        let flush_started = Instant::now();
        canonical_sort(&mut final_reports);
        reports_submitted += final_reports.len() as u64;
        let flush_seed = splitmix64(config.seed ^ (0xF1A5 << 16) ^ flushes);
        let (round_stats, _ledger) = system
            .streaming_round(final_reports, flush_seed)
            .map_err(runtime)?;
        for stats in &round_stats {
            reports_released += stats.released as u64;
            reports_accepted += stats.accepted;
        }
        flushes += 1;
        source = AgentSource::capture(&mut system).map_err(runtime)?;
        flush_histogram.record(flush_started.elapsed().as_nanos() as u64);
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let join_stats = *join.stats();
    let deterministic = DeterministicSummary {
        events: config.events,
        admitted,
        shed: join.shed(),
        joined: join_stats.joined,
        expired: join_stats.expired,
        in_flight_at_shutdown,
        late_rewards: join_stats.late_rewards,
        reports_submitted,
        reports_released,
        reports_accepted,
        rounds,
        flushes,
        final_epoch: source.epoch(),
        peak_join_occupancy: join.peak_pending() as u64,
        join_occupancy_sum: occupancy_sum,
        ingest_lag: lag_counts
            .into_iter()
            .map(|(lag_epochs, decisions)| IngestLagBucket {
                lag_epochs,
                decisions,
            })
            .collect(),
    };
    check_conservation(&deterministic, config.in_flight_ceiling)?;

    let decision_latency = histogram.summary();
    let checkouts = pool_stats_sum.hits + pool_stats_sum.misses();
    let pool = PoolSection {
        creations: pool_stats_sum.creations,
        evictions: pool_stats_sum.evictions,
        rehydrations: pool_stats_sum.rehydrations,
        hit_rate: pool_stats_sum.hits as f64 / checkouts.max(1) as f64,
        evictions_per_1k_decisions: pool_stats_sum.evictions as f64 * 1_000.0
            / admitted.max(1) as f64,
    };

    let worst_lag = deterministic
        .ingest_lag
        .iter()
        .map(|b| b.lag_epochs)
        .max()
        .unwrap_or(0);
    let mut violations = Vec::new();
    if decision_latency.p99_nanos > slo.max_p99_decision_nanos {
        violations.push(format!(
            "p99 decision latency {} ns exceeds the {} ns bar",
            decision_latency.p99_nanos, slo.max_p99_decision_nanos
        ));
    }
    if worst_lag > slo.max_ingest_lag_epochs {
        violations.push(format!(
            "worst ingest lag {} epochs exceeds the {} epoch bar",
            worst_lag, slo.max_ingest_lag_epochs
        ));
    }
    if deterministic.peak_join_occupancy > slo.max_join_occupancy {
        violations.push(format!(
            "peak join occupancy {} exceeds the {} bar",
            deterministic.peak_join_occupancy, slo.max_join_occupancy
        ));
    }
    let pass = violations.is_empty();

    Ok(ServeReport {
        schema_version: 2,
        mode: "full".to_owned(),
        scale: scale_label.to_owned(),
        config: config.clone(),
        deterministic,
        decision_latency,
        flush_latency: flush_histogram.summary(),
        throughput: ThroughputSection {
            wall_secs,
            decisions_per_sec: admitted as f64 / wall_secs.max(1e-12),
        },
        pool,
        slo: SloSection {
            limits: *slo,
            violations,
            pass,
        },
    })
}

/// Prints the human-readable summary of a closed-loop run.
pub fn print_full_report(report: &ServeReport) {
    let d = &report.deterministic;
    let l = &report.decision_latency;
    println!(
        "\nClosed-loop serve: {} events over {} codes, {} workers",
        d.events, report.config.codes, report.config.workers
    );
    println!(
        "admitted {} / shed {} | joined {} expired {} in-flight {} | late rewards {}",
        d.admitted, d.shed, d.joined, d.expired, d.in_flight_at_shutdown, d.late_rewards
    );
    println!(
        "reports: {} submitted, {} released, {} accepted over {} flushes (final epoch {})",
        d.reports_submitted, d.reports_released, d.reports_accepted, d.flushes, d.final_epoch
    );
    println!(
        "decision latency (ns): p50 {} p95 {} p99 {} max {} over {} decisions",
        l.p50_nanos, l.p95_nanos, l.p99_nanos, l.max_nanos, l.count
    );
    let f = &report.flush_latency;
    println!(
        "epoch flush latency (us): p50 {} p95 {} max {} over {} flushes",
        f.p50_nanos / 1_000,
        f.p95_nanos / 1_000,
        f.max_nanos / 1_000,
        f.count
    );
    let mean_occupancy = d.join_occupancy_sum as f64 / d.rounds.max(1) as f64;
    println!(
        "join occupancy: peak {} mean {:.1} (ceiling {})",
        d.peak_join_occupancy, mean_occupancy, report.config.in_flight_ceiling
    );
    let lag: Vec<String> = d
        .ingest_lag
        .iter()
        .map(|b| format!("{} epoch(s): {}", b.lag_epochs, b.decisions))
        .collect();
    println!(
        "ingest lag: {}",
        if lag.is_empty() {
            "none joined".to_owned()
        } else {
            lag.join(", ")
        }
    );
    println!(
        "pool: {} creations, {} evictions ({:.2}/1k decisions), {} rehydrations, hit rate {:.1}%",
        report.pool.creations,
        report.pool.evictions,
        report.pool.evictions_per_1k_decisions,
        report.pool.rehydrations,
        report.pool.hit_rate * 100.0
    );
    println!(
        "throughput: {:.0} decisions/s over {:.2} s",
        report.throughput.decisions_per_sec, report.throughput.wall_secs
    );
    if report.slo.pass {
        println!("SLO: pass");
    } else {
        for violation in &report.slo.violations {
            println!("SLO VIOLATION: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_partition_is_stable_and_in_range() {
        for code in 0..256u64 {
            let w = owner_of(code, 4);
            assert!(w < 4);
            assert_eq!(w, owner_of(code, 4));
        }
        assert_eq!(owner_of(123, 1), 0);
    }

    #[test]
    fn unbalanced_counts_are_an_invariant_violation() {
        let config = ServeConfig::tiny();
        let report = run_full(&config, &SloConfig::for_config(&config), "tiny").unwrap();
        let ceiling = config.in_flight_ceiling;
        let balanced = report.deterministic;
        assert_eq!(check_conservation(&balanced, ceiling), Ok(()));
        let unbalanced: [fn(&mut DeterministicSummary); 4] = [
            |s| s.admitted += 1,
            |s| s.joined -= 1,
            |s| s.shed += 1,
            |s| s.peak_join_occupancy += 1,
        ];
        for unbalance in unbalanced {
            let mut summary = balanced.clone();
            unbalance(&mut summary);
            let verdict = check_conservation(&summary, ceiling);
            assert!(
                matches!(verdict, Err(BenchFailure::InvariantViolation(_))),
                "{verdict:?}"
            );
            assert_eq!(verdict.map_err(|f| f.exit_code()), Err(6));
        }
    }

    #[test]
    fn a_failing_worker_ends_the_run_with_a_runtime_failure() {
        // A zero residency budget fails every worker's pool at start; the
        // first barrier must stop instead of waiting for a decision.
        let config = ServeConfig {
            pool_budget: 0,
            ..ServeConfig::tiny()
        };
        let verdict = run_full(&config, &SloConfig::for_config(&config), "tiny");
        assert!(
            matches!(verdict, Err(BenchFailure::Runtime(_))),
            "{verdict:?}"
        );
    }

    #[test]
    fn slo_defaults_scale_with_the_join_window() {
        let config = ServeConfig::tiny();
        let slo = SloConfig::for_config(&config);
        assert_eq!(slo.max_join_occupancy, config.in_flight_ceiling as u64);
        assert!(slo.max_ingest_lag_epochs >= 1);
    }
}
