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
//! A thread-per-core event loop on the vendored crossbeam channels: `W`
//! persistent workers each own the [`AgentPool`] partition for the codes
//! hashed to them (`splitmix64(code) % W`) plus a local
//! [`LatencyHistogram`]; the main thread owns the [`P2bSystem`], the
//! [`RewardJoinBuffer`] and the arrival clock. Per round it admits up to
//! `events_per_round` arrivals through the join buffer's ceiling
//! ([`RewardJoinBuffer::try_record`] sheds the rest — open-loop load does
//! not wait), fans `Decide` jobs to the owning workers, joins the rewards
//! that came due, finalizes the round, and fans `Fold` jobs for the joined
//! decisions. Every `rounds_per_epoch` rounds the workers' report outboxes
//! are drained, canonically sorted, and flushed through
//! [`P2bSystem::streaming_round`]; the refreshed epoch snapshot is then
//! broadcast to the workers as a new [`AgentSource`].
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
//! One subsystem slice runs on the same arrival process, so it is
//! benchmarked on identical skewed traffic: [`ServeMode::Ingest`] (shuffler
//! engine, central-model ingest, model update, epoch assembly, secure
//! aggregation). Bounded-pool serving is the `serve_churn` workload of
//! `bash benchmark/run.sh`; per-decision select latency is
//! `benches/select.rs` and the `bandit.select` / `core.agent.select` layers
//! of the same benchmark.

use crate::failure::{write_artifact, BenchFailure};
use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::Scale;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use p2b_bandit::{Action, CoalescedUpdate, ContextualPolicy, IngestScratch, LinUcb, LinUcbConfig};
use p2b_core::{
    AgentPool, AgentPoolConfig, AgentSource, CentralServer, ModelService, P2bConfig, P2bSystem,
    PoolStats, RewardJoinBuffer, SecureIngestService,
};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{
    splitmix64, EncodedReport, RawReport, ShuffledBatch, Shuffler, ShufflerConfig, ShufflerEngine,
};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
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
/// Noise lane drawing synthetic actions for the legacy ingest stream.
const LANE_LEGACY_ACTION: u64 = LANE_CONSUMER_BASE + 5;
/// Noise lane drawing synthetic 0/1 rewards for the legacy ingest stream.
const LANE_LEGACY_REWARD: u64 = LANE_CONSUMER_BASE + 6;

/// Which subsystem slice of the harness to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Shuffler-engine shard scaling, central-model ingest scaling, the
    /// model update path, epoch assembly and secure aggregation.
    Ingest,
    /// The closed-loop service: everything at once, with SLOs.
    Full,
}

impl ServeMode {
    /// Parses a `--mode` value.
    #[must_use]
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "ingest" => Some(ServeMode::Ingest),
            "full" => Some(ServeMode::Full),
            _ => None,
        }
    }

    /// The canonical `--mode` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::Ingest => "ingest",
            ServeMode::Full => "full",
        }
    }
}

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

/// Work items on a worker's FIFO channel.
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
    /// Shut down: park agents, return reports, histogram and stats.
    Finish,
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
    Finished {
        reports: Vec<RawReport>,
        histogram: Box<LatencyHistogram>,
        stats: PoolStats,
    },
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

/// One deterministic raw context per code, shared by every worker.
fn code_contexts(codes: u64, dimension: usize) -> Vec<Vector> {
    (0..codes as usize)
        .map(|c| {
            let mut raw = vec![0.05; dimension];
            raw[c % dimension] = 1.0 + 0.05 * ((c / dimension) % 7) as f64;
            raw[(c / 3) % dimension] += 0.25;
            Vector::from(raw)
                .normalized_l1()
                .expect("contexts are non-empty")
        })
        .collect()
}

/// Fits the k-means encoder the serving system validates against.
fn fit_serve_encoder(codes: u64, dimension: usize) -> Arc<dyn Encoder> {
    let mut rng = StdRng::seed_from_u64(7);
    let corpus: Vec<Vector> = (0..codes as usize * 8)
        .map(|i| {
            let mut raw = vec![0.05; dimension];
            raw[i % dimension] = 1.0 + 0.05 * ((i / dimension) % 7) as f64;
            raw[(i / 3) % dimension] += 0.25;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    Arc::new(
        KMeansEncoder::fit(
            &corpus,
            KMeansConfig::new(codes as usize).with_iterations(10),
            &mut rng,
        )
        .expect("corpus is larger than k"),
    )
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

/// The persistent worker loop: owns one pool partition and a latency
/// histogram; processes its FIFO job stream until `Finish`.
#[allow(clippy::needless_pass_by_value)]
fn worker_loop(
    jobs: Receiver<Job>,
    replies: Sender<Reply>,
    mut source: AgentSource,
    arrival: &ArrivalProcess,
    contexts: &[Vector],
    pool_budget: usize,
) {
    let mut pool =
        AgentPool::new(AgentPoolConfig::bounded(pool_budget)).expect("a positive budget is valid");
    let mut histogram = LatencyHistogram::new();
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Decide { index, code } => {
                let mut rng = StdRng::seed_from_u64(arrival.noise(index, LANE_SELECT_SEED));
                let context = &contexts[code as usize];
                let started = Instant::now();
                let action = pool
                    .with_agent_at(&source, code, |agent| {
                        agent.select_action(context, &mut rng)
                    })
                    .expect("decisions on well-formed contexts succeed");
                histogram.record(started.elapsed().as_nanos() as u64);
                replies
                    .send(Reply::Decided {
                        index,
                        action: action.index(),
                    })
                    .expect("main thread outlives workers");
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
                })
                .expect("folds of joined rewards succeed");
            }
            Job::Refresh(next) => source = next,
            Job::Drain => {
                replies
                    .send(Reply::Drained {
                        reports: pool.drain_reports(),
                    })
                    .expect("main thread outlives workers");
            }
            Job::Finish => {
                pool.park_all();
                let reports = pool.drain_reports();
                let stats = *pool.stats();
                replies
                    .send(Reply::Finished {
                        reports,
                        histogram: Box::new(histogram),
                        stats,
                    })
                    .expect("main thread outlives workers");
                return;
            }
        }
    }
}

/// Runs the closed-loop service and assembles its report.
///
/// # Panics
///
/// Panics when an internal invariant breaks (decision conservation, report
/// conservation through the engine) — benchmark binaries treat broken
/// invariants as fatal.
#[must_use]
pub fn run_full(config: &ServeConfig, slo: &SloConfig, scale_label: &str) -> ServeReport {
    let workers = config.workers.max(1);
    let arrival = ArrivalProcess::new(ArrivalConfig::new(config.users, config.codes, config.seed))
        .expect("serve configurations are valid");
    let contexts = code_contexts(config.codes, config.dimension);
    let system_config = P2bConfig::new(config.dimension, config.actions)
        .with_local_interactions(config.local_interactions)
        .with_shuffler_threshold(config.threshold)
        .with_shuffler_batch_size(config.shuffler_batch_size);
    let mut system = P2bSystem::new(
        system_config,
        fit_serve_encoder(config.codes, config.dimension),
    )
    .expect("serve configurations are valid");
    let mut source = AgentSource::capture(&mut system).expect("snapshot capture succeeds");

    let mut join: RewardJoinBuffer<InFlight> =
        RewardJoinBuffer::new(config.max_delay).with_in_flight_ceiling(config.in_flight_ceiling);
    let rounds = config.rounds();
    // Rewards scheduled past the last round are simply never delivered —
    // the service shuts down with those decisions in flight.
    let mut due_rewards: Vec<Vec<(p2b_core::DecisionTicket, f64)>> =
        (0..rounds).map(|_| Vec::new()).collect();
    let mut actions_by_index: HashMap<u64, usize> = HashMap::new();
    let mut tickets_by_index: HashMap<u64, p2b_core::DecisionTicket> = HashMap::new();

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
    let mut in_flight_at_shutdown = 0u64;
    let mut wall_secs = 0.0f64;

    let reply_channels: (Sender<Reply>, Receiver<Reply>) = unbounded();
    let (reply_tx, reply_rx) = reply_channels;
    let mut job_txs: Vec<Sender<Job>> = Vec::with_capacity(workers);
    let mut job_rxs: Vec<Receiver<Job>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        // Capacity covers one round's decides plus one window's folds, so
        // the main thread never blocks on a send; the reply channel is
        // unbounded, so workers never block either — no deadlock is
        // possible.
        let (tx, rx) =
            bounded((config.events_per_round as usize + config.in_flight_ceiling + 16).max(64));
        job_txs.push(tx);
        job_rxs.push(rx);
    }

    std::thread::scope(|scope| {
        for rx in job_rxs.drain(..) {
            let replies = reply_tx.clone();
            let initial = source.clone();
            let arrival_ref = &arrival;
            let contexts_ref = &contexts;
            let budget = config.pool_budget;
            scope.spawn(move || {
                worker_loop(rx, replies, initial, arrival_ref, contexts_ref, budget);
            });
        }
        drop(reply_tx);

        let started = Instant::now();
        let mut next_event = 0u64;
        let mut flush_reports: Vec<RawReport> = Vec::new();
        for round in 0..rounds {
            // ── Admission + decide fan-out ──────────────────────────────
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
                job_txs[owner_of(event.code, workers)]
                    .send(Job::Decide {
                        index,
                        code: event.code,
                    })
                    .expect("workers outlive the run");
                sent += 1;
            }
            next_event += offered;

            // ── Decision barrier (replies arrive in any order) ──────────
            let mut decided: Vec<(u64, usize)> = Vec::with_capacity(sent);
            for _ in 0..sent {
                match reply_rx.recv().expect("workers outlive the run") {
                    Reply::Decided { index, action } => decided.push((index, action)),
                    _ => unreachable!("only Decided replies are in flight here"),
                }
            }
            decided.sort_unstable_by_key(|&(index, _)| index);

            // ── Reward scheduling (pure per-event noise) ────────────────
            for &(index, action) in &decided {
                actions_by_index.insert(index, action);
                if unit_draw(arrival.noise(index, LANE_REWARD_PRESENT)) >= config.reward_probability
                {
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
                    due_rewards[due as usize].push((tickets_by_index[&index], reward));
                }
            }

            // ── Deliver due rewards (late ones are counted and dropped) ─
            for (ticket, reward) in due_rewards[round as usize].drain(..) {
                let _ = join
                    .join(ticket, reward)
                    .expect("scheduled rewards are well-formed");
            }

            // ── Finalize the round; fold joined rewards ─────────────────
            let finalized = join.advance_round();
            for joined in &finalized.joined {
                let lag = source.epoch() - joined.payload.decided_epoch;
                *lag_counts.entry(lag).or_insert(0) += 1;
                let action = actions_by_index
                    .remove(&joined.payload.index)
                    .expect("every admitted decision recorded its action");
                tickets_by_index.remove(&joined.payload.index);
                job_txs[owner_of(joined.payload.code, workers)]
                    .send(Job::Fold {
                        index: joined.payload.index,
                        code: joined.payload.code,
                        action,
                        reward: joined.reward,
                    })
                    .expect("workers outlive the run");
            }
            for expired in &finalized.expired {
                actions_by_index.remove(&expired.payload.index);
                tickets_by_index.remove(&expired.payload.index);
            }
            occupancy_sum += join.pending() as u64;

            // ── Epoch boundary: drain, flush, refresh ───────────────────
            if (round + 1) % config.rounds_per_epoch == 0 || round + 1 == rounds {
                let flush_started = Instant::now();
                for tx in &job_txs {
                    tx.send(Job::Drain).expect("workers outlive the run");
                }
                for _ in 0..workers {
                    match reply_rx.recv().expect("workers outlive the run") {
                        Reply::Drained { reports } => flush_reports.extend(reports),
                        _ => unreachable!("only Drained replies are in flight here"),
                    }
                }
                canonical_sort(&mut flush_reports);
                reports_submitted += flush_reports.len() as u64;
                let flush_seed = splitmix64(config.seed ^ (0xF1A5 << 16) ^ flushes);
                let (round_stats, _ledger) = system
                    .streaming_round(std::mem::take(&mut flush_reports), flush_seed)
                    .expect("engine flushes succeed");
                for stats in &round_stats {
                    reports_released += stats.released as u64;
                    reports_accepted += stats.accepted;
                }
                flushes += 1;
                source = AgentSource::capture(&mut system).expect("snapshot capture succeeds");
                flush_histogram.record(flush_started.elapsed().as_nanos() as u64);
                for tx in &job_txs {
                    tx.send(Job::Refresh(source.clone()))
                        .expect("workers outlive the run");
                }
            }
        }

        // ── Shutdown: whatever is still pending stays in flight ─────────
        in_flight_at_shutdown = join.pending() as u64;
        for tx in &job_txs {
            tx.send(Job::Finish).expect("workers outlive the run");
        }
        let mut final_reports: Vec<RawReport> = Vec::new();
        for _ in 0..workers {
            match reply_rx.recv().expect("workers outlive the run") {
                Reply::Finished {
                    reports,
                    histogram: worker_hist,
                    stats,
                } => {
                    final_reports.extend(reports);
                    histogram.merge(&worker_hist);
                    pool_stats_sum.hits += stats.hits;
                    pool_stats_sum.creations += stats.creations;
                    pool_stats_sum.rehydrations += stats.rehydrations;
                    pool_stats_sum.evictions += stats.evictions;
                }
                _ => unreachable!("only Finished replies are in flight here"),
            }
        }
        if !final_reports.is_empty() {
            let flush_started = Instant::now();
            canonical_sort(&mut final_reports);
            reports_submitted += final_reports.len() as u64;
            let flush_seed = splitmix64(config.seed ^ (0xF1A5 << 16) ^ flushes);
            let (round_stats, _ledger) = system
                .streaming_round(final_reports, flush_seed)
                .expect("engine flushes succeed");
            for stats in &round_stats {
                reports_released += stats.released as u64;
                reports_accepted += stats.accepted;
            }
            flushes += 1;
            source = AgentSource::capture(&mut system).expect("snapshot capture succeeds");
            flush_histogram.record(flush_started.elapsed().as_nanos() as u64);
        }
        wall_secs = started.elapsed().as_secs_f64();
    });

    // ── Conservation invariants ─────────────────────────────────────────
    let join_stats = *join.stats();
    assert_eq!(
        admitted,
        join_stats.joined + join_stats.expired + in_flight_at_shutdown,
        "decision conservation violated: every admitted decision must be \
         joined, expired or in flight at shutdown"
    );
    assert_eq!(
        admitted + join_stats_shed(&join),
        config.events,
        "admission conservation violated: offered = admitted + shed"
    );
    assert!(
        join.peak_pending() <= config.in_flight_ceiling,
        "the admission ceiling was breached"
    );

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

    ServeReport {
        schema_version: 2,
        mode: ServeMode::Full.name().to_owned(),
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
    }
}

/// The buffer's shed counter (helper so the conservation assertion reads as
/// an equation over the buffer's own accounting).
fn join_stats_shed(join: &RewardJoinBuffer<InFlight>) -> u64 {
    join.shed()
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

// ────────────────────────────────────────────────────────────────────────
// Subsystem modes, driven by the shared arrival process so every subsystem
// sees the same skewed traffic shape.
// ────────────────────────────────────────────────────────────────────────

/// Producer threads submitting concurrently in every legacy configuration.
const PRODUCERS: usize = 8;
/// Distinct encoded context codes in the legacy synthetic stream.
const CODES: usize = 64;
/// Actions in the legacy synthetic stream.
const ACTIONS: usize = 10;
/// Crowd-blending threshold (the paper's default `l`).
const THRESHOLD: usize = 10;
/// Context dimension of the legacy ingest benchmark's central model.
const DIMENSION: usize = 16;

/// The arrival process all legacy modes draw traffic from: the same
/// Zipf-like 80/20 skew as the closed loop.
fn legacy_arrival(num_codes: usize, seed: u64) -> ArrivalProcess {
    ArrivalProcess::new(ArrivalConfig::new(1_000_000, num_codes as u64, seed))
        .expect("legacy arrival configurations are valid")
}

fn producer_stream(arrival: &ArrivalProcess, producer: usize, reports: usize) -> Vec<RawReport> {
    let base = (producer * reports) as u64;
    (0..reports as u64)
        .map(|i| {
            let index = base + i;
            let event = arrival.event(index);
            let action = bounded_draw(arrival.noise(index, LANE_LEGACY_ACTION), ACTIONS as u64);
            let reward =
                f64::from(bounded_draw(arrival.noise(index, LANE_LEGACY_REWARD), 2) as u32);
            RawReport::with_timestamp(
                format!("producer-{producer}"),
                i,
                EncodedReport::new(event.code as usize, action as usize, reward)
                    .expect("rewards 0/1 are valid"),
            )
        })
        .collect()
}

/// One measured configuration, serialized into `BENCH_ingest.json`.
#[derive(Debug, Serialize)]
struct BenchRecord {
    /// `"engine"` (part 1), `"ingest"` (part 2), `"update"` (part 3) or
    /// `"assemble"` (part 4).
    stage: String,
    /// `"sharded"` for the engine, `"sequential"`/`"coalesced"` for ingest,
    /// `"scratch"` for the update path, `"incremental"` for epoch assembly.
    mode: String,
    shards: usize,
    /// Context dimension of the model under measurement.
    dimension: usize,
    /// Arms of the model under measurement.
    actions: usize,
    batch_size: usize,
    reports: usize,
    batches: usize,
    wall_secs: f64,
    reports_per_sec: f64,
    /// Speedup over the stage's first configuration (1.0 for the
    /// single-configuration update and assembly stages).
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    scale: String,
    hardware_threads: usize,
    /// Mean reports per distinct `(code, action)` pair in the ingest stream
    /// — the code-reuse factor the coalescer exploits.
    ingest_code_reuse: f64,
    records: Vec<BenchRecord>,
}

/// One deterministic model digest, serialized into
/// `BENCH_ingest_summary.json`.
#[derive(Debug, Serialize)]
struct IngestDigestRecord {
    /// The measured configuration the digest came from.
    stage: String,
    mode: String,
    shards: usize,
    /// FNV-1a digest over the final model's exact statistics bits.
    digest: String,
}

/// The wall-clock-free companion of `BENCH_ingest.json`: pure model digests
/// that must be byte-identical across runs (and, within the coalesced
/// ingest stage, across shard counts). The CI smoke job diffs two of them.
#[derive(Debug, Serialize)]
struct IngestSummary {
    schema_version: u32,
    scale: String,
    reports: usize,
    batch_size: usize,
    codes: usize,
    records: Vec<IngestDigestRecord>,
}

/// FNV-1a over a little-endian `u64`.
fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut hash = hash;
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a digest of a model's exact statistics: observation count, then
/// per arm the pull count and every design / reward-vector / theta
/// coefficient bit. Bit-identical models — and only those — collide.
fn model_digest(model: &LinUcb) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    hash = fnv1a(hash, model.observations());
    for arm in 0..model.config().num_actions {
        let action = Action::new(arm);
        hash = fnv1a(hash, model.pulls(action).expect("arm index is in range"));
        for &x in model
            .design(action)
            .expect("arm index is in range")
            .as_slice()
        {
            hash = fnv1a(hash, x.to_bits());
        }
        for &x in model
            .reward_vector(action)
            .expect("arm index is in range")
            .iter()
        {
            hash = fnv1a(hash, x.to_bits());
        }
        for &x in model.theta(action).expect("arm index is in range").iter() {
            hash = fnv1a(hash, x.to_bits());
        }
    }
    hash
}

struct EngineRun {
    shards: usize,
    wall_secs: f64,
    reports_per_sec: f64,
    batches: usize,
    released: usize,
}

fn run_engine(
    shards: usize,
    streams: &[Vec<RawReport>],
    batch_size: usize,
) -> Result<EngineRun, BenchFailure> {
    let engine = ShufflerEngine::builder(ShufflerConfig::new(THRESHOLD))
        .shards(shards)
        .batch_size(batch_size)
        .shard_queue_capacity(batch_size)
        .build()
        .expect("static configuration is valid");
    let total: usize = streams.iter().map(Vec::len).sum();

    let start = Instant::now();
    let handle = engine.spawn(42);
    std::thread::scope(|scope| {
        for stream in streams {
            let handle_ref = &handle;
            scope.spawn(move || {
                for report in stream.iter().cloned() {
                    handle_ref
                        .submit(report)
                        .expect("engine stays open during the run");
                }
            });
        }
    });
    let output = handle.finish();
    let wall_secs = start.elapsed().as_secs_f64();

    let received: usize = output
        .batches
        .iter()
        .map(|b| b.batch.stats().received)
        .sum();
    BenchFailure::ensure_invariant(received == total, || {
        format!("the engine must conserve every report: {received} != {total}")
    })?;
    Ok(EngineRun {
        shards,
        wall_secs,
        reports_per_sec: total as f64 / wall_secs,
        batches: output.batches.len(),
        released: output
            .batches
            .iter()
            .map(|b| b.batch.stats().released)
            .sum(),
    })
}

/// Fits the k-means encoder the ingest benchmark's server validates against.
fn fit_encoder() -> Arc<dyn Encoder> {
    fit_serve_encoder(CODES as u64, DIMENSION)
}

/// Builds the shuffled batches every ingest configuration replays: heavy
/// `(code, action)` reuse, exactly like post-threshold production batches.
fn ingest_batches(num_codes: usize, batch_size: usize, batches: usize) -> Vec<ShuffledBatch> {
    let shuffler = Shuffler::new(ShufflerConfig::new(1)).expect("threshold 1 is valid");
    let arrival = legacy_arrival(num_codes, 99);
    let mut rng = StdRng::seed_from_u64(99);
    (0..batches)
        .map(|b| {
            let base = (b * batch_size) as u64;
            let raw: Vec<RawReport> = (0..batch_size as u64)
                .map(|i| {
                    let index = base + i;
                    let event = arrival.event(index);
                    let action =
                        bounded_draw(arrival.noise(index, LANE_LEGACY_ACTION), ACTIONS as u64);
                    let reward =
                        f64::from(bounded_draw(arrival.noise(index, LANE_LEGACY_REWARD), 2) as u32);
                    RawReport::with_timestamp(
                        format!("b{b}"),
                        i,
                        EncodedReport::new(event.code as usize, action as usize, reward)
                            .expect("rewards 0/1 are valid"),
                    )
                })
                .collect();
            shuffler.process(raw, &mut rng)
        })
        .collect()
}

enum IngestMode {
    Sequential,
    Coalesced { ingest_shards: usize },
}

fn run_ingest(
    mode: &IngestMode,
    encoder: &Arc<dyn Encoder>,
    batches: &[ShuffledBatch],
) -> Result<(f64, u64), BenchFailure> {
    let shards = match mode {
        IngestMode::Sequential => 1,
        IngestMode::Coalesced { ingest_shards } => *ingest_shards,
    };
    let config = P2bConfig::new(DIMENSION, ACTIONS).with_ingest_shards(shards);
    let mut server =
        CentralServer::new(&config, Arc::clone(encoder)).expect("static configuration is valid");
    let start = Instant::now();
    let mut accepted = 0u64;
    for batch in batches {
        accepted += match mode {
            IngestMode::Sequential => server.ingest_batch(batch),
            IngestMode::Coalesced { .. } => server.ingest_batch_coalesced(batch),
        }
        .expect("well-formed batches ingest cleanly");
    }
    // Synchronize with the ingest shards: assembling the model waits for
    // every dispatched update to be folded, so the timing covers the work.
    let model = server.model().expect("assembly succeeds");
    let wall = start.elapsed().as_secs_f64();
    BenchFailure::ensure_invariant(model.observations() == accepted, || {
        format!(
            "no update may be lost: {} != {accepted}",
            model.observations()
        )
    })?;
    Ok((wall, model_digest(model)))
}

/// Deterministic coalesced-update batches at one model shape for the
/// model-level update benchmark (part 3): L1-normalized contexts, counts in
/// 1..10, reward sums within `[0, count]`.
fn update_batches(
    dimension: usize,
    actions: usize,
    batch_len: usize,
    batches: usize,
    seed: u64,
) -> Vec<Vec<CoalescedUpdate>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..batch_len)
                .map(|_| {
                    let raw: Vec<f64> =
                        (0..dimension).map(|_| rng.gen_range(0.0f64..1.0)).collect();
                    let context = Vector::from(raw).normalized_l1().expect("non-empty");
                    let count = rng.gen_range(1u64..10);
                    let reward_sum = rng.gen_range(0.0..=count as f64);
                    CoalescedUpdate::new(
                        context,
                        Action::new(rng.gen_range(0..actions)),
                        count,
                        reward_sum,
                    )
                    .expect("generated updates are well-formed")
                })
                .collect()
        })
        .collect()
}

/// Times one full replay of `batches` through a fresh model; returns the
/// wall time and the final model's digest (byte-diffed across runs in
/// `BENCH_ingest_summary.json`).
fn time_update_path(
    dimension: usize,
    actions: usize,
    batches: &[Vec<CoalescedUpdate>],
    scratch: &mut IngestScratch,
) -> (f64, u64) {
    let mut model =
        LinUcb::new(LinUcbConfig::new(dimension, actions)).expect("static shapes are valid");
    let start = Instant::now();
    for batch in batches {
        model
            .update_batch_with(batch, scratch)
            .expect("updates are well-formed");
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, model_digest(&model))
}

/// Times `epochs` sparse flush cycles against a [`ModelService`]: each
/// epoch folds one single-report update into one arm and re-assembles the
/// served model over the dirty-arm union. Returns the wall time and the
/// final model's digest.
fn time_assemble_path(
    dimension: usize,
    actions: usize,
    shards: usize,
    epochs: usize,
) -> (f64, u64) {
    let mut service = ModelService::spawn(LinUcbConfig::new(dimension, actions), shards)
        .expect("static shapes are valid");
    let mut rng = StdRng::seed_from_u64(71);
    let sparse_update = |arm: usize, rng: &mut StdRng| {
        let raw: Vec<f64> = (0..dimension).map(|_| rng.gen_range(0.0f64..1.0)).collect();
        let context = Vector::from(raw).normalized_l1().expect("non-empty");
        CoalescedUpdate::new(context, Action::new(arm), 1, 1.0)
            .expect("generated updates are well-formed")
    };
    // Warm every arm and take the first (full-rebuild) assembly outside the
    // timed region, so the measurement isolates the steady sparse-flush
    // regime.
    let warm: Vec<CoalescedUpdate> = (0..actions)
        .map(|arm| sparse_update(arm, &mut rng))
        .collect();
    service.ingest(warm).expect("service threads are healthy");
    let mut model = service.assemble().expect("assembly succeeds").0;
    let start = Instant::now();
    for epoch in 0..epochs {
        let update = sparse_update(epoch % actions, &mut rng);
        service
            .ingest(vec![update])
            .expect("service threads are healthy");
        model = service.assemble().expect("assembly succeeds").0;
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, model_digest(&model))
}

/// The ingest-side benchmark suite: shuffler-engine shard scaling,
/// sequential vs coalesced central-model ingest, the model update path,
/// epoch assembly, and the secure-aggregation share pipeline, written to
/// `BENCH_ingest.json` / `BENCH_ingest_summary.json`.
///
/// # Errors
///
/// Returns [`BenchFailure::InvariantViolation`] when a determinism digest
/// diverges across shard counts or a stage loses a report,
/// [`BenchFailure::Runtime`] when a pipeline under measurement fails
/// outright, and [`BenchFailure::Io`] when an artifact cannot be written —
/// each mapped to a distinct exit code by the `p2b-serve` binary.
pub fn run_ingest_mode(scale: Scale) -> Result<(), BenchFailure> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records = Vec::new();

    // ── Part 1: shuffler-engine shard scaling ────────────────────────────
    let per_producer = scale.pick(5_000, 50_000, 250_000);
    let batch_size = scale.pick(1_024, 4_096, 8_192);
    let total = per_producer * PRODUCERS;

    println!("Sharded shuffler engine throughput");
    println!(
        "{total} reports, {PRODUCERS} producers, batch size {batch_size}, \
         threshold {THRESHOLD}, {cores} hardware threads"
    );
    if cores < 4 {
        println!("warning: fewer than 4 hardware threads; shard scaling will not show here");
    }

    let arrival = legacy_arrival(CODES, 1);
    let streams: Vec<Vec<RawReport>> = (0..PRODUCERS)
        .map(|p| producer_stream(&arrival, p, per_producer))
        .collect();

    // Warm-up pass so allocator and page-cache effects do not favor the
    // later (multi-shard) runs.
    let _ = run_engine(1, &streams, batch_size)?;

    println!(
        "\n{:>7} {:>10} {:>14} {:>9} {:>10} {:>9}",
        "shards", "wall (ms)", "reports/s", "batches", "released", "speedup"
    );
    let mut baseline = None;
    for shards in [1usize, 2, 4, 8] {
        let result = run_engine(shards, &streams, batch_size)?;
        let baseline_rate = *baseline.get_or_insert(result.reports_per_sec);
        let speedup = result.reports_per_sec / baseline_rate;
        println!(
            "{:>7} {:>10.1} {:>14.0} {:>9} {:>10} {:>8.2}x",
            result.shards,
            result.wall_secs * 1e3,
            result.reports_per_sec,
            result.batches,
            result.released,
            speedup
        );
        records.push(BenchRecord {
            stage: "engine".to_owned(),
            mode: "sharded".to_owned(),
            shards: result.shards,
            dimension: DIMENSION,
            actions: ACTIONS,
            batch_size,
            reports: total,
            batches: result.batches,
            wall_secs: result.wall_secs,
            reports_per_sec: result.reports_per_sec,
            speedup,
        });
    }

    // ── Part 2: central-model ingest scaling ─────────────────────────────
    // Pair space sized for ≥ 10× reuse per batch — the post-threshold regime
    // (every released code appears ≥ l = 10 times by construction).
    let ingest_batch_size = scale.pick(512, 2_048, 8_192);
    let ingest_batch_count = scale.pick(8, 16, 32);
    let ingest_codes = scale.pick(4, 16, CODES);
    let ingest_total = ingest_batch_size * ingest_batch_count;
    let reuse = ingest_batch_size as f64 / (ingest_codes * ACTIONS) as f64;
    println!("\nCentral-model ingestion: sequential vs coalesced sufficient statistics");
    println!(
        "{ingest_total} reports in {ingest_batch_count} batches of {ingest_batch_size}, \
         {ingest_codes} codes x {ACTIONS} actions (~{reuse:.0}x reuse per batch), d = {DIMENSION}"
    );

    let encoder = fit_encoder();
    let batches = ingest_batches(ingest_codes, ingest_batch_size, ingest_batch_count);
    // Warm-up.
    let _ = run_ingest(
        &IngestMode::Sequential,
        &encoder,
        &batches[..1.min(batches.len())],
    )?;

    let modes: [(&str, IngestMode); 4] = [
        ("sequential", IngestMode::Sequential),
        ("coalesced", IngestMode::Coalesced { ingest_shards: 1 }),
        ("coalesced", IngestMode::Coalesced { ingest_shards: 2 }),
        ("coalesced", IngestMode::Coalesced { ingest_shards: 4 }),
    ];
    println!(
        "\n{:>12} {:>7} {:>10} {:>14} {:>9}",
        "mode", "shards", "wall (ms)", "reports/s", "speedup"
    );
    let mut ingest_baseline = None;
    let mut digest_records = Vec::new();
    let mut coalesced_digest: Option<u64> = None;
    for (name, mode) in &modes {
        let (wall_secs, digest) = run_ingest(mode, &encoder, &batches)?;
        let rate = ingest_total as f64 / wall_secs;
        let baseline_rate = *ingest_baseline.get_or_insert(rate);
        let speedup = rate / baseline_rate;
        let shards = match mode {
            IngestMode::Sequential => 1,
            IngestMode::Coalesced { ingest_shards } => *ingest_shards,
        };
        if let IngestMode::Coalesced { .. } = mode {
            // Shard-count invariance: the dirty-arm merge is deterministic,
            // so every coalesced shard count must land on the same model.
            let expected = *coalesced_digest.get_or_insert(digest);
            if digest != expected {
                return Err(BenchFailure::InvariantViolation(format!(
                    "coalesced ingest diverged across shard counts \
                     (shards = {shards}: {digest:016x} != {expected:016x})"
                )));
            }
        }
        digest_records.push(IngestDigestRecord {
            stage: "ingest".to_owned(),
            mode: (*name).to_owned(),
            shards,
            digest: format!("{digest:016x}"),
        });
        println!(
            "{:>12} {:>7} {:>10.1} {:>14.0} {:>8.2}x",
            name,
            shards,
            wall_secs * 1e3,
            rate,
            speedup
        );
        records.push(BenchRecord {
            stage: "ingest".to_owned(),
            mode: (*name).to_owned(),
            shards,
            dimension: DIMENSION,
            actions: ACTIONS,
            batch_size: ingest_batch_size,
            reports: ingest_total,
            batches: ingest_batch_count,
            wall_secs,
            reports_per_sec: rate,
            speedup,
        });
    }

    let coalesced_best = records
        .iter()
        .filter(|r| r.stage == "ingest" && r.mode == "coalesced")
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    println!(
        "\nbest coalesced ingest speedup over sequential per-report ingestion: \
         {coalesced_best:.2}x"
    );

    // ── Part 3: model-level update path ──────────────────────────────────
    // Rank-k coalesced folds with the arena sync deferred to once per
    // touched arm per batch, at the wide 32-arm shape (where the strided
    // arena scatter is dearest) and the native 10-arm shape.
    let update_batch_len = scale.pick(256, 512, 1_024);
    let update_batch_count = scale.pick(64, 96, 128);
    let update_shapes: [(usize, usize); 2] = [(DIMENSION, 32), (DIMENSION, ACTIONS)];
    println!("\nModel update path: batch-deferred scratch sync");
    println!(
        "{update_batch_count} coalesced batches of {update_batch_len} rank-k updates \
         per shape, d = {DIMENSION}"
    );
    println!(
        "\n{:>5} {:>8} {:>10} {:>14}",
        "d", "actions", "wall (ms)", "updates/s"
    );
    for (dimension, actions) in update_shapes {
        let batches = update_batches(
            dimension,
            actions,
            update_batch_len,
            update_batch_count,
            (dimension * 1_009 + actions) as u64,
        );
        let warmup = &batches[..(update_batch_count / 8).max(1)];
        let mut scratch = IngestScratch::new();
        let _ = time_update_path(dimension, actions, warmup, &mut scratch);
        let (wall, digest) = time_update_path(dimension, actions, &batches, &mut scratch);
        let updates = update_batch_len * update_batch_count;
        println!(
            "{:>5} {:>8} {:>10.1} {:>14.0}",
            dimension,
            actions,
            wall * 1e3,
            updates as f64 / wall
        );
        records.push(BenchRecord {
            stage: "update".to_owned(),
            mode: "scratch".to_owned(),
            shards: 1,
            dimension,
            actions,
            batch_size: update_batch_len,
            reports: updates,
            batches: update_batch_count,
            wall_secs: wall,
            reports_per_sec: updates as f64 / wall,
            speedup: 1.0,
        });
        digest_records.push(IngestDigestRecord {
            stage: "update".to_owned(),
            mode: format!("d{dimension}a{actions}"),
            shards: 1,
            digest: format!("{digest:016x}"),
        });
    }

    // ── Part 4: epoch assembly under sparse flushes ──────────────────────
    let assemble_epochs = scale.pick(512, 2_048, 8_192);
    let assemble_actions = 32usize;
    println!("\nEpoch assembly under sparse flushes: dirty-arm re-merge");
    println!(
        "{assemble_epochs} single-arm flush epochs, d = {DIMENSION}, \
         {assemble_actions} actions"
    );
    println!("\n{:>7} {:>10} {:>14}", "shards", "wall (ms)", "epochs/s");
    for shards in [1usize, 4] {
        // Warm-up at a fraction of the epoch count.
        let _ = time_assemble_path(
            DIMENSION,
            assemble_actions,
            shards,
            (assemble_epochs / 8).max(1),
        );
        let (wall, digest) =
            time_assemble_path(DIMENSION, assemble_actions, shards, assemble_epochs);
        println!(
            "{:>7} {:>10.1} {:>14.0}",
            shards,
            wall * 1e3,
            assemble_epochs as f64 / wall
        );
        records.push(BenchRecord {
            stage: "assemble".to_owned(),
            mode: "incremental".to_owned(),
            shards,
            dimension: DIMENSION,
            actions: assemble_actions,
            batch_size: 1,
            reports: assemble_epochs,
            batches: assemble_epochs,
            wall_secs: wall,
            reports_per_sec: assemble_epochs as f64 / wall,
            speedup: 1.0,
        });
        digest_records.push(IngestDigestRecord {
            stage: "assemble".to_owned(),
            mode: "sparse_flush".to_owned(),
            shards,
            digest: format!("{digest:016x}"),
        });
    }

    // ── Part 5: secure-aggregation ingest (split → shard-fold → recombine) ─
    // The same coalesced traffic replayed through the fixed-point additive
    // share pipeline at k ∈ {1, 2, 4} aggregator shards. Shares over the
    // wrapping-i128 group recombine exactly, so the cumulative-sum digest
    // and the republished model must be bit-identical at every shard count
    // — even though each run here gets a *different* mask seed.
    let secure_batch_len = scale.pick(128, 512, 2_048);
    let secure_batch_count = scale.pick(8, 16, 32);
    let secure_batches = update_batches(
        DIMENSION,
        ACTIONS,
        secure_batch_len,
        secure_batch_count,
        0xB10C_5EED,
    );
    let secure_reports = secure_batch_len * secure_batch_count;
    println!("\nSecure-aggregation ingest: additive share split/recombine per shard count");
    println!(
        "{secure_reports} coalesced contributions in {secure_batch_count} flush epochs \
         of {secure_batch_len}, d = {DIMENSION}, {ACTIONS} actions"
    );
    println!(
        "\n{:>7} {:>10} {:>14} {:>9} {:>18}",
        "shards", "wall (ms)", "reports/s", "speedup", "digest"
    );
    let secure_config = LinUcbConfig::new(DIMENSION, ACTIONS);
    let mut secure_baseline = None;
    let mut secure_expected: Option<(u64, u64)> = None;
    for shards in [1usize, 2, 4] {
        // The mask seed deliberately varies with the shard count: recombined
        // sums are group elements, never a function of seed or shard count.
        let seed = 0x5EC0_A660_0000_0000 ^ shards as u64;
        let secure_err =
            |e: p2b_core::CoreError| BenchFailure::Runtime(format!("secure-agg ingest: {e}"));
        // Warm-up on a throwaway service so spawn/allocator effects do not
        // favor the later shard counts.
        {
            let mut warm =
                SecureIngestService::new(secure_config, shards, seed ^ 0xFF).map_err(secure_err)?;
            warm.ingest_batch(&secure_batches[0]).map_err(secure_err)?;
            let _ = warm.assemble().map_err(secure_err)?;
        }
        let mut service =
            SecureIngestService::new(secure_config, shards, seed).map_err(secure_err)?;
        let start = Instant::now();
        let mut model = None;
        for batch in &secure_batches {
            service.ingest_batch(batch).map_err(secure_err)?;
            // Assemble per batch: each flush closes a share epoch and
            // republishes from the recombined cumulative sums.
            model = Some(service.assemble().map_err(secure_err)?);
        }
        let wall_secs = start.elapsed().as_secs_f64();
        let digest = service.digest();
        let model = model.ok_or_else(|| {
            BenchFailure::Runtime("secure-agg ingest produced no model".to_owned())
        })?;
        let published = model_digest(&model);
        let (expected_totals, expected_model) = *secure_expected.get_or_insert((digest, published));
        if digest != expected_totals || published != expected_model {
            return Err(BenchFailure::InvariantViolation(format!(
                "secure-agg recombination diverged across shard counts (shards = {shards}: \
                 totals {digest:016x} != {expected_totals:016x}, \
                 model {published:016x} != {expected_model:016x})"
            )));
        }
        let rate = secure_reports as f64 / wall_secs;
        let baseline_rate = *secure_baseline.get_or_insert(rate);
        let speedup = rate / baseline_rate;
        println!(
            "{:>7} {:>10.1} {:>14.0} {:>8.2}x {:>18}",
            shards,
            wall_secs * 1e3,
            rate,
            speedup,
            format!("{digest:016x}")
        );
        records.push(BenchRecord {
            stage: "secure_agg".to_owned(),
            mode: "recombined".to_owned(),
            shards,
            dimension: DIMENSION,
            actions: ACTIONS,
            batch_size: secure_batch_len,
            reports: secure_reports,
            batches: secure_batch_count,
            wall_secs,
            reports_per_sec: rate,
            speedup,
        });
        digest_records.push(IngestDigestRecord {
            stage: "secure_agg".to_owned(),
            mode: "recombined".to_owned(),
            shards,
            digest: format!("{digest:016x}"),
        });
    }
    println!("\nsecure-agg recombined digests identical across shard counts {{1, 2, 4}}");

    let output = BenchOutput {
        scale: format!("{scale:?}").to_lowercase(),
        hardware_threads: cores,
        ingest_code_reuse: reuse,
        records,
    };
    let json = serde_json::to_string_pretty(&output).expect("records serialize");
    write_artifact("BENCH_ingest.json", &json)?;
    println!("machine-readable results written to BENCH_ingest.json");

    let summary = IngestSummary {
        schema_version: 1,
        scale: format!("{scale:?}").to_lowercase(),
        reports: ingest_total,
        batch_size: ingest_batch_size,
        codes: ingest_codes,
        records: digest_records,
    };
    let json = serde_json::to_string_pretty(&summary).expect("records serialize");
    write_artifact("BENCH_ingest_summary.json", &json)?;
    println!("deterministic model digests written to BENCH_ingest_summary.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [ServeMode::Ingest, ServeMode::Full] {
            assert_eq!(ServeMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ServeMode::parse("pool"), None);
        assert_eq!(ServeMode::parse("bogus"), None);
    }

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
    fn slo_defaults_scale_with_the_join_window() {
        let config = ServeConfig::tiny();
        let slo = SloConfig::for_config(&config);
        assert_eq!(slo.max_join_occupancy, config.in_flight_ceiling as u64);
        assert!(slo.max_ingest_lag_epochs >= 1);
    }
}
