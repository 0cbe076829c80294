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
//! The stages beneath the loop are measured elsewhere: the ingest path's
//! model digests are pinned by the `ingest_golden` test, its timings by the
//! Criterion groups in `benches/` (`shuffler_engine`, `central_ingest`,
//! `model_update`, `epoch_assembly`, `secure_agg_ingest`) and by the
//! `ingest_bulk` workload of `bash benchmark/run.sh`. Bounded-pool serving
//! is that benchmark's `serve_churn` workload; per-decision select latency
//! is `benches/select.rs` and its `bandit.select` / `core.agent.select`
//! layers.

use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::Scale;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use p2b_bandit::Action;
use p2b_core::{
    AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem, PoolStats, RewardJoinBuffer,
};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{splitmix64, RawReport};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// The first `count` deterministic raw contexts of `dimension` coordinates,
/// L1-normalized: the encoder's corpus, whose first `codes` rows are also
/// the one context per code that every worker shares.
fn serve_contexts(count: u64, dimension: usize) -> Vec<Vector> {
    (0..count as usize)
        .map(|i| {
            let mut raw = vec![0.05; dimension];
            raw[i % dimension] = 1.0 + 0.05 * ((i / dimension) % 7) as f64;
            raw[(i / 3) % dimension] += 0.25;
            Vector::from(raw)
                .normalized_l1()
                .expect("contexts are non-empty")
        })
        .collect()
}

/// Fits the k-means encoder the serving system validates against: `codes`
/// centroids over a fixed corpus of `8·codes` L1-normalized contexts of
/// `dimension` coordinates, seeded, so every caller gets the same encoder.
///
/// # Panics
///
/// Panics when `codes` is zero or `dimension` is zero (static
/// configurations never are).
#[must_use]
pub fn fit_serve_encoder(codes: u64, dimension: usize) -> Arc<dyn Encoder> {
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = serve_contexts(codes * 8, dimension);
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
    let contexts = serve_contexts(config.codes, config.dimension);
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
        admitted + join.shed(),
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
    }
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
    fn slo_defaults_scale_with_the_join_window() {
        let config = ServeConfig::tiny();
        let slo = SloConfig::for_config(&config);
        assert_eq!(slo.max_join_occupancy, config.in_flight_ceiling as u64);
        assert!(slo.max_ingest_lag_epochs >= 1);
    }
}
