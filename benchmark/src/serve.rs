//! `serve_steady` and `serve_churn`: the full serving loop on one thread.
//!
//! arrival → `RewardJoinBuffer::try_record` → `AgentPool::with_agent_at`
//! {`LocalAgent::select_action`} → reward join → `with_agent_at`
//! {`observe_reward`} → epoch flush. The two workloads run the same loop on
//! opposite shapes: `serve_steady` keeps every agent resident and scores many
//! arms, `serve_churn` has sixteen times the agents its pool may hold and few
//! arms, so it lives in eviction, rehydration, model clones and encoding.

use crate::flush::{flush_epoch, FlushTally};
use crate::metrics::Values;
use crate::trace::{Layer, Tracer, SAMPLE_EVERY};
use crate::workload::{
    bounded_draw, fail, unit_draw, Checks, Digest, PacedOutcome, RepOutcome, Scale, Timings,
    Workload,
};
use crate::world::World;
use p2b_bandit::{Action, ContextualPolicy, SelectScratch};
use p2b_core::{
    AgentPool, AgentPoolConfig, AgentSource, DecisionTicket, P2bConfig, P2bSystem,
    RandomizedReporter, RewardJoinBuffer,
};
use p2b_encoding::ContextCode;
use p2b_linalg::Vector;
use p2b_privacy::Participation;
use p2b_shuffler::{splitmix64, RawReport};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

// Independent per-event noise lanes.
const LANE_SELECT_SEED: u64 = LANE_CONSUMER_BASE;
const LANE_FOLD_SEED: u64 = LANE_CONSUMER_BASE + 1;
const LANE_REWARD_PRESENT: u64 = LANE_CONSUMER_BASE + 2;
const LANE_REWARD_DELAY: u64 = LANE_CONSUMER_BASE + 3;
const LANE_REWARD_VALUE: u64 = LANE_CONSUMER_BASE + 4;

const EVENTS_PER_ROUND: u64 = 1_024;
const ROUNDS_PER_EPOCH: u64 = 8;
const REWARD_PROBABILITY: f64 = 0.75;
const MAX_DELAY: u64 = 3;
const IN_FLIGHT_CEILING: usize = 16_384;
/// Crowd-blending threshold l.
const THRESHOLD: usize = 10;
/// Local interactions T between reporting opportunities.
const LOCAL_INTERACTIONS: u64 = 2;
/// One merged batch holds a whole ~1 200-report flush, so the threshold sees
/// the epoch's crowd and not an eighth of it.
const SHUFFLER_BATCH: usize = 2_048;

/// Arrivals per second of the open-loop phase: about half of what the closed
/// loop sustained on the machine the first baseline was taken on. Frozen —
/// never derived at run time — so two commits are paced alike.
pub const PACED_RATE_PER_S: u64 = 40_000;

/// The shape of a serve workload. Rounds per repetition are a multiple of
/// [`SAMPLE_EVERY`], so a traced repetition samples exactly one in sixteen.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub dimension: usize,
    pub actions: usize,
    pub codes: u64,
    pub pool_budget: usize,
    pub events_per_rep: u64,
    /// Arrivals of one open-loop repetition; 0 for no open-loop phase.
    pub paced_events: u64,
}

impl ServeShape {
    /// Criteo-like: wide arms, every agent resident.
    pub fn steady(scale: Scale) -> Self {
        Self {
            dimension: 16,
            actions: 50,
            codes: 128,
            pool_budget: 256,
            events_per_rep: match scale {
                Scale::Full => 19 * SAMPLE_EVERY * EVENTS_PER_ROUND,
                Scale::Smoke => 2 * SAMPLE_EVERY * EVENTS_PER_ROUND,
            },
            paced_events: match scale {
                Scale::Full => 4 * PACED_RATE_PER_S,
                Scale::Smoke => PACED_RATE_PER_S / 8,
            },
        }
    }

    /// Many agents, a small pool, few arms.
    pub fn churn(scale: Scale) -> Self {
        Self {
            dimension: 16,
            actions: 10,
            // A debug-built k-means fit at k = 1 024 takes the unit tests a
            // minute; the smoke shape keeps the sixteen-to-one ratio.
            codes: match scale {
                Scale::Full => 1_024,
                Scale::Smoke => 128,
            },
            pool_budget: match scale {
                Scale::Full => 64,
                Scale::Smoke => 8,
            },
            events_per_rep: match scale {
                Scale::Full => 13 * SAMPLE_EVERY * EVENTS_PER_ROUND,
                Scale::Smoke => SAMPLE_EVERY * EVENTS_PER_ROUND,
            },
            paced_events: 0,
        }
    }
}

/// A serve workload's inputs, all made from the seed.
pub struct Serve {
    shape: ServeShape,
    seed: u64,
    arrival: ArrivalProcess,
    world: World,
}

/// Payload recorded with each in-flight decision.
struct InFlight {
    index: u64,
    code: u64,
}

/// Canonical report order: (sender, timestamp, code, action, reward bits).
fn canonical_sort(reports: &mut [RawReport]) {
    reports.sort_by(|a, b| {
        let key = |r: &RawReport| {
            (
                r.metadata().timestamp,
                r.payload().code(),
                r.payload().action(),
                r.payload().reward().to_bits(),
            )
        };
        a.metadata()
            .sender
            .cmp(&b.metadata().sender)
            .then_with(|| key(a).cmp(&key(b)))
    });
}

impl Serve {
    pub fn new(shape: ServeShape, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = ArrivalProcess::new(ArrivalConfig::new(shape.codes, shape.codes, seed))
            .map_err(fail("ArrivalProcess::new"))?;
        let world = World::new(
            shape.codes as usize,
            shape.dimension,
            shape.actions,
            &mut rng,
        )?;
        Ok(Self {
            shape,
            seed,
            arrival,
            world,
        })
    }

    fn system(&self) -> Result<P2bSystem, String> {
        let config = P2bConfig::new(self.shape.dimension, self.shape.actions)
            .with_local_interactions(LOCAL_INTERACTIONS)
            .with_shuffler_threshold(THRESHOLD)
            .with_shuffler_batch_size(SHUFFLER_BATCH);
        P2bSystem::new(config, Arc::clone(&self.world.encoder)).map_err(fail("P2bSystem::new"))
    }

    /// Runs `events` arrivals through the loop from a fresh system, closed
    /// loop or — with `paced` — each arrival held back until it is due.
    fn run(
        &self,
        events: u64,
        tracer: &mut Tracer,
        mut paced: Option<&mut PacedOutcome>,
    ) -> Result<RepOutcome, String> {
        let shape = &self.shape;
        let mut system = self.system()?;
        let mut source = AgentSource::capture(&mut system).map_err(fail("capture"))?;
        let mut pool = AgentPool::new(AgentPoolConfig::bounded(shape.pool_budget))
            .map_err(fail("AgentPool::new"))?;
        let mut join: RewardJoinBuffer<InFlight> =
            RewardJoinBuffer::new(MAX_DELAY).with_in_flight_ceiling(IN_FLIGHT_CEILING);
        let rounds = events.div_ceil(EVENTS_PER_ROUND);
        let mut due_rewards: Vec<Vec<(DecisionTicket, f64)>> =
            (0..rounds).map(|_| Vec::new()).collect();
        let mut actions = vec![0u16; events as usize];
        let mut op_ns: Vec<u64> = Vec::with_capacity(events as usize);
        let mut batch_ns: Vec<u64> = Vec::with_capacity((rounds / ROUNDS_PER_EPOCH + 1) as usize);
        let mut segment_ns: Vec<u64> = Vec::with_capacity(rounds as usize);
        let mut tally = FlushTally::default();
        let mut admitted = 0u64;
        let mut folds = 0u64;
        let mut kept_reward = 0.0f64;
        let mut attainable_reward = 0.0f64;
        let period_ns = 1_000_000_000 / PACED_RATE_PER_S;

        let started = Instant::now();
        let mut segment_started = started;
        let rep_span = tracer.open(Layer::DriverRep, 0);
        let mut next_event = 0u64;
        for round in 0..rounds {
            let offered = (events - next_event).min(EVENTS_PER_ROUND);
            let sampled = tracer.samples(round);
            for index in next_event..next_event + offered {
                let due_ns = index * period_ns;
                if let Some(paced) = paced.as_deref_mut() {
                    let mut now_ns = started.elapsed().as_nanos() as u64;
                    while now_ns < due_ns {
                        std::hint::spin_loop();
                        now_ns = started.elapsed().as_nanos() as u64;
                    }
                    let late_ns = now_ns - due_ns;
                    paced.late_ns.push(late_ns);
                    paced.backlog_max = paced.backlog_max.max(late_ns / period_ns);
                }
                let event_span = tracer.open_sampled(sampled, Layer::DriverEvent, index);

                let span = tracer.open_if(sampled, Layer::SimArrivalEvent, index);
                let event = self.arrival.event(index);
                tracer.close(span);

                let span = tracer.open_if(sampled, Layer::JoinTryRecord, index);
                let ticket = join.try_record(InFlight {
                    index,
                    code: event.code,
                });
                tracer.close(span);
                let Some(ticket) = ticket else {
                    // Shed: the arrival is refused before any decision work.
                    if let Some(paced) = paced.as_deref_mut() {
                        paced.latency_ns.push(u64::MAX);
                    }
                    tracer.close(event_span);
                    continue;
                };
                admitted += 1;

                let mut rng = StdRng::seed_from_u64(self.arrival.noise(index, LANE_SELECT_SEED));
                let context = &self.world.contexts[event.code as usize];
                let decision_started = Instant::now();
                let span = tracer.open_if(sampled, Layer::PoolDecide, index);
                let action = pool
                    .with_agent_at(&source, event.code, |agent| {
                        let span = tracer.open_if(sampled, Layer::AgentSelect, index);
                        let action = agent.select_action(context, &mut rng);
                        tracer.close(span);
                        action
                    })
                    .map_err(fail("select_action"))?
                    .index();
                tracer.close(span);
                op_ns.push(decision_started.elapsed().as_nanos() as u64);
                if let Some(paced) = paced.as_deref_mut() {
                    paced
                        .latency_ns
                        .push((started.elapsed().as_nanos() as u64).saturating_sub(due_ns));
                }

                // Reward scheduling: pure per-event noise against the
                // planted model.
                actions[index as usize] = action as u16;
                let win_probability = self.world.expected(event.code as usize, action);
                kept_reward += win_probability;
                attainable_reward += self.world.best(event.code as usize);
                if unit_draw(self.arrival.noise(index, LANE_REWARD_PRESENT)) < REWARD_PROBABILITY {
                    // Delay in 0..=MAX_DELAY+1: the last value lands after
                    // the window closes and takes the late-reward path.
                    let delay =
                        bounded_draw(self.arrival.noise(index, LANE_REWARD_DELAY), MAX_DELAY + 2);
                    let won =
                        unit_draw(self.arrival.noise(index, LANE_REWARD_VALUE)) < win_probability;
                    if round + delay < rounds {
                        due_rewards[(round + delay) as usize]
                            .push((ticket, if won { 1.0 } else { 0.0 }));
                    }
                }
                tracer.close(event_span);
            }
            next_event += offered;

            let span = tracer.open(Layer::JoinSettle, round);
            for (ticket, reward) in due_rewards[round as usize].drain(..) {
                join.join(ticket, reward).map_err(fail("join"))?;
            }
            let finalized = join.advance_round();
            tracer.close(span);

            for joined in &finalized.joined {
                let index = joined.payload.index;
                let code = joined.payload.code;
                folds += 1;
                let fold_span = tracer.open_sampled(sampled, Layer::DriverFold, index);
                let mut rng = StdRng::seed_from_u64(self.arrival.noise(index, LANE_FOLD_SEED));
                let context = &self.world.contexts[code as usize];
                let action = Action::new(usize::from(actions[index as usize]));
                let span = tracer.open_if(sampled, Layer::PoolFold, index);
                pool.with_agent_at(&source, code, |agent| {
                    let span = tracer.open_if(sampled, Layer::AgentObserve, index);
                    let folded = agent.observe_reward(context, action, joined.reward, &mut rng);
                    tracer.close(span);
                    folded
                })
                .map_err(fail("observe_reward"))?;
                tracer.close(span);
                tracer.close(fold_span);
            }

            if (round + 1) % ROUNDS_PER_EPOCH == 0 || round + 1 == rounds {
                let epoch = tally.counts.epochs;
                let flush_started = Instant::now();
                let flush_span = tracer.open(Layer::DriverFlush, epoch);
                let span = tracer.open(Layer::PoolDrain, epoch);
                let mut reports = pool.drain_reports();
                tracer.close(span);
                let span = tracer.open(Layer::DriverSort, epoch);
                canonical_sort(&mut reports);
                tracer.close(span);
                let flush_seed = splitmix64(self.seed ^ (0xF1A5 << 16) ^ epoch);
                let (published, at) =
                    flush_epoch(&mut system, reports, flush_seed, epoch, tracer, &mut tally)?;
                source = published;
                tracer.close(flush_span);
                batch_ns.push((at - flush_started).as_nanos() as u64);
            }
            let now = Instant::now();
            segment_ns.push((now - segment_started).as_nanos() as u64);
            segment_started = now;
        }
        tracer.close(rep_span);

        let join_stats = *join.stats();
        let pool_stats = *pool.stats();
        let mut counts = tally.counts;
        counts.offered = events;
        counts.admitted = admitted;
        counts.shed = join.shed();
        counts.joined = join_stats.joined;
        counts.expired = join_stats.expired;
        counts.in_flight = join.pending() as u64;
        counts.late_rewards = join_stats.late_rewards;
        counts.peak_pending = join.peak_pending() as u64;
        counts.pool_hits = pool_stats.hits;
        counts.pool_creations = pool_stats.creations;
        counts.pool_rehydrations = pool_stats.rehydrations;
        counts.pool_evictions = pool_stats.evictions;

        let mut checks = tally.checks;
        checks.expect(counts.offered == counts.admitted + counts.shed, || {
            format!(
                "admission: offered {} != admitted {} + shed {}",
                counts.offered, counts.admitted, counts.shed
            )
        });
        checks.expect(
            counts.admitted == counts.joined + counts.expired + counts.in_flight,
            || {
                format!(
                    "decisions: admitted {} != joined {} + expired {} + in flight {}",
                    counts.admitted, counts.joined, counts.expired, counts.in_flight
                )
            },
        );
        checks.expect(
            counts.reports_submitted == counts.reports_released + counts.reports_thresholded,
            || {
                format!(
                    "reports: submitted {} != released {} + thresholded {}",
                    counts.reports_submitted, counts.reports_released, counts.reports_thresholded
                )
            },
        );
        checks.expect(folds == counts.joined, || {
            format!("folded {folds} rewards, joined {}", counts.joined)
        });

        let mut digest = Digest::new();
        digest.counts(&counts);
        digest.float(kept_reward);
        let model = source.snapshot().model();
        for action in 0..shape.actions {
            let theta = model.theta(Action::new(action)).map_err(fail("theta"))?;
            for value in theta.iter() {
                digest.float(*value);
            }
        }

        Ok(RepOutcome {
            wall_ns: segment_ns.iter().sum(),
            ops: admitted,
            attempted: events,
            timings: Timings {
                segment_ns,
                op_ns,
                batch_ns,
            },
            utility: kept_reward / attainable_reward.max(f64::MIN_POSITIVE),
            counts,
            distinct_pairs: tally.distinct_pairs,
            digest: digest.finish(),
            checks,
        })
    }
}

impl Workload for Serve {
    fn warm_up(&self) -> Result<(), String> {
        let mut tracer = Tracer::new();
        self.run(self.shape.events_per_rep / 8, &mut tracer, None)
            .map(|_| ())
    }

    fn rep(&self, tracer: &mut Tracer) -> Result<RepOutcome, String> {
        self.run(self.shape.events_per_rep, tracer, None)
    }

    /// About 0.8 % of decisions are four to five times slower than the rest.
    /// p99 sits on the bend into that class and moves by a third with the
    /// seed; p99.9 has the samples but, on a shared host, reads the
    /// scheduler's preemptions. p99.5 is the middle of the slow class.
    fn tail_cap(&self) -> f64 {
        0.995
    }

    fn is_paced(&self) -> bool {
        self.shape.paced_events > 0
    }

    fn paced_rep(&self) -> Result<PacedOutcome, String> {
        let events = self.shape.paced_events;
        let mut paced = PacedOutcome {
            latency_ns: Vec::with_capacity(events as usize),
            late_ns: Vec::with_capacity(events as usize),
            backlog_max: 0,
            shed: 0,
            offered: events,
            checks: Checks::default(),
        };
        let mut tracer = Tracer::new();
        let rep = self.run(events, &mut tracer, Some(&mut paced))?;
        paced.shed = rep.counts.shed;
        paced.checks = rep.checks;
        paced.latency_ns.sort_unstable();
        paced.late_ns.sort_unstable();
        Ok(paced)
    }

    fn probes(&self, out: &mut Values) -> Result<(), String> {
        out.set("encoding.kmeans_fit.ms", self.world.fit_ms);
        let contexts = &self.world.contexts;
        let encoder = &self.world.encoder;
        let n = contexts.len();

        let iterations = 20_000usize;
        let started = Instant::now();
        let mut codes = Vec::with_capacity(n);
        for i in 0..iterations {
            let code = encoder
                .encode(std::hint::black_box(&contexts[i % n]))
                .map_err(fail("encode"))?;
            if i < n {
                codes.push(code);
            }
        }
        out.set("encoding.encode.ns_mean", mean_ns(started, iterations));

        let iterations = 200_000usize;
        let started = Instant::now();
        for i in 0..iterations {
            let code = std::hint::black_box(codes[i % codes.len()]);
            std::hint::black_box(
                encoder
                    .representative(code)
                    .map_err(fail("representative"))?,
            );
        }
        out.set(
            "encoding.representative.ns_mean",
            mean_ns(started, iterations),
        );

        // A trained snapshot: one short repetition's final model.
        let mut system = self.system()?;
        let mut source = AgentSource::capture(&mut system).map_err(fail("capture"))?;
        let mut pool =
            AgentPool::new(AgentPoolConfig::unbounded()).map_err(fail("AgentPool::new"))?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37);
        let mut tracer = Tracer::new();
        let mut tally = FlushTally::default();
        for step in 0..20_000u64 {
            let event = self.arrival.event(step);
            let context = &contexts[event.code as usize];
            pool.with_agent_at(&source, event.code, |agent| {
                let action = agent.select_action(context, &mut rng)?;
                let p = self.world.expected(event.code as usize, action.index());
                let reward = if rng.gen::<f64>() < p { 1.0 } else { 0.0 };
                agent.observe_reward(context, action, reward, &mut rng)
            })
            .map_err(fail("probe training"))?;
        }
        let (published, _) = flush_epoch(
            &mut system,
            pool.drain_reports(),
            self.seed,
            0,
            &mut tracer,
            &mut tally,
        )?;
        source = published;
        let snapshot = Arc::clone(source.snapshot());
        let model_contexts: Vec<Vector> = codes
            .iter()
            .map(|&code| encoder.representative(code).map_err(fail("representative")))
            .collect::<Result<_, _>>()?;

        let iterations = 50_000usize;
        let mut scratch = SelectScratch::new();
        let started = Instant::now();
        for i in 0..iterations {
            std::hint::black_box(
                snapshot
                    .model()
                    .select_action_with(&model_contexts[i % n], &mut rng, &mut scratch)
                    .map_err(fail("select_action_with"))?,
            );
        }
        out.set("bandit.select.ns_mean", mean_ns(started, iterations));

        let mut owned = snapshot.model().clone();
        let started = Instant::now();
        for i in 0..iterations {
            owned
                .update(
                    &model_contexts[i % n],
                    Action::new(i % self.shape.actions),
                    (i % 2) as f64,
                )
                .map_err(fail("update"))?;
        }
        std::hint::black_box(&owned);
        out.set("bandit.update.ns_mean", mean_ns(started, iterations));

        let iterations = 1_000_000usize;
        let participation = Participation::new(0.5).map_err(fail("Participation::new"))?;
        let mut reporter = RandomizedReporter::new(participation, LOCAL_INTERACTIONS);
        let started = Instant::now();
        for i in 0..iterations {
            std::hint::black_box(reporter.observe(
                ContextCode::new(i % n),
                Action::new(i % self.shape.actions),
                1.0,
                &mut rng,
            ));
        }
        out.set(
            "core.reporter.observe.ns_mean",
            mean_ns(started, iterations),
        );

        // First observe_reward of a still-shared agent: the model clone.
        let iterations = 2_000usize;
        let mut cow_ns = 0u64;
        let mut cycle_ns = 0u64;
        for i in 0..iterations {
            let mut agent = system.make_warm_agent().map_err(fail("make_warm_agent"))?;
            let context = &contexts[i % n];
            let started = Instant::now();
            agent
                .observe_reward(context, Action::new(0), 1.0, &mut rng)
                .map_err(fail("observe_reward"))?;
            cow_ns += started.elapsed().as_nanos() as u64;

            let started = Instant::now();
            let (_, dormant) = agent.dehydrate();
            let agent = p2b_core::LocalAgent::rehydrate(
                dormant,
                Arc::clone(&self.world.encoder),
                &snapshot,
            )
            .map_err(fail("rehydrate"))?;
            cycle_ns += started.elapsed().as_nanos() as u64;
            std::hint::black_box(agent);
        }
        out.set(
            "core.agent.cow_clone.us_mean",
            cow_ns as f64 / iterations as f64 / 1e3,
        );
        out.set(
            "core.agent.dehydrate_rehydrate.us_mean",
            cycle_ns as f64 / iterations as f64 / 1e3,
        );
        Ok(())
    }
}

fn mean_ns(started: Instant, iterations: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / iterations as f64
}
