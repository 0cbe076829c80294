//! `ingest_bulk`: the write path alone. Pre-generated epochs of raw reports
//! go through `spawn_engine` → `submit`× → `finish` → `ingest_engine_batch` →
//! `AgentSource::capture`; flushes are so large that per-flush fixed costs
//! amortise away and per-report shuffling and the rank-k fold dominate.

use crate::flush::{flush_epoch, FlushTally};
use crate::metrics::Values;
use crate::trace::{Layer, Tracer};
use crate::workload::{
    bounded_draw, fail, unit_draw, Digest, RepOutcome, Scale, Timings, Workload,
};
use crate::world::World;
use p2b_bandit::Action;
use p2b_core::{P2bConfig, P2bSystem};
use p2b_linalg::Vector;
use p2b_shuffler::{splitmix64, EncodedReport, RawReport, Shuffler, ShufflerConfig};
use p2b_sim::{ArrivalConfig, ArrivalProcess, LANE_CONSUMER_BASE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const LANE_ACTION: u64 = LANE_CONSUMER_BASE;
const LANE_REWARD: u64 = LANE_CONSUMER_BASE + 1;

const DIMENSION: usize = 32;
const ACTIONS: usize = 100;
const CODES: u64 = 256;
const USERS: u64 = 100_000;
const THRESHOLD: usize = 10;
/// Merged batch size: large enough that cold codes clear the threshold.
const SHUFFLER_BATCH: usize = 16_384;

/// One report before it is given a sender string.
#[derive(Debug, Clone, Copy)]
struct Compact {
    user: u32,
    code: u16,
    action: u16,
    won: bool,
}

pub struct Ingest {
    seed: u64,
    world: World,
    /// Encoder code of each input code's context.
    encoded: Vec<usize>,
    /// Traffic share of each input code.
    traffic: Vec<f64>,
    epochs: Vec<Vec<Compact>>,
}

impl Ingest {
    pub fn new(scale: Scale, seed: u64) -> Result<Self, String> {
        let (epochs, reports_per_epoch) = match scale {
            Scale::Full => (8u64, 150_000u64),
            Scale::Smoke => (2, 4_000),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let world = World::new(CODES as usize, DIMENSION, ACTIONS, &mut rng)?;
        let encoded: Vec<usize> = world
            .contexts
            .iter()
            .map(|c| world.encoder.encode(c).map(|code| code.value()))
            .collect::<Result<_, _>>()
            .map_err(fail("encode"))?;

        let arrival = ArrivalProcess::new(ArrivalConfig::new(USERS, CODES, seed))
            .map_err(fail("ArrivalProcess::new"))?;
        let mut traffic = vec![0.0f64; CODES as usize];
        let total = (epochs * reports_per_epoch) as f64;
        let epochs: Vec<Vec<Compact>> = (0..epochs)
            .map(|epoch| {
                (epoch * reports_per_epoch..(epoch + 1) * reports_per_epoch)
                    .map(|index| {
                        let event = arrival.event(index);
                        let action =
                            bounded_draw(arrival.noise(index, LANE_ACTION), ACTIONS as u64);
                        let p = world.expected(event.code as usize, action as usize);
                        traffic[event.code as usize] += 1.0 / total;
                        Compact {
                            user: event.user as u32,
                            code: event.code as u16,
                            action: action as u16,
                            won: unit_draw(arrival.noise(index, LANE_REWARD)) < p,
                        }
                    })
                    .collect()
            })
            .collect();

        Ok(Self {
            seed,
            world,
            encoded,
            traffic,
            epochs,
        })
    }

    fn materialise(&self, epoch: &[Compact]) -> Result<Vec<RawReport>, String> {
        epoch
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let payload = EncodedReport::new(
                    self.encoded[usize::from(c.code)],
                    usize::from(c.action),
                    if c.won { 1.0 } else { 0.0 },
                )
                .map_err(fail("EncodedReport::new"))?;
                Ok(RawReport::with_timestamp(
                    format!("agent-{}", c.user),
                    i as u64,
                    payload,
                ))
            })
            .collect()
    }

    fn system(&self) -> Result<P2bSystem, String> {
        let config = P2bConfig::new(DIMENSION, ACTIONS)
            .with_shuffler_threshold(THRESHOLD)
            .with_shuffler_batch_size(SHUFFLER_BATCH);
        P2bSystem::new(config, Arc::clone(&self.world.encoder)).map_err(fail("P2bSystem::new"))
    }

    fn run(&self, epochs: &[Vec<Compact>], tracer: &mut Tracer) -> Result<RepOutcome, String> {
        let mut system = self.system()?;
        let mut tally = FlushTally::default();
        let mut batch_ns = Vec::with_capacity(epochs.len());
        let mut segment_ns = Vec::with_capacity(epochs.len());
        let mut source = None;

        // Giving the reports their sender strings is the load generator's
        // work: it is done an epoch at a time, off the clock, so the timed
        // wall (and the traced one: a root span an epoch) is the flushes' alone
        // and peak memory is the system's, not the whole input's.
        for (epoch, compact) in epochs.iter().enumerate() {
            let epoch = epoch as u64;
            let reports = self.materialise(compact)?;
            let flush_started = Instant::now();
            let rep_span = tracer.open(Layer::DriverRep, epoch);
            let flush_span = tracer.open(Layer::DriverFlush, epoch);
            let flush_seed = splitmix64(self.seed ^ (0xB01C << 16) ^ epoch);
            let (published, at) =
                flush_epoch(&mut system, reports, flush_seed, epoch, tracer, &mut tally)?;
            source = Some(published);
            tracer.close(flush_span);
            tracer.close(rep_span);
            segment_ns.push(flush_started.elapsed().as_nanos() as u64);
            batch_ns.push((at - flush_started).as_nanos() as u64);
        }

        let counts = tally.counts;
        let mut checks = tally.checks;
        checks.expect(
            counts.reports_submitted == counts.reports_released + counts.reports_thresholded,
            || {
                format!(
                    "reports: submitted {} != released {} + thresholded {}",
                    counts.reports_submitted, counts.reports_released, counts.reports_thresholded
                )
            },
        );
        checks.expect(counts.accepted == counts.reports_released, || {
            format!(
                "the server accepted {} of {} released reports",
                counts.accepted, counts.reports_released
            )
        });

        // How much of the attainable reward the ingested model's greedy
        // choice keeps, weighted by each code's traffic.
        let source = source.ok_or("no epoch was flushed")?;
        let model = source.snapshot().model();
        let thetas: Vec<Vector> = (0..ACTIONS)
            .map(|a| model.theta(Action::new(a)))
            .collect::<Result<_, _>>()
            .map_err(fail("theta"))?;
        let mut digest = Digest::new();
        digest.counts(&counts);
        for theta in &thetas {
            for value in theta.iter() {
                digest.float(*value);
            }
        }
        let (mut kept, mut attainable) = (0.0f64, 0.0f64);
        for (code, &share) in self.traffic.iter().enumerate() {
            let x = self
                .world
                .encoder
                .representative(p2b_encoding::ContextCode::new(self.encoded[code]))
                .map_err(fail("representative"))?;
            let mut greedy = (0usize, f64::NEG_INFINITY);
            for (action, theta) in thetas.iter().enumerate() {
                let score = theta.dot(&x).map_err(fail("dot"))?;
                if score > greedy.1 {
                    greedy = (action, score);
                }
            }
            kept += share * self.world.expected(code, greedy.0);
            attainable += share * self.world.best(code);
        }

        Ok(RepOutcome {
            wall_ns: segment_ns.iter().sum(),
            ops: counts.reports_submitted,
            attempted: counts.reports_submitted,
            timings: Timings {
                segment_ns,
                op_ns: tally.chunk_ns_per_report,
                batch_ns,
            },
            utility: kept / attainable.max(f64::MIN_POSITIVE),
            counts,
            distinct_pairs: tally.distinct_pairs,
            digest: digest.finish(),
            checks,
        })
    }
}

impl Workload for Ingest {
    fn warm_up(&self) -> Result<(), String> {
        let mut tracer = Tracer::new();
        self.run(&self.epochs[..1], &mut tracer).map(|_| ())
    }

    fn rep(&self, tracer: &mut Tracer) -> Result<RepOutcome, String> {
        self.run(&self.epochs, tracer)
    }

    fn probes(&self, out: &mut Values) -> Result<(), String> {
        out.set("encoding.kmeans_fit.ms", self.world.fit_ms);
        // The synchronous shuffler on one merged batch of this run's reports.
        let shuffler =
            Shuffler::new(ShufflerConfig::new(THRESHOLD)).map_err(fail("Shuffler::new"))?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5F);
        let sample = &self.epochs[0][..SHUFFLER_BATCH.min(self.epochs[0].len())];
        let rounds = 8usize;
        let mut nanos = 0u64;
        for _ in 0..rounds {
            let batch = self.materialise(sample)?;
            let started = Instant::now();
            std::hint::black_box(shuffler.process(batch, &mut rng));
            nanos += started.elapsed().as_nanos() as u64;
        }
        out.set(
            "shuffler.process_sync.ns_per_report",
            nanos as f64 / (rounds * sample.len()) as f64,
        );
        Ok(())
    }
}
