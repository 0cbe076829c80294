//! `matrix_regimes`: the paper's own use of the code. One repetition calls
//! `p2b_experiments::run_cell` for {synthetic Gaussian, Criteo-like} × the
//! five privacy regimes × LinUCB, one after the other. It is the only path
//! through `Shuffler::process`-style flushes inside the harness, randomized
//! response, the tree aggregator and secret sharing.

use crate::metrics::Values;
use crate::trace::{Layer, Tracer};
use crate::workload::{fail, Checks, Counts, Digest, RepOutcome, Scale, Timings, Workload};
use p2b_experiments::{
    run_cell, CellResult, CellSpec, MatrixConfig, PolicyKind, PrivacyRegime, ScenarioKind,
    CENTRAL_SIGMA,
};
use p2b_privacy::{encode_fixed, RandomizedResponse, SecretSharer, TreeAggregator, TreeConfig};
use p2b_shuffler::{splitmix64, EncodedReport, RawReport, Shuffler, ShufflerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SCENARIOS: [ScenarioKind; 2] = [ScenarioKind::SyntheticGaussian, ScenarioKind::CriteoLike];

fn cell_layer(regime: PrivacyRegime) -> Layer {
    match regime {
        PrivacyRegime::NonPrivate => Layer::CellNonPrivate,
        PrivacyRegime::LocalDp => Layer::CellLdp,
        PrivacyRegime::P2bShuffle => Layer::CellP2bShuffle,
        PrivacyRegime::CentralDp => Layer::CellCentralDp,
        PrivacyRegime::SecureAgg => Layer::CellSecureAgg,
    }
}

pub struct Matrix {
    seed: u64,
    config: MatrixConfig,
    warm_up: MatrixConfig,
}

impl Matrix {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let mut config = MatrixConfig::new().with_seed(seed);
        // A pass of under a second, some thirty-five of them in a run: the
        // floor over many short passes repeats better than over few long ones.
        let (users, interactions) = match scale {
            Scale::Full => (2_000, 20),
            Scale::Smoke => (160, 5),
        };
        config.num_users = users;
        config.interactions_per_user = interactions;
        let mut warm_up = config.clone();
        warm_up.num_users = users / 8;
        Self {
            seed,
            config,
            warm_up,
        }
    }

    fn run(&self, config: &MatrixConfig, tracer: &mut Tracer) -> Result<RepOutcome, String> {
        let mut results: Vec<CellResult> = Vec::with_capacity(10);
        let mut op_ns = Vec::with_capacity(10);
        let mut batch_ns = Vec::with_capacity(10);
        let rep_span = tracer.open(Layer::DriverRep, 0);
        for (si, scenario) in SCENARIOS.into_iter().enumerate() {
            for (ri, regime) in PrivacyRegime::ALL.into_iter().enumerate() {
                let cell = (si * PrivacyRegime::ALL.len() + ri) as u64;
                let spec = CellSpec {
                    scenario,
                    regime,
                    policy: PolicyKind::LinUcb,
                    repeat: 0,
                    // One seed per scenario: the five regimes meet the same
                    // environment and users, so rewards compare like for like.
                    seed: splitmix64(self.seed ^ splitmix64(si as u64 + 1)),
                };
                let cell_started = Instant::now();
                let span = tracer.open(cell_layer(regime), cell);
                let result = run_cell(config, spec).map_err(fail("run_cell"))?;
                tracer.close(span);
                let nanos = cell_started.elapsed().as_nanos() as u64;
                batch_ns.push(nanos);
                op_ns.push(nanos / result.rounds.max(1));
                results.push(result);
            }
        }
        tracer.close(rep_span);

        let expected_rounds = config.num_users as u64 * config.interactions_per_user;
        let mut counts = Counts::default();
        let mut checks = Checks::default();
        let mut digest = Digest::new();
        let mut interactions = 0u64;
        for result in &results {
            interactions += result.rounds;
            counts.reports_submitted += result.submitted_reports;
            counts.accepted += result.shared_reports;
            digest.word(result.rounds);
            digest.float(result.final_cumulative_reward);
            digest.float(result.final_cumulative_regret);
            digest.word(result.shared_reports);
            checks.expect(result.rounds == expected_rounds, || {
                format!(
                    "{}/{}: {} interactions, expected {expected_rounds}",
                    result.spec.scenario, result.spec.regime, result.rounds
                )
            });
            checks.expect(result.submitted_reports >= result.shared_reports, || {
                format!(
                    "{}/{}: shared {} of {} submitted reports",
                    result.spec.scenario,
                    result.spec.regime,
                    result.shared_reports,
                    result.submitted_reports
                )
            });
            match result.spec.regime {
                PrivacyRegime::P2bShuffle => {
                    counts.batches += result.batch_guarantees.len() as u64;
                    counts.eps_per_batch = result.epsilon.unwrap_or(0.0);
                    checks.expect(
                        result
                            .epsilon
                            .is_some_and(|e| (e - std::f64::consts::LN_2).abs() < 1e-12),
                        || {
                            format!(
                                "P2B cell claims ε = {:?}, the budget is ln 2",
                                result.epsilon
                            )
                        },
                    );
                    for batch in result.batch_guarantees.iter().filter(|b| b.released > 0) {
                        counts.reports_released += batch.released as u64;
                        counts.delta_per_batch_max = counts.delta_per_batch_max.max(batch.delta);
                        let least = counts.min_released_code_freq;
                        counts.min_released_code_freq = if least == 0 {
                            batch.crowd_size
                        } else {
                            least.min(batch.crowd_size)
                        };
                        checks.expect(batch.crowd_size >= config.shuffler_threshold as u64, || {
                            format!(
                                "a P2B batch released a code with {} < l = {} reports",
                                batch.crowd_size, config.shuffler_threshold
                            )
                        });
                    }
                }
                PrivacyRegime::SecureAgg => {
                    checks.expect(result.epsilon.is_none() && result.delta.is_none(), || {
                        "a secure-aggregation cell claims an (ε, δ)".to_owned()
                    });
                }
                _ => {}
            }
        }
        counts.offered = interactions;
        counts.admitted = interactions;
        counts.reports_thresholded = results
            .iter()
            .filter(|r| r.spec.regime == PrivacyRegime::P2bShuffle)
            .map(|r| r.submitted_reports - r.shared_reports)
            .sum();
        counts.epochs = results.len() as u64;
        for (ri, reward) in counts.regime_reward.iter_mut().enumerate() {
            *reward = results[ri].average_reward;
        }
        let [non_private, ldp, p2b, ..] = counts.regime_reward;
        checks.expect(p2b >= ldp, || {
            format!("synthetic scenario: P2B reward {p2b} < LDP reward {ldp}")
        });
        digest.counts(&counts);

        Ok(RepOutcome {
            // A cell is the pass's segment and its batch alike.
            wall_ns: batch_ns.iter().sum(),
            ops: interactions,
            attempted: interactions,
            timings: Timings {
                segment_ns: batch_ns.clone(),
                op_ns,
                batch_ns,
            },
            utility: p2b / non_private.max(f64::MIN_POSITIVE),
            counts,
            distinct_pairs: 0,
            digest: digest.finish(),
            checks,
        })
    }
}

impl Workload for Matrix {
    fn warm_up(&self) -> Result<(), String> {
        let mut tracer = Tracer::new();
        self.run(&self.warm_up, &mut tracer).map(|_| ())
    }

    fn rep(&self, tracer: &mut Tracer) -> Result<RepOutcome, String> {
        self.run(&self.config, tracer)
    }

    /// Ten cells a repetition: a handful of repetitions support p75, and the
    /// cap keeps a faster machine from silently switching percentile.
    fn tail_cap(&self) -> f64 {
        0.75
    }

    fn probes(&self, out: &mut Values) -> Result<(), String> {
        let config = &self.config;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA11CE);

        let rr = RandomizedResponse::new(config.num_codes, config.ldp_epsilon / 3.0)
            .map_err(fail("RandomizedResponse::new"))?;
        let iterations = 1_000_000usize;
        let started = Instant::now();
        for i in 0..iterations {
            std::hint::black_box(
                rr.randomize(i % config.num_codes, &mut rng)
                    .map_err(fail("randomize"))?,
            );
        }
        out.set(
            "privacy.rr.ns_mean",
            started.elapsed().as_nanos() as f64 / iterations as f64,
        );

        // One arm's statistics stream at the synthetic scenario's shape.
        let d = config.shape.context_dimension;
        let leaf_dim = d * d + d + 1;
        let leaves = 512u64;
        let mut tree = TreeAggregator::new(TreeConfig::new(
            leaf_dim,
            config.num_users as u64,
            CENTRAL_SIGMA,
            self.seed,
        ))
        .map_err(fail("TreeAggregator::new"))?;
        let leaf: Vec<f64> = (0..leaf_dim).map(|_| rng.gen::<f64>()).collect();
        let mut release_ns = 0u64;
        for _ in 0..leaves {
            tree.push(&leaf).map_err(fail("push"))?;
            let started = Instant::now();
            std::hint::black_box(tree.release());
            release_ns += started.elapsed().as_nanos() as u64;
        }
        out.set(
            "privacy.tree_release.us_mean",
            release_ns as f64 / leaves as f64 / 1e3,
        );

        let sharer = SecretSharer::new(self.seed, 2).map_err(fail("SecretSharer::new"))?;
        let value = encode_fixed(0.618).map_err(fail("encode_fixed"))?;
        let mut shares = [0i128; 2];
        let iterations = 2_000_000usize;
        let started = Instant::now();
        for i in 0..iterations {
            sharer
                .split_into(i as u64, i % leaf_dim, value, &mut shares)
                .map_err(fail("split_into"))?;
            std::hint::black_box(&shares);
        }
        out.set(
            "privacy.share_split.ns_per_coord",
            started.elapsed().as_nanos() as f64 / iterations as f64,
        );

        // The synchronous shuffler on flushes the size the harness makes.
        let shuffler = Shuffler::new(ShufflerConfig::new(config.shuffler_threshold))
            .map_err(fail("Shuffler::new"))?;
        let flushes = 2_000usize;
        let mut nanos = 0u64;
        for flush in 0..flushes {
            let batch: Vec<RawReport> = (0..config.flush_every_reports)
                .map(|i| {
                    let payload = EncodedReport::new(
                        rng.gen_range(0..config.num_codes),
                        rng.gen_range(0..config.shape.num_actions),
                        1.0,
                    )
                    .map_err(fail("EncodedReport::new"))?;
                    Ok(RawReport::new(format!("user-{}", flush * 64 + i), payload))
                })
                .collect::<Result<_, String>>()?;
            let started = Instant::now();
            std::hint::black_box(shuffler.process(batch, &mut rng));
            nanos += started.elapsed().as_nanos() as u64;
        }
        out.set(
            "shuffler.process_sync.ns_per_report",
            nanos as f64 / (flushes * config.flush_every_reports) as f64,
        );
        Ok(())
    }
}
