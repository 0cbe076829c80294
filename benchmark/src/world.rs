//! The planted world the serve workloads and `ingest_bulk` draw from: one raw
//! context per code, a k-means encoder fitted on jittered copies of them, and
//! a linear reward model, all made from the run's seeded generator.

use crate::workload::fail;
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

pub struct World {
    pub actions: usize,
    /// One raw context per code.
    pub contexts: Vec<Vector>,
    pub encoder: Arc<dyn Encoder>,
    /// Expected reward of action `a` on code `c` at `c * actions + a`.
    expected: Vec<f64>,
    /// Best expected reward per code.
    best: Vec<f64>,
    /// What fitting the encoder took.
    pub fit_ms: f64,
}

/// A point of the simplex near `centre` (or, with none, a random one with a
/// few dominant coordinates).
fn simplex_point(
    dimension: usize,
    centre: Option<&Vector>,
    rng: &mut StdRng,
) -> Result<Vector, String> {
    let raw: Vec<f64> = match centre {
        Some(centre) => centre
            .iter()
            .map(|x| x * (1.0 + 0.1 * (rng.gen::<f64>() - 0.5)))
            .collect(),
        None => (0..dimension)
            .map(|_| 0.02 + rng.gen::<f64>().powi(4))
            .collect(),
    };
    Vector::from(raw)
        .normalized_l1()
        .map_err(fail("normalized_l1"))
}

impl World {
    pub fn new(
        codes: usize,
        dimension: usize,
        actions: usize,
        rng: &mut StdRng,
    ) -> Result<Self, String> {
        let contexts = (0..codes)
            .map(|_| simplex_point(dimension, None, rng))
            .collect::<Result<Vec<_>, _>>()?;

        // Eight jittered samples of every code's context fit the encoder.
        let mut corpus = Vec::with_capacity(codes * 8);
        for context in &contexts {
            for _ in 0..8 {
                corpus.push(simplex_point(dimension, Some(context), rng)?);
            }
        }
        let fit_started = Instant::now();
        let encoder =
            KMeansEncoder::fit(&corpus, KMeansConfig::new(codes).with_iterations(10), rng)
                .map_err(fail("KMeansEncoder::fit"))?;
        let fit_ms = fit_started.elapsed().as_secs_f64() * 1e3;

        // The reward model: each action likes three context coordinates.
        let liked: Vec<[usize; 3]> = (0..actions)
            .map(|_| [(); 3].map(|()| rng.gen_range(0..dimension)))
            .collect();
        let mut expected = Vec::with_capacity(codes * actions);
        let mut best = Vec::with_capacity(codes);
        for context in &contexts {
            let x = context.as_slice();
            let row = liked.iter().map(|dims| {
                let affinity: f64 = dims.iter().map(|&d| x[d]).sum();
                0.05 + 0.9 * affinity.min(1.0)
            });
            let start = expected.len();
            expected.extend(row);
            best.push(expected[start..].iter().copied().fold(0.0, f64::max));
        }

        Ok(Self {
            actions,
            contexts,
            encoder: Arc::new(encoder),
            expected,
            best,
            fit_ms,
        })
    }

    /// Probability that `action` on `code` pays.
    pub fn expected(&self, code: usize, action: usize) -> f64 {
        self.expected[code * self.actions + action]
    }

    /// The most any action on `code` is expected to pay.
    pub fn best(&self, code: usize) -> f64 {
        self.best[code]
    }
}
