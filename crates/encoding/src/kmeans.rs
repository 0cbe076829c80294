//! Mini-batch k-means encoder (Sculley 2010).

use crate::encoder::{check_code, check_context};
use crate::{ContextCode, Encoder, EncoderStats, EncodingError};
use p2b_linalg::Vector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`KMeansEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters / codes `k`.
    pub num_codes: usize,
    /// Mini-batch size per iteration (Sculley 2010 uses small batches; the
    /// whole corpus is used when it is smaller than the batch).
    pub batch_size: usize,
    /// Number of mini-batch iterations.
    pub iterations: usize,
    /// Convergence tolerance on the mean centroid movement per iteration.
    pub tolerance: f64,
}

impl KMeansConfig {
    /// Creates a configuration with `num_codes` clusters and the defaults
    /// `batch_size = 256`, `iterations = 100`, `tolerance = 1e-6`.
    #[must_use]
    pub fn new(num_codes: usize) -> Self {
        Self {
            num_codes,
            batch_size: 256,
            iterations: 100,
            tolerance: 1e-6,
        }
    }

    /// Sets the mini-batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the number of iterations.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    fn validate(&self) -> Result<(), EncodingError> {
        if self.num_codes == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "num_codes",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.batch_size == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "batch_size",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.iterations == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "iterations",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "tolerance",
                message: format!(
                    "must be a finite non-negative number, got {}",
                    self.tolerance
                ),
            });
        }
        Ok(())
    }
}

/// Mini-batch k-means context encoder.
///
/// This is the encoder the paper evaluates: contexts are clustered with
/// web-scale (mini-batch) k-means and each cluster index becomes a context
/// code. Encoding a fresh context is a nearest-centroid lookup whose worst
/// case is the `O(k·d)` the paper quotes for on-device inference; a context
/// that lies close to some centroid relative to the spacing between centroids
/// — what an encoder fitted on the population it serves sees — costs little
/// more than a quarter of that at `d = 16`, because nearly every centroid is
/// ruled out after its first four dimensions (`CentroidIndex` in this
/// module). The code returned is always the one the plain scan returns: the
/// lowest index among the nearest centroids.
///
/// The encoder is fitted once on a training corpus; [`KMeansEncoder::stats`]
/// then reports the minimum cluster size, which the privacy analysis uses as
/// the crowd-blending parameter `l`.
#[derive(Debug, Clone)]
pub struct KMeansEncoder {
    /// What `centroids()` and `representative()` hand out.
    centroids: Vec<Vector>,
    /// The same centroids, laid out for the scan.
    index: CentroidIndex,
    stats: EncoderStats,
}

impl KMeansEncoder {
    /// Fits the encoder on a corpus of context vectors.
    ///
    /// Initialization uses k-means++ seeding (Arthur & Vassilvitskii 2007):
    /// the first centroid is a uniform sample and each further centroid is
    /// drawn with probability proportional to its squared distance from the
    /// nearest centroid chosen so far, which makes well-separated clusters
    /// recoverable regardless of the seed. Mini-batch updates follow
    /// Sculley (2010): each centroid moves towards assigned batch points
    /// with a per-centroid learning rate `1/count`.
    ///
    /// # Errors
    ///
    /// * [`EncodingError::InvalidConfig`] for invalid configurations.
    /// * [`EncodingError::InsufficientData`] if the corpus has fewer samples
    ///   than clusters.
    /// * [`EncodingError::DimensionMismatch`] if corpus vectors have unequal
    ///   dimensions.
    /// * [`EncodingError::NonFiniteContext`] if a corpus vector has a NaN or
    ///   infinite coordinate.
    pub fn fit<R: Rng + ?Sized>(
        corpus: &[Vector],
        config: KMeansConfig,
        rng: &mut R,
    ) -> Result<Self, EncodingError> {
        config.validate()?;
        if corpus.len() < config.num_codes {
            return Err(EncodingError::InsufficientData {
                samples: corpus.len(),
                required: config.num_codes,
            });
        }
        let dimension = corpus[0].len();
        for sample in corpus {
            check_context(dimension, sample)?;
        }

        // k-means++ initialization: spread the seeds out so a generating
        // cluster is never left without a centroid merely because of an
        // unlucky uniform draw.
        let mut centroids: Vec<Vector> = vec![corpus[rng.gen_range(0..corpus.len())].clone()];
        let mut nearest_sq = Vec::with_capacity(corpus.len());
        for sample in corpus {
            nearest_sq.push(centroids[0].squared_distance(sample)?);
        }
        while centroids.len() < config.num_codes {
            let total: f64 = nearest_sq.iter().sum();
            let chosen = if total > 0.0 {
                // Inverse-CDF sample proportional to squared distance.
                // Zero-weight samples (already-chosen centroids) are never
                // eligible, so a duplicate centroid — and with it an empty
                // cluster reporting min_cluster_size 0 to the privacy layer
                // — cannot be produced by a 0.0 draw or rounding residue.
                let mut remaining = rng.gen::<f64>() * total;
                let mut chosen = None;
                for (i, &weight) in nearest_sq.iter().enumerate() {
                    if weight <= 0.0 {
                        continue;
                    }
                    remaining -= weight;
                    if remaining <= 0.0 {
                        chosen = Some(i);
                        break;
                    }
                }
                match chosen {
                    Some(chosen) => chosen,
                    // Rounding left a residue: take the heaviest sample
                    // (there is one: the corpus is not empty).
                    None => nearest_sq
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .ok_or(EncodingError::InsufficientData {
                            samples: corpus.len(),
                            required: config.num_codes,
                        })?,
                }
            } else {
                // All samples coincide with a centroid; any pick works.
                rng.gen_range(0..corpus.len())
            };
            let centroid = corpus[chosen].clone();
            for (sample, nearest) in corpus.iter().zip(nearest_sq.iter_mut()) {
                *nearest = min_with_distance(*nearest, centroid.as_slice(), sample.as_slice());
            }
            centroids.push(centroid);
        }
        let mut index = CentroidIndex::new(&centroids, dimension);
        let mut counts = vec![0u64; config.num_codes];

        for _ in 0..config.iterations {
            // Sample a mini-batch (with replacement when the corpus is large,
            // the whole corpus otherwise).
            let batch: Vec<&Vector> = if corpus.len() <= config.batch_size {
                corpus.iter().collect()
            } else {
                (0..config.batch_size)
                    .map(|_| &corpus[rng.gen_range(0..corpus.len())])
                    .collect()
            };

            // Assign then update with per-centroid learning rates.
            let mut movement = 0.0;
            for sample in batch {
                let best = index.nearest(sample.as_slice()).index;
                counts[best] += 1;
                let rate = 1.0 / counts[best] as f64;
                let old = centroids[best].clone();
                // centroid += rate * (sample - centroid)
                let delta = sample.sub(&centroids[best])?;
                centroids[best].axpy(rate, &delta)?;
                movement += centroids[best].squared_distance(&old)?.sqrt();
                index.set(best, &centroids[best]);
            }
            if movement / config.num_codes as f64 <= config.tolerance {
                break;
            }
        }

        // Final full assignment for the statistics.
        let mut assignments = Vec::with_capacity(corpus.len());
        let mut distortions = Vec::with_capacity(corpus.len());
        for sample in corpus {
            let nearest = index.nearest(sample.as_slice());
            assignments.push(nearest.index);
            distortions.push(nearest.distance);
        }
        let stats = EncoderStats::from_assignments(config.num_codes, &assignments, &distortions);

        Ok(Self {
            centroids,
            index,
            stats,
        })
    }

    /// The fitted cluster centroids, one per code.
    #[must_use]
    pub fn centroids(&self) -> &[Vector] {
        &self.centroids
    }
}

/// Centroids scanned side by side: the width of a block of the index.
const LANES: usize = 8;

/// Dimensions summed for every centroid before any is ruled out.
const PREFIX: usize = 4;

/// Blocks one scan keeps partial sums for (1 024 centroids). A larger code
/// space is scanned span after span, each bounded by the best of those before.
const SPAN: usize = 128;

/// The scratch of a scan lives on the stack and is zeroed on entry; zeroing
/// `SPAN` blocks of it adds a third to the scan of a 16-block index (k = 128:
/// 240 ns to 330 ns). Spans no longer than this take a scratch this long.
const SHORT_SPAN: usize = 16;

/// Adds `(c − x_j)²` to the running sum of every lane, dimension after
/// dimension: per lane this is the floating-point sequence of
/// `Vector::squared_distance`, for `LANES` centroids at once. Which zero a sum
/// starts from (`Iterator::sum`'s has changed sign between Rust releases)
/// cannot show once one term is in: a square is never `-0.0`.
#[inline(always)]
fn accumulate(mut sums: [f64; LANES], rows: &[f64], x: &[f64]) -> [f64; LANES] {
    for (row, &xj) in rows.chunks_exact(LANES).zip(x) {
        for (sum, &c) in sums.iter_mut().zip(row) {
            let diff = c - xj;
            *sum += diff * diff;
        }
    }
    sums
}

/// The least of the sums that is not NaN, or +∞ when all are: a lower bound
/// on every distance its block can still finish with a chance of winning.
/// Two running minima, one per lane of a vector register, keep the reduction
/// out of a serial chain of eight compares; starting them at +∞ and only ever
/// replacing them by something smaller is what keeps a NaN out.
#[inline(always)]
fn least(sums: &[f64; LANES]) -> f64 {
    let mut low = [f64::INFINITY; 2];
    for pair in sums.chunks_exact(2) {
        for (low, &sum) in low.iter_mut().zip(pair) {
            if sum < *low {
                *low = sum;
            }
        }
    }
    if low[1] < low[0] {
        low[1]
    } else {
        low[0]
    }
}

/// `bound.min(‖a − b‖²)`, bit for bit, giving up on the distance once it can
/// no longer be below `bound`: the terms are non-negative and added in
/// order, so under round-to-nearest no partial sum exceeds the finished one.
fn min_with_distance(bound: f64, a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (a, b) in a.chunks(PREFIX).zip(b.chunks(PREFIX)) {
        for (a, b) in a.iter().zip(b) {
            sum += (a - b) * (a - b);
        }
        if sum >= bound {
            return bound;
        }
    }
    bound.min(sum)
}

/// The answer of one scan of a [`CentroidIndex`].
#[derive(Debug)]
struct Nearest {
    /// The lowest index among the centroids at the least distance; 0 when no
    /// distance is below +∞ (all NaN, or all overflowed).
    index: usize,
    /// That centroid's squared distance, or +∞.
    distance: f64,
    /// `(c − x_j)²` terms computed, padding lanes included: the
    /// machine-independent cost of the scan, between `PREFIX / d` of the
    /// index and all of it, and never more because no term is computed twice.
    evaluations: usize,
}

/// The centroids in blocks of [`LANES`], dimension-major inside a block —
/// coordinate `j` of centroid `i` is at
/// `((i / LANES) · d + j) · LANES + i % LANES` — so that the innermost loop of
/// a scan runs over `LANES` centroids at one dimension and vectorises without
/// reordering any centroid's own sum. Lanes past the last centroid hold +∞
/// and are therefore never nearest.
///
/// [`CentroidIndex::nearest`] returns what the scalar scan over
/// `Vec<Vector>` returns (the test-only `oracle`), index and distance bits,
/// while finishing the sum of only the few centroids a [`PREFIX`]-dimension
/// partial sum cannot rule out.
#[derive(Debug, Clone)]
struct CentroidIndex {
    lanes: Vec<f64>,
    dimension: usize,
    blocks: usize,
}

impl CentroidIndex {
    fn new(centroids: &[Vector], dimension: usize) -> Self {
        let blocks = centroids.len().div_ceil(LANES);
        let mut index = Self {
            lanes: vec![f64::INFINITY; blocks * dimension * LANES],
            dimension,
            blocks,
        };
        for (i, centroid) in centroids.iter().enumerate() {
            index.set(i, centroid);
        }
        index
    }

    /// Replaces centroid `i`.
    fn set(&mut self, i: usize, centroid: &Vector) {
        let first = (i / LANES) * self.dimension * LANES + i % LANES;
        let slots = self.lanes.iter_mut().skip(first).step_by(LANES);
        for (slot, &c) in slots.zip(centroid.iter()) {
            *slot = c;
        }
    }

    /// The centroid nearest to `x`, which has the index's dimension.
    fn nearest(&self, x: &[f64]) -> Nearest {
        debug_assert_eq!(x.len(), self.dimension);
        // Not from the first centroid scanned: a NaN or +∞ distance must lose
        // to this start exactly as it loses the oracle's `dist < best`.
        let mut nearest = Nearest {
            index: 0,
            distance: f64::INFINITY,
            evaluations: 0,
        };
        let mut first = 0;
        while first < self.blocks {
            let count = (self.blocks - first).min(SPAN);
            if count <= SHORT_SPAN {
                self.scan::<SHORT_SPAN>(first, count, x, &mut nearest);
            } else {
                self.scan::<SPAN>(first, count, x, &mut nearest);
            }
            first += count;
        }
        nearest
    }

    /// Scans blocks `first..first + count` (`count <= N`), improving `best`.
    fn scan<const N: usize>(&self, first: usize, count: usize, x: &[f64], best: &mut Nearest) {
        let stride = self.dimension * LANES;
        let prefix = PREFIX.min(self.dimension);
        let (x_prefix, x_rest) = x.split_at(prefix);
        let block = |b: usize| &self.lanes[(first + b) * stride..][..stride];

        // Pass 1: the prefix of every centroid, and the least of each block.
        let mut partial = [[0.0f64; LANES]; N];
        let mut lows = [f64::INFINITY; N];
        let mut seed = 0;
        for b in 0..count {
            let sums = accumulate([0.0; LANES], &block(b)[..prefix * LANES], x_prefix);
            partial[b] = sums;
            lows[b] = least(&sums);
            if lows[b] < lows[seed] {
                seed = b;
            }
        }
        best.evaluations += count * prefix * LANES;

        // Finishing a block carries its stored partial sums on through the
        // remaining dimensions: the same additions in the same order as a
        // sum never interrupted. The tie rule makes the result the lowest
        // index among the minima in whatever order blocks are finished.
        let finish = |b: usize, best: &mut Nearest| {
            let sums = accumulate(partial[b], &block(b)[prefix * LANES..], x_rest);
            if least(&sums) <= best.distance {
                for (lane, &distance) in sums.iter().enumerate() {
                    let index = (first + b) * LANES + lane;
                    if distance < best.distance || (distance == best.distance && index < best.index)
                    {
                        best.index = index;
                        best.distance = distance;
                    }
                }
            }
            best.evaluations += x_rest.len() * LANES;
        };

        // The block with the least prefix first: for a context near a
        // centroid it almost always holds the answer, and the bound it sets
        // rules out nearly every other block.
        finish(seed, best);
        // Pass 2: a block is skipped when even its least partial sum already
        // exceeds the best finished distance. No finished sum is below its
        // own partial sum, so nothing in the block could pass `dist < best`;
        // an equal partial sum may still tie at a lower index and is kept.
        for (b, &low) in lows.iter().enumerate().take(count) {
            if b != seed && low <= best.distance {
                finish(b, best);
            }
        }
    }
}

impl Encoder for KMeansEncoder {
    fn num_codes(&self) -> usize {
        self.centroids.len()
    }

    fn context_dimension(&self) -> usize {
        self.index.dimension
    }

    fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError> {
        check_context(self.index.dimension, context)?;
        Ok(ContextCode::new(
            self.index.nearest(context.as_slice()).index,
        ))
    }

    fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError> {
        check_code(self.centroids.len(), code)?;
        Ok(self.centroids[code.value()].clone())
    }

    fn stats(&self) -> &EncoderStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "kmeans"
    }
}

#[cfg(test)]
mod encode_agreement;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a corpus with `clusters` well-separated groups on the simplex.
    fn clustered_corpus(clusters: usize, per_cluster: usize, rng: &mut StdRng) -> Vec<Vector> {
        let mut corpus = Vec::new();
        for c in 0..clusters {
            for _ in 0..per_cluster {
                let mut v = vec![0.05; clusters];
                v[c] = 1.0 + rng.gen_range(-0.05..0.05);
                corpus.push(Vector::from(v).normalized_l1().unwrap());
            }
        }
        corpus
    }

    #[test]
    fn rejects_invalid_configurations() {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus = vec![Vector::from(vec![1.0, 0.0]); 10];
        assert!(KMeansEncoder::fit(&corpus, KMeansConfig::new(0), &mut rng).is_err());
        assert!(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(2).with_batch_size(0), &mut rng).is_err()
        );
        assert!(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(2).with_iterations(0), &mut rng).is_err()
        );
    }

    #[test]
    fn rejects_insufficient_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus = vec![Vector::from(vec![1.0, 0.0]); 3];
        assert!(matches!(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(8), &mut rng),
            Err(EncodingError::InsufficientData { .. })
        ));
    }

    #[test]
    fn rejects_ragged_corpus() {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(2), &mut rng),
            Err(EncodingError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let mut rng = StdRng::seed_from_u64(42);
        let corpus = clustered_corpus(4, 50, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap();

        // Samples from the same generating cluster should map to the same code,
        // and different clusters to different codes.
        let codes: Vec<usize> = corpus
            .iter()
            .map(|x| encoder.encode(x).unwrap().value())
            .collect();
        for c in 0..4 {
            let group = &codes[c * 50..(c + 1) * 50];
            let first = group[0];
            assert!(
                group.iter().filter(|&&g| g == first).count() >= 45,
                "cluster {c} fragmented: {group:?}"
            );
        }
        let distinct: std::collections::HashSet<_> = (0..4).map(|c| codes[c * 50]).collect();
        assert_eq!(distinct.len(), 4, "clusters collapsed");
    }

    #[test]
    fn stats_reflect_cluster_structure() {
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = clustered_corpus(3, 30, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(3), &mut rng).unwrap();
        let stats = encoder.stats();
        assert_eq!(stats.num_codes, 3);
        assert_eq!(stats.cluster_sizes.iter().sum::<usize>(), 90);
        assert!(stats.min_cluster_size >= 25, "stats = {stats:?}");
        assert!(stats.mean_distortion < 0.05);
    }

    #[test]
    fn encode_is_deterministic_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = clustered_corpus(5, 20, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(5), &mut rng).unwrap();
        for x in &corpus {
            let a = encoder.encode(x).unwrap();
            let b = encoder.encode(x).unwrap();
            assert_eq!(a, b);
            assert!(a.value() < 5);
        }
    }

    #[test]
    fn representative_is_centroid_and_validates_code() {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = clustered_corpus(2, 20, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(2), &mut rng).unwrap();
        let rep = encoder.representative(ContextCode::new(1)).unwrap();
        assert_eq!(rep.len(), encoder.context_dimension());
        assert!(encoder.representative(ContextCode::new(2)).is_err());
    }

    #[test]
    fn encode_rejects_wrong_dimension() {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = clustered_corpus(2, 20, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(2), &mut rng).unwrap();
        assert!(encoder.encode(&Vector::zeros(7)).is_err());
    }

    #[test]
    fn single_cluster_degenerates_gracefully() {
        let mut rng = StdRng::seed_from_u64(11);
        let corpus = clustered_corpus(3, 10, &mut rng);
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(1), &mut rng).unwrap();
        assert_eq!(encoder.num_codes(), 1);
        for x in &corpus {
            assert_eq!(encoder.encode(x).unwrap().value(), 0);
        }
        assert_eq!(encoder.stats().min_cluster_size, 30);
    }
}
