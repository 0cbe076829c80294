//! Sign-random-projection (SimHash) LSH encoder.

use crate::encoder::{check_code, check_context};
use crate::{ContextCode, Encoder, EncoderStats, EncodingError};
use p2b_linalg::{Matrix, Vector};
use rand_distr_shim::sample_standard_normal;

/// Configuration of an [`LshEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshConfig {
    /// Context dimension `d`.
    pub dimension: usize,
    /// Number of random hyperplanes; the code space has `2^num_bits` codes.
    pub num_bits: u32,
}

impl LshConfig {
    /// Creates a configuration with the given dimension and bit count.
    #[must_use]
    pub fn new(dimension: usize, num_bits: u32) -> Self {
        Self {
            dimension,
            num_bits,
        }
    }

    fn validate(&self) -> Result<(), EncodingError> {
        if self.dimension == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_bits == 0 || self.num_bits > 20 {
            return Err(EncodingError::InvalidConfig {
                parameter: "num_bits",
                message: format!("must be between 1 and 20, got {}", self.num_bits),
            });
        }
        Ok(())
    }
}

/// Locality-sensitive-hashing encoder based on sign random projections.
///
/// The paper cites LSH-based personalization (Aghasaryan et al. 2013) as an
/// alternative distance-preserving encoding and lists the study of further
/// encoders as future work; this encoder realizes that option. Each of the
/// `b` random hyperplanes contributes one bit (`sign(w·(x − μ))`), so nearby
/// contexts collide with high probability while the code space has `2^b`
/// entries.
#[derive(Debug, Clone)]
pub struct LshEncoder {
    projections: Matrix,
    center: Vector,
    config: LshConfig,
    stats: EncoderStats,
    representatives: Vec<Vector>,
}

impl LshEncoder {
    /// Fits an LSH encoder: random hyperplanes are drawn from a standard
    /// Gaussian, the corpus (if non-empty) is used to center the projections
    /// and to estimate cluster statistics and per-code representatives.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::InvalidConfig`] for invalid configurations,
    /// [`EncodingError::DimensionMismatch`] for ragged corpora and
    /// [`EncodingError::NonFiniteContext`] for a NaN or infinite coordinate.
    pub fn fit<R: rand::Rng + ?Sized>(
        corpus: &[Vector],
        config: LshConfig,
        rng: &mut R,
    ) -> Result<Self, EncodingError> {
        config.validate()?;
        for sample in corpus {
            check_context(config.dimension, sample)?;
        }

        // Center of the corpus (or the uniform simplex point when empty):
        // centering makes the hyperplanes cut through the populated region.
        let center = if corpus.is_empty() {
            Vector::filled(config.dimension, 1.0 / config.dimension as f64)
        } else {
            let mut sum = Vector::zeros(config.dimension);
            for sample in corpus {
                sum.axpy(1.0, sample)?;
            }
            sum.scaled(1.0 / corpus.len() as f64)
        };

        let mut projection_rows = Vec::with_capacity(config.num_bits as usize);
        for _ in 0..config.num_bits {
            let row: Vec<f64> = (0..config.dimension)
                .map(|_| sample_standard_normal(rng))
                .collect();
            projection_rows.push(row);
        }
        let projections = Matrix::from_rows(&projection_rows)?;

        let num_codes = 1usize << config.num_bits;
        let mut encoder = Self {
            projections,
            center,
            config,
            stats: EncoderStats::from_assignments(num_codes, &[], &[]),
            representatives: vec![
                Vector::filled(config.dimension, 1.0 / config.dimension as f64);
                num_codes
            ],
        };

        if !corpus.is_empty() {
            let mut assignments = Vec::with_capacity(corpus.len());
            let mut sums = vec![Vector::zeros(config.dimension); num_codes];
            let mut counts = vec![0usize; num_codes];
            for sample in corpus {
                let code = encoder.hash(sample)?;
                assignments.push(code);
                sums[code].axpy(1.0, sample)?;
                counts[code] += 1;
            }
            for code in 0..num_codes {
                if counts[code] > 0 {
                    encoder.representatives[code] = sums[code].scaled(1.0 / counts[code] as f64);
                }
            }
            let distortions: Vec<f64> = corpus
                .iter()
                .zip(assignments.iter())
                .map(|(sample, &code)| {
                    encoder.representatives[code]
                        .squared_distance(sample)
                        .unwrap_or(0.0)
                })
                .collect();
            encoder.stats = EncoderStats::from_assignments(num_codes, &assignments, &distortions);
        }

        Ok(encoder)
    }

    fn hash(&self, context: &Vector) -> Result<usize, EncodingError> {
        let centered = context.sub(&self.center)?;
        let projected = self.projections.matvec(&centered)?;
        let mut code = 0usize;
        for (bit, &value) in projected.iter().enumerate() {
            if value >= 0.0 {
                code |= 1 << bit;
            }
        }
        Ok(code)
    }
}

impl Encoder for LshEncoder {
    fn num_codes(&self) -> usize {
        1usize << self.config.num_bits
    }

    fn context_dimension(&self) -> usize {
        self.config.dimension
    }

    fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError> {
        check_context(self.config.dimension, context)?;
        Ok(ContextCode::new(self.hash(context)?))
    }

    fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError> {
        check_code(self.num_codes(), code)?;
        Ok(self.representatives[code.value()].clone())
    }

    fn stats(&self) -> &EncoderStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "lsh"
    }
}

/// Tiny shim around a Box–Muller transform so this module does not need the
/// `rand_distr` crate (the encoding crate keeps its dependency set minimal).
mod rand_distr_shim {
    /// Samples a standard normal deviate via the Box–Muller transform.
    pub fn sample_standard_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(rng: &mut StdRng) -> Vec<Vector> {
        (0..200)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0 + rng.gen_range(-0.1..0.1);
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect()
    }

    #[test]
    fn rejects_invalid_configurations() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(LshEncoder::fit(&[], LshConfig::new(0, 3), &mut rng).is_err());
        assert!(LshEncoder::fit(&[], LshConfig::new(3, 0), &mut rng).is_err());
        assert!(LshEncoder::fit(&[], LshConfig::new(3, 25), &mut rng).is_err());
    }

    #[test]
    fn code_space_size_is_two_to_the_bits() {
        let mut rng = StdRng::seed_from_u64(1);
        let encoder = LshEncoder::fit(&[], LshConfig::new(4, 5), &mut rng).unwrap();
        assert_eq!(encoder.num_codes(), 32);
    }

    #[test]
    fn identical_contexts_collide_and_codes_are_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = corpus(&mut rng);
        let encoder = LshEncoder::fit(&data, LshConfig::new(4, 4), &mut rng).unwrap();
        for x in &data {
            let a = encoder.encode(x).unwrap();
            assert_eq!(a, encoder.encode(x).unwrap());
            assert!(a.value() < 16);
        }
    }

    #[test]
    fn nearby_contexts_usually_collide() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = corpus(&mut rng);
        let encoder = LshEncoder::fit(&data, LshConfig::new(4, 3), &mut rng).unwrap();
        let base = Vector::from(vec![0.7, 0.1, 0.1, 0.1]);
        let near = Vector::from(vec![0.69, 0.11, 0.1, 0.1]);
        // Sign-LSH is probabilistic, but for such close points with 3 bits a
        // collision is overwhelmingly likely under any seed that reaches here.
        assert_eq!(
            encoder.encode(&base).unwrap(),
            encoder.encode(&near).unwrap()
        );
    }

    #[test]
    fn distant_corpus_clusters_split_across_codes() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = corpus(&mut rng);
        let encoder = LshEncoder::fit(&data, LshConfig::new(4, 6), &mut rng).unwrap();
        let distinct: std::collections::HashSet<_> = data
            .iter()
            .map(|x| encoder.encode(x).unwrap().value())
            .collect();
        assert!(distinct.len() >= 3, "only {distinct:?} codes used");
    }

    #[test]
    fn representative_validates_code_and_has_right_dimension() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = corpus(&mut rng);
        let encoder = LshEncoder::fit(&data, LshConfig::new(4, 3), &mut rng).unwrap();
        assert_eq!(
            encoder.representative(ContextCode::new(0)).unwrap().len(),
            4
        );
        assert!(encoder.representative(ContextCode::new(8)).is_err());
    }

    #[test]
    fn stats_count_every_sample() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = corpus(&mut rng);
        let encoder = LshEncoder::fit(&data, LshConfig::new(4, 4), &mut rng).unwrap();
        assert_eq!(
            encoder.stats().cluster_sizes.iter().sum::<usize>(),
            data.len()
        );
    }
}
