//! Uniform grid encoder: quantize, then hash the grid cell to a code.

use crate::encoder::{check_code, check_context};
use crate::{ContextCode, Encoder, EncoderStats, EncodingError, Quantizer};
use p2b_linalg::Vector;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A deterministic, fit-free encoder that quantizes the context to the
/// fixed-precision grid and hashes the grid cell into `k` buckets.
///
/// Unlike [`crate::KMeansEncoder`] the grid encoder needs no training corpus,
/// which makes it useful as (a) the "optimal encoder" stand-in when contexts
/// are uniformly distributed over the simplex (every code then covers roughly
/// `n/k` grid points, the assumption behind `l = U/k` in Section 4) and
/// (b) an ablation of the clustering step.
#[derive(Debug, Clone)]
pub struct GridEncoder {
    quantizer: Quantizer,
    num_codes: usize,
    dimension: usize,
    stats: EncoderStats,
    /// Representative contexts per code, populated lazily from observed data
    /// at fit time (uniform corpus) so `representative` has something
    /// meaningful to return.
    representatives: Vec<Vector>,
}

impl GridEncoder {
    /// Creates a grid encoder for `dimension`-dimensional contexts with
    /// `num_codes` hash buckets at quantization precision `precision`.
    ///
    /// A synthetic corpus of `samples_per_code * num_codes` uniformly random
    /// simplex points is used to estimate cluster sizes and representatives.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::InvalidConfig`] for zero dimension or codes
    /// and propagates quantizer construction errors.
    pub fn new<R: rand::Rng + ?Sized>(
        dimension: usize,
        num_codes: usize,
        precision: u32,
        rng: &mut R,
    ) -> Result<Self, EncodingError> {
        if dimension == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if num_codes == 0 {
            return Err(EncodingError::InvalidConfig {
                parameter: "num_codes",
                message: "must be at least 1".to_owned(),
            });
        }
        let quantizer = Quantizer::new(precision)?;

        let samples_per_code = 32usize;
        let total = samples_per_code * num_codes;
        let mut assignments = Vec::with_capacity(total);
        let mut representatives: Vec<Option<Vector>> = vec![None; num_codes];
        let mut sums: Vec<Vector> = vec![Vector::zeros(dimension); num_codes];
        let mut counts = vec![0usize; num_codes];

        for _ in 0..total {
            // Uniform point on the simplex via normalized exponentials.
            let raw: Vec<f64> = (0..dimension)
                .map(|_| -(rng.gen::<f64>().max(1e-12)).ln())
                .collect();
            let point = Vector::from(raw).normalized_l1()?;
            let code = Self::hash_code(&quantizer, num_codes, &point)?;
            assignments.push(code);
            sums[code].axpy(1.0, &point)?;
            counts[code] += 1;
            if representatives[code].is_none() {
                representatives[code] = Some(quantizer.round(&point)?);
            }
        }

        let representatives: Vec<Vector> = (0..num_codes)
            .map(|c| {
                if counts[c] > 0 {
                    sums[c].scaled(1.0 / counts[c] as f64)
                } else {
                    Vector::filled(dimension, 1.0 / dimension as f64)
                }
            })
            .collect();

        let distortions = vec![0.0; assignments.len()];
        let stats = EncoderStats::from_assignments(num_codes, &assignments, &distortions);
        Ok(Self {
            quantizer,
            num_codes,
            dimension,
            stats,
            representatives,
        })
    }

    /// The quantizer used before hashing.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    fn hash_code(
        quantizer: &Quantizer,
        num_codes: usize,
        context: &Vector,
    ) -> Result<usize, EncodingError> {
        let quantized = quantizer.quantize(context)?;
        let mut hasher = DefaultHasher::new();
        quantized.units().hash(&mut hasher);
        Ok((hasher.finish() % num_codes as u64) as usize)
    }
}

impl Encoder for GridEncoder {
    fn num_codes(&self) -> usize {
        self.num_codes
    }

    fn context_dimension(&self) -> usize {
        self.dimension
    }

    fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError> {
        check_context(self.dimension, context)?;
        Ok(ContextCode::new(Self::hash_code(
            &self.quantizer,
            self.num_codes,
            context,
        )?))
    }

    fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError> {
        check_code(self.num_codes, code)?;
        Ok(self.representatives[code.value()].clone())
    }

    fn stats(&self) -> &EncoderStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(GridEncoder::new(0, 4, 1, &mut rng).is_err());
        assert!(GridEncoder::new(3, 0, 1, &mut rng).is_err());
        assert!(GridEncoder::new(3, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn same_grid_cell_maps_to_same_code() {
        let mut rng = StdRng::seed_from_u64(1);
        let encoder = GridEncoder::new(3, 8, 1, &mut rng).unwrap();
        // Both contexts quantize to (0.3, 0.3, 0.4) at q = 1.
        let a = Vector::from(vec![0.31, 0.29, 0.40]);
        let b = Vector::from(vec![0.29, 0.32, 0.39]);
        assert_eq!(encoder.encode(&a).unwrap(), encoder.encode(&b).unwrap());
    }

    #[test]
    fn codes_are_in_range_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let encoder = GridEncoder::new(4, 16, 1, &mut rng).unwrap();
        for i in 0..50 {
            let ctx = Vector::from(vec![i as f64, 1.0, 2.0, 3.0])
                .normalized_l1()
                .unwrap();
            let code = encoder.encode(&ctx).unwrap();
            assert!(code.value() < 16);
            assert_eq!(code, encoder.encode(&ctx).unwrap());
        }
    }

    #[test]
    fn representatives_are_valid_contexts() {
        let mut rng = StdRng::seed_from_u64(3);
        let encoder = GridEncoder::new(3, 6, 1, &mut rng).unwrap();
        for c in 0..6 {
            let rep = encoder.representative(ContextCode::new(c)).unwrap();
            assert_eq!(rep.len(), 3);
            assert!((rep.sum() - 1.0).abs() < 1e-6);
        }
        assert!(encoder.representative(ContextCode::new(6)).is_err());
    }

    #[test]
    fn encode_rejects_wrong_dimension() {
        let mut rng = StdRng::seed_from_u64(4);
        let encoder = GridEncoder::new(3, 6, 1, &mut rng).unwrap();
        assert!(encoder.encode(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn stats_cover_all_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let encoder = GridEncoder::new(3, 4, 1, &mut rng).unwrap();
        let stats = encoder.stats();
        assert_eq!(stats.num_codes, 4);
        assert_eq!(stats.cluster_sizes.iter().sum::<usize>(), 32 * 4);
    }
}
