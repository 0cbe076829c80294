//! Criteo-like online-advertising workload (Section 5.3).

use crate::{DatasetError, FeatureHasher};
use p2b_linalg::{softmax, Matrix, Vector};
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a [`CriteoLikeGenerator`].
///
/// Defaults mirror the paper's pipeline: 13 numeric features of which the
/// experiment uses the first 10 as the context, 26 categorical features
/// hashed into the 40 most frequent product codes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriteoConfig {
    /// Number of numeric features used as the context vector `d`.
    pub context_dimension: usize,
    /// Number of categorical features per record (the raw log has 26).
    pub num_categorical_features: usize,
    /// Number of product codes kept after frequency ranking (the paper keeps 40).
    pub num_product_codes: usize,
    /// Number of distinct values each categorical feature can take.
    pub categorical_cardinality: u32,
    /// Baseline click probability before context/product affinity is added.
    pub base_click_rate: f64,
    /// Strength of the context–product affinity in the click model.
    pub affinity_strength: f64,
}

impl CriteoConfig {
    /// Creates the paper's configuration: `d = 10`, 26 categorical features,
    /// 40 product codes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            context_dimension: 10,
            num_categorical_features: 26,
            num_product_codes: 40,
            categorical_cardinality: 1000,
            base_click_rate: 0.2,
            affinity_strength: 0.6,
        }
    }

    /// Sets the context dimension.
    #[must_use]
    pub fn with_context_dimension(mut self, context_dimension: usize) -> Self {
        self.context_dimension = context_dimension;
        self
    }

    /// Sets the number of retained product codes (the action count `A`).
    #[must_use]
    pub fn with_product_codes(mut self, num_product_codes: usize) -> Self {
        self.num_product_codes = num_product_codes;
        self
    }

    fn validate(&self) -> Result<(), DatasetError> {
        if self.context_dimension == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "context_dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_categorical_features == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_categorical_features",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_product_codes < 2 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_product_codes",
                message: "must be at least 2".to_owned(),
            });
        }
        if self.categorical_cardinality == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "categorical_cardinality",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.base_click_rate.is_finite() || !(0.0..=1.0).contains(&self.base_click_rate) {
            return Err(DatasetError::InvalidConfig {
                parameter: "base_click_rate",
                message: format!("must lie in [0, 1], got {}", self.base_click_rate),
            });
        }
        if !self.affinity_strength.is_finite() || self.affinity_strength < 0.0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "affinity_strength",
                message: format!(
                    "must be a finite non-negative number, got {}",
                    self.affinity_strength
                ),
            });
        }
        Ok(())
    }
}

impl Default for CriteoConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One logged advertising impression after the preprocessing pipeline:
/// numeric context, product code (the logged action) and click outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedImpression {
    context: Vector,
    product_code: usize,
    clicked: bool,
}

impl LoggedImpression {
    /// The (normalized) numeric context features.
    #[must_use]
    pub fn context(&self) -> &Vector {
        &self.context
    }

    /// The logged product code (the action the production system took).
    #[must_use]
    pub fn product_code(&self) -> usize {
        self.product_code
    }

    /// Whether the logged impression was clicked.
    #[must_use]
    pub fn clicked(&self) -> bool {
        self.clicked
    }

    /// The paper's off-policy reward: 1.0 iff the proposed action matches the
    /// logged action *and* the logged impression was clicked.
    #[must_use]
    pub fn reward(&self, proposed_action: usize) -> f64 {
        if proposed_action == self.product_code && self.clicked {
            1.0
        } else {
            0.0
        }
    }
}

/// Generator of a Criteo-like click log.
///
/// A latent preference matrix relates numeric contexts to product codes;
/// categorical features are generated so that they correlate with the latent
/// product preference (as real product-describing categoricals would), hashed
/// with [`FeatureHasher`] into a large bucket space, frequency-ranked, and
/// only the records whose hashed code lands in the top
/// [`CriteoConfig::num_product_codes`] buckets are kept — exactly the paper's
/// preprocessing.
#[derive(Debug, Clone)]
pub struct CriteoLikeGenerator {
    config: CriteoConfig,
    preference: Matrix,
    hasher: FeatureHasher,
}

impl CriteoLikeGenerator {
    /// Raw hash space for the categorical tuple before frequency ranking.
    const RAW_BUCKETS: usize = 1 << 16;

    /// Creates a generator with a freshly sampled latent preference model.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for invalid configurations.
    pub fn new<R: Rng + ?Sized>(config: CriteoConfig, rng: &mut R) -> Result<Self, DatasetError> {
        config.validate()?;
        let mut rows = Vec::with_capacity(config.num_product_codes);
        for _ in 0..config.num_product_codes {
            let row: Vec<f64> = (0..config.context_dimension)
                .map(|_| {
                    let x: f64 = StandardNormal.sample(rng);
                    2.5 * x
                })
                .collect();
            rows.push(row);
        }
        let preference = Matrix::from_rows(&rows)?;
        let hasher = FeatureHasher::new(Self::RAW_BUCKETS, rng.gen())?;
        Ok(Self {
            config,
            preference,
            hasher,
        })
    }

    /// The generator configuration.
    #[must_use]
    pub fn config(&self) -> &CriteoConfig {
        &self.config
    }

    /// Generates `num_records` raw records, applies the feature-hashing and
    /// top-`A` frequency filtering, and returns the retained impressions.
    ///
    /// The number of returned impressions is at most `num_records`; records
    /// whose hashed product code falls outside the top-`A` most frequent
    /// codes are discarded, as in the paper.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when `num_records == 0` and
    /// [`DatasetError::InsufficientData`] when fewer than
    /// `num_product_codes` distinct hashed codes were observed.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        num_records: usize,
        rng: &mut R,
    ) -> Result<Vec<LoggedImpression>, DatasetError> {
        if num_records == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_records",
                message: "must be at least 1".to_owned(),
            });
        }

        // Pass 1: raw records with hashed categorical tuples.
        struct RawRecord {
            context: Vector,
            hashed_code: usize,
            clicked: bool,
        }
        let mut raw_records = Vec::with_capacity(num_records);
        let mut code_frequencies: HashMap<usize, usize> = HashMap::new();

        for _ in 0..num_records {
            let context = self.sample_context(rng);
            // Latent product preference for this context.
            let logits = self.preference.matvec(&context)?;
            let probabilities = softmax(logits.as_slice());
            let latent_product = sample_categorical(&probabilities, rng);

            // Categorical features describe the latent product: derive them
            // deterministically from the product with a little noise, so the
            // hashed tuple is strongly correlated with the product identity.
            let categoricals: Vec<u32> = (0..self.config.num_categorical_features)
                .map(|f| {
                    let noise: u32 = if rng.gen::<f64>() < 0.02 {
                        rng.gen_range(0..self.config.categorical_cardinality)
                    } else {
                        0
                    };
                    ((latent_product as u32)
                        .wrapping_mul(31)
                        .wrapping_add(f as u32)
                        .wrapping_add(noise))
                        % self.config.categorical_cardinality
                })
                .collect();
            let hashed_code = self.hasher.hash_category_tuple(&categoricals);
            *code_frequencies.entry(hashed_code).or_insert(0) += 1;

            // Click model: base rate plus affinity between the context and the
            // *logged* product, clipped to a probability.
            let affinity = probabilities[latent_product];
            let click_probability = (self.config.base_click_rate
                + self.config.affinity_strength * affinity)
                .clamp(0.0, 1.0);
            let clicked = rng.gen::<f64>() < click_probability;

            raw_records.push(RawRecord {
                context,
                hashed_code,
                clicked,
            });
        }

        // Frequency ranking: most frequent hashed code becomes product code 0.
        if code_frequencies.len() < self.config.num_product_codes {
            return Err(DatasetError::InsufficientData {
                requested: self.config.num_product_codes,
                available: code_frequencies.len(),
            });
        }
        let mut ranked: Vec<(usize, usize)> = code_frequencies.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank_of: HashMap<usize, usize> = ranked
            .iter()
            .take(self.config.num_product_codes)
            .enumerate()
            .map(|(rank, &(code, _))| (code, rank))
            .collect();

        // Pass 2: keep only records whose code survived the ranking.
        Ok(raw_records
            .into_iter()
            .filter_map(|r| {
                rank_of.get(&r.hashed_code).map(|&rank| LoggedImpression {
                    context: r.context,
                    product_code: rank,
                    clicked: r.clicked,
                })
            })
            .collect())
    }

    /// Partitions impressions into per-agent streams of equal length,
    /// mirroring the paper's "3000 agents × 300 interactions" setup.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InsufficientData`] when there are not enough
    /// impressions and [`DatasetError::InvalidConfig`] for zero arguments.
    pub fn split_agents(
        impressions: &[LoggedImpression],
        num_agents: usize,
        per_agent: usize,
    ) -> Result<Vec<Vec<LoggedImpression>>, DatasetError> {
        if num_agents == 0 || per_agent == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_agents/per_agent",
                message: "must both be at least 1".to_owned(),
            });
        }
        let required = num_agents * per_agent;
        if impressions.len() < required {
            return Err(DatasetError::InsufficientData {
                requested: required,
                available: impressions.len(),
            });
        }
        Ok((0..num_agents)
            .map(|a| impressions[a * per_agent..(a + 1) * per_agent].to_vec())
            .collect())
    }

    fn sample_context<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let raw: Vec<f64> = (0..self.config.context_dimension)
            .map(|_| -(rng.gen::<f64>().max(1e-12)).ln())
            .collect();
        // Normalization fails only on an empty vector, which construction
        // rules out; an empty one would come back unchanged.
        let context = Vector::from(raw);
        context.normalized_l1().unwrap_or(context)
    }
}

/// Samples an index from a probability vector.
fn sample_categorical<R: Rng + ?Sized>(probabilities: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut cumulative = 0.0;
    for (i, &p) in probabilities.iter().enumerate() {
        cumulative += p;
        if u < cumulative {
            return i;
        }
    }
    probabilities.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator(seed: u64) -> CriteoLikeGenerator {
        let mut rng = StdRng::seed_from_u64(seed);
        CriteoLikeGenerator::new(CriteoConfig::new(), &mut rng).unwrap()
    }

    #[test]
    fn rejects_invalid_configurations() {
        let mut rng = StdRng::seed_from_u64(0);
        let bad = CriteoConfig::new().with_context_dimension(0);
        assert!(CriteoLikeGenerator::new(bad, &mut rng).is_err());
        let bad = CriteoConfig::new().with_product_codes(1);
        assert!(CriteoLikeGenerator::new(bad, &mut rng).is_err());
        let mut bad = CriteoConfig::new();
        bad.base_click_rate = 1.5;
        assert!(CriteoLikeGenerator::new(bad, &mut rng).is_err());
    }

    #[test]
    fn generated_impressions_have_valid_fields() {
        let generator = generator(1);
        let mut rng = StdRng::seed_from_u64(2);
        let impressions = generator.generate(5000, &mut rng).unwrap();
        assert!(!impressions.is_empty());
        for imp in &impressions {
            assert_eq!(imp.context().len(), 10);
            assert!((imp.context().sum() - 1.0).abs() < 1e-9);
            assert!(imp.product_code() < 40);
        }
    }

    #[test]
    fn product_code_zero_is_the_most_frequent() {
        let generator = generator(3);
        let mut rng = StdRng::seed_from_u64(4);
        let impressions = generator.generate(8000, &mut rng).unwrap();
        let mut counts = vec![0usize; 40];
        for imp in &impressions {
            counts[imp.product_code()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "frequency ranking violated: {counts:?}");
        // All 40 codes should be populated in a large sample.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn click_rate_is_plausible() {
        let generator = generator(5);
        let mut rng = StdRng::seed_from_u64(6);
        let impressions = generator.generate(5000, &mut rng).unwrap();
        let ctr =
            impressions.iter().filter(|i| i.clicked()).count() as f64 / impressions.len() as f64;
        // Base rate 0.2 plus a small affinity bonus: CTR should land between
        // 0.15 and 0.6 for any seed.
        assert!((0.15..0.6).contains(&ctr), "ctr = {ctr}");
    }

    #[test]
    fn reward_requires_match_and_click() {
        let imp = LoggedImpression {
            context: Vector::filled(2, 0.5),
            product_code: 7,
            clicked: true,
        };
        assert_eq!(imp.reward(7), 1.0);
        assert_eq!(imp.reward(6), 0.0);
        let not_clicked = LoggedImpression {
            clicked: false,
            ..imp
        };
        assert_eq!(not_clicked.reward(7), 0.0);
    }

    #[test]
    fn contexts_predict_logged_products_better_than_chance() {
        // The whole point of the workload: the numeric context must carry
        // signal about which product was logged, otherwise no contextual
        // bandit can beat the random baseline. A nearest-centroid classifier
        // fitted on half the data must beat the 1/40 chance level on the rest.
        let generator = generator(7);
        let mut rng = StdRng::seed_from_u64(8);
        let impressions = generator.generate(12_000, &mut rng).unwrap();
        let split = impressions.len() / 2;
        let (train, test) = impressions.split_at(split);

        let dim = generator.config().context_dimension;
        let mut sums = vec![Vector::zeros(dim); 40];
        let mut counts = vec![0usize; 40];
        for imp in train {
            sums[imp.product_code()].axpy(1.0, imp.context()).unwrap();
            counts[imp.product_code()] += 1;
        }
        let centroids: Vec<Vector> = sums
            .into_iter()
            .zip(counts.iter())
            .map(|(s, &c)| {
                if c > 0 {
                    s.scaled(1.0 / c as f64)
                } else {
                    Vector::filled(dim, 1.0 / dim as f64)
                }
            })
            .collect();

        let mut correct = 0usize;
        for imp in test {
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for (code, centroid) in centroids.iter().enumerate() {
                let dist = centroid.squared_distance(imp.context()).unwrap();
                if dist < best_dist {
                    best = code;
                    best_dist = dist;
                }
            }
            if best == imp.product_code() {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / test.len() as f64;
        assert!(
            accuracy > 2.0 / 40.0,
            "centroid accuracy {accuracy} is at chance level"
        );
    }

    #[test]
    fn split_agents_partitions_impressions() {
        let generator = generator(9);
        let mut rng = StdRng::seed_from_u64(10);
        let impressions = generator.generate(3000, &mut rng).unwrap();
        let agents = CriteoLikeGenerator::split_agents(&impressions, 5, 100).unwrap();
        assert_eq!(agents.len(), 5);
        assert!(agents.iter().all(|a| a.len() == 100));
        assert!(CriteoLikeGenerator::split_agents(&impressions, 0, 10).is_err());
        assert!(CriteoLikeGenerator::split_agents(&impressions, 1_000_000, 100).is_err());
    }

    #[test]
    fn generate_validates_record_count() {
        let generator = generator(11);
        let mut rng = StdRng::seed_from_u64(12);
        assert!(generator.generate(0, &mut rng).is_err());
    }
}
