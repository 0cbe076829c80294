//! Binary partial-sum (tree-aggregation) release of running sums under
//! continual observation.
//!
//! The classic central-DP mechanism for releasing a running sum `S(t) = Σ_{i
//! ≤ t} x_i` over a stream (Dwork et al. 2010; Chan, Shi & Song 2011; the
//! `PartialSum` technique of PrivateLinUCB): arrange the leaves `1..T` in a
//! binary tree of dyadic intervals and add fresh noise **once per dyadic
//! node**. Every prefix `[1, t]` is covered by the dyadic decomposition of
//! `t` — at most `⌈log₂ T⌉` nodes — so each released prefix carries the sum
//! of at most `⌈log₂ T⌉` noise draws, while each *leaf* participates in at
//! most `⌊log₂ T⌋ + 1` noisy nodes. Both logarithmic counts are what make
//! the mechanism's utility (`O(log T)` noise variance per release) and its
//! privacy cost (one Gaussian-mechanism charge per level) tractable over
//! long horizons.
//!
//! # Determinism
//!
//! The noise of node `(level, index)` at coordinate `c` is a **pure
//! function** of `(seed, level, index, c)` — counter-based lanes in the
//! style of `p2b_sim::ArrivalProcess`, not a stateful RNG stream. Two
//! consequences the property suite pins:
//!
//! * a node's noise is drawn "once" by construction: every release that
//!   covers the node sees bit-identical noise without the tree storing it;
//! * releases are byte-identical across runs, chunkings and worker counts
//!   for a fixed seed — there is no RNG state to interleave.
//!
//! The exact (noiseless) prefix is maintained as a sequentially accumulated
//! running sum, so with `sigma = 0` the release equals the plain running sum
//! bit for bit; the tree structure determines only where noise attaches,
//! which is exactly the part the privacy argument is about.

use crate::{splitmix64, PrivacyError};
use serde::{Deserialize, Serialize};

/// Maps a uniform `u64` onto `(0, 1]` with 53 bits of precision (never zero,
/// so it is safe under `ln`).
fn unit_open(noise: u64) -> f64 {
    ((noise >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// One dyadic node of the partial-sum tree.
///
/// Node `(level, index)` covers leaves `index·2^level + 1 ..= (index+1)·2^level`
/// (one-based leaf positions). The pair is stable forever: the same node id
/// always denotes the same interval, which is what lets the noise be a pure
/// function of the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TreeNode {
    /// Tree level: the node covers a block of `2^level` leaves.
    pub level: u32,
    /// Block index within the level.
    pub index: u64,
}

/// The dyadic decomposition of the prefix `[1, t]`: one node per set bit of
/// `t`, highest level first. Empty for `t = 0`.
///
/// The length is `t.count_ones()`, which never exceeds
/// `⌈log₂(t + 1)⌉` — the `O(log T)` node count the mechanism's utility rests
/// on.
#[must_use]
pub fn prefix_nodes(t: u64) -> Vec<TreeNode> {
    let mut nodes = Vec::with_capacity(t.count_ones() as usize);
    let mut covered = 0u64;
    for level in (0..u64::BITS).rev() {
        if t & (1u64 << level) != 0 {
            nodes.push(TreeNode {
                level,
                index: covered >> level,
            });
            covered += 1u64 << level;
        }
    }
    nodes
}

/// Configuration of a [`TreeAggregator`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Dimension of the aggregated vectors (e.g. `d² + d + 1` for a
    /// flattened LinUCB Gram matrix, reward vector and pull count).
    pub dimension: usize,
    /// Maximum number of leaves the tree will accept. Fixes the accounting:
    /// the per-leaf privacy charge is one Gaussian mechanism per level, and
    /// the number of levels is `⌊log₂ horizon⌋ + 1`.
    pub horizon: u64,
    /// Standard deviation of the Gaussian noise added per node and
    /// coordinate. `0` disables noise (exact prefix sums, no privacy).
    pub sigma: f64,
    /// Seed of the counter-based noise lanes.
    pub seed: u64,
}

impl TreeConfig {
    /// Creates a config with the given shape and noise scale.
    #[must_use]
    pub fn new(dimension: usize, horizon: u64, sigma: f64, seed: u64) -> Self {
        Self {
            dimension,
            horizon,
            sigma,
            seed,
        }
    }

    fn validate(&self) -> Result<(), PrivacyError> {
        if self.dimension == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.horizon == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "horizon",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "sigma",
                message: format!("must be a finite non-negative number, got {}", self.sigma),
            });
        }
        Ok(())
    }
}

/// Noisy partial-sum release of a vector stream via tree aggregation.
///
/// Feed per-event vectors with [`TreeAggregator::push`]; read the current
/// noisy prefix with [`TreeAggregator::release`]. The exact running sum is
/// accumulated sequentially (left-to-right adds, one per push), and a
/// release adds the noise of the `t.count_ones()` dyadic nodes covering the
/// prefix — at most [`TreeAggregator::max_nodes_per_prefix`] of them.
///
/// # Example
///
/// ```
/// use p2b_privacy::{TreeAggregator, TreeConfig};
///
/// # fn main() -> Result<(), p2b_privacy::PrivacyError> {
/// // A noiseless tree releases exact running sums.
/// let mut tree = TreeAggregator::new(TreeConfig::new(2, 8, 0.0, 7))?;
/// tree.push(&[1.0, 2.0])?;
/// tree.push(&[3.0, 4.0])?;
/// assert_eq!(tree.release(), vec![4.0, 6.0]);
/// // With noise, each release still touches only O(log T) noisy nodes.
/// let noisy = TreeAggregator::new(TreeConfig::new(2, 8, 1.0, 7))?;
/// assert_eq!(noisy.max_nodes_per_prefix(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreeAggregator {
    config: TreeConfig,
    count: u64,
    running: Vec<f64>,
}

impl TreeAggregator {
    /// Validates `config` and builds an empty aggregator.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for a zero dimension or
    /// horizon, or a negative / non-finite `sigma`.
    pub fn new(config: TreeConfig) -> Result<Self, PrivacyError> {
        config.validate()?;
        Ok(Self {
            running: vec![0.0; config.dimension],
            config,
            count: 0,
        })
    }

    /// The configuration the aggregator was built from.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Number of leaves pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Appends one leaf vector to the stream.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] when `x` has the wrong
    /// dimension or the horizon is already full (the horizon fixes the
    /// privacy accounting, so it is a hard ceiling).
    pub fn push(&mut self, x: &[f64]) -> Result<(), PrivacyError> {
        if x.len() != self.config.dimension {
            return Err(PrivacyError::InvalidParameter {
                name: "x",
                message: format!(
                    "dimension mismatch: expected {}, got {}",
                    self.config.dimension,
                    x.len()
                ),
            });
        }
        if self.count >= self.config.horizon {
            return Err(PrivacyError::InvalidParameter {
                name: "horizon",
                message: format!(
                    "tree is full: horizon {} leaves already pushed",
                    self.config.horizon
                ),
            });
        }
        for (acc, value) in self.running.iter_mut().zip(x) {
            *acc += value;
        }
        self.count += 1;
        Ok(())
    }

    /// The dyadic nodes whose noise the current release carries — the
    /// decomposition of `[1, count]`, at most
    /// [`TreeAggregator::max_nodes_per_prefix`] of them.
    #[must_use]
    pub fn release_nodes(&self) -> Vec<TreeNode> {
        prefix_nodes(self.count)
    }

    /// The noisy prefix sum over everything pushed so far: the exact running
    /// sum plus one Gaussian draw per covering dyadic node per coordinate.
    /// With `sigma = 0` this is the exact running sum, bit for bit.
    #[must_use]
    pub fn release(&self) -> Vec<f64> {
        let mut out = self.running.clone();
        if self.config.sigma > 0.0 {
            for node in self.release_nodes() {
                for (coord, value) in out.iter_mut().enumerate() {
                    *value += self.node_noise(node, coord);
                }
            }
        }
        out
    }

    /// The noise of one dyadic node at one coordinate: a Gaussian draw with
    /// standard deviation `sigma`, a pure function of
    /// `(seed, level, index, coord)` (Box–Muller over two SplitMix64 lanes).
    #[must_use]
    pub fn node_noise(&self, node: TreeNode, coord: usize) -> f64 {
        if self.config.sigma == 0.0 {
            return 0.0;
        }
        let base = splitmix64(
            self.config.seed
                ^ splitmix64(u64::from(node.level).wrapping_mul(0xA24B_AED4_963E_E407)),
        );
        let base = splitmix64(base ^ node.index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let lane =
            |k: u64| splitmix64(base ^ k.wrapping_mul(0xD605_0000_0B50_0B51).wrapping_add(1));
        let u1 = unit_open(lane(2 * coord as u64));
        let u2 = unit_open(lane(2 * coord as u64 + 1));
        self.config.sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Upper bound on the number of noisy nodes any release carries:
    /// `⌈log₂(horizon + 1)⌉` (the maximum popcount of a prefix length
    /// `t ≤ horizon`).
    #[must_use]
    pub fn max_nodes_per_prefix(&self) -> u32 {
        u64::BITS - self.config.horizon.leading_zeros()
    }

    /// Number of noisy nodes each leaf participates in: one per tree level,
    /// `⌊log₂ horizon⌋ + 1` in total. This is the composition count of the
    /// per-leaf privacy charge.
    #[must_use]
    pub fn nodes_per_leaf(&self) -> u32 {
        u64::BITS - self.config.horizon.leading_zeros()
    }

    /// The ρ-zCDP cost of the whole release stream for one leaf whose vector
    /// has L2 norm at most `sensitivity`: each leaf lands in
    /// [`TreeAggregator::nodes_per_leaf`] Gaussian releases of scale `sigma`,
    /// and each costs `Δ²/(2σ²)` (the Gaussian mechanism), composing to
    /// `nodes_per_leaf · Δ²/(2σ²)`. Infinite when `sigma = 0` (no privacy).
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for a non-positive or
    /// non-finite sensitivity.
    pub fn rho_per_leaf(&self, sensitivity: f64) -> Result<f64, PrivacyError> {
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "sensitivity",
                message: format!("must be a finite positive number, got {sensitivity}"),
            });
        }
        if self.config.sigma == 0.0 {
            return Ok(f64::INFINITY);
        }
        let per_node = sensitivity * sensitivity / (2.0 * self.config.sigma * self.config.sigma);
        Ok(f64::from(self.nodes_per_leaf()) * per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_shape_and_sigma() {
        assert!(TreeAggregator::new(TreeConfig::new(0, 8, 1.0, 0)).is_err());
        assert!(TreeAggregator::new(TreeConfig::new(2, 0, 1.0, 0)).is_err());
        assert!(TreeAggregator::new(TreeConfig::new(2, 8, -1.0, 0)).is_err());
        assert!(TreeAggregator::new(TreeConfig::new(2, 8, f64::NAN, 0)).is_err());
        assert!(TreeAggregator::new(TreeConfig::new(2, 8, 0.0, 0)).is_ok());
    }

    #[test]
    fn push_validates_dimension_and_horizon() {
        let mut tree = TreeAggregator::new(TreeConfig::new(2, 2, 0.0, 0)).unwrap();
        assert!(tree.push(&[1.0]).is_err());
        tree.push(&[1.0, 2.0]).unwrap();
        tree.push(&[1.0, 2.0]).unwrap();
        assert!(tree.push(&[1.0, 2.0]).is_err(), "horizon is a hard ceiling");
    }

    #[test]
    fn prefix_nodes_match_binary_decomposition() {
        assert!(prefix_nodes(0).is_empty());
        assert_eq!(prefix_nodes(1), vec![TreeNode { level: 0, index: 0 }]);
        // 6 = 4 + 2: block [1..4] (level 2, index 0) then [5..6] (level 1, index 2).
        assert_eq!(
            prefix_nodes(6),
            vec![
                TreeNode { level: 2, index: 0 },
                TreeNode { level: 1, index: 2 }
            ]
        );
        for t in 0..200u64 {
            let nodes = prefix_nodes(t);
            assert_eq!(nodes.len(), t.count_ones() as usize);
            // Nodes tile [1, t] exactly: sizes sum to t.
            let covered: u64 = nodes.iter().map(|n| 1u64 << n.level).sum();
            assert_eq!(covered, t);
        }
    }

    #[test]
    fn noiseless_release_is_the_exact_running_sum() {
        let mut tree = TreeAggregator::new(TreeConfig::new(3, 16, 0.0, 9)).unwrap();
        let mut exact = [0.0f64; 3];
        for i in 0..10 {
            let x = [i as f64 * 0.1, -(i as f64), 1.0 / (i + 1) as f64];
            for (acc, v) in exact.iter_mut().zip(&x) {
                *acc += v;
            }
            tree.push(&x).unwrap();
            let release = tree.release();
            for (a, b) in release.iter().zip(&exact) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn node_noise_is_a_pure_function_of_the_id() {
        let a = TreeAggregator::new(TreeConfig::new(4, 64, 1.5, 42)).unwrap();
        let b = TreeAggregator::new(TreeConfig::new(4, 64, 1.5, 42)).unwrap();
        let node = TreeNode { level: 3, index: 5 };
        for coord in 0..4 {
            assert_eq!(
                a.node_noise(node, coord).to_bits(),
                b.node_noise(node, coord).to_bits()
            );
        }
        let other_seed = TreeAggregator::new(TreeConfig::new(4, 64, 1.5, 43)).unwrap();
        assert_ne!(
            a.node_noise(node, 0).to_bits(),
            other_seed.node_noise(node, 0).to_bits()
        );
    }

    #[test]
    fn noise_has_roughly_the_requested_scale() {
        let tree = TreeAggregator::new(TreeConfig::new(1, 1 << 20, 2.0, 3)).unwrap();
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n)
            .map(|i| tree.node_noise(TreeNode { level: 0, index: i }, 0))
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean} should be near 0");
        assert!(
            (var.sqrt() - 2.0).abs() < 0.1,
            "std {} should be near 2",
            var.sqrt()
        );
    }

    #[test]
    fn log_bounds_match_the_horizon() {
        let tree = |t| TreeAggregator::new(TreeConfig::new(1, t, 1.0, 0)).unwrap();
        assert_eq!(tree(1).max_nodes_per_prefix(), 1);
        assert_eq!(tree(2).max_nodes_per_prefix(), 2);
        assert_eq!(tree(7).max_nodes_per_prefix(), 3);
        assert_eq!(tree(8).max_nodes_per_prefix(), 4);
        assert_eq!(tree(1024).nodes_per_leaf(), 11);
    }

    #[test]
    fn rho_per_leaf_follows_the_gaussian_mechanism() {
        let tree = TreeAggregator::new(TreeConfig::new(1, 8, 2.0, 0)).unwrap();
        // 4 levels, Δ = 2 → 4 · 4 / (2·4) = 2.
        assert!((tree.rho_per_leaf(2.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(tree.rho_per_leaf(0.0).is_err());
        assert!(tree.rho_per_leaf(f64::NAN).is_err());
        let noiseless = TreeAggregator::new(TreeConfig::new(1, 8, 0.0, 0)).unwrap();
        assert!(noiseless.rho_per_leaf(1.0).unwrap().is_infinite());
    }
}
