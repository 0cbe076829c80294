//! Umbrella crate for the Privacy-Preserving Bandits (P2B) reproduction.
//!
//! This crate re-exports the workspace's sub-crates under stable module
//! names so downstream users can depend on a single crate:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | the P2B system: local agents, randomized reporting, central server |
//! | [`bandit`] | LinUCB, the one contextual bandit |
//! | [`encoding`] | the k-means context encoder and Fig. 2's fixed-precision simplex grid |
//! | [`privacy`] | (ε, δ)-DP, crowd-blending, amplification by pre-sampling |
//! | [`shuffler`] | the ESA-style anonymize / tabulate / threshold stage: the one-lane engine every report goes through, and its synchronous per-batch kernel |
//! | [`datasets`] | synthetic preference, multi-label and Criteo-like workloads |
//! | [`sim`] | the seeded arrival process of the serving harness and the drivers' shared worker pool |
//! | [`experiments`] | the config-driven scenario matrix and the held-out protocol reproducing the utility-vs-privacy figures and Table 1 |
//! | [`linalg`] | the small dense linear-algebra substrate |
//!
//! # Quickstart
//!
//! ```
//! use p2b::core::{P2bConfig, P2bSystem};
//! use p2b::encoding::{KMeansConfig, KMeansEncoder};
//! use p2b::linalg::Vector;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let corpus: Vec<Vector> = (0..64)
//!     .map(|i| Vector::from(vec![(i % 4) as f64 + 0.5, 1.0, 2.0]).normalized_l1().unwrap())
//!     .collect();
//! let encoder = Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng)?);
//! let system = P2bSystem::new(P2bConfig::new(3, 5), encoder)?;
//! println!("privacy guarantee: {}", system.privacy_guarantee()?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use p2b_bandit as bandit;
pub use p2b_core as core;
pub use p2b_datasets as datasets;
pub use p2b_encoding as encoding;
pub use p2b_experiments as experiments;
pub use p2b_linalg as linalg;
pub use p2b_privacy as privacy;
pub use p2b_shuffler as shuffler;
pub use p2b_sim as sim;
