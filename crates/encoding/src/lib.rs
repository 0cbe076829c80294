//! Context encoding for Privacy-Preserving Bandits.
//!
//! Before an interaction tuple leaves the device, the local agent encodes its
//! `d`-dimensional context vector `x` into a code `y ∈ {0, …, k−1}`
//! (Section 3.2 of the paper):
//!
//! 1. **Normalization** — contexts are normalized so their entries sum to
//!    one. The paper also fixes them to `q` decimal digits, which makes the
//!    set of representable contexts finite; its cardinality follows the
//!    stars-and-bars formula of Eq. (1) ([`simplex_cardinality`]), and
//!    [`enumerate_simplex_grid`] lists the grid itself as
//!    [`QuantizedContext`] values. Only Fig. 2 uses the grid: the live
//!    pipeline encodes the normalized context as it is.
//! 2. **Clustering** — nearby contexts are mapped to the same code by
//!    mini-batch k-means ([`KMeansEncoder`], Sculley 2010).
//!
//! Every encoder reports the size of its smallest cluster, which is the
//! crowd-blending parameter `l` used by the privacy analysis.
//!
//! # Example
//!
//! ```
//! use p2b_encoding::{Encoder, KMeansEncoder, KMeansConfig};
//! use p2b_linalg::Vector;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), p2b_encoding::EncodingError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // A tiny corpus of 3-dimensional normalized contexts.
//! let corpus: Vec<Vector> = (0..60)
//!     .map(|i| {
//!         let a = (i % 10) as f64;
//!         Vector::from(vec![a, 10.0 - a, 1.0]).normalized_l1().unwrap()
//!     })
//!     .collect();
//! let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng)?;
//! let code = encoder.encode(&corpus[0])?;
//! assert!(code.value() < 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod encoder;
mod error;
mod kmeans;
mod quantize;
mod simplex;

pub use encoder::{ContextCode, Encoder, EncoderStats};
pub use error::EncodingError;
pub use kmeans::{KMeansConfig, KMeansEncoder};
pub use quantize::QuantizedContext;
pub use simplex::{enumerate_simplex_grid, simplex_cardinality};
