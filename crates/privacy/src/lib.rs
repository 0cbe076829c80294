//! Differential-privacy analysis for Privacy-Preserving Bandits.
//!
//! P2B's privacy argument (Section 4 of the paper) combines two ingredients:
//!
//! 1. **Crowd-blending privacy** (Gehrke et al. 2012): the encoder maps every
//!    released context to a code shared by at least `l − 1` other released
//!    contexts, with ε̄ = 0 because all members of a crowd release *exactly*
//!    the same value ([`CrowdBlending`]).
//! 2. **Pre-sampling**: each agent participates with probability `p`
//!    ([`Participation`]). Pre-sampling followed by a crowd-blending
//!    mechanism yields zero-knowledge and hence (ε, δ)-differential privacy
//!    with
//!    `ε = ln(p·(2−p)/(1−p)·e^ε̄ + (1−p))` and `δ = e^(−Ω·l·(1−p)²)`
//!    ([`amplified_epsilon`], [`amplified_delta`]).
//!
//! The crate also provides a [`PrivacyAccountant`] implementing sequential
//! composition (an agent reporting `r` tuples spends `r·ε`), an
//! [`AmplificationLedger`] that records the `(ε, δ)` pair achieved by every
//! batch a batched shuffler releases, and a [`RandomizedResponse`] local-DP
//! baseline so P2B's trust model can be compared against RAPPOR-style
//! randomization.
//!
//! Two additions support the central-DP baseline the paper compares against:
//! a [`TreeAggregator`] releasing running sums through the binary mechanism
//! (Gaussian noise on O(log T) dyadic partial sums per prefix, Dwork et al.
//! 2010 / Chan–Shi–Song 2011), and a [`ZcdpAccountant`] composing privacy
//! loss in ρ-zCDP with conversion to (ε, δ) at query time — the tight
//! `O(√k)` alternative to sequential composition for long horizons.
//!
//! A third trust model rides on the same leaf stream: the secure-aggregation
//! regime ([`SecretSharer`], [`encode_fixed`]/[`decode_fixed`],
//! [`recombine`]) additively secret-shares fixed-point statistic
//! contributions across independent aggregator shards so no single party
//! ever sees a plaintext contribution — an architectural (who-sees-what)
//! guarantee rather than a DP one; see the [`SecretSharer`] docs for the
//! exact construction and its caveats.
//!
//! # Example
//!
//! ```
//! use p2b_privacy::{amplified_epsilon, Participation};
//!
//! # fn main() -> Result<(), p2b_privacy::PrivacyError> {
//! let p = Participation::new(0.5)?;
//! let eps = amplified_epsilon(p, 0.0)?;
//! assert!((eps - std::f64::consts::LN_2).abs() < 1e-12); // ≈ 0.693
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod accountant;
mod amplification;
mod batch;
mod crowd_blending;
mod definitions;
mod error;
mod randomized_response;
mod secret_share;
mod tree;
mod zcdp;

pub use accountant::{PrivacyAccountant, PrivacySpend};
pub use amplification::{
    amplified_delta, amplified_epsilon, epsilon_sweep, participation_for_epsilon, EpsilonPoint,
};
pub use batch::{AmplificationLedger, BatchAmplification};
pub use crowd_blending::CrowdBlending;
pub use definitions::{Participation, PrivacyGuarantee};
pub use error::PrivacyError;
pub use randomized_response::RandomizedResponse;
pub use secret_share::{
    decode_fixed, encode_fixed, recombine, SecretSharer, FIXED_POINT_FRACTIONAL_BITS,
    FIXED_POINT_MAX_ABS, FIXED_POINT_SCALE,
};
pub use tree::{prefix_nodes, TreeAggregator, TreeConfig, TreeNode};
pub use zcdp::{
    compare_composition, pure_dp_to_rho, rho_to_epsilon, CompositionComparison, ZcdpAccountant,
    ZcdpSpend,
};

/// SplitMix64: a cheap, well-mixed 64-bit hash. The one mixer behind every
/// counter-based lane and shard/seed derivation in the workspace — the
/// [`TreeAggregator`] noise and [`SecretSharer`] mask lanes here, everything
/// else through the `p2b_shuffler::splitmix64` re-export — so they all share
/// one load-bearing set of constants.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over a byte stream, from the standard offset basis. The
/// one copy behind the library's digests — the secure-aggregation sums of
/// `p2b_shuffler` and `p2b_core` — and the model digests of the bench
/// crate's ingest golden, which reach it through the `p2b_shuffler::fnv1a`
/// re-export.
///
/// ```
/// assert_eq!(p2b_privacy::fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(p2b_privacy::fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
