//! Additive secret sharing of fixed-point statistic vectors.
//!
//! The secure-aggregation regime (Hannun et al., *Privacy-Preserving
//! Multi-Party Contextual Bandits*) learns the central LinUCB model without
//! any single aggregator ever seeing a plaintext contribution: each agent
//! splits its sufficient-statistic leaf into `k` additive shares over the
//! group ℤ₂¹²⁸ and sends one share to each of `k` independent aggregator
//! shards. Every shard folds only its own share stream; the recombined sum
//! of the `k` per-shard accumulators equals the plaintext sum **exactly**,
//! because wrapping `i128` addition is an abelian group operation — no
//! rounding, no fold-order dependence, no shard-count dependence.
//!
//! # Fixed-point encoding
//!
//! Secret sharing needs exact group arithmetic, so real-valued statistics
//! are first quantized to fixed point: `encode_fixed` maps `x` to
//! `round(x · 2^`[`FIXED_POINT_FRACTIONAL_BITS`]`)` as an `i128`, rejecting
//! values outside ±[`FIXED_POINT_MAX_ABS`] (and non-finite values) instead
//! of wrapping. The documented headroom budget:
//!
//! * magnitude per encoded value ≤ 2⁶² (= `FIXED_POINT_MAX_ABS · 2^48`);
//! * an `i128` accumulator holds sums of up to 2⁶⁴ encoded values before it
//!   can wrap — far beyond any realistic contribution count, and checked
//!   nowhere else, which is why `encode_fixed` enforces the per-value bound
//!   eagerly.
//!
//! # Share randomness
//!
//! The first `k − 1` shares of a value are uniform in ℤ₂¹²⁸, generated by
//! counter-based lanes: share `j` of contribution `counter` at coordinate
//! `coord` is a **pure function** of `(seed, counter, coord, j)`
//! ([`crate::splitmix64`], the mixer behind the [`crate::TreeAggregator`]
//! noise lanes too). The last share is the value minus the sum of
//! the others (wrapping), so recombination is exact by construction. Pure
//! lanes mean a run is bit-reproducible at any worker count.
//!
//! **Trust-model caveat:** SplitMix64 is a statistical mixer, not a
//! cryptographic PRG. This module reproduces the *protocol arithmetic and
//! communication pattern* of secure aggregation deterministically; a real
//! deployment would derive the masks from per-pair cryptographic key
//! exchanges. The guarantee quantified here is architectural (which party
//! sees what), not cryptographic.
//!
//! # Example
//!
//! ```
//! use p2b_privacy::{decode_fixed, encode_fixed, recombine, SecretSharer};
//!
//! # fn main() -> Result<(), p2b_privacy::PrivacyError> {
//! let sharer = SecretSharer::new(42, 3)?;
//! let encoded = encode_fixed(1.25)?;
//! let shares = sharer.split(7, 0, encoded);
//! assert_eq!(shares.len(), 3);
//! // No single share reveals the value, but the sum recombines exactly.
//! assert_eq!(recombine(&shares), encoded);
//! assert_eq!(decode_fixed(recombine(&shares)), 1.25);
//! # Ok(())
//! # }
//! ```

use crate::{splitmix64, PrivacyError};

/// Number of fractional bits in the fixed-point encoding: a real value `x`
/// is represented as `round(x · 2^48)`. 48 bits keep every f64 with at most
/// 48 fractional bits (in particular all integers, halves, quarters, … in
/// range) exactly representable, while leaving 62 magnitude bits below the
/// `i128` accumulator ceiling.
pub const FIXED_POINT_FRACTIONAL_BITS: u32 = 48;

/// The fixed-point scale factor `2^48` as an f64 (exact).
pub const FIXED_POINT_SCALE: f64 = (1u64 << FIXED_POINT_FRACTIONAL_BITS) as f64;

/// The dynamic range of the encoding: `encode_fixed` accepts `|x| ≤ 2^14`.
/// At scale 2⁴⁸ this caps encoded magnitudes at 2⁶², so an `i128`
/// accumulator can absorb 2⁶⁴ worst-case contributions before wrapping.
pub const FIXED_POINT_MAX_ABS: f64 = 16384.0;

/// Quantizes a real value to the shared fixed-point grid:
/// `round(value · 2^`[`FIXED_POINT_FRACTIONAL_BITS`]`)`.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] for non-finite values and for
/// values outside ±[`FIXED_POINT_MAX_ABS`] — out-of-range inputs error
/// rather than wrap, so the accumulator headroom budget documented in the
/// module docs holds everywhere downstream.
pub fn encode_fixed(value: f64) -> Result<i128, PrivacyError> {
    if !value.is_finite() {
        return Err(PrivacyError::InvalidParameter {
            name: "value",
            message: format!("fixed-point encoding requires a finite value, got {value}"),
        });
    }
    if value.abs() > FIXED_POINT_MAX_ABS {
        return Err(PrivacyError::InvalidParameter {
            name: "value",
            message: format!("fixed-point dynamic range is ±{FIXED_POINT_MAX_ABS}, got {value}"),
        });
    }
    // |value| ≤ 2^14 ⇒ |value · 2^48| ≤ 2^62: the product is exact (a
    // power-of-two scale) and inside i64, so the cast goes through i64, not
    // the f64 → i128 software routine. Rounding is half away from zero, as
    // `f64::round`, without its libm call: `truncated` and `fraction` are
    // both exact, so the half test is too.
    let scaled = value * FIXED_POINT_SCALE;
    let truncated = scaled as i64;
    let fraction = scaled - truncated as f64;
    let rounded = if fraction >= 0.5 {
        truncated + 1
    } else if fraction <= -0.5 {
        truncated - 1
    } else {
        truncated
    };
    Ok(i128::from(rounded))
}

/// Maps a fixed-point value (or an accumulated sum of them) back to f64.
/// Sums beyond 53 significant bits round to the nearest representable f64 —
/// the ordinary floating-point quantization, not a protocol error.
#[must_use]
pub fn decode_fixed(value: i128) -> f64 {
    value as f64 / FIXED_POINT_SCALE
}

/// Recombines additive shares: the wrapping sum over ℤ₂¹²⁸. Exact inverse
/// of [`SecretSharer::split`] for any shard count and any summation order
/// (wrapping addition is associative and commutative).
#[must_use]
pub fn recombine(shares: &[i128]) -> i128 {
    shares
        .iter()
        .fold(0i128, |acc, &share| acc.wrapping_add(share))
}

/// Splits fixed-point values into `k` additive shares with counter-based
/// mask lanes.
///
/// See the module docs for the construction and its determinism and
/// trust-model properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretSharer {
    seed: u64,
    shards: usize,
}

impl SecretSharer {
    /// Creates a sharer distributing values across `shards` aggregators.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] when `shards` is zero —
    /// a zero-way split has nowhere to put the value.
    pub fn new(seed: u64, shards: usize) -> Result<Self, PrivacyError> {
        if shards == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "shards",
                message: "must be at least 1".to_owned(),
            });
        }
        Ok(Self { seed, shards })
    }

    /// The number of shares produced per value.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The uniform ℤ₂¹²⁸ mask of share `shard` for contribution `counter` at
    /// coordinate `coord`: a pure function of `(seed, counter, coord, shard)`
    /// assembled from two SplitMix64 lanes.
    #[must_use]
    pub fn mask(&self, counter: u64, coord: usize, shard: usize) -> i128 {
        let base = splitmix64(
            self.seed ^ splitmix64(counter.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1)),
        );
        let base = splitmix64(
            base ^ (coord as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(2),
        );
        let base = splitmix64(
            base ^ (shard as u64)
                .wrapping_mul(0xD605_0000_0B50_0B51)
                .wrapping_add(3),
        );
        let hi = splitmix64(base ^ 0x5EC2_E75A_6017_8A21);
        let lo = splitmix64(base ^ 0x94D0_49BB_1331_11EB);
        ((u128::from(hi) << 64) | u128::from(lo)) as i128
    }

    /// Splits one fixed-point value into `out.len()` shares: shares
    /// `0..k−1` are the uniform masks, share `k−1` is the value minus their
    /// wrapping sum, so [`recombine`] returns `value` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] when `out.len()` does not
    /// match the configured shard count.
    pub fn split_into(
        &self,
        counter: u64,
        coord: usize,
        value: i128,
        out: &mut [i128],
    ) -> Result<(), PrivacyError> {
        if out.len() != self.shards {
            return Err(PrivacyError::InvalidParameter {
                name: "out",
                message: format!(
                    "share buffer length {} does not match shard count {}",
                    out.len(),
                    self.shards
                ),
            });
        }
        let mut residual = value;
        for (shard, slot) in out.iter_mut().enumerate().take(self.shards - 1) {
            let mask = self.mask(counter, coord, shard);
            *slot = mask;
            residual = residual.wrapping_sub(mask);
        }
        out[self.shards - 1] = residual;
        Ok(())
    }

    /// Allocating convenience wrapper around [`SecretSharer::split_into`].
    #[must_use]
    pub fn split(&self, counter: u64, coord: usize, value: i128) -> Vec<i128> {
        let mut out = vec![0i128; self.shards];
        // Infallible: the buffer length matches the shard count by
        // construction.
        let _ = self.split_into(counter, coord, value, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_rejects_out_of_range_and_non_finite() {
        assert!(encode_fixed(f64::NAN).is_err());
        assert!(encode_fixed(f64::INFINITY).is_err());
        assert!(encode_fixed(FIXED_POINT_MAX_ABS + 1.0).is_err());
        assert!(encode_fixed(-(FIXED_POINT_MAX_ABS + 1.0)).is_err());
        assert!(encode_fixed(FIXED_POINT_MAX_ABS).is_ok());
        assert!(encode_fixed(-FIXED_POINT_MAX_ABS).is_ok());
    }

    #[test]
    fn encoding_through_i64_equals_the_direct_i128_cast() {
        let edge = FIXED_POINT_MAX_ABS;
        for value in [0.0, 1.0, 0.1, 0.7, -0.3, 1e-15, 12_345.678_9, edge, -edge] {
            let direct = (value * FIXED_POINT_SCALE).round() as i128;
            assert_eq!(encode_fixed(value).unwrap(), direct, "{value}");
        }
        assert_eq!(encode_fixed(edge).unwrap(), 1i128 << 62);
        assert_eq!(encode_fixed(-edge).unwrap(), -(1i128 << 62));
    }

    #[test]
    fn encode_decode_is_exact_on_the_grid() {
        // Integers, dyadic fractions and the range endpoints sit exactly on
        // the 2^-48 grid.
        for value in [0.0, 1.0, -1.0, 0.5, -0.25, 1024.0625, FIXED_POINT_MAX_ABS] {
            let encoded = encode_fixed(value).unwrap();
            assert_eq!(decode_fixed(encoded).to_bits(), value.to_bits());
        }
        assert_eq!(encode_fixed(1.0).unwrap(), 1i128 << 48);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_a_grid_step() {
        for value in [0.1, -0.3, std::f64::consts::PI, 12345.6789, -0.000_123] {
            let round_trip = decode_fixed(encode_fixed(value).unwrap());
            assert!((round_trip - value).abs() <= 0.5 / FIXED_POINT_SCALE);
        }
    }

    #[test]
    fn sharer_rejects_zero_shards() {
        assert!(SecretSharer::new(0, 0).is_err());
        assert!(SecretSharer::new(0, 1).is_ok());
    }

    #[test]
    fn split_recombine_is_the_identity_at_every_shard_count() {
        for shards in [1usize, 2, 3, 4, 7] {
            let sharer = SecretSharer::new(99, shards).unwrap();
            for (counter, value) in [(0u64, 0i128), (1, 1 << 48), (2, -(1 << 60)), (3, i128::MAX)] {
                let shares = sharer.split(counter, 5, value);
                assert_eq!(shares.len(), shards);
                assert_eq!(recombine(&shares), value, "shards={shards}");
            }
        }
    }

    #[test]
    fn masks_are_pure_functions_of_their_lane() {
        let a = SecretSharer::new(7, 4).unwrap();
        let b = SecretSharer::new(7, 4).unwrap();
        assert_eq!(a.mask(3, 2, 1), b.mask(3, 2, 1));
        let other_seed = SecretSharer::new(8, 4).unwrap();
        assert_ne!(a.mask(3, 2, 1), other_seed.mask(3, 2, 1));
        // Distinct lanes decorrelate: different counter, coord and shard all
        // change the mask.
        assert_ne!(a.mask(3, 2, 1), a.mask(4, 2, 1));
        assert_ne!(a.mask(3, 2, 1), a.mask(3, 3, 1));
        assert_ne!(a.mask(3, 2, 1), a.mask(3, 2, 2));
    }

    #[test]
    fn split_into_validates_the_buffer_length() {
        let sharer = SecretSharer::new(1, 2).unwrap();
        let mut wrong = [0i128; 3];
        assert!(sharer.split_into(0, 0, 5, &mut wrong).is_err());
        let mut right = [0i128; 2];
        assert!(sharer.split_into(0, 0, 5, &mut right).is_ok());
        assert_eq!(right[0].wrapping_add(right[1]), 5);
    }

    #[test]
    fn single_shard_split_is_the_plaintext_value() {
        let sharer = SecretSharer::new(3, 1).unwrap();
        assert_eq!(sharer.split(0, 0, 42), vec![42]);
    }

    #[test]
    fn recombined_share_sums_match_plaintext_sums_in_any_order() {
        // Fold each shard's stream independently (like the aggregator
        // workers do), then recombine the per-shard accumulators: the result
        // must equal the plaintext sum exactly, regardless of shard count.
        let values: Vec<i128> = (0..100)
            .map(|i| encode_fixed((i as f64 - 50.0) * 0.37).unwrap())
            .collect();
        let plaintext: i128 = values.iter().fold(0, |a, &v| a.wrapping_add(v));
        for shards in [1usize, 2, 4] {
            let sharer = SecretSharer::new(17, shards).unwrap();
            let mut accumulators = vec![0i128; shards];
            for (counter, &value) in values.iter().enumerate() {
                let shares = sharer.split(counter as u64, 0, value);
                for (acc, share) in accumulators.iter_mut().zip(&shares) {
                    *acc = acc.wrapping_add(*share);
                }
            }
            assert_eq!(recombine(&accumulators), plaintext, "shards={shards}");
        }
    }
}
