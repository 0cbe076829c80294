//! Property-based tests for the fixed-point additive secret sharing used by
//! the secure-aggregation regime: encode → split → recombine → decode must
//! be exact (up to the documented half-grid-step quantization of `encode`)
//! for every value in the dynamic range, at every shard count, under any
//! fold order, and independently of the mask seed — while out-of-range
//! inputs must *error*, never wrap.

use p2b_privacy::{
    decode_fixed, encode_fixed, recombine, SecretSharer, FIXED_POINT_MAX_ABS, FIXED_POINT_SCALE,
};
use proptest::prelude::*;

proptest! {
    /// The protocol round trip is the identity on the fixed-point grid:
    /// splitting an encoded value into k shares and recombining them yields
    /// the encoded word back bit-exactly, so the only error in
    /// decode(recombine(split(encode(x)))) is encode's quantization — at
    /// most half a 2⁻⁴⁸ grid step — at every shard count.
    #[test]
    fn encode_split_recombine_decode_round_trips(
        value in -FIXED_POINT_MAX_ABS..FIXED_POINT_MAX_ABS,
        seed in any::<u64>(),
        counter in any::<u64>(),
        coord in 0usize..512,
        shards in 1usize..8,
    ) {
        let encoded = encode_fixed(value).unwrap();
        let sharer = SecretSharer::new(seed, shards).unwrap();
        let shares = sharer.split(counter, coord, encoded);
        prop_assert_eq!(shares.len(), shards);
        prop_assert_eq!(recombine(&shares), encoded);
        let decoded = decode_fixed(recombine(&shares));
        prop_assert!((decoded - value).abs() <= 0.5 / FIXED_POINT_SCALE);
    }

    /// The shard counts the pipeline actually runs at — k ∈ {1, 2, 4} —
    /// recombine to the *same* word for the same value, even under
    /// different mask seeds: the recombined sum is a group element,
    /// independent of both the split width and the mask lanes.
    #[test]
    fn recombined_value_is_shard_count_and_seed_independent(
        value in -FIXED_POINT_MAX_ABS..FIXED_POINT_MAX_ABS,
        counter in any::<u64>(),
        coord in 0usize..512,
        seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let encoded = encode_fixed(value).unwrap();
        let recombined: Vec<i128> = [1usize, 2, 4]
            .iter()
            .zip([seeds.0, seeds.1, seeds.2].iter())
            .map(|(&shards, &seed)| {
                let sharer = SecretSharer::new(seed, shards).unwrap();
                recombine(&sharer.split(counter, coord, encoded))
            })
            .collect();
        prop_assert_eq!(recombined[0], encoded);
        prop_assert_eq!(recombined[1], encoded);
        prop_assert_eq!(recombined[2], encoded);
    }

    /// Aggregator-style folding commutes with recombination: folding each
    /// shard's share stream independently and recombining the k per-shard
    /// accumulators equals the plaintext wrapping sum exactly, for any
    /// contribution stream, any shard count, and any stream order.
    #[test]
    fn per_shard_folds_recombine_to_the_plaintext_sum_in_any_order(
        values in prop::collection::vec(-FIXED_POINT_MAX_ABS..FIXED_POINT_MAX_ABS, 1..64),
        seed in any::<u64>(),
        shards in 1usize..8,
        reverse in any::<bool>(),
    ) {
        let encoded: Vec<i128> = values
            .iter()
            .map(|&v| encode_fixed(v).unwrap())
            .collect();
        let plaintext = recombine(&encoded);
        let sharer = SecretSharer::new(seed, shards).unwrap();
        let mut accumulators = vec![0i128; shards];
        let fold = |accumulators: &mut Vec<i128>, counter: u64, word: i128| {
            let shares = sharer.split(counter, 0, word);
            for (acc, share) in accumulators.iter_mut().zip(&shares) {
                *acc = acc.wrapping_add(*share);
            }
        };
        if reverse {
            for (counter, &word) in encoded.iter().enumerate().rev() {
                fold(&mut accumulators, counter as u64, word);
            }
        } else {
            for (counter, &word) in encoded.iter().enumerate() {
                fold(&mut accumulators, counter as u64, word);
            }
        }
        prop_assert_eq!(recombine(&accumulators), plaintext);
    }

    /// Out-of-range and non-finite inputs error instead of wrapping: the
    /// headroom budget documented on the codec (|encoded| ≤ 2⁶²) holds for
    /// every accepted value, and nothing beyond the range sneaks through.
    #[test]
    fn out_of_range_values_error_rather_than_wrap(
        excess in 1.0f64..1e12,
        in_range in -FIXED_POINT_MAX_ABS..FIXED_POINT_MAX_ABS,
    ) {
        prop_assert!(encode_fixed(FIXED_POINT_MAX_ABS + excess).is_err());
        prop_assert!(encode_fixed(-FIXED_POINT_MAX_ABS - excess).is_err());
        let encoded = encode_fixed(in_range).unwrap();
        prop_assert!(encoded.unsigned_abs() <= 1u128 << 62);
    }

    /// Mask lanes are pure functions of (seed, counter, coord, shard): two
    /// sharers with the same parameters produce identical shares, so any
    /// worker re-deriving a split lands on the same bytes.
    #[test]
    fn splits_are_reproducible_across_sharer_instances(
        // The vendored proptest has no i128 Arbitrary; build the full-width
        // group element from two u64 halves.
        value_halves in (any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
        counter in any::<u64>(),
        coord in 0usize..512,
        shards in 1usize..8,
    ) {
        let value = ((u128::from(value_halves.0) << 64) | u128::from(value_halves.1)) as i128;
        let a = SecretSharer::new(seed, shards).unwrap();
        let b = SecretSharer::new(seed, shards).unwrap();
        prop_assert_eq!(a.split(counter, coord, value), b.split(counter, coord, value));
        // And recombination is exact even for arbitrary (not just encoded)
        // group elements — it is the group inverse of split, full stop.
        prop_assert_eq!(recombine(&a.split(counter, coord, value)), value);
    }
}

/// Values on which `encode_fixed` must round as `f64::round` does: anywhere
/// in range; the exact halves `k + 0.5` of the 2⁻⁴⁸ grid (they exist only
/// below 2⁴ in magnitude) and their float neighbours on either side; the
/// range ends ±2¹⁴; ±0.0; subnormals of either sign; and the largest float
/// below a half, which `(y + 0.5).trunc()` rounds up.
fn rounding_cases() -> impl Strategy<Value = f64> {
    prop_oneof![
        -FIXED_POINT_MAX_ABS..=FIXED_POINT_MAX_ABS,
        (-(1i64 << 52)..(1i64 << 52), -1i64..=1).prop_map(|(k, step)| {
            let half = (2 * k + 1) as f64 / (2.0 * FIXED_POINT_SCALE);
            f64::from_bits((half.to_bits() as i64 + step) as u64)
        }),
        (1u64..(1u64 << 52), any::<bool>())
            .prop_map(|(bits, negative)| f64::from_bits(bits | u64::from(negative) << 63)),
        (0usize..6).prop_map(|i| {
            [
                FIXED_POINT_MAX_ABS,
                -FIXED_POINT_MAX_ABS,
                0.0,
                -0.0,
                0.499_999_999_999_999_94 / FIXED_POINT_SCALE,
                -0.499_999_999_999_999_94 / FIXED_POINT_SCALE,
            ][i]
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `encode_fixed` rounds half away from zero without libm: bit-equal to
    /// the `f64::round` oracle on every case of [`rounding_cases`].
    #[test]
    fn encode_fixed_rounds_as_f64_round(value in rounding_cases()) {
        let oracle = (value * FIXED_POINT_SCALE).round() as i128;
        prop_assert_eq!(encode_fixed(value).unwrap(), oracle, "{:e}", value);
    }
}

#[test]
fn non_finite_values_are_rejected() {
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(encode_fixed(value).is_err(), "{value} must be rejected");
    }
}
