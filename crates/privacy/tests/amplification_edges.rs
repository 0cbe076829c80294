//! Satellite tests for the privacy layer: amplification monotonicity as the
//! sampling (participation) rate drops, and crowd-blending threshold edge
//! cases at the boundaries of the crowd size.

use p2b_privacy::{
    amplified_delta, amplified_epsilon, AmplificationLedger, CrowdBlending, Participation,
    PrivacyGuarantee,
};

/// A descending ladder of participation rates from near-certain reporting
/// down to near-total silence.
fn descending_rates() -> Vec<f64> {
    vec![0.99, 0.9, 0.75, 0.5, 0.25, 0.1, 0.01, 0.001]
}

#[test]
fn epsilon_shrinks_as_the_sampling_rate_drops() {
    // Amplification by sub-sampling: reporting less often must never cost
    // more privacy, across both exact (ε̄ = 0) and leaky (ε̄ > 0) encoders.
    for epsilon_bar in [0.0, 0.1, 1.0] {
        let epsilons: Vec<f64> = descending_rates()
            .into_iter()
            .map(|p| amplified_epsilon(Participation::new(p).unwrap(), epsilon_bar).unwrap())
            .collect();
        for window in epsilons.windows(2) {
            assert!(
                window[1] < window[0],
                "ε must strictly shrink with the sampling rate (ε̄={epsilon_bar}): {epsilons:?}"
            );
        }
        assert!(epsilons.iter().all(|e| e.is_finite() && *e > 0.0));
    }
}

#[test]
fn delta_shrinks_as_the_sampling_rate_drops() {
    for crowd_size in [1u64, 10, 100] {
        let deltas: Vec<f64> = descending_rates()
            .into_iter()
            .map(|p| amplified_delta(Participation::new(p).unwrap(), crowd_size, 0.1).unwrap())
            .collect();
        for window in deltas.windows(2) {
            assert!(
                window[1] <= window[0],
                "δ must shrink with the sampling rate (l={crowd_size}): {deltas:?}"
            );
        }
        assert!(deltas.iter().all(|d| (0.0..=1.0).contains(d)));
    }
}

#[test]
fn amplification_approaches_no_privacy_as_p_approaches_one() {
    // As p → 1 the mechanism degenerates to always-report: ε explodes and
    // δ tends to 1 (the bound becomes vacuous).
    let nearly_one = Participation::new(1.0 - 1e-12).unwrap();
    assert!(amplified_epsilon(nearly_one, 0.0).unwrap() > 20.0);
    assert!(amplified_delta(nearly_one, 10, 0.1).unwrap() > 0.999_999);
}

#[test]
fn crowd_blending_rejects_an_empty_crowd() {
    // k = 0: a crowd of zero is meaningless and must be a constructor error,
    // not a silently-satisfied guarantee.
    assert!(CrowdBlending::exact(0).is_err());
    assert!(CrowdBlending::new(0, 0.0).is_err());
}

#[test]
fn crowd_size_one_accepts_any_batch() {
    // k = 1: every released report trivially blends with itself.
    let crowd = CrowdBlending::exact(1).unwrap();
    assert!(crowd.is_satisfied_by::<usize>(&[]));
    assert!(crowd.is_satisfied_by(&[42]));
    assert!(crowd.is_satisfied_by(&[1, 2, 3, 4, 5]));
    assert_eq!(crowd.count_violations(&[1, 2, 3]), 0);
}

#[test]
fn crowd_larger_than_population_rejects_every_code() {
    // k > population: no code can reach the required frequency, so every
    // report in the batch is a violation.
    let population = vec![7usize, 7, 7, 8, 8, 8];
    let crowd = CrowdBlending::exact(population.len() as u64 + 1).unwrap();
    assert!(!crowd.is_satisfied_by(&population));
    // Violations are counted per distinct code, and both codes fall short.
    assert_eq!(crowd.count_violations(&population), 2);
    // An empty release remains vacuously satisfied even for a huge k.
    assert!(crowd.is_satisfied_by::<usize>(&[]));
}

#[test]
fn crowd_blending_boundary_at_exact_threshold() {
    // Exactly k copies satisfy the guarantee; k - 1 copies violate it.
    let crowd = CrowdBlending::exact(3).unwrap();
    assert!(crowd.is_satisfied_by(&[5, 5, 5]));
    assert!(!crowd.is_satisfied_by(&[5, 5]));
    assert_eq!(crowd.count_violations(&[5, 5]), 1);
}

#[test]
fn legacy_pure_composition_totals_are_byte_identical() {
    // The zCDP accounting backend is additive-only: the legacy
    // PrivacyGuarantee::compose / compose_n sequential-composition path,
    // fed the ledger's weakest batch, must produce bit-for-bit the values it
    // always has. These constants
    // were computed before the zCDP backend existed; any drift here means
    // the legacy path changed behavior.
    let p = Participation::new(0.5).unwrap();
    let per_report = amplified_epsilon(p, 0.0).unwrap();
    assert_eq!(per_report.to_bits(), std::f64::consts::LN_2.to_bits());

    let mut total = PrivacyGuarantee::zero();
    for _ in 0..7 {
        total = total.compose(&PrivacyGuarantee::pure(per_report).unwrap());
    }
    // 7 × ln 2 accumulated by repeated addition, exactly as before.
    let mut expected = 0.0f64;
    for _ in 0..7 {
        expected += std::f64::consts::LN_2;
    }
    assert_eq!(total.epsilon().to_bits(), expected.to_bits());
    assert_eq!(total.delta().to_bits(), 0.0f64.to_bits());

    let mut ledger = AmplificationLedger::new(p, 0.1).unwrap();
    ledger.record_batch(100, 10).unwrap();
    ledger.record_batch(40, 3).unwrap();
    let weakest = ledger.weakest().unwrap().guarantee;
    let composed = weakest.compose_n(4);
    let expected_delta = amplified_delta(p, 3, 0.1).unwrap();
    assert_eq!(weakest.delta().to_bits(), expected_delta.to_bits());
    assert_eq!(
        composed.epsilon().to_bits(),
        (4.0 * std::f64::consts::LN_2).to_bits()
    );
    assert_eq!(
        composed.delta().to_bits(),
        (4.0 * expected_delta).min(1.0).to_bits()
    );
}
