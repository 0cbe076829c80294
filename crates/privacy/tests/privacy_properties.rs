//! Property-based tests for the privacy analysis.

use p2b_privacy::{
    amplified_delta, amplified_epsilon, participation_for_epsilon, CrowdBlending, Participation,
    PrivacyGuarantee, RandomizedResponse,
};
use proptest::prelude::*;

proptest! {
    /// Equation 3 always produces a positive, finite ε for p in (0, 1).
    #[test]
    fn epsilon_is_positive_and_finite(p in 0.001f64..0.999) {
        let eps = amplified_epsilon(Participation::new(p).unwrap(), 0.0).unwrap();
        prop_assert!(eps.is_finite());
        prop_assert!(eps > 0.0);
    }

    /// ε is strictly increasing in the participation probability: sharing
    /// more often always costs more privacy.
    #[test]
    fn epsilon_is_monotone(p1 in 0.001f64..0.99, bump in 0.001f64..0.009) {
        let p2 = p1 + bump;
        let e1 = amplified_epsilon(Participation::new(p1).unwrap(), 0.0).unwrap();
        let e2 = amplified_epsilon(Participation::new(p2).unwrap(), 0.0).unwrap();
        prop_assert!(e2 > e1);
    }

    /// The closed-form inverse round-trips through Equation 3.
    #[test]
    fn participation_inverse_round_trips(target in 0.01f64..5.0) {
        let p = participation_for_epsilon(target).unwrap();
        let eps = amplified_epsilon(p, 0.0).unwrap();
        prop_assert!((eps - target).abs() < 1e-9);
    }

    /// δ lies in (0, 1] and decreases when the crowd grows.
    #[test]
    fn delta_is_a_probability_and_monotone_in_l(
        p in 0.01f64..0.99,
        l in 1u64..500,
        omega in 0.01f64..2.0,
    ) {
        let d = amplified_delta(Participation::new(p).unwrap(), l, omega).unwrap();
        let d_bigger = amplified_delta(Participation::new(p).unwrap(), l + 50, omega).unwrap();
        // delta may underflow to exactly 0.0 for very large crowds, which is fine.
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!(d_bigger <= d);
    }

    /// Sequential composition over n identical guarantees equals n·ε exactly.
    #[test]
    fn composition_is_linear(eps in 0.0f64..2.0, n in 1u32..20) {
        let g = PrivacyGuarantee::pure(eps).unwrap();
        let composed = g.compose_n(n);
        prop_assert!((composed.epsilon() - eps * f64::from(n)).abs() < 1e-9);
    }

    /// Randomized response outputs are always valid categories and the
    /// truth probability respects the ε-LDP likelihood-ratio bound.
    #[test]
    fn randomized_response_respects_ldp_bound(k in 2usize..30, eps in 0.1f64..4.0) {
        let rr = RandomizedResponse::new(k, eps).unwrap();
        let t = rr.truth_probability();
        let lie = (1.0 - t) / (k as f64 - 1.0);
        // LDP requires max/min output probability ratio <= e^eps.
        prop_assert!(t / lie <= eps.exp() + 1e-9);
    }

    /// Crowd-blending empirical verification accepts batches where every code
    /// is repeated at least l times and rejects batches with a unique code.
    #[test]
    fn crowd_blending_empirical_check(l in 2u64..6, codes in 1usize..5) {
        let cb = CrowdBlending::exact(l).unwrap();
        let mut compliant = Vec::new();
        for c in 0..codes {
            for _ in 0..l {
                compliant.push(c);
            }
        }
        prop_assert!(cb.is_satisfied_by(&compliant));
        let mut violating = compliant.clone();
        violating.push(codes + 10);
        prop_assert!(!cb.is_satisfied_by(&violating));
    }
}
