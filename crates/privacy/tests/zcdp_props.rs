//! Property-based tests for the [`ZcdpAccountant`]: additive/order-invariant
//! composition, monotonicity in ρ, a conversion never looser than pure
//! sequential composition, and exact budget boundaries.

use p2b_privacy::{
    compare_composition, pure_dp_to_rho, rho_to_epsilon, PrivacyError, PrivacyGuarantee,
    ZcdpAccountant,
};
use proptest::prelude::*;

proptest! {
    /// zCDP composition is additive, hence associative and order-invariant:
    /// any permutation and any grouping of the same spends lands on the same
    /// total ρ (up to floating-point reassociation slack).
    #[test]
    fn composition_is_order_invariant(
        rhos in prop::collection::vec(0.0f64..2.0, 1..30),
    ) {
        let mut forward = ZcdpAccountant::new();
        for &r in &rhos {
            forward.spend_rho(r).unwrap();
        }
        let mut backward = ZcdpAccountant::new();
        for &r in rhos.iter().rev() {
            backward.spend_rho(r).unwrap();
        }
        prop_assert!((forward.rho() - backward.rho()).abs() < 1e-9);
        prop_assert_eq!(forward.count(), backward.count());
    }

    /// The composed ρ is monotone: every spend can only increase it, by
    /// exactly the spent amount.
    #[test]
    fn rho_is_monotone_in_spends(rhos in prop::collection::vec(0.0f64..1.0, 1..40)) {
        let mut acc = ZcdpAccountant::new();
        let mut prev = 0.0f64;
        for &r in &rhos {
            acc.spend_rho(r).unwrap();
            prop_assert!(acc.rho() >= prev);
            prop_assert!((acc.rho() - (prev + r)).abs() < 1e-12);
            prev = acc.rho();
        }
    }

    /// The (ε, δ) conversion is monotone in ρ: more concentrated loss never
    /// converts to a smaller ε.
    #[test]
    fn conversion_is_monotone_in_rho(
        rho in 0.0f64..50.0,
        bump in 0.001f64..5.0,
        delta in 1e-12f64..0.1,
    ) {
        let lo = rho_to_epsilon(rho, delta).unwrap();
        let hi = rho_to_epsilon(rho + bump, delta).unwrap();
        prop_assert!(hi > lo);
    }

    /// On any sequence of pure-DP spends, the accountant's ε never exceeds
    /// the pure sequential-composition total Σεᵢ — the conversion takes the
    /// min of the two valid bounds.
    #[test]
    fn never_looser_than_sequential_composition(
        epsilons in prop::collection::vec(0.0f64..2.0, 1..60),
        delta in 1e-12f64..0.1,
    ) {
        let mut acc = ZcdpAccountant::new();
        let mut pure_total = 0.0f64;
        for &e in &epsilons {
            acc.spend_guarantee(&PrivacyGuarantee::pure(e).unwrap()).unwrap();
            pure_total += e;
        }
        let reported = acc.epsilon(delta).unwrap();
        prop_assert!(
            reported <= pure_total + 1e-12,
            "zCDP-accounted ε {} must not exceed pure composition {}",
            reported, pure_total
        );
    }

    /// At long horizons the zCDP route is *strictly* tighter than pure
    /// composition — the O(√k) vs O(k) separation the upgrade exists for.
    #[test]
    fn strictly_tighter_at_long_horizons(
        epsilon in 0.05f64..1.0,
        horizon in 1_000u32..50_000,
    ) {
        let cmp = compare_composition(
            PrivacyGuarantee::pure(epsilon).unwrap(),
            horizon,
            1e-6,
        )
        .unwrap();
        prop_assert!(cmp.zcdp_epsilon < cmp.pure_epsilon);
        // And the quoted zCDP ε matches the closed form (min'd with pure).
        let closed = rho_to_epsilon(cmp.rho, 1e-6).unwrap().min(cmp.pure_epsilon);
        prop_assert!((cmp.zcdp_epsilon - closed).abs() < 1e-9);
    }

    /// Budget enforcement refuses over-spending exactly at the boundary:
    /// spending to the budget succeeds, any ρ > 0 beyond it fails, and a
    /// refused spend leaves the accountant untouched.
    #[test]
    fn budget_boundary_is_exact(
        budget in 0.1f64..10.0,
        steps in 1u32..20,
        overshoot in 1e-6f64..1.0,
    ) {
        // Spending exactly to the budget in one step is accepted; the first
        // ρ > 0 beyond it is refused.
        let mut exact = ZcdpAccountant::with_budget(budget).unwrap();
        exact.spend_rho(budget).unwrap();
        prop_assert_eq!(exact.remaining_rho(), Some(0.0));
        prop_assert!(matches!(
            exact.spend_rho(overshoot),
            Err(PrivacyError::BudgetExceeded { .. })
        ));

        // A refused spend leaves a partially-spent accountant untouched
        // (steps - 1 sub-budget spends stay safely below the budget even
        // with float accumulation).
        let step = budget / f64::from(steps + 1);
        let mut acc = ZcdpAccountant::with_budget(budget).unwrap();
        for _ in 0..steps {
            acc.spend_rho(step).unwrap();
        }
        let count = acc.count();
        let rho = acc.rho();
        let refused = acc.spend_rho(budget);
        prop_assert!(matches!(refused, Err(PrivacyError::BudgetExceeded { .. })));
        prop_assert_eq!(acc.count(), count);
        prop_assert!((acc.rho() - rho).abs() == 0.0);
    }

    /// Pure ε → ρ → (ε', δ) round trip: the recovered ε' never beats the
    /// original pure guarantee for a single spend (the conversion is exact
    /// only in the many-spend regime), and the accountant's min() therefore
    /// returns the pure ε for a single spend.
    #[test]
    fn single_spend_reports_the_pure_epsilon(
        epsilon in 0.01f64..3.0,
        delta in 1e-12f64..0.1,
    ) {
        let rho = pure_dp_to_rho(epsilon).unwrap();
        prop_assert!((rho - epsilon * epsilon / 2.0).abs() < 1e-12);
        let mut acc = ZcdpAccountant::new();
        acc.spend_guarantee(&PrivacyGuarantee::pure(epsilon).unwrap()).unwrap();
        prop_assert!((acc.epsilon(delta).unwrap() - epsilon).abs() < 1e-12);
    }

    /// δ slack accumulates additively alongside ρ and is carried into the
    /// final guarantee.
    #[test]
    fn delta_slack_accumulates(
        deltas in prop::collection::vec(1e-12f64..1e-6, 1..50),
    ) {
        let mut acc = ZcdpAccountant::new();
        for &d in &deltas {
            acc.spend_guarantee(&PrivacyGuarantee::new(0.1, d).unwrap()).unwrap();
        }
        let sum: f64 = deltas.iter().sum();
        prop_assert!((acc.delta_slack() - sum).abs() < 1e-15);
        let out = acc.to_guarantee(1e-9).unwrap();
        prop_assert!((out.delta() - (1e-9 + sum)).abs() < 1e-15);
    }
}
