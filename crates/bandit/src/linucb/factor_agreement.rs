//! Agreement pins between the factor arm and the Sherman–Morrison oracle,
//! and the factor's numerical health.
//!
//! * **Factor ≈ oracle.** A per-report fold updates the arm's packed
//!   Cholesky factor (`A = LDLᵀ`) by a rank-one update; the oracle
//!   ([`crate::incremental::RankOneInverse`], the tracker arms held before)
//!   keeps `A⁻¹` and the design, folds by Sherman–Morrison and refreshes
//!   the inverse exactly every 4 096 folds. Over fold sequences of up to
//!   2 × 4 096 folds per arm, at d ∈ {1, 6, 10, 16, 32}, scores and θ agree
//!   within [`SCORE_TOLERANCE`] and the selected action is the oracle's
//!   whenever the oracle's best score leads the runner-up by more than
//!   twice that.
//! * **Drift.** After N ∈ {1, 4 096, 20 000} unit-ball folds,
//!   `‖LDLᵀ − A‖_F / ‖A‖_F` stays under [`DRIFT_BOUND`], where `A` is the
//!   exact [`ArmSums`] design of the same folds, and the cached θ stays
//!   within [`DRIFT_BOUND`]`·(1 + |θᵢ|)` of a fresh factorization's solve.

use crate::incremental::RankOneInverse;
use crate::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
use p2b_linalg::{Cholesky, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Absolute agreement of scores and θ coordinates with the oracle. Both
/// are O(1) here (unit-ball contexts, rewards in `[0, 1]`, λ = 1, α = 1):
/// the worst gap measured over 20 000 folds at d ≤ 32 (three seeds each)
/// is `1.0·10⁻¹⁵` for scores and `2.2·10⁻¹⁵` for θ, so `10⁻¹¹` leaves
/// three orders of magnitude for other draws while a wrong update (gaps of
/// order one) cannot hide under it.
const SCORE_TOLERANCE: f64 = 1e-11;

/// Relative drift of the factor from the exact design, and of θ from a
/// fresh solve. Measured worst at N = 20 000, d ≤ 32 (three seeds each):
/// `2.0·10⁻¹⁴` for `‖LDLᵀ − A‖_F / ‖A‖_F` and `1.5·10⁻¹⁵` for θ —
/// rounding errors of independent folds cancel rather than add; the linear
/// worst case `N·d·u` would be `7·10⁻¹¹` — so `10⁻¹²` leaves a margin of
/// 50.
const DRIFT_BOUND: f64 = 1e-12;

/// A context in the unit ball: a random direction of random length.
fn unit_ball(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
    let radius = rng.gen_range(0.0f64..=1.0);
    raw.scaled(radius / raw.norm2().max(f64::MIN_POSITIVE))
}

/// One arm as the oracle holds it.
struct OracleArm {
    tracker: RankOneInverse,
    reward_vector: Vector,
}

impl OracleArm {
    fn theta(&self) -> Vector {
        self.tracker.solve(&self.reward_vector).unwrap()
    }

    /// `θᵀx + α·√(xᵀA⁻¹x)` off the tracked inverse, α = 1.
    fn score(&self, x: &Vector) -> f64 {
        let bonus = self.tracker.quadratic_form(x).unwrap().max(0.0);
        self.theta().dot(x).unwrap() + bonus.sqrt()
    }
}

/// Holds `model` to the oracle: θ of every arm, the scores of a few probe
/// contexts, and the action selected on each probe unless the oracle's
/// best two scores are a near-tie.
fn check_against_oracle(model: &LinUcb, oracle: &[OracleArm], rng: &mut StdRng) {
    let d = model.config().context_dimension;
    for (arm, reference) in oracle.iter().enumerate() {
        let theta = model.theta(Action::new(arm)).unwrap();
        for (x, y) in theta.iter().zip(reference.theta().iter()) {
            prop_assert!((x - y).abs() <= SCORE_TOLERANCE, "theta {} vs {}", x, y);
        }
    }
    for _ in 0..3 {
        let probe = unit_ball(d, rng);
        let expected: Vec<f64> = oracle.iter().map(|arm| arm.score(&probe)).collect();
        let scores = model.scores(&probe).unwrap();
        for (x, y) in scores.iter().zip(&expected) {
            prop_assert!((x - y).abs() <= SCORE_TOLERANCE, "score {} vs {}", x, y);
        }
        let mut ranked = expected.clone();
        ranked.sort_by(|a, b| b.total_cmp(a));
        if ranked.len() > 1 && ranked[0] - ranked[1] <= 2.0 * SCORE_TOLERANCE {
            continue;
        }
        let best = (expected.iter().enumerate())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(arm, _)| arm)
            .unwrap();
        let mut tie_rng = StdRng::seed_from_u64(0);
        let chosen = model
            .select_action_with(&probe, &mut tie_rng, &mut SelectScratch::new())
            .unwrap();
        prop_assert_eq!(chosen.index(), best);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two arms fold the same random unit-ball reports into a factor model
    /// and into the oracle; every 1 024 folds and at the end the model is
    /// held to the oracle. Up to 16 384 folds over two arms reach past the
    /// oracle's refresh at 4 096 folds per arm and up to its second one.
    #[test]
    fn factor_arms_track_the_sherman_morrison_oracle(
        d in prop_oneof![Just(1usize), Just(6), Just(10), Just(16), Just(32)],
        folds in prop_oneof![Just(16_384usize), 1usize..16_384],
        seed in any::<u64>(),
    ) {
        const ARMS: usize = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = LinUcb::new(LinUcbConfig::new(d, ARMS)).unwrap();
        let mut oracle: Vec<OracleArm> = (0..ARMS)
            .map(|_| OracleArm {
                tracker: RankOneInverse::identity(d, 1.0).unwrap(),
                reward_vector: Vector::zeros(d),
            })
            .collect();
        for fold in 1..=folds {
            let x = unit_ball(d, &mut rng);
            let reward = rng.gen_range(0.0..=1.0);
            let arm = rng.gen_range(0..ARMS);
            model.update(&x, Action::new(arm), reward).unwrap();
            oracle[arm].tracker.update(&x).unwrap();
            oracle[arm].reward_vector.axpy(reward, &x).unwrap();
            if fold % 1024 == 0 || fold == folds {
                check_against_oracle(&model, &oracle, &mut rng);
            }
        }
    }
}

/// The factor after N ∈ {1, 4 096, 20 000} unit-ball folds is within
/// [`DRIFT_BOUND`] of the exact design in relative Frobenius norm, and its
/// θ within the bound of a fresh factorization's solve, at d ∈ {1, 6, 16,
/// 32}.
#[test]
fn the_folded_factor_stays_within_its_drift_bound_of_the_exact_design() {
    for d in [1usize, 6, 16, 32] {
        let config = LinUcbConfig::new(d, 1);
        let mut rng = StdRng::seed_from_u64(d as u64);
        let mut model = LinUcb::new(config).unwrap();
        let mut sums = ArmSums::new(&config).unwrap();
        for fold in 1..=20_000usize {
            let x = unit_ball(d, &mut rng);
            let reward = rng.gen_range(0.0..=1.0);
            model.update(&x, Action::new(0), reward).unwrap();
            sums.fold(&x, 1, reward).unwrap();
            if ![1, 4096, 20_000].contains(&fold) {
                continue;
            }
            let factor = model.factor(Action::new(0)).unwrap();
            let mut gap = factor.reconstruct();
            gap.add_assign(&sums.design.scaled(-1.0)).unwrap();
            let drift = gap.frobenius_norm() / sums.design.frobenius_norm();
            assert!(drift <= DRIFT_BOUND, "d = {d}, N = {fold}: drift {drift:e}");
            let fresh = Cholesky::new(&sums.design)
                .unwrap()
                .solve(&sums.reward_vector)
                .unwrap();
            let theta = model.theta(Action::new(0)).unwrap();
            for (x, y) in theta.iter().zip(fresh.iter()) {
                assert!(
                    (x - y).abs() <= DRIFT_BOUND * (1.0 + y.abs()),
                    "d = {d}, N = {fold}: theta {x} vs fresh {y}"
                );
            }
        }
    }
}
