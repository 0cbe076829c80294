//! Privacy amplification by pre-sampling (Equations 2 and 3 of the paper).

use crate::{Participation, PrivacyError};
use serde::{Deserialize, Serialize};

/// The ε of the combined pre-sampling + crowd-blending mechanism
/// (Equation 2 of the paper):
///
/// ```text
/// ε = ln( p · (2 − p)/(1 − p) · e^ε̄ + (1 − p) )
/// ```
///
/// With the exact encoder (ε̄ = 0) this reduces to Equation 3, and at
/// `p = 0.5` it evaluates to `ln 2 ≈ 0.693`, the headline privacy budget of
/// the paper.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] when `epsilon_bar` is negative
/// or non-finite.
///
/// ```
/// use p2b_privacy::{amplified_epsilon, Participation};
/// let eps = amplified_epsilon(Participation::new(0.5).unwrap(), 0.0).unwrap();
/// assert!((eps - 0.6931471805599453).abs() < 1e-12);
/// ```
pub fn amplified_epsilon(p: Participation, epsilon_bar: f64) -> Result<f64, PrivacyError> {
    if !epsilon_bar.is_finite() || epsilon_bar < 0.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "epsilon_bar",
            message: format!("must be a finite non-negative number, got {epsilon_bar}"),
        });
    }
    let p = p.value();
    let inside = p * ((2.0 - p) / (1.0 - p)) * epsilon_bar.exp() + (1.0 - p);
    Ok(inside.ln())
}

/// The δ of the combined mechanism (Equation 2): `δ = e^(−Ω · l · (1 − p)²)`,
/// where `Ω` is the constant from the analysis of Gehrke et al. (2012) and
/// `l` the crowd-blending parameter.
///
/// δ shrinks exponentially in `l`, which is the reason the paper can make δ
/// negligible simply by raising the shuffler threshold.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] when `crowd_size == 0` or
/// `omega` is not strictly positive and finite.
pub fn amplified_delta(p: Participation, crowd_size: u64, omega: f64) -> Result<f64, PrivacyError> {
    if crowd_size == 0 {
        return Err(PrivacyError::InvalidParameter {
            name: "crowd_size",
            message: "must be at least 1".to_owned(),
        });
    }
    validate_omega(omega)?;
    let q = 1.0 - p.value();
    Ok((-omega * crowd_size as f64 * q * q).exp())
}

/// Checks the constant Ω of the δ bound (Equation 2): it must be a finite
/// positive number. The one statement of the rule, shared by
/// [`amplified_delta`], [`crate::AmplificationLedger::new`] and
/// configurations that validate Ω before any batch is released.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] naming `omega` otherwise.
pub fn validate_omega(omega: f64) -> Result<(), PrivacyError> {
    if !omega.is_finite() || omega <= 0.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "omega",
            message: format!("must be a finite positive number, got {omega}"),
        });
    }
    Ok(())
}

/// Inverts Equation 3: the participation probability needed to achieve a
/// target ε with an exact (ε̄ = 0) crowd-blending encoder.
///
/// Solving `e^ε = p(2 − p)/(1 − p) + 1 − p` for `p` gives a quadratic in `p`;
/// the root inside `(0, 1)` is returned.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] for non-positive or non-finite
/// targets (ε → 0 requires p → 0, which is outside the open interval).
pub fn participation_for_epsilon(target_epsilon: f64) -> Result<Participation, PrivacyError> {
    if !target_epsilon.is_finite() || target_epsilon <= 0.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "target_epsilon",
            message: format!("must be a finite positive number, got {target_epsilon}"),
        });
    }
    let e = target_epsilon.exp();
    // From e = (p(2-p) + (1-p)^2) / (1-p) = (1 + p - p^2 + ... ) — expand:
    // p(2-p)/(1-p) + (1-p) = e
    // => p(2-p) + (1-p)^2 = e(1-p)
    // => 2p - p^2 + 1 - 2p + p^2 = e - ep
    // => 1 = e - ep  =>  p = (e - 1)/e = 1 - e^{-ε}.
    let p = 1.0 - 1.0 / e;
    Participation::new(p)
}

/// One point of the ε(p) curve of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonPoint {
    /// Participation probability.
    pub p: f64,
    /// Resulting differential-privacy ε (Equation 3, ε̄ = 0).
    pub epsilon: f64,
}

/// Sweeps the participation probability over `(0, 1)` and reports the
/// resulting ε values — the data series plotted in Figure 3 of the paper.
///
/// The sweep covers `steps` evenly spaced probabilities strictly inside
/// `(p_min, p_max)`.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] when the range is empty,
/// out of `(0, 1)`, or `steps == 0`.
pub fn epsilon_sweep(
    p_min: f64,
    p_max: f64,
    steps: usize,
) -> Result<Vec<EpsilonPoint>, PrivacyError> {
    if steps == 0 {
        return Err(PrivacyError::InvalidParameter {
            name: "steps",
            message: "must be at least 1".to_owned(),
        });
    }
    if !(p_min > 0.0 && p_max < 1.0 && p_min <= p_max) {
        return Err(PrivacyError::InvalidParameter {
            name: "range",
            message: format!("need 0 < p_min <= p_max < 1, got [{p_min}, {p_max}]"),
        });
    }
    let mut points = Vec::with_capacity(steps);
    for i in 0..steps {
        let fraction = if steps == 1 {
            0.0
        } else {
            i as f64 / (steps - 1) as f64
        };
        let p_value = p_min + fraction * (p_max - p_min);
        let p = Participation::new(p_value)?;
        points.push(EpsilonPoint {
            p: p_value,
            epsilon: amplified_epsilon(p, 0.0)?,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Participation {
        Participation::new(v).unwrap()
    }

    #[test]
    fn headline_value_p_half_gives_ln_two() {
        let eps = amplified_epsilon(p(0.5), 0.0).unwrap();
        assert!((eps - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn epsilon_is_monotone_in_participation() {
        let mut prev = 0.0;
        for &pv in &[0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let eps = amplified_epsilon(p(pv), 0.0).unwrap();
            assert!(eps > prev, "ε should grow with p ({pv}: {eps} <= {prev})");
            prev = eps;
        }
    }

    #[test]
    fn epsilon_vanishes_as_participation_goes_to_zero() {
        let eps = amplified_epsilon(p(1e-6), 0.0).unwrap();
        assert!(eps < 1e-4);
    }

    #[test]
    fn positive_epsilon_bar_weakens_the_guarantee() {
        let tight = amplified_epsilon(p(0.5), 0.0).unwrap();
        let loose = amplified_epsilon(p(0.5), 0.5).unwrap();
        assert!(loose > tight);
        assert!(amplified_epsilon(p(0.5), -1.0).is_err());
        assert!(amplified_epsilon(p(0.5), f64::NAN).is_err());
    }

    #[test]
    fn delta_shrinks_exponentially_in_crowd_size() {
        let d10 = amplified_delta(p(0.5), 10, 0.1).unwrap();
        let d20 = amplified_delta(p(0.5), 20, 0.1).unwrap();
        let d40 = amplified_delta(p(0.5), 40, 0.1).unwrap();
        assert!(d20 < d10);
        assert!(d40 < d20);
        // Exponential decay: adding 20 to l multiplies delta by the square of
        // the factor that adding 10 does.
        assert!((d40 / d20 - (d20 / d10).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn delta_grows_with_participation() {
        // Higher p means less pre-sampling noise, hence larger δ.
        let low_p = amplified_delta(p(0.25), 10, 0.1).unwrap();
        let high_p = amplified_delta(p(0.75), 10, 0.1).unwrap();
        assert!(high_p > low_p);
    }

    #[test]
    fn delta_validates_parameters() {
        assert!(amplified_delta(p(0.5), 0, 0.1).is_err());
        assert!(amplified_delta(p(0.5), 10, 0.0).is_err());
        assert!(amplified_delta(p(0.5), 10, f64::INFINITY).is_err());
    }

    #[test]
    fn inverse_round_trips_epsilon() {
        for &target in &[0.1, 0.5, std::f64::consts::LN_2, 1.0, 2.0] {
            let p = participation_for_epsilon(target).unwrap();
            let eps = amplified_epsilon(p, 0.0).unwrap();
            assert!(
                (eps - target).abs() < 1e-9,
                "target {target}, p {p}, eps {eps}"
            );
        }
    }

    #[test]
    fn inverse_of_ln_two_is_one_half() {
        let p = participation_for_epsilon(std::f64::consts::LN_2).unwrap();
        assert!((p.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverse_rejects_invalid_targets() {
        assert!(participation_for_epsilon(0.0).is_err());
        assert!(participation_for_epsilon(-1.0).is_err());
        assert!(participation_for_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn sweep_covers_requested_range_and_is_monotone() {
        let points = epsilon_sweep(0.05, 0.95, 19).unwrap();
        assert_eq!(points.len(), 19);
        assert!((points[0].p - 0.05).abs() < 1e-12);
        assert!((points[18].p - 0.95).abs() < 1e-12);
        for window in points.windows(2) {
            assert!(window[1].epsilon > window[0].epsilon);
        }
    }

    #[test]
    fn sweep_validates_arguments() {
        assert!(epsilon_sweep(0.0, 0.5, 5).is_err());
        assert!(epsilon_sweep(0.1, 1.0, 5).is_err());
        assert!(epsilon_sweep(0.6, 0.4, 5).is_err());
        assert!(epsilon_sweep(0.1, 0.9, 0).is_err());
        // A single step degenerates to the left endpoint.
        let single = epsilon_sweep(0.5, 0.5, 1).unwrap();
        assert_eq!(single.len(), 1);
        assert!((single[0].epsilon - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
