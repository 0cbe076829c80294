//! Zero-concentrated differential privacy (ρ-zCDP) accounting.
//!
//! Bun & Steinke 2016: a mechanism is ρ-zCDP when its Rényi divergence of
//! order α is bounded by ρα for every α > 1. Two facts make ρ the right
//! currency for long-horizon bandit deployments (Azize & Basu, *Concentrated
//! Differential Privacy for Bandits*):
//!
//! * **Composition is additive and tight**: `k` mechanisms of `ρᵢ`-zCDP
//!   compose to `(Σρᵢ)`-zCDP — no union-bound slack.
//! * **Conversions are two-way**: pure ε-DP implies `(ε²/2)`-zCDP, and
//!   ρ-zCDP implies `(ρ + 2√(ρ·ln(1/δ)), δ)`-DP for every δ ∈ (0, 1).
//!
//! Over `k` repetitions of an ε-DP mechanism, sequential composition quotes
//! `kε` while the zCDP route quotes `kε²/2 + ε√(2k·ln(1/δ))` — `O(√k)·ε`
//! instead of `O(k)·ε`, which is why the weakest P2B batch guarantee,
//! composed over thousands of batches by [`compare_composition`], is much
//! tighter by this route. The [`ZcdpAccountant`] tracks both routes as
//! running sums (per round, as Azize & Basu account, with no per-spend log)
//! and [`ZcdpAccountant::epsilon`] always reports the smaller of the two
//! valid bounds, so switching the accounting backend can only tighten the
//! quoted guarantee. A single ρ spend needs no accountant: the central-DP
//! curator converts its stream's ρ with [`rho_to_epsilon`] directly.

use crate::{PrivacyError, PrivacyGuarantee};
use serde::{Deserialize, Serialize};

/// The ρ-zCDP cost implied by one pure ε-DP release: `ρ = ε²/2`
/// (Bun & Steinke 2016, Proposition 1.4).
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] for negative or non-finite ε.
pub fn pure_dp_to_rho(epsilon: f64) -> Result<f64, PrivacyError> {
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "epsilon",
            message: format!("must be a finite non-negative number, got {epsilon}"),
        });
    }
    Ok(epsilon * epsilon / 2.0)
}

/// The (ε, δ)-DP guarantee implied by ρ-zCDP at a chosen δ:
/// `ε = ρ + 2√(ρ·ln(1/δ))` (Bun & Steinke 2016, Proposition 1.3).
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] for a negative / non-finite ρ
/// or a δ outside `(0, 1)`.
pub fn rho_to_epsilon(rho: f64, delta: f64) -> Result<f64, PrivacyError> {
    if !rho.is_finite() || rho < 0.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "rho",
            message: format!("must be a finite non-negative number, got {rho}"),
        });
    }
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(PrivacyError::InvalidParameter {
            name: "delta",
            message: format!("must lie in (0, 1), got {delta}"),
        });
    }
    Ok(rho + 2.0 * (rho * (1.0 / delta).ln()).sqrt())
}

/// Tracks cumulative privacy loss in ρ-zCDP with conversion to (ε, δ) at
/// query time. It keeps running sums (Σρ, Σδ, Σε while every spend carried
/// a pure ε) and a spend count, not a per-spend log.
///
/// Spends enter either as raw ρ ([`ZcdpAccountant::spend_rho`], e.g. one
/// Gaussian-mechanism release of a [`crate::TreeAggregator`] stream) or as
/// an (ε, δ) guarantee ([`ZcdpAccountant::spend_guarantee`], e.g. one
/// reporting opportunity in [`compare_composition`]), which is charged
/// `ε²/2` of ρ while its δ accrues as slack. [`ZcdpAccountant::epsilon`]
/// converts the composed ρ back to an ε at a caller-chosen δ and — whenever
/// every spend carried a pure ε — never reports a looser value than plain
/// sequential composition would.
///
/// ```
/// use p2b_privacy::{PrivacyGuarantee, ZcdpAccountant};
///
/// # fn main() -> Result<(), p2b_privacy::PrivacyError> {
/// let per_batch = PrivacyGuarantee::pure(0.693)?; // ε = ln 2 per batch
/// let mut acc = ZcdpAccountant::new();
/// for _ in 0..10_000 {
///     acc.spend_guarantee(&per_batch)?;
/// }
/// let zcdp = acc.epsilon(1e-6)?;
/// let pure = 10_000.0 * 0.693;
/// assert!(zcdp < pure / 2.0, "zCDP composes O(√k), not O(k)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZcdpAccountant {
    count: usize,
    rho: f64,
    delta_slack: f64,
    pure_epsilon: Option<f64>,
    budget: Option<f64>,
}

impl Default for ZcdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl ZcdpAccountant {
    /// Creates an unbounded accountant (no ρ budget enforcement).
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            rho: 0.0,
            delta_slack: 0.0,
            pure_epsilon: Some(0.0),
            budget: None,
        }
    }

    /// Creates an accountant that refuses expenditures beyond a total ρ of
    /// `budget`. Spending **exactly to** the budget is allowed; the first ρ
    /// beyond it is refused.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for a non-positive or
    /// non-finite budget.
    pub fn with_budget(budget: f64) -> Result<Self, PrivacyError> {
        if !budget.is_finite() || budget <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "budget",
                message: format!("must be a finite positive number, got {budget}"),
            });
        }
        Ok(Self {
            budget: Some(budget),
            ..Self::new()
        })
    }

    /// Records a raw ρ-zCDP expenditure (e.g. a Gaussian-mechanism release).
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for negative / non-finite
    /// ρ and [`PrivacyError::BudgetExceeded`] (carrying the ρ remaining and
    /// the ρ refused) when a budget is configured and the composed total
    /// would exceed it. A refused expenditure is not recorded.
    pub fn spend_rho(&mut self, rho: f64) -> Result<(), PrivacyError> {
        self.spend_inner(rho, None, 0.0)
    }

    /// Records an (ε, δ)-DP expenditure: charged `ε²/2` of ρ, with δ
    /// accruing as approximate-DP slack; the pure ε is kept so conversion
    /// can fall back to sequential composition when that is tighter.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::BudgetExceeded`] when the composed ρ would
    /// exceed a configured budget; the expenditure is not recorded.
    pub fn spend_guarantee(&mut self, guarantee: &PrivacyGuarantee) -> Result<(), PrivacyError> {
        let rho = pure_dp_to_rho(guarantee.epsilon())?;
        self.spend_inner(rho, Some(guarantee.epsilon()), guarantee.delta())
    }

    fn spend_inner(
        &mut self,
        rho: f64,
        pure_epsilon: Option<f64>,
        delta: f64,
    ) -> Result<(), PrivacyError> {
        if !rho.is_finite() || rho < 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "rho",
                message: format!("must be a finite non-negative number, got {rho}"),
            });
        }
        let proposed = self.rho + rho;
        if let Some(budget) = self.budget {
            if proposed > budget {
                return Err(PrivacyError::BudgetExceeded {
                    budget: (budget - self.rho).max(0.0),
                    requested: rho,
                });
            }
        }
        self.rho = proposed;
        self.delta_slack = (self.delta_slack + delta).min(1.0);
        self.pure_epsilon = match (self.pure_epsilon, pure_epsilon) {
            (Some(total), Some(eps)) => Some(total + eps),
            _ => None,
        };
        self.count += 1;
        Ok(())
    }

    /// The total composed ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The accumulated approximate-DP slack Σδᵢ of the recorded spends.
    #[must_use]
    pub fn delta_slack(&self) -> f64 {
        self.delta_slack
    }

    /// The classic sequential-composition ε (Σεᵢ), available while every
    /// recorded spend carried a pure ε.
    #[must_use]
    pub fn pure_epsilon(&self) -> Option<f64> {
        self.pure_epsilon
    }

    /// Number of recorded expenditures.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The remaining ρ before the budget is exhausted (`None` when
    /// unbounded).
    #[must_use]
    pub fn remaining_rho(&self) -> Option<f64> {
        self.budget.map(|b| (b - self.rho).max(0.0))
    }

    /// The ε of the composed loss at target slack `delta`: the minimum of
    /// the zCDP conversion `ρ + 2√(ρ·ln(1/δ))` and — when available — the
    /// sequential-composition total Σεᵢ. Both are valid (ε, δ')-DP bounds at
    /// `δ' = delta + `[`ZcdpAccountant::delta_slack`], so the minimum is
    /// never looser than either route alone.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for δ outside `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> Result<f64, PrivacyError> {
        let zcdp = rho_to_epsilon(self.rho, delta)?;
        Ok(match self.pure_epsilon {
            Some(pure) => zcdp.min(pure),
            None => zcdp,
        })
    }

    /// The full (ε, δ)-DP guarantee at target slack `delta`:
    /// ([`ZcdpAccountant::epsilon`], `delta + ` Σδᵢ, saturated at 1).
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] for δ outside `(0, 1)`.
    pub fn to_guarantee(&self, delta: f64) -> Result<PrivacyGuarantee, PrivacyError> {
        PrivacyGuarantee::new(self.epsilon(delta)?, (delta + self.delta_slack).min(1.0))
    }
}

/// Side-by-side composition of one per-opportunity guarantee over a horizon:
/// the pure sequential-composition route against the ρ-zCDP route, as
/// reported by a [`ZcdpAccountant`] fed the same spend sequence.
///
/// Emitted into the figures accounting artifact so the tightening is a
/// recorded number, not a claim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompositionComparison {
    /// Number of composed reporting opportunities.
    pub horizon: u32,
    /// The per-opportunity ε composed.
    pub per_opportunity_epsilon: f64,
    /// The per-opportunity δ composed.
    pub per_opportunity_delta: f64,
    /// The target δ of the zCDP conversion.
    pub target_delta: f64,
    /// Total composed ρ.
    pub rho: f64,
    /// ε under classic sequential composition: `horizon · ε`.
    pub pure_epsilon: f64,
    /// ε under zCDP composition at `target_delta` (already min'd with the
    /// pure route, so never looser).
    pub zcdp_epsilon: f64,
}

/// Composes `horizon` copies of `per_opportunity` through both accounting
/// backends and reports the resulting ε values side by side.
///
/// # Errors
///
/// Returns [`PrivacyError::InvalidParameter`] for a zero horizon or a
/// `target_delta` outside `(0, 1)`.
pub fn compare_composition(
    per_opportunity: PrivacyGuarantee,
    horizon: u32,
    target_delta: f64,
) -> Result<CompositionComparison, PrivacyError> {
    if horizon == 0 {
        return Err(PrivacyError::InvalidParameter {
            name: "horizon",
            message: "must be at least 1".to_owned(),
        });
    }
    let mut accountant = ZcdpAccountant::new();
    for _ in 0..horizon {
        accountant.spend_guarantee(&per_opportunity)?;
    }
    let pure = per_opportunity.compose_n(horizon);
    Ok(CompositionComparison {
        horizon,
        per_opportunity_epsilon: per_opportunity.epsilon(),
        per_opportunity_delta: per_opportunity.delta(),
        target_delta,
        rho: accountant.rho(),
        pure_epsilon: pure.epsilon(),
        zcdp_epsilon: accountant.epsilon(target_delta)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_match_the_closed_forms() {
        assert_eq!(pure_dp_to_rho(0.0).unwrap(), 0.0);
        assert!((pure_dp_to_rho(2.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(pure_dp_to_rho(-1.0).is_err());
        let eps = rho_to_epsilon(0.5, 1e-6).unwrap();
        assert!((eps - (0.5 + 2.0 * (0.5 * (1e6f64).ln()).sqrt())).abs() < 1e-12);
        assert!(rho_to_epsilon(0.5, 0.0).is_err());
        assert!(rho_to_epsilon(0.5, 1.0).is_err());
        assert!(rho_to_epsilon(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn rho_composes_additively() {
        let mut acc = ZcdpAccountant::new();
        acc.spend_rho(0.25).unwrap();
        acc.spend_rho(0.5).unwrap();
        assert_eq!(acc.rho(), 0.75);
        assert_eq!(acc.count(), 2);
        assert_eq!(
            acc.pure_epsilon(),
            None,
            "raw-rho spends drop the pure route"
        );
    }

    #[test]
    fn guarantee_spends_keep_both_routes() {
        let g = PrivacyGuarantee::new(1.0, 1e-8).unwrap();
        let mut acc = ZcdpAccountant::new();
        acc.spend_guarantee(&g).unwrap();
        acc.spend_guarantee(&g).unwrap();
        assert!((acc.rho() - 1.0).abs() < 1e-12);
        assert_eq!(acc.pure_epsilon(), Some(2.0));
        assert!((acc.delta_slack() - 2e-8).abs() < 1e-20);
        // At 2 compositions the pure route is tighter and must win the min.
        assert_eq!(acc.epsilon(1e-6).unwrap(), 2.0);
    }

    #[test]
    fn budget_boundary_is_exact() {
        let mut acc = ZcdpAccountant::with_budget(1.0).unwrap();
        for _ in 0..4 {
            acc.spend_rho(0.25).unwrap();
        }
        assert_eq!(acc.rho(), 1.0);
        assert_eq!(acc.remaining_rho(), Some(0.0));
        // The error names the ρ left and the ρ refused.
        let err = acc.spend_rho(0.25).unwrap_err();
        assert_eq!(
            err,
            PrivacyError::BudgetExceeded {
                budget: 0.0,
                requested: 0.25,
            }
        );
        assert_eq!(
            err.to_string(),
            "privacy budget exceeded: 0.25 requested with only 0 remaining"
        );
        assert_eq!(acc.count(), 4, "refused spends are not recorded");
        let mut half = ZcdpAccountant::with_budget(1.0).unwrap();
        half.spend_rho(0.5).unwrap();
        assert_eq!(
            half.spend_rho(0.75),
            Err(PrivacyError::BudgetExceeded {
                budget: 0.5,
                requested: 0.75,
            })
        );
        assert!(ZcdpAccountant::with_budget(0.0).is_err());
    }

    #[test]
    fn comparison_reports_both_routes() {
        let g = PrivacyGuarantee::pure(std::f64::consts::LN_2).unwrap();
        let cmp = compare_composition(g, 10_000, 1e-6).unwrap();
        assert!((cmp.pure_epsilon - 10_000.0 * std::f64::consts::LN_2).abs() < 1e-6);
        assert!(
            cmp.zcdp_epsilon < cmp.pure_epsilon,
            "zCDP must be strictly tighter at horizon 10^4"
        );
        assert!(compare_composition(g, 0, 1e-6).is_err());
    }

    #[test]
    fn to_guarantee_carries_slack() {
        let g = PrivacyGuarantee::new(0.5, 1e-7).unwrap();
        let mut acc = ZcdpAccountant::new();
        for _ in 0..3 {
            acc.spend_guarantee(&g).unwrap();
        }
        let out = acc.to_guarantee(1e-6).unwrap();
        assert!((out.delta() - (1e-6 + 3e-7)).abs() < 1e-18);
        assert!(out.epsilon() <= 1.5 + 1e-12);
    }
}
