//! Per-batch amplification accounting for batched shuffler deployments.
//!
//! The paper's guarantee (Section 4) is stated for one reporting
//! opportunity under a *configured* crowd-blending threshold `l`. A batched
//! shuffler actually enforces thresholding batch by batch, and each released
//! batch achieves its own *empirical* crowd size — the smallest per-code
//! frequency among the reports it released, which is never below the
//! configured `l`. The [`AmplificationLedger`] records the `(ε, δ)` pair
//! achieved by every batch, keeping the amplification accounting explicit
//! per batch (in the spirit of the per-round accounting of Azize & Basu,
//! *Concentrated Differential Privacy for Bandits*) instead of quoting a
//! single whole-deployment bound.
//!
//! The ledger only records batches and answers [`AmplificationLedger::weakest`];
//! a pipeline keeps exactly one (the shuffler engine's merger when the engine
//! is built with privacy accounting, or the experiment harness's P2B channel).
//! Composing over `k` batches is the caller's one line:
//! `weakest.guarantee.compose_n(k)` sequentially, or
//! [`crate::compare_composition`] for the ρ-zCDP route beside it.

use crate::{
    amplified_delta, amplified_epsilon, validate_omega, Participation, PrivacyError,
    PrivacyGuarantee,
};
use serde::{Deserialize, Serialize};

/// The amplification record of one released batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchAmplification {
    /// Zero-based index of the batch in delivery order.
    pub batch_index: u64,
    /// Number of reports the batch released after thresholding.
    pub released: usize,
    /// Empirical crowd size: the smallest per-code frequency among the
    /// released reports (0 for an empty batch).
    pub crowd_size: u64,
    /// The `(ε, δ)` guarantee of one reporting opportunity that landed in
    /// this batch.
    pub guarantee: PrivacyGuarantee,
}

/// Accumulates per-batch `(ε, δ)` amplification records for a batched
/// shuffler run.
///
/// ε is fixed by the participation probability (Equation 3 with ε̄ = 0 — the
/// encoder releases exact codes); δ varies per batch with the empirical
/// crowd size via the Gehrke et al. bound `δ = e^(−Ω·l·(1−p)²)`
/// ([`amplified_delta`]). An empty batch releases nothing and is recorded
/// with the perfect guarantee `(0, 0)`.
///
/// # Examples
///
/// ```
/// use p2b_privacy::{AmplificationLedger, Participation};
///
/// # fn main() -> Result<(), p2b_privacy::PrivacyError> {
/// let mut ledger = AmplificationLedger::new(Participation::new(0.5)?, 0.1)?;
/// ledger.record_batch(120, 10)?; // 120 released, smallest crowd 10
/// ledger.record_batch(48, 3)?;   // a sparser batch: weaker δ
/// let weakest = ledger.weakest().expect("two batches recorded");
/// assert_eq!(weakest.batch_index, 1);
/// assert!(weakest.guarantee.delta() > ledger.records()[0].guarantee.delta());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmplificationLedger {
    participation: Participation,
    omega: f64,
    epsilon: f64,
    records: Vec<BatchAmplification>,
}

impl AmplificationLedger {
    /// Creates an empty ledger for the given participation probability and
    /// δ-bound constant Ω.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] when `omega` is not a
    /// finite positive number.
    pub fn new(participation: Participation, omega: f64) -> Result<Self, PrivacyError> {
        validate_omega(omega)?;
        let epsilon = amplified_epsilon(participation, 0.0)?;
        Ok(Self {
            participation,
            omega,
            epsilon,
            records: Vec::new(),
        })
    }

    /// The per-report ε shared by every non-empty batch (Equation 3).
    #[must_use]
    pub fn per_report_epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Records one released batch and returns its amplification record.
    ///
    /// `crowd_size` is the batch's empirical crowd-blending parameter: the
    /// smallest per-code frequency among the released reports. Pass 0 for a
    /// batch that released nothing; it is recorded with the perfect
    /// guarantee `(0, 0)`.
    ///
    /// # Errors
    ///
    /// Returns [`PrivacyError::InvalidParameter`] when `released > 0` but
    /// `crowd_size == 0`, which would claim released data with no crowd.
    pub fn record_batch(
        &mut self,
        released: usize,
        crowd_size: u64,
    ) -> Result<BatchAmplification, PrivacyError> {
        if released > 0 && crowd_size == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "crowd_size",
                message: format!("must be at least 1 for a batch releasing {released} reports"),
            });
        }
        let guarantee = if released == 0 {
            PrivacyGuarantee::new(0.0, 0.0)?
        } else {
            let delta = amplified_delta(self.participation, crowd_size, self.omega)?;
            PrivacyGuarantee::new(self.epsilon, delta)?
        };
        let record = BatchAmplification {
            batch_index: self.records.len() as u64,
            released,
            crowd_size,
            guarantee,
        };
        self.records.push(record);
        Ok(record)
    }

    /// All per-batch records, in delivery order.
    #[must_use]
    pub fn records(&self) -> &[BatchAmplification] {
        &self.records
    }

    /// The weakest recorded batch: the one with the largest δ (ε is shared),
    /// i.e. the smallest non-zero crowd. `None` if no non-empty batch was
    /// recorded.
    #[must_use]
    pub fn weakest(&self) -> Option<&BatchAmplification> {
        self.records
            .iter()
            .filter(|r| r.released > 0)
            .max_by(|a, b| a.guarantee.delta().total_cmp(&b.guarantee.delta()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare_composition;

    fn total_released(ledger: &AmplificationLedger) -> usize {
        ledger.records().iter().map(|r| r.released).sum()
    }

    fn ledger() -> AmplificationLedger {
        AmplificationLedger::new(Participation::new(0.5).unwrap(), 0.1).unwrap()
    }

    #[test]
    fn construction_validates_omega() {
        let p = Participation::new(0.5).unwrap();
        assert!(AmplificationLedger::new(p, 0.0).is_err());
        assert!(AmplificationLedger::new(p, -1.0).is_err());
        assert!(AmplificationLedger::new(p, f64::NAN).is_err());
        assert!(AmplificationLedger::new(p, 0.1).is_ok());
    }

    #[test]
    fn epsilon_matches_equation_three() {
        assert!((ledger().per_report_epsilon() - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn records_match_the_closed_form_bounds() {
        let mut ledger = ledger();
        let record = ledger.record_batch(100, 10).unwrap();
        assert_eq!(record.batch_index, 0);
        assert_eq!(record.released, 100);
        assert_eq!(record.crowd_size, 10);
        let expected_delta = amplified_delta(Participation::new(0.5).unwrap(), 10, 0.1).unwrap();
        assert_eq!(record.guarantee.delta().to_bits(), expected_delta.to_bits());
        assert_eq!(
            record.guarantee.epsilon().to_bits(),
            std::f64::consts::LN_2.to_bits()
        );
    }

    #[test]
    fn empty_batches_are_perfectly_private() {
        let mut ledger = ledger();
        let record = ledger.record_batch(0, 0).unwrap();
        assert_eq!(record.guarantee.epsilon(), 0.0);
        assert_eq!(record.guarantee.delta(), 0.0);
        // And they never count as the weakest batch.
        assert!(ledger.weakest().is_none());
    }

    #[test]
    fn released_reports_require_a_crowd() {
        assert!(ledger().record_batch(5, 0).is_err());
    }

    #[test]
    fn weakest_is_the_smallest_crowd() {
        let mut ledger = ledger();
        ledger.record_batch(100, 12).unwrap();
        ledger.record_batch(50, 3).unwrap();
        ledger.record_batch(80, 7).unwrap();
        let weakest = ledger.weakest().unwrap();
        assert_eq!(weakest.batch_index, 1);
        assert_eq!(weakest.crowd_size, 3);
        assert_eq!(total_released(&ledger), 230);
        assert_eq!(ledger.records().len(), 3);
    }

    #[test]
    fn weakest_is_total_ordered_under_ties() {
        // `total_cmp` makes the selection a total order: equal-δ batches
        // cannot panic the comparator (the old `partial_cmp(...).expect`
        // path), and the scan keeps the last maximum deterministically.
        let mut ledger = ledger();
        ledger.record_batch(10, 4).unwrap();
        ledger.record_batch(20, 4).unwrap();
        ledger.record_batch(30, 9).unwrap();
        let weakest = ledger.weakest().unwrap();
        assert_eq!(weakest.crowd_size, 4);
        assert_eq!(weakest.batch_index, 1, "ties keep the last maximum");
    }

    #[test]
    fn composition_over_batches_uses_the_weakest_record() {
        let mut ledger = ledger();
        ledger.record_batch(100, 10).unwrap();
        ledger.record_batch(100, 5).unwrap();
        let weakest = ledger.weakest().unwrap().guarantee;
        let composed = weakest.compose_n(3);
        assert!((composed.epsilon() - 3.0 * weakest.epsilon()).abs() < 1e-12);
        assert!((composed.delta() - (3.0 * weakest.delta()).min(1.0)).abs() < 1e-12);
    }

    #[test]
    fn zcdp_route_tightens_long_horizons_and_matches_pure_route_inputs() {
        let mut ledger = ledger();
        ledger.record_batch(100, 10).unwrap();
        let weakest = ledger.weakest().unwrap().guarantee;
        let cmp = compare_composition(weakest, 10_000, 1e-6).unwrap();
        let pure = weakest.compose_n(10_000);
        assert_eq!(cmp.pure_epsilon.to_bits(), pure.epsilon().to_bits());
        assert!(
            cmp.zcdp_epsilon < cmp.pure_epsilon,
            "zCDP ε {} must be strictly tighter than pure ε {} at horizon 10^4",
            cmp.zcdp_epsilon,
            cmp.pure_epsilon
        );
        assert!(compare_composition(weakest, 0, 1e-6).is_err());
        assert!(
            AmplificationLedger::new(Participation::new(0.5).unwrap(), 0.1)
                .unwrap()
                .weakest()
                .is_none()
        );
    }

    #[test]
    fn empty_ledger_has_no_weakest_or_composition() {
        let ledger = ledger();
        assert!(ledger.weakest().is_none());
        assert!(ledger.weakest().map(|w| w.guarantee.compose_n(2)).is_none());
        assert_eq!(total_released(&ledger), 0);
    }
}
