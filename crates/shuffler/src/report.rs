//! Report tuples flowing from local agents through the shuffler.

use crate::ShufflerError;
use p2b_privacy::{decode_fixed, encode_fixed};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The anonymous interaction tuple `(y, a, r)` of the paper: encoded context
/// code, proposed action and observed reward.
///
/// This is the *only* payload that ever reaches the server; it deliberately
/// contains no agent-identifying fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncodedReport {
    code: usize,
    action: usize,
    reward: f64,
}

impl EncodedReport {
    /// Creates a report tuple.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidReport`] when the reward is not a
    /// finite number in `[0, 1]`.
    pub fn new(code: usize, action: usize, reward: f64) -> Result<Self, ShufflerError> {
        if !reward.is_finite() || !(0.0..=1.0).contains(&reward) {
            return Err(ShufflerError::InvalidReport {
                message: format!("reward {reward} outside the [0, 1] range"),
            });
        }
        Ok(Self {
            code,
            action,
            reward,
        })
    }

    /// The encoded context code `y`.
    #[must_use]
    pub fn code(&self) -> usize {
        self.code
    }

    /// The proposed action `a`.
    #[must_use]
    pub fn action(&self) -> usize {
        self.action
    }

    /// The observed reward `r ∈ [0, 1]`.
    #[must_use]
    pub fn reward(&self) -> f64 {
        self.reward
    }

    /// The reward on the fixed-point grid of [`p2b_privacy::encode_fixed`]:
    /// `round(r · 2⁴⁸) ∈ [0, 2⁴⁸]`. [`EncodedReport::new`] keeps `r` in
    /// `[0, 1]`; a report that bypassed it (deserialized) is clamped into
    /// that range, and a NaN reward counts as 0.
    fn fixed_reward(&self) -> i128 {
        encode_fixed(self.reward.clamp(0.0, 1.0)).unwrap_or(0)
    }
}

impl fmt::Display for EncodedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(y={}, a={}, r={:.3})",
            self.code, self.action, self.reward
        )
    }
}

/// One cell of a released batch: every released report that shares a
/// `(code, action)` pair, as their count and reward sum.
///
/// This is all the analyzer reads of the released multiset — LinUCB folds
/// a pair's reports as one `(x, a, n, Σr)` update — and a histogram of the
/// multiset is post-processing of it, so releasing cells instead of reports
/// changes neither the (ε, δ) nor the crowd-blending threshold. The reward
/// sum is kept on the 2⁻⁴⁸ fixed-point grid the secure-aggregation shares
/// use, in a wrapping `i128`: a cell does not depend on the order its
/// reports arrived in, and its decoded sum never exceeds its count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasedCell {
    code: usize,
    action: usize,
    count: u64,
    fixed_reward_sum: i128,
}

impl ReleasedCell {
    /// The cell of one report. Cells of reports on one pair sum with
    /// [`ReleasedCell::absorb`]; the shuffler builds its releases this way,
    /// and so can a replay or a test that feeds the model service directly.
    #[must_use]
    pub fn of(report: &EncodedReport) -> Self {
        Self {
            code: report.code,
            action: report.action,
            count: 1,
            fixed_reward_sum: report.fixed_reward(),
        }
    }

    /// The encoded context code `y` the cell's reports share.
    #[must_use]
    pub fn code(&self) -> usize {
        self.code
    }

    /// The action `a` the cell's reports share.
    #[must_use]
    pub fn action(&self) -> usize {
        self.action
    }

    /// How many reports the cell holds.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The reports' reward sum, decoded from the fixed-point grid
    /// ([`p2b_privacy::decode_fixed`]); it lies in `[0, count]`.
    #[must_use]
    pub fn reward_sum(&self) -> f64 {
        decode_fixed(self.fixed_reward_sum)
    }

    /// Adds another cell's count and reward sum to this one. Fixed-point
    /// sums wrap, so a total over any set of cells is exact and the same
    /// in any order. The pair is the caller's key: `other`'s is not read.
    pub fn absorb(&mut self, other: &ReleasedCell) {
        self.count += other.count;
        self.fixed_reward_sum = self.fixed_reward_sum.wrapping_add(other.fixed_reward_sum);
    }
}

/// Metadata that accompanies a report on the wire and must be destroyed by
/// the shuffler before anything reaches the analyzer.
///
/// The fields model what a real collection endpoint would inevitably see:
/// a sender identifier (here a string agent id standing in for an IP
/// address / TLS session) and a client timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReportMetadata {
    /// Identifier of the sending agent (stand-in for IP address, device id…).
    pub sender: String,
    /// Client-side timestamp in arbitrary units (e.g. interaction round).
    pub timestamp: u64,
}

/// A report as received from a local agent: payload plus identifying
/// metadata. Only the shuffler ever sees this type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawReport {
    metadata: ReportMetadata,
    payload: EncodedReport,
}

impl RawReport {
    /// Wraps a payload with sender metadata (timestamp 0).
    #[must_use]
    pub fn new(sender: impl Into<String>, payload: EncodedReport) -> Self {
        Self {
            metadata: ReportMetadata {
                sender: sender.into(),
                timestamp: 0,
            },
            payload,
        }
    }

    /// Wraps a payload with sender metadata and a client timestamp.
    #[must_use]
    pub fn with_timestamp(
        sender: impl Into<String>,
        timestamp: u64,
        payload: EncodedReport,
    ) -> Self {
        Self {
            metadata: ReportMetadata {
                sender: sender.into(),
                timestamp,
            },
            payload,
        }
    }

    /// Borrows the attached metadata.
    #[must_use]
    pub fn metadata(&self) -> &ReportMetadata {
        &self.metadata
    }

    /// Borrows the payload.
    #[must_use]
    pub fn payload(&self) -> &EncodedReport {
        &self.payload
    }

    /// Discards the metadata and returns the bare payload — the shuffler's
    /// anonymization step.
    #[must_use]
    pub fn into_anonymous(self) -> EncodedReport {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_report_validates_reward() {
        assert!(EncodedReport::new(1, 2, 0.5).is_ok());
        assert!(EncodedReport::new(1, 2, 0.0).is_ok());
        assert!(EncodedReport::new(1, 2, 1.0).is_ok());
        assert!(EncodedReport::new(1, 2, -0.1).is_err());
        assert!(EncodedReport::new(1, 2, 1.1).is_err());
        assert!(EncodedReport::new(1, 2, f64::NAN).is_err());
    }

    #[test]
    fn accessors_round_trip() {
        let r = EncodedReport::new(7, 3, 0.25).unwrap();
        assert_eq!(r.code(), 7);
        assert_eq!(r.action(), 3);
        assert!((r.reward() - 0.25).abs() < 1e-12);
        assert!(r.to_string().contains("y=7"));
    }

    #[test]
    fn anonymization_strips_all_metadata() {
        let payload = EncodedReport::new(1, 2, 1.0).unwrap();
        let raw = RawReport::with_timestamp("10.0.0.42", 99, payload);
        assert_eq!(raw.metadata().sender, "10.0.0.42");
        assert_eq!(raw.metadata().timestamp, 99);
        let anonymous = raw.into_anonymous();
        assert_eq!(anonymous, payload);
        // The anonymous type has no way to name the sender: this is enforced
        // statically, the assertion below merely documents the intent.
        let serialized = serde_json_like_debug(&anonymous);
        assert!(!serialized.contains("10.0.0.42"));
        assert!(!serialized.contains("99"));
    }

    fn serde_json_like_debug(report: &EncodedReport) -> String {
        format!("{report:?}")
    }

    #[test]
    fn cells_sum_rewards_exactly_in_any_order() {
        let rewards = [0.1, 0.3, 0.7, 1.0, 0.0, 0.7];
        let cell = |order: &mut dyn Iterator<Item = &f64>| {
            let mut total: Option<ReleasedCell> = None;
            for &r in order {
                let one = ReleasedCell::of(&EncodedReport::new(4, 2, r).unwrap());
                match &mut total {
                    Some(total) => total.absorb(&one),
                    None => total = Some(one),
                }
            }
            total.unwrap()
        };
        let forward = cell(&mut rewards.iter());
        let backward = cell(&mut rewards.iter().rev());
        assert_eq!(forward, backward);
        assert_eq!((forward.code(), forward.action()), (4, 2));
        assert_eq!(forward.count(), 6);
        assert!((forward.reward_sum() - 2.8).abs() < 1e-12);
        // All-ones sums decode to exactly their count.
        let mut ones = ReleasedCell::of(&EncodedReport::new(0, 0, 1.0).unwrap());
        for _ in 0..9 {
            ones.absorb(&ReleasedCell::of(&EncodedReport::new(0, 0, 1.0).unwrap()));
        }
        assert_eq!(ones.reward_sum(), 10.0);
    }
}
