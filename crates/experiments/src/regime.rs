//! The privacy-regime axis of the experiment matrix: what protects a report
//! on its way from the device to the central model.
//!
//! This axis is the heart of the paper's empirical claim: P2B's
//! encode-then-shuffle trust model retains most of the non-private utility,
//! while an LDP-style randomized-response baseline (the regime related work
//! such as Han et al., *Generalized Linear Bandits with Local Differential
//! Privacy*, operates in) pays a steep per-report utility price.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a shared report is privatized before it reaches the central model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrivacyRegime {
    /// Raw `(x, a, r)` tuples are shared directly — the non-private utility
    /// ceiling of Figures 4–7.
    NonPrivate,
    /// The whole report is randomized on-device with randomized response
    /// (ε-LDP by composition across code, action and reward — RAPPOR-style)
    /// before being shared; the central model trains on the randomized
    /// code's representative context with the randomized action and reward.
    LocalDp,
    /// The P2B pipeline: exact context codes travel through the
    /// [`p2b_shuffler::ShufflerEngine`] (anonymize, tabulate, crowd-blending
    /// threshold) into the serving [`p2b_core::CentralServer`], with
    /// per-batch (ε, δ) accounting in one
    /// [`p2b_privacy::AmplificationLedger`] per cell.
    P2bShuffle,
    /// The classic central-DP baseline the paper positions P2B against: raw
    /// `(x, a, r)` tuples go to a trusted curator, which releases the LinUCB
    /// sufficient statistics through a [`p2b_privacy::TreeAggregator`]
    /// (Gaussian noise on O(log T) dyadic partial sums) and accounts the
    /// whole release stream as one ρ-zCDP charge, converted to an ε by
    /// [`p2b_privacy::rho_to_epsilon`].
    CentralDp,
    /// Secure aggregation without a trusted curator: each report's LinUCB
    /// sufficient-statistic leaf is fixed-point encoded and additively
    /// secret-shared ([`p2b_privacy::SecretSharer`]) across independent
    /// aggregator shards, and the model is rebuilt from the *recombined*
    /// sums only. The guarantee is architectural (no single aggregator sees
    /// a contribution in the clear), not differential privacy — utility is
    /// the non-private ceiling up to fixed-point quantization.
    SecureAgg,
}

impl PrivacyRegime {
    /// Every regime, ordered from no privacy to the paper's mechanism, with
    /// the comparison baselines (central DP, then secure aggregation) last.
    pub const ALL: [PrivacyRegime; 5] = [
        PrivacyRegime::NonPrivate,
        PrivacyRegime::LocalDp,
        PrivacyRegime::P2bShuffle,
        PrivacyRegime::CentralDp,
        PrivacyRegime::SecureAgg,
    ];

    /// Stable identifier used in result files and CSV rows.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            PrivacyRegime::NonPrivate => "non_private",
            PrivacyRegime::LocalDp => "ldp_randomized_response",
            PrivacyRegime::P2bShuffle => "p2b_shuffle",
            PrivacyRegime::CentralDp => "central_dp_tree",
            PrivacyRegime::SecureAgg => "secure_agg",
        }
    }

    /// Whether the regime offers any differential-privacy guarantee.
    /// Secure aggregation does not: its protection is a trust split (no
    /// single aggregator sees plaintext), so it reports no (ε, δ).
    #[must_use]
    pub fn is_private(&self) -> bool {
        !matches!(self, PrivacyRegime::NonPrivate | PrivacyRegime::SecureAgg)
    }
}

impl fmt::Display for PrivacyRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            PrivacyRegime::NonPrivate => "non-private",
            PrivacyRegime::LocalDp => "LDP randomized response",
            PrivacyRegime::P2bShuffle => "P2B shuffle",
            PrivacyRegime::CentralDp => "central DP (tree aggregation)",
            PrivacyRegime::SecureAgg => "secure aggregation (additive shares)",
        };
        f.write_str(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct() {
        let keys: std::collections::HashSet<_> =
            PrivacyRegime::ALL.iter().map(PrivacyRegime::key).collect();
        assert_eq!(keys.len(), PrivacyRegime::ALL.len());
    }

    #[test]
    fn classification() {
        assert!(!PrivacyRegime::NonPrivate.is_private());
        assert!(PrivacyRegime::LocalDp.is_private());
        assert!(PrivacyRegime::P2bShuffle.is_private());
        assert!(PrivacyRegime::CentralDp.is_private());
        assert!(
            !PrivacyRegime::SecureAgg.is_private(),
            "secure aggregation is a trust split, not a DP guarantee"
        );
        assert!(PrivacyRegime::LocalDp.to_string().contains("LDP"));
        assert!(PrivacyRegime::CentralDp.to_string().contains("central"));
        assert!(PrivacyRegime::SecureAgg.to_string().contains("secure"));
    }
}
