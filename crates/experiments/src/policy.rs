//! The label of a cell's bandit algorithm in result files.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which bandit policy a matrix cell runs: always LinUCB, the paper's.
///
/// Every cell runs [`p2b_bandit::LinUcb`]; this one-variant enum is only the
/// label the emitters write in the `policy` column and the JSON `spec`. It
/// goes with the next change to the benchmark package, which still names it
/// in the [`crate::CellSpec`]s it builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Disjoint-arm LinUCB — the policy the paper's experiments use.
    LinUcb,
}

impl PolicyKind {
    /// Stable identifier used in result files and CSV rows.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            PolicyKind::LinUcb => "linucb",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig};
    use p2b_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every user of a cell warm-starts from a clone of the central LinUCB.
    #[test]
    fn cloning_carries_the_learned_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut central = LinUcb::new(LinUcbConfig::new(2, 2).with_alpha(1.0)).unwrap();
        let ctx = Vector::from(vec![1.0, 0.0]);
        for _ in 0..30 {
            central.update(&ctx, Action::new(1), 1.0).unwrap();
            central.update(&ctx, Action::new(0), 0.0).unwrap();
        }
        let mut warm = central.clone();
        let mut votes = 0;
        for _ in 0..10 {
            if warm.select_action(&ctx, &mut rng).unwrap().index() == 1 {
                votes += 1;
            }
        }
        assert!(votes >= 8, "warm clone should exploit learned state");
    }
}
