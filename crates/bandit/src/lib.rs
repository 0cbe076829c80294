//! Contextual-bandit substrate for the P2B reproduction.
//!
//! The paper's local agents run LinUCB (Chu et al. 2011; Li et al. 2010) —
//! a linear upper-confidence-bound contextual bandit. This crate provides:
//!
//! * the [`ContextualPolicy`] trait shared by every policy,
//! * [`LinUcb`], the disjoint-arm LinUCB implementation used throughout the
//!   paper's experiments,
//! * baselines used for comparison and ablation: [`EpsilonGreedy`],
//!   [`Ucb1`] (context-free) and [`LinearThompsonSampling`].
//!
//! # Example
//!
//! ```
//! use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig};
//! use p2b_linalg::Vector;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), p2b_bandit::BanditError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut policy = LinUcb::new(LinUcbConfig::new(4, 3))?;
//! let context = Vector::from(vec![0.1, 0.4, 0.3, 0.2]);
//! let action = policy.select_action(&context, &mut rng)?;
//! policy.update(&context, action, 1.0)?;
//! assert!(action.index() < 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod epsilon_greedy;
mod error;
mod linucb;
mod policy;
mod thompson;
mod ucb1;

pub use epsilon_greedy::{EpsilonGreedy, EpsilonGreedyConfig};
pub use error::BanditError;
pub use linucb::{
    ArmStatistics, ArmSums, CoalescedUpdate, IngestScratch, LinUcb, LinUcbConfig, SelectScratch,
};
pub use policy::{Action, ContextualPolicy, Reward};
pub use thompson::{LinearThompsonSampling, ThompsonConfig};
pub use ucb1::Ucb1;
