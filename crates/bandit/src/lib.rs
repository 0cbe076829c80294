//! Contextual-bandit substrate for the P2B reproduction.
//!
//! The paper's local agents and central model run LinUCB (Chu et al. 2011;
//! Li et al. 2010) — a linear upper-confidence-bound contextual bandit — and
//! nothing else. This crate provides:
//!
//! * [`LinUcb`], the disjoint-arm LinUCB implementation, with its
//!   sufficient-statistics currencies ([`CoalescedUpdate`], [`ArmSums`],
//!   [`ArmStatistics`]) and reusable scratch ([`SelectScratch`],
//!   [`IngestScratch`]);
//! * the [`ContextualPolicy`] trait: the per-report select/update loop a
//!   device or a simulated cell drives.
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

mod error;
mod linucb;
mod policy;

pub use error::BanditError;
pub use linucb::{
    ArmStatistics, ArmSums, CoalescedUpdate, IngestScratch, LinUcb, LinUcbConfig, SelectScratch,
};
pub use policy::{Action, ContextualPolicy, Reward};
