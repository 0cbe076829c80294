//! Contextual-bandit substrate for the P2B reproduction.
//!
//! The paper's local agents and central model run LinUCB (Chu et al. 2011;
//! Li et al. 2010) — a linear upper-confidence-bound contextual bandit — and
//! nothing else. This crate provides:
//!
//! * [`LinUcb`], the disjoint-arm LinUCB implementation, with its one
//!   sufficient-statistics currency: `(x, n, s)` groups fold into
//!   per-arm [`ArmSums`] (or their flat leaves are summed and read back),
//!   and [`LinUcb::set_arm`] installs the sums as a model arm — in two
//!   halves when the build runs elsewhere: [`BuiltArm::new`] (merge, one
//!   refresh, θ solve) and [`LinUcb::install_arm`] (swap and stamp); plus
//!   the reusable select scratch and score memo ([`SelectScratch`]);
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
pub use linucb::{ArmSums, BuiltArm, LinUcb, LinUcbConfig, SelectScratch};
pub use policy::{Action, ContextualPolicy, Reward};
