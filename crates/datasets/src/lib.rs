//! Workload substrate for the P2B reproduction.
//!
//! The paper evaluates P2B on three workloads; none of the original datasets
//! can be redistributed here, so this crate builds synthetic equivalents that
//! exercise exactly the same code paths (see DESIGN.md for the substitution
//! rationale):
//!
//! * [`SyntheticPreferenceEnvironment`] — the synthetic benchmark of
//!   Section 5.1: the mean reward of action `a` under context `x` is
//!   `β·softmax(Wx)_a` plus Gaussian noise, for a random weight matrix `W`.
//! * [`MultiLabelDataset`] — multi-label classification with bandit feedback
//!   (Section 5.2). Generators produce MediaMill-like and TextMining-like
//!   datasets with clustered contexts and label sets; the reward of proposing
//!   label `a` for an instance is 1 when `a` is among the instance's labels.
//! * [`CriteoLikeGenerator`] — the online-advertising workload of Section 5.3:
//!   logged records with numeric context features, 26 categorical features
//!   that are feature-hashed ([`FeatureHasher`]) into the 40 most frequent
//!   product codes, and click labels from a latent preference model. The
//!   reward of an action is 1 iff it matches the logged action *and* the
//!   logged impression was clicked.
//!
//! On top of the stationary workloads, two non-stationary population axes
//! stress-test privatized warm-starting:
//!
//! * [`DriftingPreferenceEnvironment`] — preference drift: the synthetic
//!   benchmark's reward means rotate by one action every
//!   [`DriftConfig::period_rounds`] rounds.
//! * [`CohortChurnEnvironment`] — user churn as population composition: the
//!   context distribution follows a rotating set of cohorts.
//!
//! The [`ContextualEnvironment`] trait unifies the environments so the
//! simulation engine can drive any of them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod churn;
mod criteo;
mod drift;
mod environment;
mod error;
mod feature_hash;
mod multilabel;
mod synthetic;

pub use churn::{CohortChurnConfig, CohortChurnEnvironment};
pub use criteo::{CriteoConfig, CriteoLikeGenerator, LoggedImpression};
pub use drift::{DriftConfig, DriftingPreferenceEnvironment};
pub use environment::ContextualEnvironment;
pub use error::DatasetError;
pub use feature_hash::FeatureHasher;
pub use multilabel::{MultiLabelConfig, MultiLabelDataset, MultiLabelInstance};
pub use synthetic::{SyntheticConfig, SyntheticPreferenceEnvironment};
