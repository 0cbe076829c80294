//! Multi-agent simulation engine and experiment harness for P2B.
//!
//! The paper compares three regimes (Section 5):
//!
//! * **Cold** — every agent learns only from its own interactions
//!   (full privacy, no sharing).
//! * **Warm & non-private** — agents share raw `(x, a, r)` tuples with the
//!   server and warm-start from the central model (no privacy).
//! * **Warm & private (P2B)** — agents share encoded tuples `(y, a, r)`
//!   through randomized reporting and the trusted shuffler.
//!
//! This crate keeps the pieces that are not the scenario matrix
//! (`p2b_experiments::run_matrix`, which drives Figs. 4–5):
//!
//! * [`run_logged_experiment`] — accuracy / CTR over per-agent sample streams
//!   with a train/test agent split (Figures 6 and 7),
//! * [`ArrivalProcess`] — the seeded open-loop arrival process of the
//!   serving harness and the benchmark,
//! * [`parallel_map`] — the scoped worker pool the drivers share,
//! * [`outcome::SeriesPoint`] and [`write_series_json`] — serialization of
//!   result series for plotting.
//!
//! The logged driver reaches the central model through the shuffler engine,
//! flushing each round with [`p2b_core::P2bSystem::streaming_round`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrival;
mod error;
mod logged;
mod outcome;
mod parallel;
mod regime;
#[cfg(test)]
mod streaming;

pub use arrival::{ArrivalConfig, ArrivalEvent, ArrivalProcess, LANE_CONSUMER_BASE};
pub use error::SimError;
pub use logged::{run_logged_experiment, LoggedExample, LoggedExperimentConfig};
pub use outcome::{write_series_json, RegimeOutcome, SeriesPoint};
pub use parallel::parallel_map;
pub use regime::Regime;
