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
//! This crate drives populations of agents through the three regimes over the
//! workloads from [`p2b_datasets`] and produces the metric series behind every
//! figure of the paper:
//!
//! * [`run_synthetic_population`] — average reward over a growing user
//!   population (Figures 4 and 5),
//! * [`run_logged_experiment`] — accuracy / CTR over per-agent sample streams
//!   with a train/test agent split (Figures 6 and 7),
//! * [`run_streaming_population`] — the serving-scale shape: parallel
//!   producers submitting to the sharded shuffler engine,
//! * [`outcome::SeriesPoint`] and [`write_series_json`] — serialization of
//!   result series for plotting and for EXPERIMENTS.md.
//!
//! Every driver reaches the central model through the shuffler engine: the
//! round-based drivers flush each round with
//! [`p2b_core::P2bSystem::streaming_round`], the streaming one submits from
//! many producer threads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrival;
mod error;
mod logged;
mod outcome;
mod parallel;
mod regime;
mod streaming;
mod synthetic;

pub use arrival::{ArrivalConfig, ArrivalEvent, ArrivalProcess, LANE_CONSUMER_BASE};
pub use error::SimError;
pub use logged::{run_logged_experiment, LoggedExample, LoggedExperimentConfig};
pub use outcome::{write_series_json, RegimeOutcome, SeriesPoint};
pub use parallel::parallel_map;
pub use regime::Regime;
pub use streaming::{run_streaming_population, StreamingConfig, StreamingOutcome};
pub use synthetic::{run_synthetic_population, PopulationConfig};
