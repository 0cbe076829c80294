//! Simulation plumbing shared by the serving harness, the benchmark and the
//! experiment drivers:
//!
//! * [`ArrivalProcess`] — the seeded open-loop arrival process of the
//!   serving harness and the benchmark;
//! * [`parallel_map`] — the scoped worker pool the drivers share.
//!
//! The experiment driver behind the paper's figures is
//! `p2b_experiments` (`run_matrix`, `run_cell` and `run_held_out`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrival;
mod error;
mod parallel;
#[cfg(test)]
mod streaming;

pub use arrival::{ArrivalConfig, ArrivalEvent, ArrivalProcess, LANE_CONSUMER_BASE};
pub use error::SimError;
pub use parallel::parallel_map;
