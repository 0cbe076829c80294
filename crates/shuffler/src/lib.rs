//! ESA-style trusted shuffler for Privacy-Preserving Bandits.
//!
//! The shuffler sits between the local agents and the central server
//! (Section 3.3 of the paper, following the PROCHLO/ESA architecture). In the
//! real deployment it runs inside a trusted enclave; here it is an in-process
//! component that performs the same three tasks:
//!
//! 1. **Anonymization** — all metadata attached to incoming reports (agent
//!    identifiers, network addresses, timestamps) is stripped
//!    ([`RawReport`] → [`EncodedReport`]).
//! 2. **Shuffling** — reports are gathered into batches and their order is
//!    randomized (Fisher–Yates), severing any ordering side channel.
//! 3. **Thresholding** — reports whose encoded context code appears fewer
//!    than `threshold` times in the batch are removed, enforcing the
//!    crowd-blending parameter `l`.
//!
//! Two execution shapes share that contract:
//!
//! * [`Shuffler`] — synchronous, single batch per call; what the
//!   single-threaded simulation harness and the golden determinism tests
//!   use, and the per-batch kernel the streaming shape is checked against.
//! * [`ShufflerEngine`] — streaming: reports submitted from any thread are
//!   partitioned across N shard workers (by hashing the anonymous batch
//!   slot, never the sender), shuffled within and across shards through a
//!   fan-in merge stage, thresholded per merged batch, and delivered with
//!   per-batch (ε, δ) amplification records. One shard is the single-lane
//!   deployment; more shards are the serving-scale path. See [`engine`] for
//!   the stage diagram; `tests/pipeline_concurrency.rs` and
//!   `tests/shuffler_properties.rs` pin conservation and exact
//!   thresholding at shards ∈ {1, 2, 4}.
//!
//! A third shape drops the trusted-shuffler assumption altogether for the
//! sufficient-statistics ingest path: the [`SecureAggEngine`] aggregates
//! additively secret-shared fixed-point contributions across `k`
//! independent shard workers, none of which ever sees a plaintext value;
//! only the recombined sum — exact at any shard count — leaves the engine.
//! See [`secure`] for the stage diagram and the trust model.
//!
//! Both engines, and the central model service's ingest shards, run their
//! workers on one [`ShardPool`]: bounded per-shard FIFO queues, one rule for
//! a dead worker, one shutdown.
//!
//! # Example
//!
//! ```
//! use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), p2b_shuffler::ShufflerError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let shuffler = Shuffler::new(ShufflerConfig::new(2))?;
//! let reports: Vec<RawReport> = (0..6)
//!     .map(|i| RawReport::new(format!("agent-{i}"), EncodedReport::new(i % 2, 0, 1.0).unwrap()))
//!     .collect();
//! let batch = shuffler.process(reports, &mut rng);
//! assert_eq!(batch.reports().len(), 6); // both codes appear ≥ 2 times
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
mod error;
mod pool;
mod report;
pub mod secure;
mod shard;
mod shuffle;

pub use engine::{EngineBatch, EngineBuilder, EngineHandle, EngineOutput, ShufflerEngine};
pub use error::ShufflerError;
pub use p2b_privacy::{fnv1a, splitmix64};
pub use pool::{ShardPool, SHARD_QUEUE_CAPACITY};
pub use report::{EncodedReport, RawReport, ReportMetadata};
pub use secure::{SecureAggBuilder, SecureAggEngine, SecureAggHandle, SecureAggOutput};
pub use shuffle::{ShuffledBatch, Shuffler, ShufflerConfig, ShufflerStats};
