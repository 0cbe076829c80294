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
//! 2. **Tabulation** — reports are gathered into batches and each batch is
//!    released as a histogram: one [`ReleasedCell`] per `(code, action)`
//!    pair, holding the pair's report count and reward sum, in pair order.
//!    This is the shuffle's purpose carried to its end: a histogram has no
//!    order at all, so no ordering side channel survives, and it is all the
//!    analyzer reads of the released multiset (post-processing of it, so
//!    the (ε, δ) is unchanged).
//! 3. **Thresholding** — the cells of every code that appears fewer than
//!    `threshold` times in the batch are removed, enforcing the
//!    crowd-blending parameter `l`.
//!
//! Two execution shapes share that contract:
//!
//! * [`Shuffler`] — synchronous, single batch per call: the per-batch
//!   kernel the streaming shape is checked against, and how tests and
//!   microbenchmarks build a shuffled batch without threads.
//! * [`ShufflerEngine`] — streaming: reports submitted from any thread are
//!   staged on the handle and handed a chunk at a time to one worker
//!   thread, the lane, which anonymizes, tabulates and thresholds them per
//!   batch and delivers each batch with its per-batch (ε, δ) amplification
//!   record. Every report reaches the central model this way. See
//!   [`engine`] for the stage diagram and the staging contract;
//!   `tests/pipeline_concurrency.rs` and `tests/shuffler_properties.rs` pin
//!   conservation and exact thresholding at one and many producers.
//!
//! A third shape drops the trusted-shuffler assumption altogether for the
//! sufficient-statistics ingest path: the [`SecureAggEngine`] aggregates
//! additively secret-shared fixed-point contributions across `k`
//! independent shard workers, none of which ever sees a plaintext value;
//! only the recombined sum — exact at any shard count — leaves the engine.
//! See [`secure`] for the stage diagram and the trust model.
//!
//! Both engines, and the central model service's ingest shards, run their
//! workers on one [`ShardPool`] (the shuffler engine's lane is a pool of
//! one): bounded per-shard FIFO queues, one rule for a dead worker, one
//! shutdown.
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
//! // Both codes appear ≥ 2 times: two cells of three reports each.
//! let cells: Vec<(usize, u64)> = batch.reports().iter().map(|c| (c.code(), c.count())).collect();
//! assert_eq!(cells, vec![(0, 3), (1, 3)]);
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
mod shuffle;

pub use engine::{EngineBatch, EngineBuilder, EngineHandle, EngineOutput, ShufflerEngine};
pub use error::ShufflerError;
pub use p2b_privacy::{fnv1a, splitmix64};
pub use pool::{ShardPool, SHARD_QUEUE_CAPACITY};
pub use report::{EncodedReport, RawReport, ReleasedCell, ReportMetadata};
pub use secure::{SecureAggBuilder, SecureAggEngine, SecureAggHandle, SecureAggOutput};
pub use shuffle::{ShuffledBatch, Shuffler, ShufflerConfig, ShufflerStats};
