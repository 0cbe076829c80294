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
//!   anonymized on the submitting thread and appended, under the handle's
//!   one lock, to the current batch; the submit that fills a batch
//!   tabulates and thresholds it and delivers it with its per-batch (ε, δ)
//!   amplification record. The engine starts no thread. Every report
//!   reaches the central model this way. See [`engine`] for the stage
//!   diagram; `tests/pipeline_concurrency.rs` and
//!   `tests/shuffler_properties.rs` pin conservation and exact
//!   thresholding at one and many producers.
//!
//! The shuffler starts no thread and holds nothing else: the
//! secure-aggregation regime, which needs no trusted shuffler, lives in
//! `p2b_core` (`SecureIngestService`).
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
mod report;
mod shuffle;

pub use engine::{EngineBatch, EngineBuilder, EngineHandle, EngineOutput, ShufflerEngine};
pub use error::ShufflerError;
pub use p2b_privacy::{fnv1a, splitmix64};
pub use report::{EncodedReport, RawReport, ReleasedCell, ReportMetadata};
pub use shuffle::{ShuffledBatch, Shuffler, ShufflerConfig, ShufflerStats};
