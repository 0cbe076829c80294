//! The streaming shuffler engine, on the submitting threads.
//!
//! The [`ShufflerEngine`] is the paper's one trusted shuffler (§3.3, after
//! ESA/PROCHLO). In this process it is no trust boundary of its own, so it
//! runs no thread: each producer does the shuffler's work under the
//! handle's one lock.
//!
//! ```text
//!  producers ──submit──▶ anonymize ──▶ lock: append (code, action, reward)
//!  (any thread)          (outside        │  the submit that fills the batch
//!                         the lock)      ▼  cuts it:
//!                                       sort by pair, merge (code, action)
//!                                       cells, threshold, (ε, δ) ledger
//!                                        │
//!                                        ▼
//!                              EngineBatch list ──finish──▶ EngineOutput
//! ```
//!
//! * **Batching** — `submit` strips each report's metadata
//!   ([`RawReport::into_anonymous`]) before it takes the lock, then appends
//!   the anonymous report to the current batch. The submit that brings the
//!   batch to [`EngineBuilder::batch_size`] reports cuts and releases it;
//!   [`EngineHandle::finish`] releases the partial last batch.
//! * **Release** — a batch leaves the engine as a histogram: one
//!   [`ReleasedCell`](crate::ReleasedCell) per `(code, action)` pair, in
//!   pair order, with the cells of codes below the crowd-blending threshold
//!   removed ([`ShuffledBatch`]). The histogram is the same for any order
//!   of the batch's reports, so nothing downstream observes arrival order.
//! * **Privacy bookkeeping** — with [`EngineBuilder::privacy_accounting`]
//!   enabled, the engine records every released batch in an
//!   [`AmplificationLedger`], attaching the per-batch (ε, δ) amplification
//!   record to the [`EngineBatch`]. A caller that keeps its own ledger
//!   leaves it off and books [`ShuffledBatch::min_released_code_frequency`],
//!   the crowd the engine reads, so each batch is booked once.
//!
//! The engine draws no randomness. With a single producer its batches are
//! fully determined by the submission order; at any producer count, a run
//! whose reports all fit one batch releases the same cells.

use crate::shuffle::CellTable;
use crate::{RawReport, ShuffledBatch, Shuffler, ShufflerConfig, ShufflerError};
use p2b_privacy::{AmplificationLedger, BatchAmplification, Participation};
use std::sync::{Mutex, PoisonError};

/// Builder for a [`ShufflerEngine`].
///
/// Obtained from [`ShufflerEngine::builder`]; every knob has a sensible
/// default, so the minimal spell is `builder(config).batch_size(n).build()`.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: ShufflerConfig,
    batch_size: usize,
    accounting: Option<(Participation, f64)>,
}

impl EngineBuilder {
    fn new(config: ShufflerConfig) -> Self {
        Self {
            config,
            batch_size: 64,
            accounting: None,
        }
    }

    /// Size of the batches delivered downstream (default 64). Every batch
    /// except the final flush contains exactly this many received reports.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables per-batch (ε, δ) amplification bookkeeping: the engine records
    /// every delivered batch in an [`AmplificationLedger`] under the given
    /// participation probability and δ-bound constant Ω, and attaches the
    /// record to each [`EngineBatch`].
    #[must_use]
    pub fn privacy_accounting(mut self, participation: Participation, omega: f64) -> Self {
        self.accounting = Some((participation, omega));
        self
    }

    /// Validates the configuration and produces the engine description.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidConfig`] when the shuffler threshold
    /// or the batch size is zero, or the privacy-accounting Ω is not a
    /// finite positive number.
    pub fn build(self) -> Result<ShufflerEngine, ShufflerError> {
        // Validate the threshold eagerly.
        let _ = Shuffler::new(self.config)?;
        if self.batch_size == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "batch_size",
                message: "must be at least 1".to_owned(),
            });
        }
        let ledger = match self.accounting {
            Some((participation, omega)) => {
                Some(AmplificationLedger::new(participation, omega).map_err(|e| {
                    ShufflerError::InvalidConfig {
                        parameter: "privacy_accounting",
                        message: e.to_string(),
                    }
                })?)
            }
            None => None,
        };
        Ok(ShufflerEngine {
            config: self.config,
            batch_size: self.batch_size,
            ledger,
        })
    }
}

/// One batch delivered by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBatch {
    /// Zero-based delivery index of the batch.
    pub index: u64,
    /// The anonymized, threshold-filtered batch, as `(code, action)` cells.
    pub batch: ShuffledBatch,
    /// Per-batch (ε, δ) amplification record, present when
    /// [`EngineBuilder::privacy_accounting`] was enabled.
    pub amplification: Option<BatchAmplification>,
}

/// Everything a finished engine run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Every delivered batch, in delivery order.
    pub batches: Vec<EngineBatch>,
    /// The amplification ledger accumulated by the engine, when accounting
    /// was enabled.
    pub ledger: Option<AmplificationLedger>,
}

/// A batched, streaming shuffler that runs on its producers' threads.
///
/// See the [module documentation](self) for the stage diagram. The engine
/// value itself is a passive description; [`ShufflerEngine::spawn`] returns
/// a handle to submit to.
///
/// # Examples
///
/// ```
/// use p2b_shuffler::{EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
///
/// # fn main() -> Result<(), p2b_shuffler::ShufflerError> {
/// let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
///     .batch_size(8)
///     .build()?;
/// let handle = engine.spawn();
/// for i in 0..16 {
///     let report = EncodedReport::new(i % 2, 0, 1.0)?;
///     handle.submit(RawReport::new(format!("agent-{i}"), report))?;
/// }
/// let output = handle.finish();
/// // 16 reports at batch size 8: two full batches, nothing lost.
/// assert_eq!(output.batches.len(), 2);
/// let delivered: u64 = output.batches.iter().flat_map(|b| b.batch.reports()).map(|c| c.count()).sum();
/// assert_eq!(delivered, 16);
/// // A batch releases one cell per (code, action) pair: at most codes 0 and 1.
/// assert!(output.batches.iter().all(|b| b.batch.reports().len() <= 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShufflerEngine {
    config: ShufflerConfig,
    batch_size: usize,
    ledger: Option<AmplificationLedger>,
}

impl ShufflerEngine {
    /// Starts building an engine around a shuffler configuration.
    #[must_use]
    pub fn builder(config: ShufflerConfig) -> EngineBuilder {
        EngineBuilder::new(config)
    }

    /// The batch size delivered downstream.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Opens a handle with an empty first batch. It starts no thread: the
    /// shuffler's work runs inside [`EngineHandle::submit`] and
    /// [`EngineHandle::finish`], on the caller's thread.
    #[must_use]
    pub fn spawn(&self) -> EngineHandle {
        EngineHandle {
            threshold: self.config.threshold,
            batch_size: self.batch_size,
            state: Mutex::new(EngineState {
                table: CellTable::default(),
                batches: Vec::new(),
                ledger: self.ledger.clone(),
            }),
        }
    }
}

/// What a handle's lock guards: the current batch's reports, the batches
/// released so far and their ledger.
#[derive(Debug)]
struct EngineState {
    table: CellTable,
    batches: Vec<EngineBatch>,
    ledger: Option<AmplificationLedger>,
}

impl EngineState {
    /// Releases the current batch (the crowd-blending threshold reads the
    /// per-code totals off its cells), books it in the ledger and appends
    /// it to the released batches.
    fn cut(&mut self, threshold: usize) {
        let batch = self.table.release(threshold);
        let stats = batch.stats();
        // `released > 0` implies a crowd ≥ threshold ≥ 1, so recording
        // cannot fail for batches this engine produces — but the accounting
        // hook must not be a panic path: a batch whose record is rejected is
        // delivered with no amplification claim (`None`). The `u64::try_from`
        // keeps the usize → u64 conversion lossless on any platform instead
        // of silently truncating.
        let amplification = self.ledger.as_mut().and_then(|ledger| {
            let crowd = u64::try_from(stats.min_released_frequency).unwrap_or(u64::MAX);
            ledger.record_batch(stats.released, crowd).ok()
        });
        self.batches.push(EngineBatch {
            index: self.batches.len() as u64,
            batch,
            amplification,
        });
    }
}

/// Handle to an open [`ShufflerEngine`] run.
///
/// `submit` may be called from any number of threads sharing the handle by
/// reference; they take turns on one lock. [`EngineHandle::finish`] releases
/// the partial last batch and returns every batch.
#[derive(Debug)]
pub struct EngineHandle {
    threshold: usize,
    batch_size: usize,
    state: Mutex<EngineState>,
}

impl EngineHandle {
    /// Submits one raw report: strips its metadata, then appends it to the
    /// current batch. The submit that fills the batch to the batch size
    /// releases it before it returns.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] if a producer panicked
    /// while holding the handle's lock.
    pub fn submit(&self, report: RawReport) -> Result<(), ShufflerError> {
        // The sender's metadata is freed before the lock is taken.
        let report = report.into_anonymous();
        let mut state = self
            .state
            .lock()
            .map_err(|_| ShufflerError::PipelineClosed)?;
        state.table.add(&report);
        if state.table.received() == self.batch_size {
            state.cut(self.threshold);
        }
        Ok(())
    }

    /// Number of reports this handle has accepted so far (a submit refused
    /// with [`ShufflerError::PipelineClosed`] does not count).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let released: usize = state.batches.iter().map(|b| b.batch.stats().received).sum();
        (released + state.table.received()) as u64
    }

    /// Releases the partial last batch and returns the released batches
    /// together with the amplification ledger. After a producer panicked
    /// while holding the handle's lock, the batches released before the
    /// panic are returned and the unreleased reports are dropped.
    #[must_use]
    pub fn finish(self) -> EngineOutput {
        let state = match self.state.into_inner() {
            Ok(mut state) => {
                if state.table.received() > 0 {
                    state.cut(self.threshold);
                }
                state
            }
            // A batch is appended whole, after its ledger record, so the
            // released batches and the ledger are valid at every step; only
            // the unreleased batch may be half-updated.
            Err(poisoned) => poisoned.into_inner(),
        };
        EngineOutput {
            batches: state.batches,
            ledger: state.ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedReport, ReleasedCell};

    fn raw(code: usize) -> RawReport {
        RawReport::new("agent", EncodedReport::new(code, 0, 1.0).unwrap())
    }

    fn engine(threshold: usize, batch_size: usize) -> ShufflerEngine {
        ShufflerEngine::builder(ShufflerConfig::new(threshold))
            .batch_size(batch_size)
            .build()
            .unwrap()
    }

    /// Submits `reports` from `producers` threads, each a contiguous share.
    fn submit_from(handle: &EngineHandle, producers: usize, reports: Vec<RawReport>) {
        let share = reports.len().div_ceil(producers).max(1);
        std::thread::scope(|scope| {
            for part in reports.chunks(share) {
                scope.spawn(move || {
                    for report in part {
                        handle.submit(report.clone()).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn builder_validates_every_knob() {
        let ok = ShufflerConfig::new(1);
        assert!(ShufflerEngine::builder(ShufflerConfig::new(0))
            .build()
            .is_err());
        assert!(ShufflerEngine::builder(ok).batch_size(0).build().is_err());
        assert!(ShufflerEngine::builder(ok)
            .privacy_accounting(Participation::new(0.5).unwrap(), 0.0)
            .build()
            .is_err());
        assert!(ShufflerEngine::builder(ok).build().is_ok());
        assert_eq!(engine(1, 10).batch_size(), 10);
    }

    #[test]
    fn merged_batches_have_exact_sizes_and_conserve_reports() {
        for producers in [1usize, 4] {
            let handle = engine(1, 10).spawn();
            submit_from(&handle, producers, (0..37).map(|i| raw(i % 5)).collect());
            assert_eq!(handle.submitted(), 37);
            let output = handle.finish();
            let sizes: Vec<usize> = output
                .batches
                .iter()
                .map(|b| b.batch.stats().received)
                .collect();
            assert_eq!(sizes, vec![10, 10, 10, 7], "producers={producers}");
            let total: u64 = output
                .batches
                .iter()
                .flat_map(|b| b.batch.reports())
                .map(ReleasedCell::count)
                .sum();
            assert_eq!(total, 37, "threshold 1 releases everything");
            // Delivery indices are consecutive.
            let indices: Vec<u64> = output.batches.iter().map(|b| b.index).collect();
            assert_eq!(indices, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn thresholding_applies_to_the_merged_batch_not_per_shard() {
        // 4 producers, 8 copies of one code: a threshold of 8 applied to any
        // producer's share would suppress everything (each sends 2), but the
        // batch clears it.
        let handle = engine(8, 8).spawn();
        submit_from(&handle, 4, (0..8).map(|_| raw(42)).collect());
        let output = handle.finish();
        assert_eq!(output.batches.len(), 1);
        let cells = output.batches[0].batch.reports();
        assert_eq!(cells.len(), 1);
        assert_eq!((cells[0].code(), cells[0].count()), (42, 8));
    }

    #[test]
    fn single_shard_runs_are_deterministic() {
        let run = || {
            let handle = engine(2, 16).spawn();
            for i in 0..50 {
                handle.submit(raw(i % 7)).unwrap();
            }
            handle.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn amplification_records_accompany_batches() {
        let engine = ShufflerEngine::builder(ShufflerConfig::new(2))
            .batch_size(12)
            .privacy_accounting(Participation::new(0.5).unwrap(), 0.1)
            .build()
            .unwrap();
        let handle = engine.spawn();
        // Codes 0 and 1 six times each: both clear threshold 2, crowd = 6.
        for i in 0..12 {
            handle.submit(raw(i % 2)).unwrap();
        }
        let output = handle.finish();
        assert_eq!(output.batches.len(), 1);
        let record = output.batches[0].amplification.expect("accounting enabled");
        assert_eq!(record.crowd_size, 6);
        // The engine books the crowd statistic the experiment channel reads
        // from the batch itself, so both pipelines derive the same δ.
        assert_eq!(
            record.crowd_size,
            output.batches[0].batch.min_released_code_frequency() as u64
        );
        assert_eq!(record.released, 12);
        assert!((record.guarantee.epsilon() - std::f64::consts::LN_2).abs() < 1e-12);
        let ledger = output.ledger.expect("accounting enabled");
        assert_eq!(ledger.records(), &[record]);
        assert_eq!(
            ledger.records().iter().map(|r| r.released).sum::<usize>(),
            12
        );
    }

    #[test]
    fn fully_suppressed_batches_record_the_perfect_guarantee_without_panicking() {
        // Every code below threshold: the batch releases nothing, so the
        // accounting hook records (released = 0, crowd = 0) — the edge the
        // old `expect` claimed unreachable. It must yield a (0, 0) record,
        // not a panic.
        let engine = ShufflerEngine::builder(ShufflerConfig::new(10))
            .batch_size(6)
            .privacy_accounting(Participation::new(0.5).unwrap(), 0.1)
            .build()
            .unwrap();
        let handle = engine.spawn();
        for i in 0..6 {
            handle.submit(raw(i)).unwrap(); // six distinct codes, crowd 1 < 10
        }
        let output = handle.finish();
        assert_eq!(output.batches.len(), 1);
        assert!(output.batches[0].batch.reports().is_empty());
        let record = output.batches[0].amplification.expect("accounting enabled");
        assert_eq!(record.released, 0);
        assert_eq!(record.crowd_size, 0);
        assert_eq!(record.guarantee.epsilon(), 0.0);
        assert_eq!(record.guarantee.delta(), 0.0);
    }

    #[test]
    fn single_shard_routing_is_panic_free() {
        // Every report goes to the one batch the handle holds, and a partial
        // batch is released by `finish`: no routing step that could panic.
        let handle = engine(1, 4).spawn();
        for i in 0..9 {
            handle.submit(raw(i % 2)).unwrap();
        }
        let output = handle.finish();
        let total: usize = output
            .batches
            .iter()
            .map(|b| b.batch.stats().received)
            .sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn empty_run_produces_no_batches() {
        let output = engine(1, 8).spawn().finish();
        assert!(output.batches.is_empty());
    }

    #[test]
    fn submit_after_finish_is_rejected_via_fresh_handle_semantics() {
        let engine = engine(1, 4);
        let first = engine.spawn();
        first.submit(raw(0)).unwrap();
        let _ = first.finish();
        // The engine description is reusable; each spawned handle is
        // independent.
        let second = engine.spawn();
        second.submit(raw(1)).unwrap();
        let output = second.finish();
        assert_eq!(output.batches.len(), 1);
    }

    /// Report `i` of a run: code `i % 3`, action `i`, so every report is
    /// distinct and any reordering shows.
    fn numbered(i: usize) -> EncodedReport {
        EncodedReport::new(i % 3, i, 1.0).unwrap()
    }

    /// The engine's output for a single producer, computed without a
    /// handle: cut the submissions every `batch_size` reports and release
    /// each cut through a fresh table.
    fn single_producer_oracle(
        threshold: usize,
        batch_size: usize,
        reports: &[EncodedReport],
    ) -> Vec<EngineBatch> {
        reports
            .chunks(batch_size)
            .enumerate()
            .map(|(index, cut)| {
                let mut table = CellTable::default();
                cut.iter().for_each(|report| table.add(report));
                EngineBatch {
                    index: index as u64,
                    batch: table.release(threshold),
                    amplification: None,
                }
            })
            .collect()
    }

    /// Report counts around the batch sizes below.
    const COUNTS: [usize; 6] = [0, 1, 6, 7, 8, 3 * 263 + 5];
    const BATCH_SIZES: [usize; 4] = [1, 7, 263, 2 * 263 + 3];

    #[test]
    fn staging_never_reorders_or_recuts_reports() {
        // The handle's one table is reused from batch to batch; its output
        // must equal a fresh table per cut.
        for n in COUNTS {
            for batch_size in BATCH_SIZES {
                let reports: Vec<EncodedReport> = (0..n).map(numbered).collect();
                let handle = engine(2, batch_size).spawn();
                for (i, report) in reports.iter().enumerate() {
                    handle
                        .submit(RawReport::new(format!("agent-{i}"), *report))
                        .unwrap();
                }
                assert_eq!(
                    handle.finish().batches,
                    single_producer_oracle(2, batch_size, &reports),
                    "n={n} batch_size={batch_size}"
                );
            }
        }
    }

    #[test]
    fn concurrent_staging_conserves_reports_at_exact_merged_sizes() {
        for n in COUNTS {
            for batch_size in BATCH_SIZES {
                let handle = engine(1, batch_size).spawn();
                let reports = (0..n).map(|i| RawReport::new("agent", numbered(i)));
                submit_from(&handle, 4, reports.collect());
                let output = handle.finish();
                let sizes: Vec<usize> = output
                    .batches
                    .iter()
                    .map(|b| b.batch.stats().received)
                    .collect();
                let mut want = vec![batch_size; n / batch_size];
                want.extend(Some(n % batch_size).filter(|&r| r > 0));
                let context = format!("producers=4 n={n} batch_size={batch_size}");
                assert_eq!(sizes, want, "{context}");
                let mut actions: Vec<usize> = output
                    .batches
                    .iter()
                    .flat_map(|b| b.batch.reports().iter().map(ReleasedCell::action))
                    .collect();
                actions.sort_unstable();
                assert_eq!(actions, (0..n).collect::<Vec<_>>(), "{context}");
            }
        }
    }

    #[test]
    fn a_full_batch_is_released_by_the_submit_that_fills_it() {
        for batch_size in [1, 7, 64] {
            let handle = engine(1, batch_size).spawn();
            for k in 1..=3 {
                for i in 0..batch_size {
                    let released = handle.state.lock().unwrap().batches.len();
                    assert_eq!(
                        released,
                        k - 1,
                        "batch_size={batch_size}, {i} into batch {k}"
                    );
                    handle.submit(raw(i % 5)).unwrap();
                }
                let state = handle.state.lock().unwrap();
                assert_eq!(state.batches.len(), k, "batch_size={batch_size}");
                assert_eq!(state.table.received(), 0, "the cut empties the table");
                let last = state.batches.last().unwrap();
                assert_eq!(
                    (last.index, last.batch.stats().received),
                    (k as u64 - 1, batch_size)
                );
            }
            // `finish` has no partial batch left to release.
            assert_eq!(handle.finish().batches.len(), 3);
        }
    }

    #[test]
    fn a_poisoned_stage_reads_as_pipeline_closed() {
        let handle = engine(1, 4).spawn();
        handle.submit(raw(0)).unwrap();
        // A producer panics while it holds the handle's lock.
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _state = handle.state.lock();
                    panic!("injected fault");
                })
                .join()
                .is_err()
        });
        assert!(poisoned);
        assert_eq!(handle.submit(raw(1)), Err(ShufflerError::PipelineClosed));
        assert_eq!(handle.submitted(), 1, "a refused report is not counted");
        // `finish` neither hangs nor panics; the unreleased report is not
        // delivered.
        assert!(handle.finish().batches.is_empty());
    }

    #[test]
    fn concurrent_producers_do_not_lose_reports() {
        let handle = engine(1, 32).spawn();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let handle_ref = &handle;
                scope.spawn(move || {
                    for i in 0..200 {
                        handle_ref.submit(raw((t * 200 + i) % 9)).unwrap();
                    }
                });
            }
        });
        let output = handle.finish();
        let total: usize = output
            .batches
            .iter()
            .map(|b| b.batch.stats().received)
            .sum();
        assert_eq!(total, 800);
    }
}
