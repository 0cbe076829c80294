//! The streaming shuffler engine: one lane.
//!
//! The [`ShufflerEngine`] is the paper's one trusted shuffler (§3.3, after
//! ESA/PROCHLO) as a single worker thread behind a bounded queue:
//!
//! ```text
//!  producers ──submit──▶ stage ──chunk──▶ lane ──▶ EngineBatch stream
//!  (any thread)         (256 reports)    (anonymize, tabulate (code, action)
//!                                         cells, threshold, (ε, δ) ledger)
//! ```
//!
//! * **Batching** — the lane strips each report's metadata
//!   ([`RawReport::into_anonymous`]), adds it to the current batch's cell
//!   table and releases the table every [`EngineBuilder::batch_size`]
//!   reports exactly (the final flush may be smaller).
//! * **Release** — a batch leaves the engine as a histogram: one
//!   [`ReleasedCell`](crate::ReleasedCell) per `(code, action)` pair, in
//!   pair order, with the cells of codes below the crowd-blending threshold
//!   removed ([`ShuffledBatch`]). The histogram is the same for any order
//!   of the batch's reports, so nothing downstream observes arrival order.
//! * **Staging** — `submit` does not hand each report to the lane on its
//!   own: it appends it to the handle's stage, and a stage that reaches a
//!   fixed chunk of reports (256) goes to the lane as one message. A report
//!   can therefore wait in the stage until the chunk fills or
//!   [`EngineHandle::finish`] sends the partial stage; the lane cuts the
//!   chunks at its batch size report by report, exactly as it would cut a
//!   one-report-at-a-time stream, so staging changes no batch.
//! * **Backpressure** — the lane is a one-worker [`ShardPool`] whose
//!   bounded queue holds about [`SHARD_QUEUE_CAPACITY`] reports in chunks,
//!   plus at most one staged chunk; `submit` blocks while the queue is
//!   full, so a slow engine slows its producers instead of buffering
//!   without limit.
//! * **Privacy bookkeeping** — with [`EngineBuilder::privacy_accounting`]
//!   enabled, the lane records every delivered batch in an
//!   [`AmplificationLedger`], attaching the per-batch (ε, δ) amplification
//!   record to the [`EngineBatch`]. A caller that keeps its own ledger
//!   leaves it off and books [`ShuffledBatch::min_released_code_frequency`],
//!   the crowd the lane reads, so each batch is booked once.
//!
//! The engine draws no randomness. With a single producer its batches are
//! fully determined by the submission order; at any producer count, a run
//! whose reports all fit one batch releases the same cells.

use crate::shuffle::CellTable;
use crate::{
    RawReport, ShardPool, ShuffledBatch, Shuffler, ShufflerConfig, ShufflerError,
    SHARD_QUEUE_CAPACITY,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use p2b_privacy::{AmplificationLedger, BatchAmplification, Participation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Reports the stage collects before [`EngineHandle::submit`] sends them to
/// the lane as one message.
const STAGE_CHUNK: usize = 256;

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

    /// Enables per-batch (ε, δ) amplification bookkeeping: the lane records
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
    /// The amplification ledger accumulated by the lane, when accounting
    /// was enabled.
    pub ledger: Option<AmplificationLedger>,
}

/// A batched, streaming shuffler on one worker thread.
///
/// See the [module documentation](self) for the stage diagram. The engine
/// value itself is a passive description; [`ShufflerEngine::spawn`] starts
/// the lane and returns a handle.
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

    /// Starts the lane: one worker thread.
    #[must_use]
    pub fn spawn(&self) -> EngineHandle {
        let (batch_tx, batch_rx) = unbounded::<EngineBatch>();
        let (threshold, batch_size) = (self.config.threshold, self.batch_size);
        let ledger = self.ledger.clone();
        // A queue of `SHARD_QUEUE_CAPACITY / STAGE_CHUNK` chunks keeps the
        // bound at about `SHARD_QUEUE_CAPACITY` reports. The lane owns the
        // only batch sender, so the batch stream ends when the lane exits.
        let capacity = SHARD_QUEUE_CAPACITY / STAGE_CHUNK;
        let lane = ShardPool::spawn(1, capacity, move |_, input| {
            run_lane(&input, &batch_tx, threshold, batch_size, ledger)
        });
        EngineHandle {
            lane: Some(lane),
            stage: Mutex::new(Vec::with_capacity(STAGE_CHUNK)),
            submitted: AtomicU64::new(0),
            batch_rx,
            #[cfg(test)]
            chunks_sent: AtomicU64::new(0),
        }
    }
}

/// The lane: anonymizes each report of each chunk, adds it to the current
/// batch's cell table, releases the table every `batch_size` reports (the
/// crowd-blending threshold reads the per-code totals off its cells), and
/// records amplification. Runs until the ingress closes, then flushes the
/// partial batch, or until the downstream receiver is gone.
fn run_lane(
    input: &Receiver<Vec<RawReport>>,
    batch_tx: &Sender<EngineBatch>,
    threshold: usize,
    batch_size: usize,
    mut ledger: Option<AmplificationLedger>,
) -> Option<AmplificationLedger> {
    let mut table = CellTable::default();
    let mut next_index = 0u64;
    while let Ok(chunk) = input.recv() {
        for report in chunk {
            table.add(&report.into_anonymous());
            if table.received() == batch_size
                && !emit(
                    table.release(threshold),
                    batch_tx,
                    &mut ledger,
                    &mut next_index,
                )
            {
                return ledger;
            }
        }
    }
    if table.received() > 0 {
        emit(
            table.release(threshold),
            batch_tx,
            &mut ledger,
            &mut next_index,
        );
    }
    ledger
}

/// Books one released batch and sends it downstream. Returns `false` when
/// the downstream receiver is gone and the lane should stop.
fn emit(
    batch: ShuffledBatch,
    batch_tx: &Sender<EngineBatch>,
    ledger: &mut Option<AmplificationLedger>,
    next_index: &mut u64,
) -> bool {
    let stats = batch.stats();
    // `released > 0` implies a crowd ≥ threshold ≥ 1, so recording cannot
    // fail for batches this lane produces — but the accounting hook must
    // not be a panic path: a batch whose record is rejected is delivered
    // with no amplification claim (`None`) instead of crashing the lane.
    // The `u64::try_from` keeps the usize → u64 conversion lossless on any
    // platform instead of silently truncating.
    let amplification = ledger.as_mut().and_then(|ledger| {
        let crowd = u64::try_from(stats.min_released_frequency).unwrap_or(u64::MAX);
        ledger.record_batch(stats.released, crowd).ok()
    });
    let batch = EngineBatch {
        index: *next_index,
        batch,
        amplification,
    };
    *next_index += 1;
    batch_tx.send(batch).is_ok()
}

/// Handle to a running [`ShufflerEngine`].
///
/// `submit` may be called from any number of threads sharing the handle by
/// reference. Dropping the handle (or calling [`EngineHandle::finish`])
/// flushes the stage, closes the ingress and joins the lane.
#[derive(Debug)]
pub struct EngineHandle {
    lane: Option<ShardPool<Vec<RawReport>, Option<AmplificationLedger>>>,
    /// The reports submitted since the last chunk went to the lane.
    stage: Mutex<Vec<RawReport>>,
    submitted: AtomicU64,
    batch_rx: Receiver<EngineBatch>,
    /// Chunk messages handed to the lane.
    #[cfg(test)]
    chunks_sent: AtomicU64,
}

impl EngineHandle {
    /// Submits one raw report.
    ///
    /// The report is staged on the handle and may wait there until 256
    /// reports accumulate or [`Self::finish`]; the call that fills the stage
    /// sends it as one chunk and blocks while the lane's bounded queue is
    /// full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] after [`Self::finish`], if
    /// a producer panicked while holding the stage, or — at the next chunk
    /// sent to it — if the lane has shut down.
    pub fn submit(&self, report: RawReport) -> Result<(), ShufflerError> {
        let lane = self.lane.as_ref().ok_or(ShufflerError::PipelineClosed)?;
        let chunk = {
            let mut stage = self
                .stage
                .lock()
                .map_err(|_| ShufflerError::PipelineClosed)?;
            stage.push(report);
            self.submitted.fetch_add(1, Ordering::Relaxed);
            if stage.len() < STAGE_CHUNK {
                return Ok(());
            }
            std::mem::replace(&mut *stage, Vec::with_capacity(STAGE_CHUNK))
        };
        self.send_chunk(lane, chunk)
    }

    /// Hands one chunk of staged reports to the lane.
    fn send_chunk(
        &self,
        lane: &ShardPool<Vec<RawReport>, Option<AmplificationLedger>>,
        chunk: Vec<RawReport>,
    ) -> Result<(), ShufflerError> {
        #[cfg(test)]
        self.chunks_sent.fetch_add(1, Ordering::Relaxed);
        lane.send(0, chunk)
    }

    /// Number of reports this handle's stage has accepted so far (a submit
    /// refused with [`ShufflerError::PipelineClosed`] before staging does
    /// not count).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Flushes the stage, closes the ingress, and returns the delivered
    /// batches together with the amplification ledger.
    #[must_use]
    pub fn finish(mut self) -> EngineOutput {
        let ledger = self.close();
        let batches = self.batch_rx.try_iter().collect();
        EngineOutput { batches, ledger }
    }

    fn close(&mut self) -> Option<AmplificationLedger> {
        // The partial stage goes to the lane first; a poisoned stage reads
        // as a closed pipeline and a dead lane refuses its chunk, and
        // neither stops the shutdown. Joining the pool then closes the
        // ingress; the lane flushes its partial batch and returns the
        // ledger.
        let lane = self.lane.take()?;
        if let Ok(mut stage) = self.stage.lock() {
            if !stage.is_empty() {
                let _ = self.send_chunk(&lane, std::mem::take(&mut *stage));
            }
        }
        lane.join().ok()?.pop().flatten()
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedReport, ReleasedCell};
    use crossbeam::channel::bounded;

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
        // The lane books the crowd statistic the experiment channel reads
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
        // The lane is shard 0 of a one-worker pool: every chunk goes there
        // through `ShardPool::send`, which has no panic path.
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

    /// Report `i` of a staged-path run: code `i % 3`, action `i`, so every
    /// report is distinct and any reordering shows.
    fn numbered(i: usize) -> EncodedReport {
        EncodedReport::new(i % 3, i, 1.0).unwrap()
    }

    /// The engine's output for a single producer, computed without threads:
    /// cut the submissions every `batch_size` reports and release each cut
    /// through the synchronous shuffler's kernel.
    fn single_lane_oracle(
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

    /// Report counts around the stage chunk.
    const COUNTS: [usize; 6] = [
        0,
        1,
        STAGE_CHUNK - 1,
        STAGE_CHUNK,
        STAGE_CHUNK + 1,
        3 * STAGE_CHUNK + 7,
    ];

    #[test]
    fn staging_never_reorders_or_recuts_reports() {
        for n in COUNTS {
            for batch_size in [1, 7, STAGE_CHUNK, 2 * STAGE_CHUNK + 3] {
                let reports: Vec<EncodedReport> = (0..n).map(numbered).collect();
                let handle = engine(2, batch_size).spawn();
                for (i, report) in reports.iter().enumerate() {
                    handle
                        .submit(RawReport::new(format!("agent-{i}"), *report))
                        .unwrap();
                }
                assert_eq!(
                    handle.finish().batches,
                    single_lane_oracle(2, batch_size, &reports),
                    "n={n} batch_size={batch_size}"
                );
            }
        }
    }

    #[test]
    fn concurrent_staging_conserves_reports_at_exact_merged_sizes() {
        for n in COUNTS {
            for batch_size in [1, 7, STAGE_CHUNK, 2 * STAGE_CHUNK + 3] {
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
    fn a_shard_receives_one_message_per_chunk_of_reports() {
        for n in COUNTS {
            let mut handle = engine(1, 7).spawn();
            for i in 0..n {
                handle.submit(raw(i % 5)).unwrap();
            }
            assert_eq!(
                handle.chunks_sent.load(Ordering::Relaxed),
                (n / STAGE_CHUNK) as u64,
                "full stages, n={n}"
            );
            let _ = handle.close();
            assert_eq!(
                handle.chunks_sent.load(Ordering::Relaxed),
                n.div_ceil(STAGE_CHUNK) as u64,
                "after the partial stage, n={n}"
            );
        }
    }

    #[test]
    fn a_poisoned_stage_reads_as_pipeline_closed() {
        let handle = engine(1, 4).spawn();
        handle.submit(raw(0)).unwrap();
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _stage = handle.stage.lock();
                    panic!("injected fault");
                })
                .join()
                .is_err()
        });
        assert!(poisoned);
        assert_eq!(handle.submit(raw(1)), Err(ShufflerError::PipelineClosed));
        assert_eq!(handle.submitted(), 1, "a refused report is not counted");
        // `finish` neither hangs nor panics; the poisoned stage's report is
        // not delivered.
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

    #[test]
    fn the_lane_stops_when_the_downstream_receiver_is_gone() {
        let (in_tx, in_rx) = bounded::<Vec<RawReport>>(16);
        let (batch_tx, batch_rx) = unbounded::<EngineBatch>();
        drop(batch_rx);
        let lane = std::thread::spawn(move || run_lane(&in_rx, &batch_tx, 1, 2, None));
        // The lane exits as soon as it fails to deliver a full batch, while
        // the ingress is still open, instead of spinning forever.
        let _ = in_tx.send(vec![raw(0), raw(1)]);
        assert_eq!(lane.join().unwrap(), None);
    }

    #[test]
    fn a_chunk_sent_to_a_dead_lane_is_pipeline_closed() {
        let (batch_tx, batch_rx) = unbounded::<EngineBatch>();
        drop(batch_rx);
        let pool = ShardPool::spawn(1, 1, move |_, input| {
            run_lane(&input, &batch_tx, 1, 4, None)
        });
        let chunk = || (0..STAGE_CHUNK).map(raw).collect::<Vec<_>>();
        // The first chunk is taken and its first batch fails to deliver, so
        // the lane exits; at most one more chunk fits the queue before
        // that, and every send after it observes the dead lane.
        let accepted = (0..3).take_while(|_| pool.send(0, chunk()).is_ok()).count();
        assert!((1..=2).contains(&accepted), "accepted {accepted}");
        assert_eq!(pool.send(0, chunk()), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.join(), Ok(vec![None]));
    }
}
