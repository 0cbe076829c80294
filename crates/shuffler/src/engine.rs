//! The sharded, batched shuffler engine.
//!
//! One worker thread processing one report at a time caps throughput well
//! below a serving-scale deployment, so the [`ShufflerEngine`] is a
//! two-stage design (with `shards = 1` it degenerates to that single lane):
//!
//! ```text
//!  producers ──submit──▶ shard 0 ─┐  (anonymize)
//!  (any thread)          shard 1 ─┼─▶ fan-in merger ──▶ EngineBatch stream
//!            ⋮               ⋮    │   (tabulate (code, action) cells,
//!                        shard N ─┘    threshold, (ε, δ) ledger)
//! ```
//!
//! * **Sharding** — [`EngineHandle::submit`] routes each report to a shard
//!   by hashing its *anonymous batch slot* (a per-engine arrival counter).
//!   The key is never derived from the sender: shard assignment therefore
//!   carries zero information about the user, unlike a user-id hash which
//!   would pin every user to one shard and leak membership through shard
//!   load.
//! * **Batching** — each shard accumulates a sub-batch of
//!   `batch_size / shards` reports (rounded up), anonymizes it, and
//!   forwards it to the merger; the merger adds each report to the current
//!   merged batch's cell table and releases the table every
//!   [`EngineBuilder::batch_size`] reports exactly (the final flush may be
//!   smaller).
//! * **Release** — a merged batch leaves the engine as a histogram: one
//!   [`ReleasedCell`](crate::ReleasedCell) per `(code, action)` pair, in
//!   pair order, with the cells of codes below the crowd-blending threshold
//!   removed ([`ShuffledBatch`]). The histogram is the same for any order
//!   of the batch's reports, so no stage needs to randomize one.
//! * **Staging** — `submit` does not hand each report to its shard on its
//!   own: it appends it to that shard's stage on the handle, and a stage
//!   that reaches a fixed chunk of reports (256) goes to the shard as one
//!   message. A report can therefore wait in its stage until the chunk
//!   fills or [`EngineHandle::finish`] sends every partial stage; the shard
//!   re-cuts the chunks at its batch size exactly as it would cut a
//!   one-report-at-a-time stream, so staging changes no batch.
//! * **Backpressure** — the shards are a [`ShardPool`] of bounded ingress
//!   queues of chunks, about [`SHARD_QUEUE_CAPACITY`] reports deep per
//!   shard plus at most one staged chunk; `submit` blocks while the target
//!   shard's queue is full, so a slow engine slows its producers instead of
//!   buffering without limit.
//! * **Privacy bookkeeping** — with [`EngineBuilder::privacy_accounting`]
//!   enabled, the merger records every delivered batch in an
//!   [`AmplificationLedger`], attaching the per-batch (ε, δ) amplification
//!   record to the [`EngineBatch`]. A caller that keeps its own ledger
//!   leaves it off and books [`ShuffledBatch::min_released_code_frequency`],
//!   the crowd the merger reads, so each batch is booked once.
//!
//! The engine draws no randomness. With `shards = 1` and a single producer
//! its batches are fully determined by the submission order; at any shard
//! or producer count, a run whose reports all fit one merged batch
//! releases the same cells.

use crate::shard::{ShardWorker, SubBatch};
use crate::shuffle::CellTable;
use crate::{
    RawReport, ShardPool, ShuffledBatch, Shuffler, ShufflerConfig, ShufflerError,
    SHARD_QUEUE_CAPACITY,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use p2b_privacy::{splitmix64, AmplificationLedger, BatchAmplification, Participation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Reports a shard's stage collects before [`EngineHandle::submit`] sends
/// them to the shard as one message.
const STAGE_CHUNK: usize = 256;

/// Builder for a [`ShufflerEngine`].
///
/// Obtained from [`ShufflerEngine::builder`]; every knob has a sensible
/// default, so the minimal spell is `builder(config).batch_size(n).build()`.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: ShufflerConfig,
    shards: usize,
    batch_size: usize,
    accounting: Option<(Participation, f64)>,
}

impl EngineBuilder {
    fn new(config: ShufflerConfig) -> Self {
        Self {
            config,
            shards: 1,
            batch_size: 64,
            accounting: None,
        }
    }

    /// Number of shard workers (default 1). Each shard owns one thread and
    /// one ingress queue bounded at about [`SHARD_QUEUE_CAPACITY`] reports,
    /// carried in chunks of 256 that [`EngineHandle::submit`] stages on the
    /// handle: `submit` blocks while the target shard's queue is full — the
    /// engine's backpressure contract.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Size of the merged batches delivered downstream (default 64). Every
    /// batch except the final flush contains exactly this many received
    /// reports. Each shard forwards sub-batches of `batch_size / shards`
    /// reports (rounded up), so the shards collectively fill one merged
    /// batch per round of sub-batches.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables per-batch (ε, δ) amplification bookkeeping: the merger
    /// records every delivered batch in an [`AmplificationLedger`] under the
    /// given participation probability and δ-bound constant Ω, and attaches
    /// the record to each [`EngineBatch`].
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
    /// is zero, the shard count or batch size is zero, or the
    /// privacy-accounting Ω is not a finite positive number.
    pub fn build(self) -> Result<ShufflerEngine, ShufflerError> {
        // Validate the threshold eagerly.
        let _ = Shuffler::new(self.config)?;
        if self.shards == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "shards",
                message: "must be at least 1".to_owned(),
            });
        }
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
            shards: self.shards,
            batch_size: self.batch_size,
            shard_batch_size: self.batch_size.div_ceil(self.shards),
            ledger,
        })
    }
}

/// One merged batch delivered by the engine.
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
    /// The amplification ledger accumulated by the merger, when accounting
    /// was enabled.
    pub ledger: Option<AmplificationLedger>,
}

/// A sharded, batched, multi-threaded shuffler.
///
/// See the [module documentation](self) for the stage diagram and the
/// design rationale. The engine value itself is a passive description;
/// [`ShufflerEngine::spawn`] starts the shard workers and the merger and
/// returns a handle.
///
/// # Examples
///
/// ```
/// use p2b_shuffler::{EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
///
/// # fn main() -> Result<(), p2b_shuffler::ShufflerError> {
/// let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
///     .shards(2)
///     .batch_size(8)
///     .build()?;
/// let handle = engine.spawn();
/// for i in 0..16 {
///     let report = EncodedReport::new(i % 2, 0, 1.0)?;
///     handle.submit(RawReport::new(format!("agent-{i}"), report))?;
/// }
/// let output = handle.finish();
/// // 16 reports at batch size 8: two full merged batches, nothing lost.
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
    shards: usize,
    batch_size: usize,
    shard_batch_size: usize,
    ledger: Option<AmplificationLedger>,
}

impl ShufflerEngine {
    /// Starts building an engine around a shuffler configuration.
    #[must_use]
    pub fn builder(config: ShufflerConfig) -> EngineBuilder {
        EngineBuilder::new(config)
    }

    /// The number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The merged batch size delivered downstream.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Starts the shard workers and the fan-in merger.
    #[must_use]
    pub fn spawn(&self) -> EngineHandle {
        let (fan_tx, fan_rx) = unbounded::<SubBatch>();
        let (batch_tx, batch_rx) = unbounded::<EngineBatch>();

        // Each shard owns a clone of the fan-in sender and the pool keeps
        // none, so the merger disconnects as soon as the last shard exits.
        let shard_batch_size = self.shard_batch_size;
        // A queue of `SHARD_QUEUE_CAPACITY / STAGE_CHUNK` chunks keeps the
        // per-shard bound at about `SHARD_QUEUE_CAPACITY` reports.
        let capacity = SHARD_QUEUE_CAPACITY / STAGE_CHUNK;
        let shards = ShardPool::spawn(self.shards, capacity, move |shard, input| {
            ShardWorker::new(shard, input, fan_tx, shard_batch_size).run();
        });

        let threshold = self.config.threshold;
        let batch_size = self.batch_size;
        let ledger = self.ledger.clone();
        let merger = std::thread::spawn(move || {
            run_merger(&fan_rx, &batch_tx, threshold, batch_size, ledger)
        });

        EngineHandle {
            stages: (0..self.shards)
                .map(|_| Mutex::new(Vec::with_capacity(STAGE_CHUNK)))
                .collect(),
            shards: Some(shards),
            slot: AtomicU64::new(0),
            batch_rx,
            merger: Some(merger),
            #[cfg(test)]
            chunks_sent: AtomicU64::new(0),
        }
    }
}

/// The fan-in merge stage: adds each anonymized report to the current
/// merged batch's cell table, releases the table every `batch_size`
/// reports (the crowd-blending threshold reads the per-code totals off its
/// cells), and records amplification.
fn run_merger(
    fan_rx: &Receiver<SubBatch>,
    batch_tx: &Sender<EngineBatch>,
    threshold: usize,
    batch_size: usize,
    mut ledger: Option<AmplificationLedger>,
) -> Option<AmplificationLedger> {
    let mut table = CellTable::default();
    let mut next_index = 0u64;
    while let Ok(sub) = fan_rx.recv() {
        for report in &sub.reports {
            table.add(report);
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

/// Books one released merged batch and sends it downstream. Returns `false`
/// when the downstream receiver is gone and the merger should stop.
fn emit(
    batch: ShuffledBatch,
    batch_tx: &Sender<EngineBatch>,
    ledger: &mut Option<AmplificationLedger>,
    next_index: &mut u64,
) -> bool {
    let stats = batch.stats();
    // `released > 0` implies a crowd ≥ threshold ≥ 1, so recording cannot
    // fail for batches this merger produces — but the accounting hook must
    // not be a panic path: a batch whose record is rejected is delivered
    // with no amplification claim (`None`) instead of crashing the merger.
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
/// closes the ingress, flushes every stage and joins the worker threads.
#[derive(Debug)]
pub struct EngineHandle {
    shards: Option<ShardPool<Vec<RawReport>, ()>>,
    /// One stage per shard: the reports routed to it since its last chunk.
    stages: Vec<Mutex<Vec<RawReport>>>,
    slot: AtomicU64,
    batch_rx: Receiver<EngineBatch>,
    merger: Option<JoinHandle<Option<AmplificationLedger>>>,
    /// Chunk messages handed to the shard pool.
    #[cfg(test)]
    chunks_sent: AtomicU64,
}

impl EngineHandle {
    /// Submits one raw report.
    ///
    /// The report is routed to a shard by hashing its anonymous batch slot
    /// (the engine-wide arrival counter) — never anything derived from the
    /// sender, so shard assignment reveals nothing about the user — and
    /// staged there. It may wait in that shard's stage until 256 reports
    /// accumulate or [`Self::finish`]; the call that fills the stage sends
    /// it as one chunk and blocks while the shard's bounded queue is full
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] after [`Self::finish`], if
    /// a producer panicked while holding the shard's stage, or — at the
    /// next chunk sent to it — if that shard's worker has shut down.
    pub fn submit(&self, report: RawReport) -> Result<(), ShufflerError> {
        let shards = self.shards.as_ref().ok_or(ShufflerError::PipelineClosed)?;
        let slot = self.slot.fetch_add(1, Ordering::Relaxed);
        // The builder guarantees at least one shard; `checked_rem` makes the
        // routing arithmetic panic-free even so (an impossible empty shard
        // set reads as a closed pipeline, not a divide-by-zero).
        let shard = splitmix64(slot)
            .checked_rem(shards.shards() as u64)
            .ok_or(ShufflerError::PipelineClosed)? as usize;
        let chunk = {
            let mut stage = self
                .stages
                .get(shard)
                .ok_or(ShufflerError::PipelineClosed)?
                .lock()
                .map_err(|_| ShufflerError::PipelineClosed)?;
            stage.push(report);
            if stage.len() < STAGE_CHUNK {
                return Ok(());
            }
            std::mem::replace(&mut *stage, Vec::with_capacity(STAGE_CHUNK))
        };
        self.send_chunk(shards, shard, chunk)
    }

    /// Hands one chunk of staged reports to shard `shard`.
    fn send_chunk(
        &self,
        shards: &ShardPool<Vec<RawReport>, ()>,
        shard: usize,
        chunk: Vec<RawReport>,
    ) -> Result<(), ShufflerError> {
        #[cfg(test)]
        self.chunks_sent.fetch_add(1, Ordering::Relaxed);
        shards.send(shard, chunk)
    }

    /// Number of reports submitted through this handle so far.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.slot.load(Ordering::Relaxed)
    }

    /// Closes the ingress, waits for every stage to flush, and returns the
    /// delivered batches together with the amplification ledger.
    #[must_use]
    pub fn finish(mut self) -> EngineOutput {
        let ledger = self.close();
        let batches = self.batch_rx.try_iter().collect();
        EngineOutput { batches, ledger }
    }

    fn close(&mut self) -> Option<AmplificationLedger> {
        // Each partial stage goes to its shard first. A poisoned stage reads
        // as a closed pipeline and a dead shard refuses its chunk; neither
        // stops the other stages or the shutdown. Dropping the shard pool
        // then closes every ingress queue and joins the shards; each flushes
        // its partial batch and drops its fan-in sender; the merger then
        // flushes its partial merged batch and returns the ledger.
        if let Some(shards) = self.shards.take() {
            for (shard, stage) in self.stages.iter().enumerate() {
                if let Ok(mut stage) = stage.lock() {
                    if !stage.is_empty() {
                        let _ = self.send_chunk(&shards, shard, std::mem::take(&mut *stage));
                    }
                }
            }
        }
        self.merger
            .take()
            .and_then(|merger| merger.join().ok())
            .flatten()
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

    fn raw(code: usize) -> RawReport {
        RawReport::new("agent", EncodedReport::new(code, 0, 1.0).unwrap())
    }

    fn engine(threshold: usize, shards: usize, batch_size: usize) -> ShufflerEngine {
        ShufflerEngine::builder(ShufflerConfig::new(threshold))
            .shards(shards)
            .batch_size(batch_size)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_every_knob() {
        let ok = ShufflerConfig::new(1);
        assert!(ShufflerEngine::builder(ShufflerConfig::new(0))
            .build()
            .is_err());
        assert!(ShufflerEngine::builder(ok).shards(0).build().is_err());
        assert!(ShufflerEngine::builder(ok).batch_size(0).build().is_err());
        assert!(ShufflerEngine::builder(ok)
            .privacy_accounting(Participation::new(0.5).unwrap(), 0.0)
            .build()
            .is_err());
        assert!(ShufflerEngine::builder(ok).build().is_ok());
    }

    #[test]
    fn default_shard_batch_size_splits_the_merged_batch() {
        let engine = ShufflerEngine::builder(ShufflerConfig::new(1))
            .shards(4)
            .batch_size(10)
            .build()
            .unwrap();
        assert_eq!(engine.shard_batch_size, 3); // ceil(10 / 4)
        assert_eq!(engine.shards(), 4);
        assert_eq!(engine.batch_size(), 10);
    }

    #[test]
    fn merged_batches_have_exact_sizes_and_conserve_reports() {
        for shards in [1usize, 2, 4] {
            let handle = engine(1, shards, 10).spawn();
            for i in 0..37 {
                handle.submit(raw(i % 5)).unwrap();
            }
            assert_eq!(handle.submitted(), 37);
            let output = handle.finish();
            let sizes: Vec<usize> = output
                .batches
                .iter()
                .map(|b| b.batch.stats().received)
                .collect();
            assert_eq!(sizes, vec![10, 10, 10, 7], "shards={shards}");
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
        // 4 shards, 8 copies of one code: any per-shard threshold of 8 would
        // suppress everything (each shard sees ~2), but the merged batch
        // clears it.
        let handle = engine(8, 4, 8).spawn();
        for _ in 0..8 {
            handle.submit(raw(42)).unwrap();
        }
        let output = handle.finish();
        assert_eq!(output.batches.len(), 1);
        let cells = output.batches[0].batch.reports();
        assert_eq!(cells.len(), 1);
        assert_eq!((cells[0].code(), cells[0].count()), (42, 8));
    }

    #[test]
    fn single_shard_runs_are_deterministic() {
        let run = || {
            let handle = engine(2, 1, 16).spawn();
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
            .shards(2)
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
        // The merger books the crowd statistic the experiment channel reads
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
        // Every code below threshold: the merged batch releases nothing, so
        // the accounting hook records (released = 0, crowd = 0) — the edge
        // the old `expect` claimed unreachable. It must yield a (0, 0)
        // record, not a panic.
        let engine = ShufflerEngine::builder(ShufflerConfig::new(10))
            .shards(2)
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
        // `checked_rem` routing: the smallest legal shard set must route
        // every slot without arithmetic panics.
        let handle = engine(1, 1, 4).spawn();
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
        let output = engine(1, 4, 8).spawn().finish();
        assert!(output.batches.is_empty());
    }

    #[test]
    fn submit_after_finish_is_rejected_via_fresh_handle_semantics() {
        let engine = engine(1, 2, 4);
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

    /// The engine's output at `shards = 1`, computed without threads: cut
    /// the submissions every `batch_size` reports and release each cut
    /// through the synchronous shuffler's kernel.
    fn single_shard_oracle(
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
                let handle = engine(2, 1, batch_size).spawn();
                for (i, report) in reports.iter().enumerate() {
                    handle
                        .submit(RawReport::new(format!("agent-{i}"), *report))
                        .unwrap();
                }
                assert_eq!(
                    handle.finish().batches,
                    single_shard_oracle(2, batch_size, &reports),
                    "n={n} batch_size={batch_size}"
                );
            }
        }
    }

    #[test]
    fn sharded_staging_conserves_reports_at_exact_merged_sizes() {
        for shards in [2, 4] {
            for n in COUNTS {
                for batch_size in [1, 7, STAGE_CHUNK, 2 * STAGE_CHUNK + 3] {
                    let handle = engine(1, shards, batch_size).spawn();
                    for i in 0..n {
                        handle.submit(RawReport::new("agent", numbered(i))).unwrap();
                    }
                    let output = handle.finish();
                    let sizes: Vec<usize> = output
                        .batches
                        .iter()
                        .map(|b| b.batch.stats().received)
                        .collect();
                    let mut want = vec![batch_size; n / batch_size];
                    want.extend(Some(n % batch_size).filter(|&r| r > 0));
                    let context = format!("shards={shards} n={n} batch_size={batch_size}");
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
    }

    #[test]
    fn a_shard_receives_one_message_per_chunk_of_reports() {
        for n in COUNTS {
            let mut handle = engine(1, 1, 7).spawn();
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
        let handle = engine(1, 1, 4).spawn();
        handle.submit(raw(0)).unwrap();
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _stage = handle.stages[0].lock();
                    panic!("injected fault");
                })
                .join()
                .is_err()
        });
        assert!(poisoned);
        assert_eq!(handle.submit(raw(1)), Err(ShufflerError::PipelineClosed));
        // `finish` neither hangs nor panics; the poisoned stage's report is
        // not delivered.
        assert!(handle.finish().batches.is_empty());
    }

    #[test]
    fn concurrent_producers_do_not_lose_reports() {
        let handle = engine(1, 4, 32).spawn();
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
