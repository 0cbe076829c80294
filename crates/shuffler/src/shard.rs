//! Shard workers of the sharded shuffler engine.
//!
//! Each shard owns one worker thread and one *bounded* ingress queue of
//! report chunks, staged by [`crate::EngineHandle::submit`]. The bounded
//! queue is the engine's backpressure mechanism: when a shard falls behind,
//! producers block instead of letting unprocessed reports pile up without
//! limit. A shard takes a whole chunk per receive but cuts its batches
//! report by report, so where the chunk boundaries fall never moves a batch
//! boundary.
//!
//! A shard performs the parallelizable half of the shuffler's work,
//! **anonymization**: metadata is stripped from every report before it
//! leaves the shard ([`crate::RawReport::into_anonymous`]), so identifying
//! information never crosses the fan-in stage. Nothing downstream observes
//! arrival order either: the merger tabulates each merged batch into
//! `(code, action)` cells, which no order of the same reports can change.
//!
//! Thresholding is deliberately *not* done per shard: a code split across
//! shards could be suppressed even though it clears the crowd-blending
//! threshold globally. The merge stage applies the threshold over each
//! merged batch instead.

use crate::{EncodedReport, RawReport};
use crossbeam::channel::{Receiver, Sender};

/// A batch of anonymized reports on its way to the fan-in merge stage.
#[derive(Debug)]
pub(crate) struct SubBatch {
    /// Index of the shard that produced this batch.
    #[allow(dead_code)] // read by the concurrency tests and debug output
    pub(crate) shard: usize,
    /// Anonymized reports, in the order the shard received them.
    pub(crate) reports: Vec<EncodedReport>,
}

/// One shard's worker loop: drain the bounded ingress queue of chunks,
/// accumulate `batch_size` reports, anonymize the batch, and forward it to
/// the merger.
pub(crate) struct ShardWorker {
    shard: usize,
    input: Receiver<Vec<RawReport>>,
    output: Sender<SubBatch>,
    batch_size: usize,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        input: Receiver<Vec<RawReport>>,
        output: Sender<SubBatch>,
        batch_size: usize,
    ) -> Self {
        Self {
            shard,
            input,
            output,
            batch_size,
        }
    }

    /// Runs until the ingress queue disconnects (all producer handles
    /// dropped) or the merger goes away; flushes the final partial batch on
    /// the way out. Each received chunk is cut report by report, so the
    /// batches equal those of the same reports sent one at a time.
    pub(crate) fn run(self) {
        let mut pending: Vec<RawReport> = Vec::with_capacity(self.batch_size);
        while let Ok(chunk) = self.input.recv() {
            for report in chunk {
                pending.push(report);
                if pending.len() >= self.batch_size && !self.flush(&mut pending) {
                    return;
                }
            }
        }
        let _ = self.flush(&mut pending);
    }

    /// Anonymizes and forwards the pending batch. Returns `false` when the
    /// merger has shut down and the worker should stop.
    fn flush(&self, pending: &mut Vec<RawReport>) -> bool {
        if pending.is_empty() {
            return true;
        }
        let reports: Vec<EncodedReport> =
            pending.drain(..).map(RawReport::into_anonymous).collect();
        self.output
            .send(SubBatch {
                shard: self.shard,
                reports,
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardPool, ShufflerError};
    use crossbeam::channel::{bounded, unbounded};

    fn raw(code: usize) -> RawReport {
        RawReport::new("agent", EncodedReport::new(code, 0, 1.0).unwrap())
    }

    /// Feeds codes `0..reports` to one worker (shard 3) in chunks of
    /// `chunk` and returns the sub-batches it forwards.
    fn run_worker(reports: usize, chunk: usize, batch_size: usize) -> Vec<SubBatch> {
        let (in_tx, in_rx) = bounded::<Vec<RawReport>>(16);
        let (out_tx, out_rx) = unbounded::<SubBatch>();
        let worker = ShardWorker::new(3, in_rx, out_tx, batch_size);
        let handle = std::thread::spawn(move || worker.run());
        let codes: Vec<usize> = (0..reports).collect();
        for part in codes.chunks(chunk) {
            in_tx.send(part.iter().copied().map(raw).collect()).unwrap();
        }
        drop(in_tx);
        handle.join().unwrap();
        out_rx.iter().collect()
    }

    fn codes(sub: &SubBatch) -> Vec<usize> {
        sub.reports.iter().map(EncodedReport::code).collect()
    }

    #[test]
    fn worker_batches_anonymizes_and_flushes_remainder() {
        let subs = run_worker(10, 1, 4);
        assert_eq!(subs.len(), 3); // 4 + 4 + final flush of 2
        assert_eq!(subs[0].reports.len(), 4);
        assert_eq!(subs[1].reports.len(), 4);
        assert_eq!(subs[2].reports.len(), 2);
        assert!(subs.iter().all(|s| s.shard == 3));
        let mut codes: Vec<usize> = subs.iter().flat_map(codes).collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_straddling_the_cut_batch_like_single_reports() {
        // Chunks of 3 against batches of 4: the second chunk straddles the
        // first cut and the third the second, yet each sub-batch holds the
        // codes — in the same order — of a one-at-a-time feed.
        let chunked = run_worker(10, 3, 4);
        let single = run_worker(10, 1, 4);
        let sizes: Vec<usize> = chunked.iter().map(|s| s.reports.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        for (sub, want) in chunked.iter().zip([0..4, 4..8, 8..10]) {
            let mut got = codes(sub);
            got.sort_unstable();
            assert_eq!(got, want.collect::<Vec<_>>());
        }
        let chunked: Vec<Vec<usize>> = chunked.iter().map(codes).collect();
        let single: Vec<Vec<usize>> = single.iter().map(codes).collect();
        assert_eq!(chunked, single);
    }

    #[test]
    fn worker_stops_when_merger_disconnects() {
        let (in_tx, in_rx) = bounded::<Vec<RawReport>>(16);
        let (out_tx, out_rx) = unbounded::<SubBatch>();
        drop(out_rx);
        let worker = ShardWorker::new(0, in_rx, out_tx, 2);
        let handle = std::thread::spawn(move || worker.run());
        // The worker exits as soon as it fails to forward a full batch,
        // instead of spinning forever.
        let _ = in_tx.send(vec![raw(0), raw(1)]);
        handle.join().unwrap();
    }

    #[test]
    fn a_full_stage_sent_to_a_shard_without_a_merger_is_pipeline_closed() {
        let (out_tx, out_rx) = unbounded::<SubBatch>();
        drop(out_rx);
        let pool = ShardPool::spawn(1, 1, move |shard, input| {
            ShardWorker::new(shard, input, out_tx, 4).run();
        });
        let stage = || (0..256).map(raw).collect::<Vec<_>>();
        // The first stage is taken and its first batch fails to forward, so
        // the worker exits; at most one more stage fits the queue before
        // that, and every send after it observes the dead shard.
        let accepted = (0..3).take_while(|_| pool.send(0, stage()).is_ok()).count();
        assert!((1..=2).contains(&accepted), "accepted {accepted}");
        assert_eq!(pool.send(0, stage()), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.join(), Ok(vec![()]));
    }
}
