//! Shard workers of the sharded shuffler engine.
//!
//! Each shard owns one worker thread and one *bounded* ingress queue. The
//! bounded queue is the engine's backpressure mechanism: when a shard falls
//! behind, producers calling [`crate::EngineHandle::submit`] block instead of
//! letting unprocessed reports pile up without limit.
//!
//! A shard performs the parallelizable half of the shuffler's work:
//!
//! 1. **Anonymization** — metadata is stripped from every report the moment
//!    it is taken off the ingress queue ([`crate::RawReport::into_anonymous`]),
//!    so identifying information never crosses the fan-in stage.
//! 2. **Within-shard shuffling** — each accumulated chunk is Fisher–Yates
//!    shuffled before it is forwarded, so no downstream stage (including the
//!    merger) ever observes arrival order.
//!
//! Thresholding is deliberately *not* done per shard: a code split across
//! shards could be suppressed even though it clears the crowd-blending
//! threshold globally. The merge stage applies the threshold over each
//! merged batch instead.

use crate::{EncodedReport, RawReport};
use crossbeam::channel::{Receiver, Sender};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A within-shard pre-shuffled chunk of anonymized reports on its way to the
/// fan-in merge stage.
#[derive(Debug)]
pub(crate) struct SubBatch {
    /// Index of the shard that produced this chunk.
    #[allow(dead_code)] // read by the concurrency tests and debug output
    pub(crate) shard: usize,
    /// Anonymized reports in within-shard shuffled order.
    pub(crate) reports: Vec<EncodedReport>,
}

/// One shard's worker loop: drain the bounded ingress queue, accumulate
/// `batch_size` reports, anonymize + shuffle the chunk, and forward it to
/// the merger.
pub(crate) struct ShardWorker {
    shard: usize,
    input: Receiver<RawReport>,
    output: Sender<SubBatch>,
    batch_size: usize,
    rng: StdRng,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        input: Receiver<RawReport>,
        output: Sender<SubBatch>,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Self {
            shard,
            input,
            output,
            batch_size,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs until the ingress queue disconnects (all producer handles
    /// dropped) or the merger goes away; flushes the final partial chunk on
    /// the way out.
    pub(crate) fn run(mut self) {
        let mut pending: Vec<RawReport> = Vec::with_capacity(self.batch_size);
        while let Ok(report) = self.input.recv() {
            pending.push(report);
            if pending.len() >= self.batch_size && !self.flush(&mut pending) {
                return;
            }
        }
        let _ = self.flush(&mut pending);
    }

    /// Anonymizes, shuffles and forwards the pending chunk. Returns `false`
    /// when the merger has shut down and the worker should stop.
    fn flush(&mut self, pending: &mut Vec<RawReport>) -> bool {
        if pending.is_empty() {
            return true;
        }
        let mut reports: Vec<EncodedReport> =
            pending.drain(..).map(RawReport::into_anonymous).collect();
        reports.shuffle(&mut self.rng);
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
    use crossbeam::channel::{bounded, unbounded};

    fn raw(code: usize) -> RawReport {
        RawReport::new("agent", EncodedReport::new(code, 0, 1.0).unwrap())
    }

    #[test]
    fn worker_batches_anonymizes_and_flushes_remainder() {
        let (in_tx, in_rx) = bounded::<RawReport>(16);
        let (out_tx, out_rx) = unbounded::<SubBatch>();
        let worker = ShardWorker::new(3, in_rx, out_tx, 4, 7);
        let handle = std::thread::spawn(move || worker.run());
        for i in 0..10 {
            in_tx.send(raw(i)).unwrap();
        }
        drop(in_tx);
        handle.join().unwrap();
        let subs: Vec<SubBatch> = out_rx.iter().collect();
        assert_eq!(subs.len(), 3); // 4 + 4 + final flush of 2
        assert_eq!(subs[0].reports.len(), 4);
        assert_eq!(subs[1].reports.len(), 4);
        assert_eq!(subs[2].reports.len(), 2);
        assert!(subs.iter().all(|s| s.shard == 3));
        let mut codes: Vec<usize> = subs
            .iter()
            .flat_map(|s| s.reports.iter().map(EncodedReport::code))
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_stops_when_merger_disconnects() {
        let (in_tx, in_rx) = bounded::<RawReport>(16);
        let (out_tx, out_rx) = unbounded::<SubBatch>();
        drop(out_rx);
        let worker = ShardWorker::new(0, in_rx, out_tx, 2, 1);
        let handle = std::thread::spawn(move || worker.run());
        // The worker exits as soon as it fails to forward a full chunk,
        // instead of spinning forever.
        let _ = in_tx.send(raw(0));
        let _ = in_tx.send(raw(1));
        handle.join().unwrap();
    }
}
