//! The synchronous shuffler and the release kernel it shares with the
//! engine: anonymize, tabulate, threshold.

use crate::{EncodedReport, RawReport, ReleasedCell, ShufflerError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`Shuffler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShufflerConfig {
    /// Minimum number of occurrences of an encoded context code within a
    /// batch for its reports to be released (the crowd-blending `l`).
    pub threshold: usize,
}

impl ShufflerConfig {
    /// Creates a configuration with the given frequency threshold.
    #[must_use]
    pub fn new(threshold: usize) -> Self {
        Self { threshold }
    }

    fn validate(&self) -> Result<(), ShufflerError> {
        if self.threshold == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "threshold",
                message: "must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// Statistics of one shuffling round, useful for experiments and auditing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShufflerStats {
    /// Reports received in the batch.
    pub received: usize,
    /// Reports released after thresholding.
    pub released: usize,
    /// Reports dropped because their code was below the threshold.
    pub dropped: usize,
    /// Number of distinct codes observed in the batch.
    pub distinct_codes: usize,
    /// Number of distinct codes that survived thresholding.
    pub released_codes: usize,
    /// Smallest per-code frequency among the released reports (0 when the
    /// batch released nothing) — the empirical crowd-blending `l` the batch
    /// actually achieved, never below the configured threshold.
    pub min_released_frequency: usize,
}

/// The output of one shuffling round: the released multiset as a histogram
/// of `(code, action)` cells, threshold-filtered, with no trace of who sent
/// a report or in which order reports arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffledBatch {
    cells: Vec<ReleasedCell>,
    stats: ShufflerStats,
}

impl ShuffledBatch {
    /// The released cells, one per `(code, action)` pair, in pair order.
    /// Their counts sum to [`ShufflerStats::released`].
    #[must_use]
    pub fn reports(&self) -> &[ReleasedCell] {
        &self.cells
    }

    /// Statistics of the round that produced this batch.
    #[must_use]
    pub fn stats(&self) -> ShufflerStats {
        self.stats
    }

    /// Smallest per-code frequency among the released reports; this is the
    /// empirical crowd-blending `l` actually achieved by the batch.
    /// Equivalent to [`ShufflerStats::min_released_frequency`], which is
    /// where the value is computed.
    #[must_use]
    pub fn min_released_code_frequency(&self) -> usize {
        self.stats.min_released_frequency
    }
}

/// The trusted shuffler of the ESA architecture.
///
/// See the [crate-level documentation](crate) for the three-step contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shuffler {
    config: ShufflerConfig,
}

impl Shuffler {
    /// Creates a shuffler.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidConfig`] when the threshold is zero.
    pub fn new(config: ShufflerConfig) -> Result<Self, ShufflerError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configured frequency threshold.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.config.threshold
    }

    /// Processes one batch of raw reports: strips metadata, tabulates the
    /// reports into `(code, action)` cells and removes the cells of codes
    /// that appear fewer than `threshold` times in the batch.
    ///
    /// The release is a histogram, so nothing is left to randomize: `rng`
    /// is not drawn from. It stays in the signature for existing callers.
    #[must_use]
    pub fn process<R: Rng + ?Sized>(&self, batch: Vec<RawReport>, _rng: &mut R) -> ShuffledBatch {
        // Sized for the batch, the fresh table never grows.
        let mut table = CellTable::with_capacity(batch.len());
        for report in batch {
            table.add(&report.into_anonymous());
        }
        table.release(self.config.threshold)
    }
}

/// Bits per digit of the release's radix sort: at most 2¹¹ buckets, so a
/// code or an action below 2048 sorts in one pass and the count table stays
/// in L1.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: usize = (1 << RADIX_BITS) - 1;

/// The release kernel of the synchronous [`Shuffler`] and the engine: each
/// anonymous report is appended as a record, and [`CellTable::release`]
/// sorts the batch's records by `(code, action)`, merges each pair's run
/// into one [`ReleasedCell`] and thresholds the batch on the per-code
/// totals read off the cells. The table keeps its buffers from batch to
/// batch.
#[derive(Debug, Default)]
pub(crate) struct CellTable {
    /// The reports added since the last release, in arrival order until
    /// the release sorts them.
    records: Vec<EncodedReport>,
    /// The radix sort's scatter target, kept across batches.
    spare: Vec<EncodedReport>,
    /// The radix sort's bucket counts, sized per pass to its widest digit.
    counts: Vec<usize>,
}

impl CellTable {
    /// An empty table with room for `reports` reports.
    pub(crate) fn with_capacity(reports: usize) -> Self {
        Self {
            records: Vec::with_capacity(reports),
            ..Self::default()
        }
    }

    /// Reports added since the last release.
    pub(crate) fn received(&self) -> usize {
        self.records.len()
    }

    /// Adds one anonymous report to the batch.
    pub(crate) fn add(&mut self, report: &EncodedReport) {
        self.records.push(*report);
    }

    /// Sorts the records by `(code, action)`, stably: an LSD radix sort,
    /// action digits first, then code digits. A digit on which every record
    /// agrees is skipped and a pass counts only as many buckets as its
    /// digit's highest varying bit needs, so a batch over few codes and
    /// actions takes at most two short passes, and codes and actions of any
    /// width sort, up to `usize::MAX`.
    fn sort_by_pair(&mut self) {
        self.sort_by_key(EncodedReport::action);
        self.sort_by_key(EncodedReport::code);
    }

    /// Sorts the records by `key`, stably: one counting scatter into the
    /// spare buffer per varying digit, least significant first.
    fn sort_by_key(&mut self, key: impl Fn(&EncodedReport) -> usize) {
        let Some(&first) = self.records.first() else {
            return;
        };
        let varies = self
            .records
            .iter()
            .fold(0, |bits, record| bits | (key(record) ^ key(&first)));
        for shift in (0..usize::BITS).step_by(RADIX_BITS as usize) {
            let digit_bits = (varies >> shift) & RADIX_MASK;
            if digit_bits == 0 {
                continue;
            }
            // Bits above the highest varying one are the same in every
            // record, so masking them off keeps the order.
            let mask = usize::MAX >> digit_bits.leading_zeros();
            let digit = |record: &EncodedReport| (key(record) >> shift) & mask;
            self.counts.clear();
            self.counts.resize(mask + 1, 0);
            for record in &self.records {
                self.counts[digit(record)] += 1;
            }
            let mut next = 0;
            for slot in &mut self.counts {
                next += std::mem::replace(slot, next);
            }
            self.spare.resize(self.records.len(), first);
            for record in &self.records {
                let slot = &mut self.counts[digit(record)];
                self.spare[*slot] = *record;
                *slot += 1;
            }
            std::mem::swap(&mut self.records, &mut self.spare);
        }
    }

    /// Releases the batch added since the last release and empties the
    /// table: one cell per `(code, action)` pair, in pair order, without
    /// those of codes seen fewer than `threshold` times. The batch's
    /// empirical crowd size is [`ShuffledBatch::min_released_code_frequency`].
    pub(crate) fn release(&mut self, threshold: usize) -> ShuffledBatch {
        self.sort_by_pair();
        let mut stats = ShufflerStats {
            received: self.records.len(),
            ..ShufflerStats::default()
        };
        let mut cells: Vec<ReleasedCell> = Vec::new();
        for record in self.records.drain(..) {
            let cell = ReleasedCell::of(&record);
            match cells.last_mut() {
                Some(last) if (last.code(), last.action()) == (record.code(), record.action()) => {
                    last.absorb(&cell);
                }
                _ => cells.push(cell),
            }
        }
        // Each code's run of cells is kept (moved down over dropped runs,
        // order unchanged) or dropped whole, by its total.
        let (mut kept, mut start) = (0, 0);
        while start < cells.len() {
            let code = cells[start].code();
            let end = cells[start..]
                .iter()
                .position(|cell| cell.code() != code)
                .map_or(cells.len(), |len| start + len);
            let total: u64 = cells[start..end].iter().map(ReleasedCell::count).sum();
            let total = usize::try_from(total).unwrap_or(usize::MAX);
            stats.distinct_codes += 1;
            if total >= threshold {
                cells.copy_within(start..end, kept);
                kept += end - start;
                stats.released += total;
                stats.released_codes += 1;
                stats.min_released_frequency = match stats.min_released_frequency {
                    0 => total,
                    least => least.min(total),
                };
            }
            start = end;
        }
        cells.truncate(kept);
        stats.dropped = stats.received - stats.released;
        ShuffledBatch { cells, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn raw(sender: &str, code: usize, reward: f64) -> RawReport {
        RawReport::new(sender, EncodedReport::new(code, 0, reward).unwrap())
    }

    /// The released multiset of codes: each cell's code, `count` times.
    fn released_codes(batch: &ShuffledBatch) -> Vec<usize> {
        batch
            .reports()
            .iter()
            .flat_map(|cell| std::iter::repeat_n(cell.code(), cell.count() as usize))
            .collect()
    }

    #[test]
    fn rejects_zero_threshold() {
        assert!(Shuffler::new(ShufflerConfig::new(0)).is_err());
        assert!(Shuffler::new(ShufflerConfig::new(1)).is_ok());
    }

    #[test]
    fn thresholding_removes_rare_codes() {
        let shuffler = Shuffler::new(ShufflerConfig::new(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = Vec::new();
        // Code 0 appears 5 times, code 1 twice, code 2 three times.
        for i in 0..5 {
            batch.push(raw(&format!("a{i}"), 0, 1.0));
        }
        for i in 0..2 {
            batch.push(raw(&format!("b{i}"), 1, 1.0));
        }
        for i in 0..3 {
            batch.push(raw(&format!("c{i}"), 2, 1.0));
        }
        let out = shuffler.process(batch, &mut rng);
        assert_eq!(out.stats().received, 10);
        assert_eq!(out.stats().released, 8);
        assert_eq!(out.stats().dropped, 2);
        assert_eq!(out.stats().distinct_codes, 3);
        assert_eq!(out.stats().released_codes, 2);
        assert!(out.reports().iter().all(|r| r.code() != 1));
        assert!(out.min_released_code_frequency() >= 3);
    }

    #[test]
    fn threshold_one_releases_everything() {
        let shuffler = Shuffler::new(ShufflerConfig::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let batch: Vec<RawReport> = (0..10).map(|i| raw(&format!("a{i}"), i, 0.5)).collect();
        let out = shuffler.process(batch, &mut rng);
        assert_eq!(released_codes(&out).len(), 10);
        assert_eq!(out.stats().dropped, 0);
    }

    #[test]
    fn empty_batch_is_handled() {
        let shuffler = Shuffler::new(ShufflerConfig::new(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = shuffler.process(Vec::new(), &mut rng);
        assert_eq!(out.reports().len(), 0);
        assert_eq!(out.stats(), ShufflerStats::default());
        assert_eq!(out.min_released_code_frequency(), 0);
    }

    #[test]
    fn release_preserves_the_multiset_in_pair_order() {
        let shuffler = Shuffler::new(ShufflerConfig::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let batch: Vec<RawReport> = (0..200)
            .map(|i| raw(&format!("a{i}"), i % 4, (i % 2) as f64))
            .collect();
        let mut original_codes: Vec<usize> = batch.iter().map(|r| r.payload().code()).collect();
        let out = shuffler.process(batch, &mut rng);
        // One cell per code (every report has action 0), 50 reports each,
        // half of them rewarded, in pair order.
        let cells: Vec<(usize, usize, u64, f64)> = out
            .reports()
            .iter()
            .map(|c| (c.code(), c.action(), c.count(), c.reward_sum()))
            .collect();
        let want: Vec<(usize, usize, u64, f64)> = (0..4)
            .map(|code| (code, 0, 50, if code % 2 == 1 { 50.0 } else { 0.0 }))
            .collect();
        assert_eq!(cells, want);
        original_codes.sort_unstable();
        assert_eq!(
            released_codes(&out),
            original_codes,
            "no report may be lost or duplicated at threshold 1"
        );
    }

    #[test]
    fn the_release_does_not_depend_on_arrival_order() {
        let shuffler = Shuffler::new(ShufflerConfig::new(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let rewards = [0.1, 0.3, 0.7];
        let reports: Vec<RawReport> = (0..60)
            .map(|i| {
                let payload = EncodedReport::new(i % 7, i % 3, rewards[i % 5 % 3]).unwrap();
                RawReport::new(format!("a{i}"), payload)
            })
            .collect();
        let forward = shuffler.process(reports.clone(), &mut rng);
        let backward = shuffler.process(reports.into_iter().rev().collect(), &mut rng);
        assert_eq!(forward, backward);
        let pairs: Vec<(usize, usize)> = forward
            .reports()
            .iter()
            .map(|c| (c.code(), c.action()))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted, "one cell per pair, in pair order");
    }

    #[test]
    fn a_batch_over_k_codes_and_a_actions_releases_at_most_k_times_a_cells() {
        // The ingest benchmark's merged batch: 16 384 reports over k codes
        // and A actions fold as at most k·A cells, however often a pair
        // repeats.
        let (codes, actions) = (64usize, 10usize);
        let table_batch: Vec<RawReport> = (0..16_384usize)
            .map(|i| {
                let payload =
                    EncodedReport::new(i * 7 % codes, i * 13 % actions, (i % 2) as f64).unwrap();
                RawReport::new("agent", payload)
            })
            .collect();
        let shuffler = Shuffler::new(ShufflerConfig::new(10)).unwrap();
        let out = shuffler.process(table_batch, &mut StdRng::seed_from_u64(9));
        assert!(out.reports().len() <= codes * actions);
        let counted: u64 = out.reports().iter().map(ReleasedCell::count).sum();
        assert_eq!(counted as usize, out.stats().released);
        assert_eq!(out.stats().released + out.stats().dropped, 16_384);
    }

    #[test]
    fn a_reused_table_releases_like_a_fresh_one() {
        let mut reused = CellTable::default();
        for round in 0..4usize {
            let reports: Vec<EncodedReport> = (0..30)
                .map(|i| EncodedReport::new((i + round) % 3, i % 2, 0.25).unwrap())
                .collect();
            let mut fresh = CellTable::default();
            for report in &reports {
                reused.add(report);
                fresh.add(report);
            }
            assert_eq!(reused.received(), 30);
            assert_eq!(reused.release(2), fresh.release(2), "round {round}");
            assert_eq!(reused.received(), 0);
        }
    }

    #[test]
    fn the_radix_order_is_the_pair_order() {
        let mut rng = StdRng::seed_from_u64(10);
        // One table for every round, so the kept spare buffer and count
        // table carry over between batches of different sizes and widths.
        let mut table = CellTable::default();
        for round in 0..40usize {
            let len = [0, 1, 2, 7, 300, 2500][round % 6];
            // Narrow keys, keys around one digit, and codes at and beyond
            // 2³² (up to `usize::MAX`); duplicate pairs too, told apart by
            // their rewards, so stability shows.
            let code = |rng: &mut StdRng| match rng.gen_range(0..4) {
                0 => rng.gen_range(0..40),
                1 => rng.gen_range(0..5_000),
                2 => (1usize << 32) + rng.gen_range(0..3),
                _ => rng.gen::<u64>() as usize,
            };
            let records: Vec<EncodedReport> = (0..len)
                .map(|i| {
                    let action = if round % 2 == 0 {
                        rng.gen_range(0..3)
                    } else {
                        rng.gen_range(0..usize::MAX)
                    };
                    let reward = i as f64 / len as f64;
                    EncodedReport::new(code(&mut rng), action, reward).unwrap()
                })
                .collect();
            let mut want = records.clone();
            want.sort_by_key(|record| (record.code(), record.action()));
            records.iter().for_each(|record| table.add(record));
            table.sort_by_pair();
            assert_eq!(table.records, want, "round {round}");
            table.records.clear();
        }
    }

    #[test]
    fn released_batches_satisfy_the_crowd_blending_threshold() {
        let threshold = 4;
        let shuffler = Shuffler::new(ShufflerConfig::new(threshold)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batch: Vec<RawReport> = (0..100)
            .map(|i| raw(&format!("a{i}"), i % 13, 1.0))
            .collect();
        let out = shuffler.process(batch, &mut rng);
        if !out.reports().is_empty() {
            assert!(out.min_released_code_frequency() >= threshold);
        }
    }

    #[test]
    fn batch_output_contains_no_metadata_strings() {
        let shuffler = Shuffler::new(ShufflerConfig::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let batch = vec![raw("very-identifying-sender", 0, 1.0)];
        let out = shuffler.process(batch, &mut rng);
        let debug = format!("{out:?}");
        assert!(!debug.contains("very-identifying-sender"));
    }
}
