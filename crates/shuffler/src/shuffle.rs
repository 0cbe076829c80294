//! The synchronous shuffler and the release kernel it shares with the
//! engine's merger: anonymize, tabulate, threshold.

use crate::{EncodedReport, RawReport, ReleasedCell, ShufflerError};
use p2b_privacy::splitmix64;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
        // A batch has at most one cell per report: sized for that, the
        // fresh table never grows.
        let mut table = CellTable::with_capacity(batch.len());
        for report in batch {
            table.add(&report.into_anonymous());
        }
        table.release(self.config.threshold)
    }
}

/// Hashes a `(code, action)` key: the two words are packed into one and
/// finished by [`splitmix64`], a few multiplies where the default hasher
/// runs SipHash on every report.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.0 = self.0.rotate_left(32) ^ word as u64;
    }
}

/// Bits per digit of the release's radix sort: 2¹¹ buckets, so a code or
/// an action below 2048 sorts in one pass and the count table stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: usize = (1 << RADIX_BITS) - 1;

/// Sorts cells by `(code, action)`, stably: an LSD radix sort of their
/// positions, action digits first, then code digits, each pass a counting
/// scatter; then the order is applied to the cells in place, one cycle at
/// a time. A digit on which every cell agrees is skipped, so a batch over
/// fewer than 2048 codes and 2048 actions takes at most two passes, and
/// codes and actions of any width sort, up to `usize::MAX`. Only positions
/// move during the passes: the extra memory is two words per cell.
fn sort_by_pair(cells: &mut [ReleasedCell]) {
    let Some(&first) = cells.first() else {
        return;
    };
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut scattered = vec![0; cells.len()];
    let mut counts = [0usize; RADIX_MASK + 1];
    for key in [ReleasedCell::action, ReleasedCell::code] {
        let varies = cells
            .iter()
            .fold(0, |bits, cell| bits | (key(cell) ^ key(&first)));
        for shift in (0..usize::BITS).step_by(RADIX_BITS as usize) {
            if (varies >> shift) & RADIX_MASK == 0 {
                continue;
            }
            let digit = |at: usize| (key(&cells[at]) >> shift) & RADIX_MASK;
            counts.fill(0);
            for &at in &order {
                counts[digit(at)] += 1;
            }
            let mut next = 0;
            for slot in &mut counts {
                next += std::mem::replace(slot, next);
            }
            for &at in &order {
                let slot = &mut counts[digit(at)];
                scattered[*slot] = at;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut scattered);
        }
    }
    // Position `k` takes the cell at `order[k]`; a visited position is
    // marked `order[k] = k`.
    for start in 0..cells.len() {
        let held = cells[start];
        let mut at = start;
        while order[at] != at {
            let from = std::mem::replace(&mut order[at], at);
            cells[at] = if from == start { held } else { cells[from] };
            at = from;
        }
    }
}

/// The release kernel of the synchronous [`Shuffler`] and the engine's
/// merger: anonymous reports are added one at a time to their
/// `(code, action)` cell, and [`CellTable::release`] thresholds the batch on
/// the per-code totals read off the cells. The table keeps its capacity
/// from batch to batch.
#[derive(Debug, Default)]
pub(crate) struct CellTable {
    /// The batch's cells by `(code, action)`.
    cells: HashMap<(usize, usize), ReleasedCell, BuildHasherDefault<PairHasher>>,
    /// Reports added since the last release.
    received: usize,
}

impl CellTable {
    /// An empty table with room for `cells` cells.
    pub(crate) fn with_capacity(cells: usize) -> Self {
        Self {
            cells: HashMap::with_capacity_and_hasher(cells, BuildHasherDefault::default()),
            received: 0,
        }
    }

    /// Reports added since the last release.
    pub(crate) fn received(&self) -> usize {
        self.received
    }

    /// Adds one anonymous report to its cell.
    pub(crate) fn add(&mut self, report: &EncodedReport) {
        let cell = ReleasedCell::of(report);
        self.cells
            .entry((report.code(), report.action()))
            .and_modify(|sum| sum.absorb(&cell))
            .or_insert(cell);
        self.received += 1;
    }

    /// Releases the batch added since the last release and empties the
    /// table: the cells in `(code, action)` order, without those of codes
    /// seen fewer than `threshold` times. The batch's empirical crowd size
    /// is [`ShuffledBatch::min_released_code_frequency`].
    pub(crate) fn release(&mut self, threshold: usize) -> ShuffledBatch {
        let mut cells: Vec<ReleasedCell> = self.cells.drain().map(|(_, cell)| cell).collect();
        sort_by_pair(&mut cells);
        let mut stats = ShufflerStats {
            received: std::mem::take(&mut self.received),
            ..ShufflerStats::default()
        };
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
            let cells: Vec<ReleasedCell> = (0..len)
                .map(|i| {
                    let action = if round % 2 == 0 {
                        rng.gen_range(0..3)
                    } else {
                        rng.gen_range(0..usize::MAX)
                    };
                    let reward = i as f64 / len as f64;
                    ReleasedCell::of(&EncodedReport::new(code(&mut rng), action, reward).unwrap())
                })
                .collect();
            let mut want = cells.clone();
            want.sort_by_key(|cell| (cell.code(), cell.action()));
            let mut got = cells;
            sort_by_pair(&mut got);
            assert_eq!(got, want, "round {round}");
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
