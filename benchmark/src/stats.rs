//! Order statistics over repetitions and latency samples.

/// One metric over the timed repetitions: its extremes, median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was read once, or repeats exactly.
    pub fn exact(value: f64) -> Self {
        Self {
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
            n: 1,
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            min: self.min * factor,
            q1: self.q1 * factor,
            median: self.median * factor,
            q3: self.q3 * factor,
            max: self.max * factor,
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median: how far apart the
    /// repetitions of one run read.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises `values` (order is irrelevant; empty input reads as zeros).
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        min: sorted.first().copied().unwrap_or(0.0),
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted.last().copied().unwrap_or(0.0),
        n: sorted.len(),
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let position = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = position.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
        }
    }
}

/// Tail percentiles a latency metric may report, highest first, per mille.
const LADDER: [usize; 7] = [999, 995, 990, 950, 900, 750, 500];

/// The highest ladder percentile, no higher than `cap`, that still leaves at
/// least ten of `n` samples beyond it; `None` when not even the median does.
pub fn highest_supported_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .find(|&&per_mille| {
            per_mille as f64 <= cap * 1_000.0 + 1e-6 && n * (1_000 - per_mille) >= 10 * 1_000
        })
        .map(|&per_mille| per_mille as f64 / 1_000.0)
}

/// Nearest-rank percentile of an ascending sample of nanosecond durations.
pub fn percentile_nanos(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps 0.99 × 100 = 99.00000000000001 from rounding up.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Order statistics a repetition keeps of its latency samples. Keeping every
/// sample would make the process's peak memory grow with the number of
/// repetitions a run fits in, which is a property of the machine, not of the
/// system measured.
const KEPT: usize = 4_096;

/// The latency samples of one repetition: their count, and up to [`KEPT`]
/// evenly ranked order statistics of them (all of them when there are fewer).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    taken: usize,
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        let taken = raw.len();
        if taken <= KEPT {
            return Self { taken, sorted: raw };
        }
        // kept[i] is the sample of rank ⌈(i + 1) · taken / KEPT⌉, so a
        // nearest-rank lookup in `kept` lands within taken / KEPT ranks of the
        // same lookup in `raw`, and the last kept sample is the maximum.
        let sorted = (1..=KEPT)
            .map(|i| raw[(i * taken).div_ceil(KEPT) - 1])
            .collect();
        Self { taken, sorted }
    }

    pub fn percentile(&self, p: f64) -> u64 {
        percentile_nanos(&self.sorted, p)
    }
}

/// The least disturbed reading of every timing of a repetition. Repetitions
/// of one seed do the same work in the same order — the digest check holds
/// them to it — so the i-th timing of each measures the same operation, and
/// whatever the host added to it in one repetition it need not have added in
/// another. The element-wise least over repetitions filters that out at the
/// grain of one operation, where the best whole repetition only can at the
/// grain of seconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Floor {
    least: Vec<u64>,
    folded: usize,
}

impl Floor {
    /// Folds one repetition's timings in; they must line up with the others'.
    pub fn fold(&mut self, rep: &[u64]) -> Result<(), String> {
        if self.folded == 0 {
            self.least = rep.to_vec();
        } else if rep.len() != self.least.len() {
            return Err(format!(
                "a repetition took {} timings where the first took {}",
                rep.len(),
                self.least.len()
            ));
        } else {
            for (least, &nanos) in self.least.iter_mut().zip(rep) {
                *least = (*least).min(nanos);
            }
        }
        self.folded += 1;
        Ok(())
    }

    /// Every operation's least disturbed time, added up.
    pub fn sum(&self) -> u64 {
        self.least.iter().sum()
    }

    /// The floor's timings in ascending order, for percentile lookups.
    pub fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.least.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// One latency percentile of a run, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// The percentile over the floor of the repetitions: the metric's value.
    pub floor: f64,
    /// The same percentile read in each repetition on its own.
    pub per_rep: Summary,
    /// The percentile read (≤ the one asked for).
    pub percentile: f64,
    /// Samples of the whole run behind it.
    pub samples: usize,
}

/// Reads the latency percentile `p` over `floor` and in each of `reps` — or,
/// when the run's samples leave fewer than ten beyond `p`, the highest ladder
/// percentile that they do support. `None` when they cannot even support a
/// median.
pub fn latency_point(floor: &Floor, reps: &[&Samples], p: f64) -> Option<LatencyPoint> {
    let samples: usize = reps.iter().map(|rep| rep.taken).sum();
    let percentile = highest_supported_percentile(samples, p)?;
    let values: Vec<f64> = reps
        .iter()
        .map(|rep| rep.percentile(percentile) as f64)
        .collect();
    Some(LatencyPoint {
        floor: percentile_nanos(&floor.sorted(), percentile) as f64,
        per_rep: summarize(&values),
        percentile,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10_000, 0.999), Some(0.999));
        assert_eq!(highest_supported_percentile(9_999, 0.999), Some(0.995));
        assert_eq!(highest_supported_percentile(1_999, 0.999), Some(0.99));
        assert_eq!(highest_supported_percentile(1_000, 0.99), Some(0.99));
        assert_eq!(highest_supported_percentile(999, 0.99), Some(0.95));
        assert_eq!(highest_supported_percentile(200, 0.99), Some(0.95));
        assert_eq!(highest_supported_percentile(199, 0.99), Some(0.90));
        assert_eq!(highest_supported_percentile(100, 0.99), Some(0.90));
        assert_eq!(highest_supported_percentile(40, 0.99), Some(0.75));
        assert_eq!(highest_supported_percentile(39, 0.99), Some(0.50));
        assert_eq!(highest_supported_percentile(20, 0.99), Some(0.50));
        assert_eq!(highest_supported_percentile(19, 0.99), None);
        // The cap wins over what the sample would support.
        assert_eq!(highest_supported_percentile(1_000_000, 0.99), Some(0.99));
        assert_eq!(highest_supported_percentile(1_000_000, 0.75), Some(0.75));
        assert_eq!(highest_supported_percentile(1_000_000, 0.50), Some(0.50));
    }

    #[test]
    fn quartiles_interpolate_like_the_inclusive_method() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max, s.n),
            (1.0, 2.0, 3.0, 4.0, 5.0, 5)
        );
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(summarize(&[]).median, 0.0);
        assert_eq!(summarize(&[7.0]).q3, 7.0);
        assert_eq!(Summary::exact(2.0).scaled(3.0), Summary::exact(6.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nanos(&sorted, 0.50), 50);
        assert_eq!(percentile_nanos(&sorted, 0.99), 99);
        assert_eq!(percentile_nanos(&sorted, 1.0), 100);
        assert_eq!(percentile_nanos(&[], 0.5), 0);
    }

    #[test]
    fn thinned_samples_answer_like_the_full_sample() {
        let few = Samples::new(vec![5, 1, 3]);
        assert_eq!(
            (few.taken, few.percentile(0.5), few.percentile(1.0)),
            (3, 3, 5)
        );

        let taken = 300_000u64;
        let raw: Vec<u64> = (1..=taken).rev().collect();
        let thinned = Samples::new(raw);
        assert_eq!(thinned.taken, taken as usize);
        assert_eq!(thinned.sorted.len(), KEPT);
        assert_eq!(thinned.percentile(1.0), taken);
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = (p * taken as f64).ceil();
            let error = (thinned.percentile(p) as f64 - exact).abs();
            assert!(error <= taken as f64 / KEPT as f64, "p{p}: off by {error}");
        }
    }

    #[test]
    fn the_floor_keeps_each_operations_least_disturbed_time() {
        let mut floor = Floor::default();
        floor.fold(&[5, 90, 7]).unwrap();
        floor.fold(&[50, 9, 7]).unwrap();
        floor.fold(&[6, 10, 70]).unwrap();
        // No single repetition was undisturbed; the floor is.
        assert_eq!(floor.least, [5, 9, 7]);
        assert_eq!(floor.sum(), 21);
        assert_eq!(floor.sorted(), [5, 7, 9]);
        // Repetitions that did different work cannot be lined up.
        assert!(floor.fold(&[1, 2]).is_err());
        assert_eq!(Floor::default().sum(), 0);
    }

    #[test]
    fn a_latency_percentile_is_read_when_the_run_supports_it() {
        let fast: Vec<u64> = (1..=1_000).collect();
        let slow: Vec<u64> = fast.iter().map(|ns| ns * 2).collect();
        let mut floor = Floor::default();
        for rep in [&slow, &fast, &slow] {
            floor.fold(rep).unwrap();
        }
        let (fast, slow) = (Samples::new(fast), Samples::new(slow));
        let point = latency_point(&floor, &[&slow, &fast, &slow], 0.99).unwrap();
        assert_eq!(point.percentile, 0.99);
        assert_eq!(point.samples, 3_000);
        assert_eq!(point.floor, 990.0);
        assert_eq!(
            (point.per_rep.min, point.per_rep.median, point.per_rep.n),
            (990.0, 1_980.0, 3)
        );

        // Ten samples a repetition: four repetitions support p75, not p99.
        let cells: Vec<u64> = (1..=10).collect();
        let mut floor = Floor::default();
        floor.fold(&cells).unwrap();
        let cells = Samples::new(cells);
        let point = latency_point(&floor, &[&cells; 4], 0.99).unwrap();
        assert_eq!((point.percentile, point.samples), (0.75, 40));
        assert_eq!(point.floor, 8.0);

        let few = Samples::new(vec![1, 2, 3]);
        assert!(latency_point(&Floor::default(), &[&few], 0.5).is_none());
    }
}
