//! Small statistical helpers shared across the workspace.

/// Numerically stable softmax.
///
/// The synthetic preference benchmark (Section 5.1 of the paper) defines the
/// mean reward of an action as a scaled component of `softmax(W x)`; this is
/// the implementation used there.
///
/// Returns an empty vector for empty input.
///
/// ```
/// let p = p2b_linalg::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut probabilities = logits.to_vec();
    softmax_in_place(&mut probabilities);
    probabilities
}

/// [`softmax`] written over its own input: the same operations in the same
/// order, so the two agree bit for bit, without allocating. An empty slice
/// is left as it is.
///
/// ```
/// let mut p = [1.0, 1.0];
/// p2b_linalg::softmax_in_place(&mut p);
/// assert_eq!(p.to_vec(), p2b_linalg::softmax(&[1.0, 1.0]));
/// ```
pub fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for value in values.iter_mut() {
        *value = (*value - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for value in values.iter_mut() {
        *value /= sum;
    }
}

/// Index of the maximum element, breaking ties towards the lowest index.
///
/// Returns `None` for empty input. `NaN` entries are never selected unless
/// every entry is `NaN`, in which case index 0 is returned.
#[must_use]
pub fn argmax(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    let mut seen_finite = false;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if !seen_finite || v > best_value {
            best = i;
            best_value = v;
            seen_finite = true;
        }
    }
    Some(best)
}

/// Arithmetic mean. Returns 0.0 for empty input.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance. Returns 0.0 for inputs with fewer than two elements.
#[must_use]
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn standard_deviation(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!(approx_eq(p.iter().sum::<f64>(), 1.0));
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(approx_eq(*x, *y));
        }
    }

    #[test]
    fn softmax_handles_extreme_values_without_overflow() {
        let p = softmax(&[1e4, -1e4]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!(approx_eq(p.iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn softmax_empty_input() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argmax_basic_and_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 3.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 1.0, 0.5]), Some(1));
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), Some(0));
    }

    #[test]
    fn mean_variance_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(approx_eq(mean(&xs), 5.0));
        assert!(approx_eq(variance(&xs), 4.0));
        assert!(approx_eq(standard_deviation(&xs), 2.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(standard_deviation(&[]), 0.0);
    }
}
