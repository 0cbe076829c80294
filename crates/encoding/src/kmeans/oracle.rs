//! The scalar nearest-centroid scan: the source of truth the blocked
//! `CentroidIndex` is pinned against, index and distance bits, by the
//! `encode_agreement` suite. It was `KMeansEncoder`'s scan until the index
//! replaced it and is kept verbatim.
//!
//! **Why the index may stop a sum early and still agree.**
//! `Vector::squared_distance` adds the terms `(c_j − x_j)²` in dimension
//! order from 0, and every term is non-negative (or NaN). Under
//! round-to-nearest `fl(a + t) ≥ a` for `t ≥ 0`, so every partial sum is `≤`
//! the finished distance. A centroid whose partial sum already exceeds the
//! best finished distance therefore fails the strict `dist < best_dist` below
//! whatever its remaining terms are — no margin is needed and no sum is
//! reordered. A NaN partial sum stays NaN and a NaN distance fails every
//! comparison, here and there.
//!
//! **The tie rule.** The strict `<` keeps the first of several centroids at
//! the least distance, so the scan returns the *lowest index among the
//! minima*, and `(0, +∞)` when no distance is below +∞. The index finishes
//! blocks out of order and reproduces this with
//! `dist < best || (dist == best && i < best_i)` from the same start.

use crate::EncodingError;
use p2b_linalg::Vector;

/// Finds the nearest centroid and its squared distance.
pub(super) fn nearest_centroid(
    centroids: &[Vector],
    sample: &Vector,
) -> Result<(usize, f64), EncodingError> {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let dist = c.squared_distance(sample)?;
        if dist < best_dist {
            best = i;
            best_dist = dist;
        }
    }
    Ok((best, best_dist))
}
