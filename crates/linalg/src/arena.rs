//! Contiguous, lane-major scoring arenas for batched LinUCB-style scoring.
//!
//! A [`ScoreArena`] packs the scoring state of *all* arms of one per-code
//! model — each arm's inverse design matrix `A_a⁻¹` and its cached ridge
//! estimate `θ_a = A_a⁻¹ b_a` — into two flat buffers laid out
//! **element-major** ("structure of arrays"): for every matrix position
//! `(i, j)` the values of all arms sit next to each other.
//!
//! ```text
//! inv   = [ m₀(0,0) m₁(0,0) … m_{A-1}(0,0) | m₀(0,1) m₁(0,1) … | … ]   (d·d lanes of A)
//! theta = [ θ₀(0)   θ₁(0)   … θ_{A-1}(0)   | θ₀(1)   θ₁(1)   … | … ]   (d   lanes of A)
//! ```
//!
//! This layout lets [`ScoreArena::ucb_scores_into`] score every arm in a
//! single sweep over the buffers: the inner loop runs across arms, so each
//! arm owns an independent accumulator and the floating-point dependency
//! chain that serializes the classic one-arm-at-a-time loop disappears,
//! while every load is sequential in memory.
//!
//! **Determinism invariant:** for each individual arm the sequence of
//! floating-point operations is *identical* to the scalar reference path
//! (`matvec` row by row, then a dot product, then `estimate + α·√bonus`),
//! so arena scores are bit-for-bit equal to the scalar scores. The f64
//! arena is a derived *view* of the `RankOneInverse` state — the f64
//! reference path remains the source of truth.
//!
//! **Stamp invariant:** every arm carries a content stamp drawn from one
//! process-wide counter whenever its lanes are written
//! ([`ScoreArena::new`], [`ScoreArena::load_arm`] — the only writers).
//! Clones copy the stamps with the lanes, so *two arms with equal stamps
//! have bit-equal lanes*, in any two arenas of the process. That is what
//! lets [`ScoreArena::ucb_scores_memo`] skip the arms a [`ScoreMemo`] has
//! already scored against the same context. Stamps are identity, not
//! content: they take no part in equality.

use crate::{LinalgError, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of arm content stamps. Process-wide so that stamps drawn by
/// diverged clones of one model, or by unrelated models, can never collide
/// in a memo that meets both. `Relaxed`: the value publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

fn draw_stamps(count: usize) -> u64 {
    NEXT_STAMP.fetch_add(count as u64, Ordering::Relaxed)
}

/// Reusable scratch for [`ScoreArena::ucb_scores_into`]: three `f64` lanes of
/// length `arms`. Buffers grow on demand and are never shrunk.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    rowacc: Vec<f64>,
    qf: Vec<f64>,
    est: Vec<f64>,
}

impl ScoreScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, arms: usize) {
        if self.rowacc.len() < arms {
            self.rowacc.resize(arms, 0.0);
            self.qf.resize(arms, 0.0);
            self.est.resize(arms, 0.0);
        }
    }
}

/// Work a [`ScoreMemo`] has done since it was created: a machine-independent
/// cost of the decision path. Plain counters, deterministic for a fixed call
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScoreCounters {
    /// Full sweeps over the arena: calls the memo could not shortcut.
    pub sweeps: u64,
    /// Arms scored in total: all of them on a sweep, the re-stamped ones
    /// otherwise.
    pub arms_scored: u64,
}

/// The last sweep of [`ScoreArena::ucb_scores_memo`], kept up to date so the
/// next call on the same context re-scores only the arms written since.
///
/// Remembered: the context's and α's bit patterns (compared by `to_bits`, so
/// `-0.0` and NaN payloads cannot alias), each arm's content stamp, and the
/// score vector. By the arena's stamp invariant an arm whose stamp is
/// unchanged has bit-equal lanes, and a score is a pure function of (lanes,
/// context, α) — so a remembered score is the score a sweep would compute,
/// bit for bit, against whichever arena the memo meets next. The memo can
/// change what a call costs, never what it returns.
#[derive(Debug, Clone, Default)]
pub struct ScoreMemo {
    scratch: ScoreScratch,
    context_bits: Vec<u64>,
    alpha_bits: u64,
    stamps: Vec<u64>,
    scores: Vec<f64>,
    counters: ScoreCounters,
}

impl ScoreMemo {
    /// Creates an empty memo; the first call through it is a sweep.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps and arms scored through this memo so far.
    #[must_use]
    pub fn counters(&self) -> ScoreCounters {
        self.counters
    }

    /// Whether the remembered sweep scored `arms` arms against exactly this
    /// context and α. An empty memo holds no stamps, so it matches nothing.
    fn remembers(&self, arms: usize, x: &[f64], alpha: f64) -> bool {
        self.stamps.len() == arms
            && self.alpha_bits == alpha.to_bits()
            && (self.context_bits.iter().copied()).eq(x.iter().map(|value| value.to_bits()))
    }
}

/// Flat, element-major scoring arena over all arms of one model (`f64`).
///
/// See the module documentation in `arena.rs` for the layout, the
/// determinism invariant and the stamp invariant. Arms are loaded with
/// [`ScoreArena::load_arm`] whenever the backing `RankOneInverse` state
/// changes and scored with [`ScoreArena::ucb_scores_into`] (always a full
/// sweep) or [`ScoreArena::ucb_scores_memo`] (a sweep only when the memo
/// cannot vouch for the context).
#[derive(Debug, Clone)]
pub struct ScoreArena {
    arms: usize,
    dim: usize,
    /// Element-major inverses: entry `(i, j)` of arm `a` lives at
    /// `(i·dim + j)·arms + a`.
    inv: Vec<f64>,
    /// Element-major ridge estimates: entry `i` of arm `a` lives at
    /// `i·arms + a`.
    theta: Vec<f64>,
    /// Per-arm content stamps; see the module's stamp invariant.
    stamps: Vec<u64>,
}

/// Equality compares shape and lanes only: stamps say *when* an arm was
/// written, so a model and its bit-equal rebuild must still compare equal.
impl PartialEq for ScoreArena {
    fn eq(&self, other: &Self) -> bool {
        self.arms == other.arms
            && self.dim == other.dim
            && self.inv == other.inv
            && self.theta == other.theta
    }
}

impl ScoreArena {
    /// Creates a zeroed arena for `arms` arms of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `arms == 0` or `dim == 0`.
    pub fn new(arms: usize, dim: usize) -> Result<Self, LinalgError> {
        if arms == 0 || dim == 0 {
            return Err(LinalgError::Empty);
        }
        let first = draw_stamps(arms);
        Ok(Self {
            arms,
            dim,
            inv: vec![0.0; arms * dim * dim],
            theta: vec![0.0; arms * dim],
            stamps: (first..first + arms as u64).collect(),
        })
    }

    /// Number of arms the arena holds.
    #[must_use]
    pub fn arms(&self) -> usize {
        self.arms
    }

    /// Per-arm dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scatters one arm's inverse and cached `θ` into the arena lanes and
    /// re-stamps the arm.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `arm` is out of range,
    /// `inverse` is not `dim × dim`, or `theta.len() != dim`.
    pub fn load_arm(
        &mut self,
        arm: usize,
        inverse: &Matrix,
        theta: &[f64],
    ) -> Result<(), LinalgError> {
        if arm >= self.arms {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.arms, 1),
                found: (arm + 1, 1),
            });
        }
        if inverse.rows() != self.dim || inverse.cols() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim, self.dim),
                found: (inverse.rows(), inverse.cols()),
            });
        }
        if theta.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim, 1),
                found: (theta.len(), 1),
            });
        }
        let arms = self.arms;
        for (k, &value) in inverse.as_slice().iter().enumerate() {
            self.inv[k * arms + arm] = value;
        }
        for (i, &value) in theta.iter().enumerate() {
            self.theta[i * arms + arm] = value;
        }
        self.stamps[arm] = draw_stamps(1);
        Ok(())
    }

    /// Reads back one arm's cached `θ` entry (test and debug helper).
    ///
    /// # Panics
    ///
    /// Panics if `arm` or `i` is out of range.
    #[must_use]
    pub fn theta_entry(&self, arm: usize, i: usize) -> f64 {
        assert!(arm < self.arms && i < self.dim, "index out of bounds");
        self.theta[i * self.arms + arm]
    }

    /// Scores all arms against one context in a single pass:
    /// `out[a] = θ_aᵀx + α·√(max(0, xᵀ A_a⁻¹ x))`.
    ///
    /// Allocation-free given a warm `scratch`. Per arm, the floating-point
    /// sequence is identical to the scalar reference (row-major `matvec`,
    /// dot product, `estimate + α·bonus`), so the scores are bit-for-bit
    /// equal to scoring each arm individually.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`
    /// or `out.len() != self.arms()`.
    pub fn ucb_scores_into(
        &self,
        x: &[f64],
        alpha: f64,
        scratch: &mut ScoreScratch,
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        if x.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.arms {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.arms, 1),
                found: (out.len(), 1),
            });
        }
        let arms = self.arms;
        scratch.ensure(arms);
        let rowacc = &mut scratch.rowacc[..arms];
        let qf = &mut scratch.qf[..arms];
        let est = &mut scratch.est[..arms];
        qf.fill(0.0);
        est.fill(0.0);
        // Quadratic forms: qf[a] = Σᵢ xᵢ·(Σⱼ m_a(i,j)·xⱼ), accumulated in the
        // same row-then-total order as the scalar matvec + dot reference.
        for (i, &xi) in x.iter().enumerate() {
            rowacc.fill(0.0);
            for (j, &xj) in x.iter().enumerate() {
                let lane = &self.inv[(i * self.dim + j) * arms..][..arms];
                for (acc, &m) in rowacc.iter_mut().zip(lane) {
                    *acc += m * xj;
                }
            }
            for (q, &acc) in qf.iter_mut().zip(rowacc.iter()) {
                *q += xi * acc;
            }
        }
        // Point estimates: est[a] = θ_aᵀ x.
        for (i, &xi) in x.iter().enumerate() {
            let lane = &self.theta[i * arms..][..arms];
            for (e, &t) in est.iter_mut().zip(lane) {
                *e += t * xi;
            }
        }
        for ((o, &e), &q) in out.iter_mut().zip(est.iter()).zip(qf.iter()) {
            *o = e + alpha * q.max(0.0).sqrt();
        }
        Ok(())
    }

    /// One arm's score with the per-arm floating-point sequence of
    /// [`ScoreArena::ucb_scores_into`] — row accumulators from zero in `j`
    /// order, the quadratic form from zero in `i` order, the estimate from
    /// zero in `i` order — read off the arm's strided lanes. The caller has
    /// checked that `arm < self.arms` and `x.len() == self.dim`.
    fn ucb_score_arm(&self, arm: usize, x: &[f64], alpha: f64) -> f64 {
        let arms = self.arms;
        let mut qf = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += self.inv[(i * self.dim + j) * arms + arm] * xj;
            }
            qf += xi * acc;
        }
        let mut est = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            est += self.theta[i * arms + arm] * xi;
        }
        est + alpha * qf.max(0.0).sqrt()
    }

    /// Scores all arms against one context like
    /// [`ScoreArena::ucb_scores_into`], but through a [`ScoreMemo`]: when the
    /// memo's last sweep was over this very context and α and at most half
    /// the arms have been re-stamped since, only those arms are re-scored
    /// (`O(changed · d²)`); otherwise the call is the full sweep, which
    /// refills the memo. Either way the returned scores are bit-for-bit
    /// those of a fresh sweep.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn ucb_scores_memo<'m>(
        &self,
        x: &[f64],
        alpha: f64,
        memo: &'m mut ScoreMemo,
    ) -> Result<&'m [f64], LinalgError> {
        if x.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim, 1),
                found: (x.len(), 1),
            });
        }
        // A memo of another context is a memo with every arm stale.
        let stale = if memo.remembers(self.arms, x, alpha) {
            let fresh = memo.stamps.iter().zip(&self.stamps);
            fresh.filter(|(seen, stamp)| seen != stamp).count()
        } else {
            self.arms
        };
        // The one-arm kernel walks strided lanes down a scalar dependency
        // chain and measures 2–3× the sweep's cost per arm (d = 10…32), so
        // past half the arms the sweep is the cheaper way to catch up.
        if 2 * stale <= self.arms {
            for (arm, (seen, &stamp)) in memo.stamps.iter_mut().zip(&self.stamps).enumerate() {
                if *seen != stamp {
                    memo.scores[arm] = self.ucb_score_arm(arm, x, alpha);
                    *seen = stamp;
                }
            }
            memo.counters.arms_scored += stale as u64;
        } else {
            memo.scores.resize(self.arms, 0.0);
            self.ucb_scores_into(x, alpha, &mut memo.scratch, &mut memo.scores)?;
            memo.context_bits.clear();
            memo.context_bits
                .extend(x.iter().map(|value| value.to_bits()));
            memo.alpha_bits = alpha.to_bits();
            memo.stamps.clear();
            memo.stamps.extend_from_slice(&self.stamps);
            memo.counters.sweeps += 1;
            memo.counters.arms_scored += self.arms as u64;
        }
        Ok(&memo.scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankOneInverse, Vector};

    fn trained_arena(arms: usize, dim: usize) -> (ScoreArena, Vec<RankOneInverse>, Vec<Vector>) {
        let mut arena = ScoreArena::new(arms, dim).unwrap();
        let mut inverses = Vec::new();
        let mut rewards = Vec::new();
        for a in 0..arms {
            let mut inv = RankOneInverse::identity(dim, 1.0).unwrap();
            let mut b = Vector::zeros(dim);
            for t in 0..5 {
                let x: Vector = (0..dim)
                    .map(|k| ((a * 31 + t * 7 + k * 3) % 11) as f64 / 11.0)
                    .collect();
                inv.update(&x).unwrap();
                b.axpy(((a + t) % 3) as f64 / 2.0, &x).unwrap();
            }
            let theta = inv.solve(&b).unwrap();
            arena.load_arm(a, inv.inverse(), theta.as_slice()).unwrap();
            inverses.push(inv);
            rewards.push(b);
        }
        (arena, inverses, rewards)
    }

    #[test]
    fn arena_scores_are_bit_identical_to_the_scalar_reference() {
        let (arena, inverses, rewards) = trained_arena(7, 6);
        let x: Vector = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        let alpha = 0.25;
        let mut scratch = ScoreScratch::new();
        let mut out = vec![0.0; 7];
        arena
            .ucb_scores_into(x.as_slice(), alpha, &mut scratch, &mut out)
            .unwrap();
        for (a, inv) in inverses.iter().enumerate() {
            // The historical scalar path: solve, dot, quadratic form.
            let theta = inv.solve(&rewards[a]).unwrap();
            let estimate = theta.dot(&x).unwrap();
            let bonus = inv.quadratic_form(&x).unwrap().max(0.0).sqrt();
            let reference = estimate + alpha * bonus;
            assert_eq!(
                out[a].to_bits(),
                reference.to_bits(),
                "arm {a} diverged from the scalar reference"
            );
        }
    }

    fn sweep(arena: &ScoreArena, x: &[f64], alpha: f64) -> Vec<u64> {
        let mut out = vec![0.0; arena.arms()];
        arena
            .ucb_scores_into(x, alpha, &mut ScoreScratch::new(), &mut out)
            .unwrap();
        out.iter().map(|s| s.to_bits()).collect()
    }

    fn through(arena: &ScoreArena, x: &[f64], alpha: f64, memo: &mut ScoreMemo) -> Vec<u64> {
        let scores = arena.ucb_scores_memo(x, alpha, memo).unwrap();
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn memo_rescores_only_restamped_arms_and_matches_the_sweep() {
        let (mut arena, mut inverses, rewards) = trained_arena(7, 6);
        let x: Vec<f64> = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        let mut memo = ScoreMemo::new();
        let counted = |memo: &ScoreMemo| (memo.counters().sweeps, memo.counters().arms_scored);

        assert_eq!(
            through(&arena, &x, 0.25, &mut memo),
            sweep(&arena, &x, 0.25)
        );
        assert_eq!(counted(&memo), (1, 7));
        // Nothing written since: nothing scored.
        assert_eq!(
            through(&arena, &x, 0.25, &mut memo),
            sweep(&arena, &x, 0.25)
        );
        assert_eq!(counted(&memo), (1, 7));

        // Three arms written (at most half of seven): three arms scored.
        for arm in [1usize, 4, 6] {
            inverses[arm].update(&Vector::from(x.clone())).unwrap();
            let theta = inverses[arm].solve(&rewards[arm]).unwrap();
            arena
                .load_arm(arm, inverses[arm].inverse(), theta.as_slice())
                .unwrap();
        }
        assert_eq!(
            through(&arena, &x, 0.25, &mut memo),
            sweep(&arena, &x, 0.25)
        );
        assert_eq!(counted(&memo), (1, 10));

        // Another α, a context that differs only in the sign of a zero, and
        // more than half the arms written each fall back to the sweep.
        assert_eq!(through(&arena, &x, 0.5, &mut memo), sweep(&arena, &x, 0.5));
        assert_eq!(counted(&memo), (2, 17));
        let mut zeroed = x.clone();
        zeroed[0] = 0.0;
        assert_eq!(
            through(&arena, &zeroed, 0.5, &mut memo),
            sweep(&arena, &zeroed, 0.5)
        );
        zeroed[0] = -0.0;
        assert_eq!(
            through(&arena, &zeroed, 0.5, &mut memo),
            sweep(&arena, &zeroed, 0.5)
        );
        assert_eq!(counted(&memo), (4, 31));
        for (arm, inv) in inverses.iter().enumerate().take(4) {
            let theta = inv.solve(&rewards[arm]).unwrap();
            arena
                .load_arm(arm, inv.inverse(), theta.as_slice())
                .unwrap();
        }
        assert_eq!(
            through(&arena, &zeroed, 0.5, &mut memo),
            sweep(&arena, &zeroed, 0.5)
        );
        assert_eq!(counted(&memo), (5, 38));

        assert!(arena.ucb_scores_memo(&x[..5], 0.5, &mut memo).is_err());
    }

    #[test]
    fn one_memo_serves_diverged_clones_and_unrelated_arenas() {
        let (base, inverses, rewards) = trained_arena(5, 4);
        let x = [0.4, 0.3, 0.2, 0.1];
        let reload = |arena: &mut ScoreArena, arm: usize, reward_scale: f64| {
            let b = rewards[arm].scaled(reward_scale);
            let theta = inverses[arm].solve(&b).unwrap();
            arena
                .load_arm(arm, inverses[arm].inverse(), theta.as_slice())
                .unwrap();
        };
        // Two clones diverge on the same arm; a third arena has the same
        // shape and no shared history.
        let (mut left, mut right) = (base.clone(), base.clone());
        reload(&mut left, 2, 2.0);
        reload(&mut right, 2, 3.0);
        let (other, _, _) = trained_arena(5, 4);
        let mut memo = ScoreMemo::new();
        for arena in [&base, &left, &right, &left, &other, &base, &right] {
            assert_eq!(through(arena, &x, 1.0, &mut memo), sweep(arena, &x, 1.0));
        }
        // base → left → right → left re-score arm 2 alone; `other` shares no
        // stamp with anything and is swept, as is `base` after it.
        assert_eq!(memo.counters().sweeps, 3);
        assert_eq!(memo.counters().arms_scored, 5 + 3 + 5 + 5 + 1);
    }

    #[test]
    fn stamps_take_no_part_in_equality() {
        let (first, _, _) = trained_arena(3, 4);
        let (second, _, _) = trained_arena(3, 4);
        assert_ne!(first.stamps, second.stamps);
        assert_eq!(first, second);
        assert_eq!(first.clone().stamps, first.stamps);
    }

    #[test]
    fn rejects_zero_sized_arenas_and_bad_shapes() {
        assert!(matches!(ScoreArena::new(0, 4), Err(LinalgError::Empty)));
        assert!(matches!(ScoreArena::new(4, 0), Err(LinalgError::Empty)));
        let mut arena = ScoreArena::new(2, 3).unwrap();
        let id = Matrix::identity(3);
        assert!(arena.load_arm(2, &id, &[0.0; 3]).is_err());
        assert!(arena.load_arm(0, &Matrix::identity(2), &[0.0; 3]).is_err());
        assert!(arena.load_arm(0, &id, &[0.0; 2]).is_err());
        let mut scratch = ScoreScratch::new();
        let mut out = vec![0.0; 2];
        assert!(arena
            .ucb_scores_into(&[0.0; 2], 1.0, &mut scratch, &mut out)
            .is_err());
        let mut short = vec![0.0; 1];
        assert!(arena
            .ucb_scores_into(&[0.0; 3], 1.0, &mut scratch, &mut short)
            .is_err());
    }

    #[test]
    fn load_arm_round_trips_theta() {
        let mut arena = ScoreArena::new(3, 2).unwrap();
        arena
            .load_arm(1, &Matrix::identity(2), &[0.25, -0.75])
            .unwrap();
        assert_eq!(arena.theta_entry(1, 0), 0.25);
        assert_eq!(arena.theta_entry(1, 1), -0.75);
        assert_eq!(arena.theta_entry(0, 0), 0.0);
    }
}
