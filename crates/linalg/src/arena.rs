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
//! so arena scores are bit-for-bit equal to the scalar scores. The one-arm
//! kernel that scores a single arm off its own row-major inverse and `θ`
//! runs the same sequence. The f64 arena is a derived *view* of the
//! per-arm state its owner keeps — that state remains the source of truth.
//!
//! **Stamp invariant:** the owner keeps one content stamp per arm and draws
//! the arm a new one, from a process-wide counter, whenever the arm's
//! content changes, so *two arms with equal stamps have bit-equal inverse
//! and `θ`*, in any two models of the process. The arena records the stamp
//! each arm's lanes were loaded under ([`ScoreArena::load_arm`], the only
//! writer). An arm whose current stamp differs from its loaded one has
//! *stale* lanes: an owner that shares its arena with a clone leaves the
//! lanes stale instead of copying the arena to write one arm. Every score
//! read off a stale lane is replaced by the one-arm kernel's score over the
//! arm's own state, so stale lanes change what a call costs, never what it
//! returns. The same stamps let [`ScoreArena::ucb_scores_memo`] skip the
//! arms a [`ScoreMemo`] has already scored against the same context.
//! Loaded stamps are bookkeeping, not content: they take no part in
//! equality.

use crate::{LinalgError, Matrix};

/// The loaded stamp of lanes no arm has been loaded into: a fresh arena's
/// zeroes. Stamps are drawn from a counter starting at zero, which never
/// reaches it.
const NEVER_LOADED: u64 = u64::MAX;

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
    /// Arms scored in total: all of them on a sweep, plus the stale lanes
    /// the sweep re-scored off their arms' own state; the re-stamped arms
    /// otherwise.
    pub arms_scored: u64,
}

/// The last sweep of [`ScoreArena::ucb_scores_memo`], kept up to date so the
/// next call on the same context re-scores only the arms written since.
///
/// Remembered: the context's and α's bit patterns (compared by `to_bits`, so
/// `-0.0` and NaN payloads cannot alias), each arm's content stamp, and the
/// score vector. By the stamp invariant an arm whose stamp is unchanged has
/// bit-equal content, and a score is a pure function of (content, context,
/// α) — so a remembered score is the score a sweep would compute, bit for
/// bit, against whichever model the memo meets next. The memo can change
/// what a call costs, never what it returns.
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

/// One arm's score off its own row-major inverse and `θ`, with the per-arm
/// floating-point sequence of the sweep: row accumulators from zero in `j`
/// order, the quadratic form from zero in `i` order
/// ([`Matrix::quadratic_form`]), the estimate from zero in `i` order.
fn ucb_score_arm(
    inverse: &Matrix,
    theta: &[f64],
    x: &[f64],
    alpha: f64,
) -> Result<f64, LinalgError> {
    if theta.len() != x.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: (x.len(), 1),
            found: (theta.len(), 1),
        });
    }
    let bonus = inverse.quadratic_form(x)?;
    let mut estimate = 0.0;
    for (&t, &xi) in theta.iter().zip(x) {
        estimate += t * xi;
    }
    Ok(estimate + alpha * bonus.max(0.0).sqrt())
}

/// Flat, element-major scoring arena over all arms of one model (`f64`).
///
/// See the module documentation in `arena.rs` for the layout, the
/// determinism invariant and the stamp invariant. Arms are loaded with
/// [`ScoreArena::load_arm`] and scored with [`ScoreArena::ucb_scores_into`]
/// (always a full sweep) or [`ScoreArena::ucb_scores_memo`] (a sweep only
/// when the memo cannot vouch for the context). Both take the owner's
/// current stamps and a view of each arm's own inverse and `θ`, which is
/// what a stale lane is scored from.
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
    /// The stamp each arm's lanes were loaded under; see the module's stamp
    /// invariant.
    loaded: Vec<u64>,
}

/// Equality compares shape and lanes only: loaded stamps say *when* an arm
/// was written, so an arena and its bit-equal rebuild must compare equal.
impl PartialEq for ScoreArena {
    fn eq(&self, other: &Self) -> bool {
        self.arms == other.arms
            && self.dim == other.dim
            && self.inv == other.inv
            && self.theta == other.theta
    }
}

impl ScoreArena {
    /// Creates a zeroed arena for `arms` arms of dimension `dim`, no arm
    /// loaded yet: every lane is stale until [`ScoreArena::load_arm`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `arms == 0` or `dim == 0`.
    pub fn new(arms: usize, dim: usize) -> Result<Self, LinalgError> {
        if arms == 0 || dim == 0 {
            return Err(LinalgError::Empty);
        }
        Ok(Self {
            arms,
            dim,
            inv: vec![0.0; arms * dim * dim],
            theta: vec![0.0; arms * dim],
            loaded: vec![NEVER_LOADED; arms],
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

    /// The stamp each arm's lanes were loaded under, in arm order. An arm
    /// whose current stamp differs has stale lanes.
    #[must_use]
    pub fn loaded_stamps(&self) -> &[u64] {
        &self.loaded
    }

    /// Scatters one arm's inverse and cached `θ` into the arena lanes and
    /// records `stamp`, the arm's content stamp, as the one they were
    /// loaded under.
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
        stamp: u64,
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
        self.loaded[arm] = stamp;
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

    /// Rejects a context or a stamp vector of the wrong length.
    fn check(&self, x: &[f64], stamps: &[u64]) -> Result<(), LinalgError> {
        if x.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim, 1),
                found: (x.len(), 1),
            });
        }
        if stamps.len() != self.arms {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.arms, 1),
                found: (stamps.len(), 1),
            });
        }
        Ok(())
    }

    /// Scores all arms against one context in a single pass:
    /// `out[a] = θ_aᵀx + α·√(max(0, xᵀ A_a⁻¹ x))`.
    ///
    /// `stamps` are the owner's current content stamps and `own(a)` is arm
    /// `a`'s own inverse and `θ`: an arm whose lanes are stale is re-scored
    /// from those after the sweep. Allocation-free given a warm `scratch`.
    /// Per arm, the floating-point sequence is identical to the scalar
    /// reference (row-major `matvec`, dot product, `estimate + α·bonus`),
    /// so the scores are bit-for-bit equal to scoring each arm individually.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`,
    /// `stamps.len()` or `out.len()` differs from `self.arms()`, or `own`
    /// hands back a mis-shaped arm.
    pub fn ucb_scores_into<'a>(
        &self,
        x: &[f64],
        alpha: f64,
        stamps: &[u64],
        own: impl Fn(usize) -> (&'a Matrix, &'a [f64]),
        scratch: &mut ScoreScratch,
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        self.check(x, stamps)?;
        if out.len() != self.arms {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.arms, 1),
                found: (out.len(), 1),
            });
        }
        self.sweep(x, alpha, stamps, &own, scratch, out)?;
        Ok(())
    }

    /// The sweep over the lanes, then the one-arm kernel over every stale
    /// arm. The caller has checked the shapes. Returns how many stale arms
    /// were re-scored.
    fn sweep<'a>(
        &self,
        x: &[f64],
        alpha: f64,
        stamps: &[u64],
        own: &impl Fn(usize) -> (&'a Matrix, &'a [f64]),
        scratch: &mut ScoreScratch,
        out: &mut [f64],
    ) -> Result<usize, LinalgError> {
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
        let mut rescored = 0;
        for (arm, (o, (&loaded, &stamp))) in out
            .iter_mut()
            .zip(self.loaded.iter().zip(stamps))
            .enumerate()
        {
            if loaded != stamp {
                let (inverse, theta) = own(arm);
                *o = ucb_score_arm(inverse, theta, x, alpha)?;
                rescored += 1;
            }
        }
        Ok(rescored)
    }

    /// Scores all arms against one context like
    /// [`ScoreArena::ucb_scores_into`], but through a [`ScoreMemo`]: when the
    /// memo's last sweep was over this very context and α and at most half
    /// the arms have been re-stamped since, only those arms are re-scored,
    /// off their own state (`O(changed · d²)`); otherwise the call is the
    /// full sweep, which refills the memo. Either way the returned scores
    /// are bit-for-bit those of a fresh sweep.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`,
    /// `stamps.len() != self.arms()`, or `own` hands back a mis-shaped arm.
    pub fn ucb_scores_memo<'a, 'm>(
        &self,
        x: &[f64],
        alpha: f64,
        stamps: &[u64],
        own: impl Fn(usize) -> (&'a Matrix, &'a [f64]),
        memo: &'m mut ScoreMemo,
    ) -> Result<&'m [f64], LinalgError> {
        self.check(x, stamps)?;
        // A memo of another context is a memo with every arm re-stamped.
        let changed = if memo.remembers(self.arms, x, alpha) {
            let fresh = memo.stamps.iter().zip(stamps);
            fresh.filter(|(seen, stamp)| seen != stamp).count()
        } else {
            self.arms
        };
        // The one-arm kernel runs down a scalar dependency chain, so past
        // half the arms the sweep is the cheaper way to catch up.
        if 2 * changed <= self.arms {
            for (arm, (seen, &stamp)) in memo.stamps.iter_mut().zip(stamps).enumerate() {
                if *seen != stamp {
                    let (inverse, theta) = own(arm);
                    memo.scores[arm] = ucb_score_arm(inverse, theta, x, alpha)?;
                    *seen = stamp;
                }
            }
            memo.counters.arms_scored += changed as u64;
        } else {
            // Forgotten first, so a sweep that fails leaves no half-written
            // scores behind a remembered context.
            memo.stamps.clear();
            memo.scores.resize(self.arms, 0.0);
            let rescored =
                self.sweep(x, alpha, stamps, &own, &mut memo.scratch, &mut memo.scores)?;
            memo.context_bits.clear();
            memo.context_bits
                .extend(x.iter().map(|value| value.to_bits()));
            memo.alpha_bits = alpha.to_bits();
            memo.stamps.extend_from_slice(stamps);
            memo.counters.sweeps += 1;
            memo.counters.arms_scored += (self.arms + rescored) as u64;
        }
        Ok(&memo.scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankOneInverse, Vector};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The owner's stamp source, process-wide like a model's.
    static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

    /// An owner of per-arm state and the arena that mirrors it.
    #[derive(Clone)]
    struct Model {
        arena: ScoreArena,
        inverses: Vec<RankOneInverse>,
        rewards: Vec<Vector>,
        thetas: Vec<Vector>,
        stamps: Vec<u64>,
    }

    impl Model {
        fn trained(arms: usize, dim: usize) -> Self {
            let mut model = Self {
                arena: ScoreArena::new(arms, dim).unwrap(),
                inverses: Vec::new(),
                rewards: Vec::new(),
                thetas: vec![Vector::zeros(dim); arms],
                stamps: vec![0; arms],
            };
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
                model.inverses.push(inv);
                model.rewards.push(b);
                model.sync(a, true);
            }
            model
        }

        /// Re-derives `arm`'s θ and stamp after a write to its state, and
        /// loads its lanes only when `write_through`.
        fn sync(&mut self, arm: usize, write_through: bool) {
            self.thetas[arm] = self.inverses[arm].solve(&self.rewards[arm]).unwrap();
            self.stamps[arm] = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
            if write_through {
                let (inverse, theta) = (self.inverses[arm].inverse(), &self.thetas[arm]);
                self.arena
                    .load_arm(arm, inverse, theta.as_slice(), self.stamps[arm])
                    .unwrap();
            }
        }

        fn own<'a>(&'a self) -> impl Fn(usize) -> (&'a Matrix, &'a [f64]) {
            |arm| (self.inverses[arm].inverse(), self.thetas[arm].as_slice())
        }

        fn stale(&self) -> usize {
            let loaded = self.arena.loaded_stamps().iter();
            loaded.zip(&self.stamps).filter(|(l, s)| l != s).count()
        }

        fn sweep(&self, x: &[f64], alpha: f64) -> Vec<u64> {
            let mut out = vec![0.0; self.arena.arms()];
            let mut scratch = ScoreScratch::new();
            self.arena
                .ucb_scores_into(x, alpha, &self.stamps, self.own(), &mut scratch, &mut out)
                .unwrap();
            out.iter().map(|s| s.to_bits()).collect()
        }

        fn through(&self, x: &[f64], alpha: f64, memo: &mut ScoreMemo) -> Vec<u64> {
            let scores = self
                .arena
                .ucb_scores_memo(x, alpha, &self.stamps, self.own(), memo);
            scores.unwrap().iter().map(|s| s.to_bits()).collect()
        }

        /// The historical scalar path: solve, dot, quadratic form.
        fn reference(&self, x: &[f64], alpha: f64) -> Vec<u64> {
            let x = Vector::from(x.to_vec());
            let arms = self.inverses.iter().zip(&self.rewards);
            arms.map(|(inv, b)| {
                let estimate = inv.solve(b).unwrap().dot(&x).unwrap();
                let bonus = inv.quadratic_form(&x).unwrap().max(0.0).sqrt();
                (estimate + alpha * bonus).to_bits()
            })
            .collect()
        }
    }

    #[test]
    fn arena_scores_are_bit_identical_to_the_scalar_reference() {
        let mut model = Model::trained(7, 6);
        let x: Vec<f64> = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        assert_eq!(model.stale(), 0);
        assert_eq!(model.sweep(&x, 0.25), model.reference(&x, 0.25));
        // Two arms written without their lanes: the sweep scores them off
        // their own state, still bit for bit.
        for arm in [1usize, 4] {
            model.inverses[arm]
                .update(&Vector::from(x.clone()))
                .unwrap();
            model.sync(arm, false);
        }
        assert_eq!(model.stale(), 2);
        assert_eq!(model.sweep(&x, 0.25), model.reference(&x, 0.25));
    }

    #[test]
    fn memo_rescores_only_restamped_arms_and_matches_the_sweep() {
        let mut model = Model::trained(7, 6);
        let x: Vec<f64> = (0..6).map(|k| (k as f64 + 0.5) / 6.0).collect();
        let mut memo = ScoreMemo::new();
        let counted = |memo: &ScoreMemo| (memo.counters().sweeps, memo.counters().arms_scored);

        assert_eq!(model.through(&x, 0.25, &mut memo), model.sweep(&x, 0.25));
        assert_eq!(counted(&memo), (1, 7));
        // Nothing written since: nothing scored.
        assert_eq!(model.through(&x, 0.25, &mut memo), model.sweep(&x, 0.25));
        assert_eq!(counted(&memo), (1, 7));

        // Three arms written (at most half of seven): three arms scored.
        for arm in [1usize, 4, 6] {
            model.inverses[arm]
                .update(&Vector::from(x.clone()))
                .unwrap();
            model.sync(arm, true);
        }
        assert_eq!(model.through(&x, 0.25, &mut memo), model.sweep(&x, 0.25));
        assert_eq!(counted(&memo), (1, 10));

        // Another α, a context that differs only in the sign of a zero, and
        // more than half the arms written each fall back to the sweep.
        assert_eq!(model.through(&x, 0.5, &mut memo), model.sweep(&x, 0.5));
        assert_eq!(counted(&memo), (2, 17));
        let mut zeroed = x.clone();
        zeroed[0] = 0.0;
        assert_eq!(
            model.through(&zeroed, 0.5, &mut memo),
            model.sweep(&zeroed, 0.5)
        );
        zeroed[0] = -0.0;
        assert_eq!(
            model.through(&zeroed, 0.5, &mut memo),
            model.sweep(&zeroed, 0.5)
        );
        assert_eq!(counted(&memo), (4, 31));
        for arm in 0..4 {
            model.sync(arm, true);
        }
        assert_eq!(
            model.through(&zeroed, 0.5, &mut memo),
            model.sweep(&zeroed, 0.5)
        );
        assert_eq!(counted(&memo), (5, 38));

        // Two arms written without their lanes: the memo re-scores them off
        // their own state, and a sweep re-scores them after the lanes.
        for arm in [2usize, 5] {
            model.inverses[arm]
                .update(&Vector::from(zeroed.clone()))
                .unwrap();
            model.sync(arm, false);
        }
        assert_eq!(
            model.through(&zeroed, 0.5, &mut memo),
            model.reference(&zeroed, 0.5)
        );
        assert_eq!(counted(&memo), (5, 40));
        assert_eq!(
            model.through(&zeroed, 0.75, &mut memo),
            model.reference(&zeroed, 0.75)
        );
        assert_eq!(counted(&memo), (6, 49));

        assert!(model
            .arena
            .ucb_scores_memo(&x[..5], 0.5, &model.stamps, model.own(), &mut memo)
            .is_err());
    }

    #[test]
    fn one_memo_serves_diverged_clones_and_unrelated_arenas() {
        let base = Model::trained(5, 4);
        let x = [0.4, 0.3, 0.2, 0.1];
        let reload = |model: &mut Model, arm: usize, reward_scale: f64, write_through: bool| {
            model.rewards[arm] = model.rewards[arm].scaled(reward_scale);
            model.sync(arm, write_through);
        };
        // Two clones diverge on the same arm, a third on another arm without
        // writing its lanes; a fourth model has the same shape and no shared
        // history.
        let (mut left, mut right, mut stale) = (base.clone(), base.clone(), base.clone());
        reload(&mut left, 2, 2.0, true);
        reload(&mut right, 2, 3.0, true);
        reload(&mut stale, 3, 2.0, false);
        let other = Model::trained(5, 4);
        let mut memo = ScoreMemo::new();
        for model in [&base, &left, &right, &left, &other, &base, &right, &stale] {
            assert_eq!(model.through(&x, 1.0, &mut memo), model.sweep(&x, 1.0));
            assert_eq!(model.through(&x, 1.0, &mut memo), model.reference(&x, 1.0));
        }
        // base → left → right → left re-score arm 2 alone; `other` shares no
        // stamp with anything and is swept, as is `base` after it; right →
        // stale re-scores arms 2 and 3.
        assert_eq!(memo.counters().sweeps, 3);
        assert_eq!(memo.counters().arms_scored, 5 + 3 + 5 + 5 + 1 + 2);
    }

    #[test]
    fn stamps_take_no_part_in_equality() {
        let (first, second) = (Model::trained(3, 4), Model::trained(3, 4));
        assert_ne!(first.arena.loaded, second.arena.loaded);
        assert_eq!(first.arena, second.arena);
        assert_eq!(first.arena.clone().loaded, first.arena.loaded);
    }

    #[test]
    fn rejects_zero_sized_arenas_and_bad_shapes() {
        assert!(matches!(ScoreArena::new(0, 4), Err(LinalgError::Empty)));
        assert!(matches!(ScoreArena::new(4, 0), Err(LinalgError::Empty)));
        let mut arena = ScoreArena::new(2, 3).unwrap();
        let id = Matrix::identity(3);
        assert!(arena.load_arm(2, &id, &[0.0; 3], 0).is_err());
        assert!(arena
            .load_arm(0, &Matrix::identity(2), &[0.0; 3], 0)
            .is_err());
        assert!(arena.load_arm(0, &id, &[0.0; 2], 0).is_err());
        arena.load_arm(0, &id, &[0.0; 3], 0).unwrap();
        arena.load_arm(1, &id, &[0.0; 3], 1).unwrap();
        let own = |_: usize| (&id, &[0.0; 3][..]);
        let mut scratch = ScoreScratch::new();
        let mut out = vec![0.0; 2];
        let mut score = |x: &[f64], stamps: &[u64], out: &mut [f64]| {
            arena.ucb_scores_into(x, 1.0, stamps, own, &mut scratch, out)
        };
        assert!(score(&[0.0; 2], &[0, 1], &mut out).is_err());
        assert!(score(&[0.0; 3], &[0, 1], &mut [0.0; 1]).is_err());
        assert!(score(&[0.0; 3], &[0], &mut out).is_err());
        assert!(score(&[0.0; 3], &[0, 1], &mut out).is_ok());
        // A stale lane is scored off its arm, which must have the arena's
        // shape.
        let short = |_: usize| (&id, &[0.0; 2][..]);
        assert!(arena
            .ucb_scores_into(&[0.0; 3], 1.0, &[0, 2], short, &mut scratch, &mut out)
            .is_err());
        let mut memo = ScoreMemo::new();
        assert!(arena
            .ucb_scores_memo(&[0.0; 3], 1.0, &[0, 2], short, &mut memo)
            .is_err());
        // The failed sweep left nothing to remember.
        assert!(arena
            .ucb_scores_memo(&[0.0; 3], 1.0, &[0, 1], short, &mut memo)
            .is_ok());
        assert_eq!(memo.counters().sweeps, 1);
    }

    #[test]
    fn load_arm_round_trips_theta() {
        let mut arena = ScoreArena::new(3, 2).unwrap();
        assert_eq!(arena.loaded_stamps(), &[NEVER_LOADED; 3]);
        arena
            .load_arm(1, &Matrix::identity(2), &[0.25, -0.75], 9)
            .unwrap();
        assert_eq!(arena.theta_entry(1, 0), 0.25);
        assert_eq!(arena.theta_entry(1, 1), -0.75);
        assert_eq!(arena.theta_entry(0, 0), 0.0);
        assert_eq!(arena.loaded_stamps(), &[NEVER_LOADED, 9, NEVER_LOADED]);
    }
}
