//! Equivalence pins for the incremental epoch assembly.
//!
//! The [`ModelService`] keeps a persistent assembled model and re-installs
//! only the arms some shard folded updates into since the previous assembly.
//! Two properties make that safe, and both are pinned here over random
//! workloads:
//!
//! 1. **Bit-identity** — at every epoch, on every shard count, the
//!    incremental [`ModelService::assemble`] must equal a from-scratch
//!    rebuild ([`FromScratchOracle`], built from public API alone) bit for
//!    bit (designs, reward vectors, pulls, thetas), and must be independent
//!    of the shard count.
//! 2. **Dirty-set conservation** — an arm appears in the returned dirty
//!    union iff some shard folded an update into it since the previous
//!    assembly (the first assembly reports everything dirtied since spawn).
//! 3. **Inherited refresh schedule** — an assembled arm carries its fold
//!    count, which decides when an agent's copy of the arm next refreshes
//!    its inverse: a full refresh interval of plain updates on both models
//!    must keep them bit-identical.

use p2b_bandit::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_core::{Centroids, ModelService};
use p2b_linalg::{RankOneInverse, Vector};
use p2b_shuffler::{EncodedReport, ReleasedCell};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect();
    raw.normalized_l1().unwrap()
}

/// One ingest: released cells, each on a code of its own whose context is
/// the table's row.
#[derive(Clone)]
struct Traffic {
    cells: Vec<ReleasedCell>,
    centroids: Arc<Centroids>,
}

impl Traffic {
    /// Cells of `(context, action, count, reward_sum)`, cell `i` on code `i`
    /// and summed from `count` reports of equal reward.
    fn new(groups: Vec<(Vector, usize, u64, f64)>) -> Self {
        let cells = groups
            .iter()
            .enumerate()
            .map(|(code, &(_, action, count, reward_sum))| {
                let one = EncodedReport::new(code, action, reward_sum / count as f64).unwrap();
                let mut cell = ReleasedCell::of(&one);
                for _ in 1..count {
                    cell.absorb(&ReleasedCell::of(&one));
                }
                cell
            })
            .collect();
        let rows = groups.into_iter().map(|(context, ..)| context).collect();
        Self {
            cells,
            centroids: Arc::new(Centroids::new(rows).unwrap()),
        }
    }

    fn ingest_into(&self, service: &ModelService) {
        service.ingest(&self.cells, &self.centroids).unwrap();
    }
}

fn random_updates(d: usize, a: usize, len: usize, rng: &mut StdRng) -> Traffic {
    Traffic::new(
        (0..len)
            .map(|_| {
                let count = rng.gen_range(1u64..10);
                let reward_sum = rng.gen_range(0.0..=count as f64);
                let context = random_context(d, rng);
                (context, rng.gen_range(0..a), count, reward_sum)
            })
            .collect(),
    )
}

/// The from-scratch assembly the incremental path is pinned against: one
/// set of per-arm sums per ingest shard, fed the `action % M` partition of
/// every ingest through the fold the shard workers run, every arm installed
/// on a cold model from its owning shard's sums on every assembly.
struct FromScratchOracle {
    config: LinUcbConfig,
    shards: Vec<Vec<ArmSums>>,
}

impl FromScratchOracle {
    fn new(config: LinUcbConfig, shards: usize) -> Self {
        let cold = ArmSums::new(&config).unwrap();
        Self {
            config,
            shards: vec![vec![cold; config.num_actions]; shards],
        }
    }

    fn ingest(&mut self, traffic: &Traffic) {
        let count = self.shards.len();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            let partition = traffic
                .cells
                .iter()
                .filter(|cell| cell.action() % count == index);
            for cell in partition {
                let context = traffic.centroids.row(cell.code()).unwrap();
                shard[cell.action()]
                    .fold(context, cell.count(), cell.reward_sum())
                    .unwrap();
            }
        }
    }

    fn assemble(&self) -> LinUcb {
        let mut assembled = LinUcb::new(self.config).unwrap();
        for arm in 0..self.config.num_actions {
            let owner = &self.shards[arm % self.shards.len()];
            assembled.set_arm(Action::new(arm), &owner[arm]).unwrap();
        }
        assembled
    }
}

fn check_bit_identical(left: &LinUcb, right: &LinUcb) {
    let a = left.config().num_actions;
    assert_eq!(left.observations(), right.observations());
    for arm in 0..a {
        let action = Action::new(arm);
        assert_eq!(left.pulls(action).unwrap(), right.pulls(action).unwrap());
        for (x, y) in left
            .design(action)
            .unwrap()
            .as_slice()
            .iter()
            .zip(right.design(action).unwrap().as_slice().iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "design diverged on arm {arm}");
        }
        for (x, y) in left
            .reward_vector(action)
            .unwrap()
            .iter()
            .zip(right.reward_vector(action).unwrap().iter())
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "reward vector diverged on arm {arm}"
            );
        }
        for (x, y) in left
            .theta(action)
            .unwrap()
            .iter()
            .zip(right.theta(action).unwrap().iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "theta diverged on arm {arm}");
        }
    }
}

/// Drives clones of both models through one refresh interval of plain
/// updates on `arm` and checks them bit-identical after. The interval's
/// refresh lands on the update that brings the arm's update count to a
/// multiple of the interval, so a model that lost an assembled arm's fold
/// count refreshes at another step and diverges.
fn check_refresh_schedule(left: &LinUcb, right: &LinUcb, arm: usize, rng: &mut StdRng) {
    let d = left.config().context_dimension;
    let (mut left, mut right) = (left.clone(), right.clone());
    let contexts: Vec<Vector> = (0..3).map(|_| random_context(d, rng)).collect();
    for step in 0..RankOneInverse::DEFAULT_REFRESH_INTERVAL {
        let context = &contexts[step as usize % contexts.len()];
        let reward = (step % 2) as f64;
        left.update(context, Action::new(arm), reward).unwrap();
        right.update(context, Action::new(arm), reward).unwrap();
    }
    check_bit_identical(&left, &right);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across interleaved ingest/assemble epochs and shard counts {1, 2, 4},
    /// the incremental assembly equals the from-scratch oracle rebuild bit
    /// for bit, and all shard counts agree with each other.
    #[test]
    fn incremental_assembly_matches_the_reference_at_every_epoch(
        seed in any::<u64>(),
        d in 1usize..5,
        a in 1usize..7,
        epochs in 1usize..5,
    ) {
        let config = LinUcbConfig::new(d, a);
        let mut services: Vec<(ModelService, FromScratchOracle)> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                (
                    ModelService::spawn(config, shards).unwrap(),
                    FromScratchOracle::new(config, shards),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for epoch in 0..epochs {
            let len = rng.gen_range(1usize..12);
            let updates = random_updates(d, a, len, &mut rng);
            let mut assembled_per_shard_count = Vec::new();
            for (service, oracle) in &mut services {
                updates.ingest_into(service);
                oracle.ingest(&updates);
                let (incremental, _) = service.assemble().unwrap();
                let reference = oracle.assemble();
                check_bit_identical(&reference, &incremental);
                let arm = updates.cells[0].action();
                check_refresh_schedule(&reference, &incremental, arm, &mut rng);
                assembled_per_shard_count.push(incremental);
            }
            for other in &assembled_per_shard_count[1..] {
                check_bit_identical(&assembled_per_shard_count[0], other);
            }
            prop_assert!(epoch < epochs);
        }
    }

    /// An arm is re-installed iff some shard folded an update into it since the
    /// previous assembly. The first assembly reports every arm
    /// dirtied since spawn; an assembly with no interleaved ingest reports
    /// an empty dirty set (and still serves the identical model).
    #[test]
    fn dirty_sets_conserve_the_touched_arms(
        seed in any::<u64>(),
        d in 1usize..4,
        a in 2usize..8,
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        epochs in 1usize..5,
    ) {
        let mut service = ModelService::spawn(LinUcbConfig::new(d, a), shards).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..epochs {
            let len = rng.gen_range(1usize..10);
            let updates = random_updates(d, a, len, &mut rng);
            let expected: BTreeSet<usize> =
                updates.cells.iter().map(ReleasedCell::action).collect();
            updates.ingest_into(&service);
            let (model, dirty) = service.assemble().unwrap();
            let dirty_set: BTreeSet<usize> = dirty.iter().copied().collect();
            prop_assert_eq!(dirty.len(), dirty_set.len(), "dirty union must be deduplicated");
            prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty union must be sorted");
            prop_assert_eq!(&dirty_set, &expected);

            // No ingest in between → nothing dirty, identical model served.
            let (again, none_dirty) = service.assemble().unwrap();
            prop_assert!(none_dirty.is_empty());
            check_bit_identical(&model, &again);
        }
    }
}

/// Clean arms share their per-arm storage across epoch snapshots: after an
/// epoch that dirtied only one arm, the assembled clone and its predecessor
/// hold bit-identical statistics for every untouched arm.
#[test]
fn sparse_epochs_leave_clean_arm_statistics_untouched() {
    let (d, a) = (3usize, 6usize);
    let config = LinUcbConfig::new(d, a);
    let mut service = ModelService::spawn(config, 2).unwrap();
    let mut oracle = FromScratchOracle::new(config, 2);
    let mut rng = StdRng::seed_from_u64(17);

    // Epoch 1: touch every arm so the baseline is warm.
    let warm = Traffic::new(
        (0..a)
            .map(|arm| (random_context(d, &mut rng), arm, 3, 2.0))
            .collect(),
    );
    oracle.ingest(&warm);
    warm.ingest_into(&service);
    let (before, dirty) = service.assemble().unwrap();
    assert_eq!(dirty.len(), a);

    // Epoch 2: one update into arm 2 only.
    let sparse = Traffic::new(vec![(random_context(d, &mut rng), 2, 1, 1.0)]);
    oracle.ingest(&sparse);
    sparse.ingest_into(&service);
    let (after, dirty) = service.assemble().unwrap();
    assert_eq!(dirty, vec![2]);

    for arm in 0..a {
        let action = Action::new(arm);
        if arm == 2 {
            assert_eq!(
                after.pulls(action).unwrap(),
                before.pulls(action).unwrap() + 1
            );
            continue;
        }
        assert_eq!(after.pulls(action).unwrap(), before.pulls(action).unwrap());
        for (x, y) in after
            .design(action)
            .unwrap()
            .as_slice()
            .iter()
            .zip(before.design(action).unwrap().as_slice().iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "clean arm {arm} changed bits");
        }
    }
    // And the incremental result still equals the from-scratch rebuild, on
    // the inverse refresh schedule too.
    let reference = oracle.assemble();
    check_bit_identical(&after, &reference);
    check_refresh_schedule(&reference, &after, 2, &mut rng);
}
