//! The sharded central model service: concurrent ingestion of coalesced
//! sufficient statistics and epoch-versioned model snapshots.
//!
//! The paper's analyzer folds a stream of anonymized `(y, a, r)` tuples into
//! one central LinUCB model. All it needs from them is each arm's sums
//! `A_a = λI + Σ n·x xᵀ` and `b_a = Σ s·x`; the inverse is needed only by
//! the published model. The service is built around that split:
//!
//! ```text
//!   cells of each batch ──▶ Σ per (code, action) ──▶ publish:
//!   (ShuffledBatch)         until the publish     K ≤ k·A updates
//!                                                        │ partition by
//!                                                        │ action % M
//!                       ┌─ ingest shard 0 (arms 0, M, 2M, …) ◀┤  fold sums:
//!                       ├─ ingest shard 1 (arms 1, M+1, …)   ◀┤  A += n·x xᵀ,
//!                       └─ ingest shard M−1                  ◀┘  b += s·x
//!                                │ assemble: per dirty arm a, install
//!                                │ shard (a % M)'s sums, one refresh
//!                                ▼
//!                  Arc<ModelSnapshot { epoch, model }> ──▶ warm starts
//! ```
//!
//! * **Coalescing** — every report sharing a code shares the same context
//!   vector, so the shuffler releases a histogram of `(code, action)` cells
//!   and [`crate::CentralServer`] sums an epoch's cells per pair: `N`
//!   reports over `K` distinct pairs become `K` weighted rank-1 folds at
//!   the publish instead of `N` plain ones, however many batches carried
//!   them.
//! * **Action sharding** — disjoint-arm LinUCB keeps per-arm statistics
//!   that never interact, so partitioning updates by `action % M` across
//!   the `M` workers of a [`ShardPool`] is an *exact* parallelization: no
//!   locks, no merge conflicts, and per-arm update order is preserved by the
//!   FIFO shard queues. The queues are bounded; a full one blocks only the
//!   dispatcher, and no worker waits on the dispatcher.
//! * **Sums, not models** — a shard keeps one [`ArmSums`] per arm and a
//!   fold is an `O(d²)` outer-product add: no Sherman–Morrison inverse
//!   update, θ solve or score lanes that assembly would throw away.
//! * **Epoch snapshots** — the service installs each dirty arm into one
//!   persistent model ([`LinUcb::set_arm`]: a cold arm merged with the
//!   owner's sums, one Cholesky refresh) and publishes one
//!   [`ModelSnapshot`] per *epoch* (a counter bumped on every mutating
//!   ingest) behind an `Arc`. All agents created within an epoch share one
//!   assembly.
//!
//! Determinism: each arm is owned by exactly one shard and receives its
//! updates in submission order, and the install is the arithmetic of a
//! merge of every shard model in shard order (each non-owner adds `+0.0`),
//! so the assembled model is bit-for-bit independent of thread scheduling
//! *and* of the shard count.

use crate::CoreError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use p2b_bandit::{Action, ArmSums, BanditError, CoalescedUpdate, LinUcb, LinUcbConfig};
use p2b_shuffler::{ShardPool, ShufflerError, SHARD_QUEUE_CAPACITY};
use std::fmt;
use std::sync::Arc;

/// An immutable, epoch-versioned snapshot of the central model.
///
/// Snapshots are distributed behind an [`Arc`](std::sync::Arc): every agent
/// warm-started
/// within the same epoch holds a pointer to the *same* allocation, which is
/// what replaces the per-agent model clone of the pre-service design.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    epoch: u64,
    model: LinUcb,
}

impl ModelSnapshot {
    /// Wraps an assembled model with its epoch. Snapshots are published by
    /// [`crate::CentralServer::snapshot`]. Every agent of the epoch sweeps
    /// the model, so its score mirror is brought up to date first
    /// ([`LinUcb::sync_mirror`]): a published snapshot has no stale lanes.
    ///
    /// # Errors
    ///
    /// Propagates [`LinUcb::sync_mirror`]'s error.
    pub(crate) fn new(epoch: u64, mut model: LinUcb) -> Result<Self, CoreError> {
        model.sync_mirror()?;
        Ok(Self { epoch, model })
    }

    /// The ingestion epoch this snapshot was assembled at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The assembled central model.
    #[must_use]
    pub fn model(&self) -> &LinUcb {
        &self.model
    }
}

/// A shard's reply to a snapshot request: every arm's sums (a pointer bump
/// per arm, no copy) plus the arms it has folded updates into since the
/// previous successful snapshot.
struct ShardState {
    sums: Vec<Arc<ArmSums>>,
    /// Sorted arm indices this shard mutated since the previous snapshot.
    dirty: Vec<usize>,
}

/// What one ingest shard can be asked to do.
enum ShardCommand {
    /// Fold a run of coalesced updates (all owned by this shard) into the
    /// shard's sums, in order.
    Apply(Vec<CoalescedUpdate>),
    /// Reply with the shard's sums and its dirty-arm set — or the first
    /// update error the shard ever hit, if any. A successful reply clears
    /// the shard's dirty tracking: the requester consumes the set to
    /// re-install exactly those arms.
    Snapshot(Sender<Result<ShardState, BanditError>>),
}

/// One ingest shard's worker loop. The shard owns the arms whose action
/// index is congruent to the shard index modulo the shard count and keeps
/// only their running sums ([`ArmSums`]): no inverse, no θ, no score lanes,
/// since assembly inverts each dirty arm once. It folds update runs in FIFO
/// order, remembers the first failure (an out-of-range action or a
/// mis-sized context), tracks which arms were folded since the previous
/// snapshot, and answers snapshot requests. Every arm starts as a pointer to
/// the one `cold` sums and is copied on its first fold.
fn run_shard(commands: &Receiver<ShardCommand>, cold: &Arc<ArmSums>, num_actions: usize) {
    let mut sums = vec![Arc::clone(cold); num_actions];
    let mut dirty = vec![false; num_actions];
    let mut failure: Option<BanditError> = None;
    while let Ok(command) = commands.recv() {
        match command {
            // After a failure the shard only answers snapshots, with it.
            ShardCommand::Apply(_) if failure.is_some() => {}
            ShardCommand::Apply(updates) => {
                for update in &updates {
                    let idx = update.action().index();
                    let folded = match sums.get_mut(idx) {
                        Some(arm) => Arc::make_mut(arm).fold(update),
                        None => Err(BanditError::InvalidAction {
                            action: idx,
                            num_actions,
                        }),
                    };
                    match folded {
                        Ok(()) => dirty[idx] = true,
                        Err(error) => {
                            failure = Some(error);
                            break;
                        }
                    }
                }
            }
            ShardCommand::Snapshot(reply) => {
                let response = match &failure {
                    Some(error) => Err(error.clone()),
                    None => Ok(ShardState {
                        sums: sums.clone(),
                        dirty: dirty
                            .iter()
                            .enumerate()
                            .filter_map(|(idx, &is_dirty)| is_dirty.then_some(idx))
                            .collect(),
                    }),
                };
                if failure.is_none() {
                    dirty.iter_mut().for_each(|flag| *flag = false);
                }
                // A dropped reply receiver just means the requester went
                // away; the shard keeps serving.
                let _ = reply.send(response);
            }
        }
    }
}

/// The concurrent central model service.
///
/// Owns `M ≥ 1` ingest shards; [`crate::CentralServer`] spawns
/// [`crate::P2bConfig::ingest_shards`] of them, by default one per available
/// hardware thread, capped at the number of actions, so a flush's fold runs
/// on every core. [`ModelService::ingest`] partitions a batch
/// of coalesced updates by `action % M` and dispatches each partition to
/// its shard without waiting; [`ModelService::assemble`] synchronizes with
/// every shard (the FIFO command queues guarantee all prior ingests are
/// folded) and installs the shards' per-arm sums into one [`LinUcb`].
///
/// The service is deliberately model-only: validation against the encoder
/// and the code→centroid mapping happen in [`crate::CentralServer`], which
/// also owns epoch bookkeeping and snapshot caching.
pub struct ModelService {
    shards: ShardPool<ShardCommand, ()>,
    config: LinUcbConfig,
    /// The persistent assembled central model, installed incrementally:
    /// after the first assembly installs every arm, each assembly installs
    /// only the arms some shard folded since the previous one. `None` until
    /// the first assembly, and reset to `None` if an install fails partway
    /// (the next assembly then installs every arm again).
    assembled: Option<LinUcb>,
}

impl ModelService {
    /// Spawns a service with `shards` ingest workers for models of the given
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `shards` is zero and
    /// propagates LinUCB configuration errors.
    pub fn spawn(config: LinUcbConfig, shards: usize) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "ingest_shards",
                message: "must be at least 1".to_owned(),
            });
        }
        let cold = Arc::new(ArmSums::new(&config)?);
        Ok(Self {
            shards: ShardPool::spawn(shards, SHARD_QUEUE_CAPACITY, move |_, commands| {
                run_shard(&commands, &cold, config.num_actions);
            }),
            config,
            assembled: None,
        })
    }

    /// Number of ingest shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.shards()
    }

    /// The LinUCB configuration of the served model.
    #[must_use]
    pub fn model_config(&self) -> &LinUcbConfig {
        &self.config
    }

    /// Dispatches a batch of pre-validated coalesced updates to the ingest
    /// shards, partitioned by `action % shards`. Returns without waiting for
    /// the folds to complete; [`ModelService::assemble`] synchronizes.
    ///
    /// Relative order of updates sharing an action is preserved (each arm
    /// lives on exactly one shard and the shard queue is FIFO), which is
    /// what keeps the assembled model independent of the shard count. Each
    /// call sends at most one command per shard, blocking while that shard's
    /// bounded queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shuffler`] wrapping
    /// [`ShufflerError::PipelineClosed`] if a shard worker has died.
    pub fn ingest(&self, updates: Vec<CoalescedUpdate>) -> Result<(), CoreError> {
        let shards = self.shards.shards();
        if shards == 1 {
            return self.dispatch(0, updates);
        }
        let mut partitions: Vec<Vec<CoalescedUpdate>> = vec![Vec::new(); shards];
        for update in updates {
            partitions[update.action().index() % shards].push(update);
        }
        for (shard, partition) in partitions.into_iter().enumerate() {
            self.dispatch(shard, partition)?;
        }
        Ok(())
    }

    fn dispatch(&self, shard: usize, updates: Vec<CoalescedUpdate>) -> Result<(), CoreError> {
        if updates.is_empty() {
            return Ok(());
        }
        Ok(self.shards.send(shard, ShardCommand::Apply(updates))?)
    }

    /// Requests a state snapshot from every shard and collects the replies
    /// in shard-index order. A shard that dies before replying reads as
    /// [`ShufflerError::PipelineClosed`].
    fn collect_shards(&self) -> Result<Vec<ShardState>, CoreError> {
        let mut replies = Vec::with_capacity(self.shards.shards());
        for shard in 0..self.shards.shards() {
            let (tx, rx) = unbounded();
            self.shards.send(shard, ShardCommand::Snapshot(tx))?;
            replies.push(rx);
        }
        let mut states = Vec::with_capacity(replies.len());
        for reply in replies {
            let state = reply.recv().map_err(|_| ShufflerError::PipelineClosed)?;
            states.push(state?);
        }
        Ok(states)
    }

    /// Epoch assembly: synchronizes with every ingest shard (the FIFO
    /// command queues guarantee all prior ingests are folded), installs each
    /// dirty arm into the persistent assembled model from its owning
    /// shard's sums, and returns the model together with the sorted
    /// dirty-arm union.
    ///
    /// Arm `a` is folded only by shard `a % M`, so [`LinUcb::set_arm`] from
    /// that shard's [`ArmSums`] — a cold arm merged with the sums, one
    /// Cholesky refresh — is bit-identical to the arm under a from-scratch
    /// merge of every shard in shard order: each other shard would add
    /// exactly `+0.0` (the `assembly_equivalence` suite rebuilds that oracle
    /// from public API). The first call, and the call after a failed one,
    /// install every arm, which also fixes never-updated arms' bit patterns
    /// to the post-merge refresh; later calls install only the dirty union,
    /// so the assembly cost scales with the number of *dirty* arms, not the
    /// number of arms. Publication piggybacks on this: `LinUcb` stores its
    /// arms behind per-arm `Arc`s, so the returned clone shares every clean
    /// arm's storage with the previous epoch's snapshot.
    ///
    /// An arm appears in the dirty union iff some shard folded an update
    /// into it since the previous assembly (the conservation property pinned
    /// by the `assembly_equivalence` suite).
    ///
    /// # Errors
    ///
    /// Surfaces the first internal update error any shard encountered, or a
    /// shard shutdown. Both indicate a bug rather than bad input: every
    /// update is validated before dispatch. If an install fails partway, the
    /// persistent model is discarded so the next assembly installs every arm
    /// again instead of serving a half-installed state.
    pub fn assemble(&mut self) -> Result<(LinUcb, Vec<usize>), CoreError> {
        let states = self.collect_shards()?;
        let mut dirty: Vec<usize> = states
            .iter()
            .flat_map(|state| state.dirty.iter().copied())
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        // `take` leaves `self.assembled` at `None` until every install
        // succeeds, so after a failure the next call installs every arm.
        let (mut assembled, install) = match self.assembled.take() {
            Some(assembled) => (assembled, dirty.clone()),
            None => (
                LinUcb::new(self.config)?,
                (0..self.config.num_actions).collect(),
            ),
        };
        for arm in install {
            let owner = &states[arm % states.len()];
            assembled.set_arm(Action::new(arm), &owner.sums[arm])?;
        }
        let model = assembled.clone();
        self.assembled = Some(assembled);
        Ok((model, dirty))
    }
}

impl fmt::Debug for ModelService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelService")
            .field("shards", &self.shards.shards())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_bandit::{Action, ContextualPolicy};
    use p2b_linalg::Vector;

    fn update(action: usize, count: u64, reward_sum: f64) -> CoalescedUpdate {
        CoalescedUpdate::new(
            Vector::from(vec![0.25, 0.75]),
            Action::new(action),
            count,
            reward_sum,
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(ModelService::spawn(LinUcbConfig::new(2, 3), 0).is_err());
    }

    #[test]
    fn empty_service_assembles_a_cold_model() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 3), 2).unwrap();
        assert_eq!(service.shards(), 2);
        let (model, _) = service.assemble().unwrap();
        assert_eq!(model.observations(), 0);
        assert_eq!(model.config().context_dimension, 2);
    }

    #[test]
    fn assembly_is_identical_across_shard_counts() {
        let updates = vec![
            update(0, 5, 4.0),
            update(1, 3, 0.0),
            update(2, 7, 7.0),
            update(0, 2, 1.0),
            update(3, 1, 1.0),
        ];
        let mut assembled = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut service = ModelService::spawn(LinUcbConfig::new(2, 4), shards).unwrap();
            service.ingest(updates.clone()).unwrap();
            assembled.push(service.assemble().unwrap().0);
        }
        for model in &assembled[1..] {
            for action in 0..4 {
                let action = Action::new(action);
                assert_eq!(
                    model.design(action).unwrap(),
                    assembled[0].design(action).unwrap(),
                    "assembled design must not depend on the shard count"
                );
                assert_eq!(
                    model.reward_vector(action).unwrap(),
                    assembled[0].reward_vector(action).unwrap()
                );
                assert_eq!(
                    model.pulls(action).unwrap(),
                    assembled[0].pulls(action).unwrap()
                );
            }
            assert_eq!(model.observations(), assembled[0].observations());
        }
        assert_eq!(assembled[0].observations(), 18);
    }

    #[test]
    fn per_action_update_order_is_preserved_across_ingests() {
        // Two ingests hitting the same arm: the folded design is the ordered
        // sum either way, but pulls/observations must accumulate exactly.
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 2), 2).unwrap();
        service.ingest(vec![update(0, 4, 2.0)]).unwrap();
        service
            .ingest(vec![update(0, 6, 3.0), update(1, 2, 2.0)])
            .unwrap();
        let (model, _) = service.assemble().unwrap();
        assert_eq!(model.pulls(Action::new(0)).unwrap(), 10);
        assert_eq!(model.pulls(Action::new(1)).unwrap(), 2);
        assert_eq!(model.observations(), 12);
    }

    #[test]
    fn internal_shard_failures_surface_on_assemble() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 2), 1).unwrap();
        // A mis-dimensioned context slips past the (bypassed) validation.
        let bad = CoalescedUpdate::new(Vector::zeros(5), Action::new(0), 1, 0.0).unwrap();
        service.ingest(vec![bad]).unwrap();
        assert!(matches!(service.assemble(), Err(CoreError::Bandit(_))));
    }

    #[test]
    fn a_dead_shard_surfaces_as_pipeline_closed() {
        let config = LinUcbConfig::new(2, 2);
        let cold = Arc::new(ArmSums::new(&config).unwrap());
        let (exited, shard_exited) = unbounded();
        // Shard 1 exits at once, dropping its queue; shard 0 serves normally.
        let mut service = ModelService {
            shards: ShardPool::spawn(2, 1, move |shard, commands| {
                if shard == 0 {
                    run_shard(&commands, &cold, config.num_actions);
                } else {
                    drop(commands);
                    let _ = exited.send(());
                }
            }),
            config,
            assembled: None,
        };
        shard_exited.recv().unwrap();
        service.ingest(vec![update(0, 1, 1.0)]).unwrap();
        assert!(matches!(
            service.ingest(vec![update(1, 1, 1.0)]),
            Err(CoreError::Shuffler(ShufflerError::PipelineClosed))
        ));
        assert!(matches!(
            service.assemble(),
            Err(CoreError::Shuffler(ShufflerError::PipelineClosed))
        ));
    }
}
