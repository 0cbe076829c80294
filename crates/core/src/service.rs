//! The sharded central model service: concurrent ingestion of coalesced
//! sufficient statistics and epoch-versioned model snapshots.
//!
//! The paper's analyzer folds a stream of anonymized `(y, a, r)` tuples into
//! one central LinUCB model. At serving scale that fold is the bottleneck:
//! each report costs an `O(d²)` Sherman–Morrison update, and every agent
//! warm start used to rebuild a full copy of the model. The service fixes
//! both ends:
//!
//! ```text
//!   ShuffledBatch ──▶ coalesce by (code, action) ──▶ K ≤ N updates
//!                                                        │ partition by
//!                                                        │ action % M
//!                       ┌─ ingest shard 0 (arms 0, M, 2M, …) ◀┤
//!                       ├─ ingest shard 1 (arms 1, M+1, …)   ◀┤
//!                       └─ ingest shard M−1                  ◀┘
//!                                │ assemble (merge in shard order)
//!                                ▼
//!                  Arc<ModelSnapshot { epoch, model }> ──▶ warm starts
//! ```
//!
//! * **Coalescing** — every report sharing a code shares the same context
//!   vector, so a batch of `N` reports over `K` distinct `(code, action)`
//!   pairs becomes `K` weighted rank-1 updates
//!   ([`p2b_bandit::LinUcb::update_batch_with`]) instead of `N` plain ones.
//! * **Action sharding** — disjoint-arm LinUCB keeps per-arm statistics
//!   that never interact, so partitioning updates by `action % M` across
//!   the `M` workers of a [`ShardPool`] is an *exact* parallelization: no
//!   locks, no merge conflicts, and per-arm update order is preserved by the
//!   FIFO shard queues. The queues are bounded; a full one blocks only the
//!   dispatcher, and no worker waits on the dispatcher.
//! * **Epoch snapshots** — the service assembles the shard models into one
//!   [`ModelSnapshot`] per *epoch* (a counter bumped on every mutating
//!   ingest) and hands it out behind an `Arc`. All agents created within an
//!   epoch share one assembly — the per-agent merge of the old design is
//!   gone.
//!
//! Determinism: each arm is owned by exactly one shard and receives its
//! updates in submission order, and [`ModelService::assemble`] merges shard
//! models in shard-index order — so the assembled model is bit-for-bit
//! independent of thread scheduling *and* of the shard count.

use crate::CoreError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use p2b_bandit::{Action, BanditError, CoalescedUpdate, IngestScratch, LinUcb, LinUcbConfig};
use p2b_shuffler::{ShardPool, ShufflerError, SHARD_QUEUE_CAPACITY};
use std::fmt;

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

/// A shard's reply to a snapshot request: its model plus the arms it has
/// folded updates into since the previous successful snapshot.
struct ShardState {
    model: LinUcb,
    /// Sorted arm indices this shard mutated since the previous snapshot.
    dirty: Vec<usize>,
}

/// What one ingest shard can be asked to do.
enum ShardCommand {
    /// Fold a run of coalesced updates (all owned by this shard) into the
    /// shard model, in order.
    Apply(Vec<CoalescedUpdate>),
    /// Reply with a clone of the shard model and its dirty-arm set — or the
    /// first update error the shard ever hit, if any. A successful reply
    /// clears the shard's dirty tracking: the requester consumes the set to
    /// re-merge exactly those arms.
    Snapshot(Sender<Result<ShardState, BanditError>>),
}

/// One ingest shard's worker loop. The shard owns the LinUCB arms whose
/// action index is congruent to the shard index modulo the shard count. It
/// applies update runs in FIFO order through the fast scratch-threaded batch
/// path (each touched arm synced once per batch), remembers the first
/// internal failure, tracks which arms were folded since the previous
/// snapshot, and answers snapshot requests.
fn run_shard(commands: &Receiver<ShardCommand>, mut model: LinUcb) {
    let num_actions = model.config().num_actions;
    let mut scratch = IngestScratch::new();
    let mut dirty = vec![false; num_actions];
    let mut failure: Option<BanditError> = None;
    while let Ok(command) = commands.recv() {
        match command {
            ShardCommand::Apply(updates) => {
                if failure.is_none() {
                    // Arms folded before a mid-batch failure are still
                    // mutated (and re-synced), so their touch marks must be
                    // kept either way.
                    let result = model.update_batch_with(&updates, &mut scratch);
                    for &idx in scratch.touched() {
                        dirty[idx] = true;
                    }
                    if let Err(error) = result {
                        failure = Some(error);
                    }
                }
            }
            ShardCommand::Snapshot(reply) => {
                let response = match &failure {
                    Some(error) => Err(error.clone()),
                    None => Ok(ShardState {
                        model: model.clone(),
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
/// folded) and merges the shard models into one [`LinUcb`].
///
/// The service is deliberately model-only: validation against the encoder
/// and the code representation happens in [`crate::CentralServer`], which
/// also owns epoch bookkeeping and snapshot caching.
pub struct ModelService {
    shards: ShardPool<ShardCommand, ()>,
    config: LinUcbConfig,
    /// The persistent assembled central model, re-merged incrementally:
    /// after the first full rebuild, each assembly resets and re-merges only
    /// the arms some shard folded since the previous assembly. `None` until
    /// the first assembly, and reset to `None` if an incremental re-merge
    /// fails partway (the next assembly then falls back to a full rebuild).
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
        let model = LinUcb::new(config)?;
        Ok(Self {
            shards: ShardPool::spawn(shards, SHARD_QUEUE_CAPACITY, move |_, commands| {
                run_shard(&commands, model);
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
    /// command queues guarantee all prior ingests are folded), re-merges only
    /// the dirty arms into the persistent assembled model, and returns the
    /// model together with the sorted dirty-arm union.
    ///
    /// The first call performs a full from-scratch rebuild (`LinUcb::new` +
    /// per-shard [`LinUcb::merge`] in shard-index order) — exactly the
    /// historical assembly arithmetic, which also fixes never-updated arms'
    /// bit patterns to the post-merge Cholesky refresh. Every subsequent
    /// call resets each dirty arm to cold and re-merges that arm from every
    /// shard in shard order ([`LinUcb::reset_arm`] + [`LinUcb::merge_arm`]),
    /// which runs the identical per-arm arithmetic the full rebuild would —
    /// so the assembled model is bit-identical to a from-scratch rebuild at
    /// every epoch (the `assembly_equivalence` suite rebuilds that oracle
    /// from public API), while the assembly cost scales with the number of
    /// *dirty* arms, not the number of arms. Publication piggybacks on this:
    /// `LinUcb` stores its arms behind per-arm `Arc`s, so the returned clone
    /// shares every clean arm's storage with the previous epoch's snapshot.
    ///
    /// An arm appears in the dirty union iff some shard folded an update
    /// into it since the previous assembly (the conservation property pinned
    /// by the `assembly_equivalence` suite).
    ///
    /// # Errors
    ///
    /// Surfaces the first internal update error any shard encountered, or a
    /// shard shutdown. Both indicate a bug rather than bad input: every
    /// update is validated before dispatch. If an incremental re-merge fails
    /// partway, the persistent model is discarded so the next assembly falls
    /// back to a full rebuild instead of serving a half-merged state.
    pub fn assemble(&mut self) -> Result<(LinUcb, Vec<usize>), CoreError> {
        let states = self.collect_shards()?;
        let mut dirty: Vec<usize> = states
            .iter()
            .flat_map(|state| state.dirty.iter().copied())
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        // `take` leaves `self.assembled` at `None` until the merge succeeds,
        // so after a failure the next call rebuilds from scratch rather than
        // reusing partial state.
        let assembled = match self.assembled.take() {
            None => {
                let mut assembled = LinUcb::new(self.config)?;
                for state in &states {
                    assembled.merge(&state.model)?;
                }
                assembled
            }
            Some(mut assembled) => {
                for &arm in &dirty {
                    let action = Action::new(arm);
                    assembled.reset_arm(action)?;
                    for state in &states {
                        assembled.merge_arm(action, &state.model)?;
                    }
                }
                assembled
            }
        };
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
        assert_eq!(model.context_dimension(), 2);
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
        let model = LinUcb::new(config).unwrap();
        let (exited, shard_exited) = unbounded();
        // Shard 1 exits at once, dropping its queue; shard 0 serves normally.
        let mut service = ModelService {
            shards: ShardPool::spawn(2, 1, move |shard, commands| {
                if shard == 0 {
                    run_shard(&commands, model);
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
