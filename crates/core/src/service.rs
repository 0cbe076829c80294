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
//!   `M` worker threads is an *exact* parallelization: no locks, no
//!   merge conflicts, and per-arm update order is preserved by the FIFO
//!   shard queues.
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
use p2b_bandit::{
    Action, BanditError, CoalescedUpdate, F32Scorer, IngestScratch, LinUcb, LinUcbConfig,
};
use std::fmt;
use std::sync::OnceLock;
use std::thread::JoinHandle;

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
    /// Lazily derived single-precision scoring tier, built at most once per
    /// snapshot the first time a caller asks for it. Agents' default select
    /// path stays on the f64 model — the determinism goldens pin that path —
    /// so the derivation cost is only paid by callers that opt in.
    f32_scorer: OnceLock<F32Scorer>,
}

impl ModelSnapshot {
    /// Wraps an assembled model with its epoch. Snapshots are published by
    /// [`crate::CentralServer::snapshot`].
    pub(crate) fn new(epoch: u64, model: LinUcb) -> Self {
        Self {
            epoch,
            model,
            f32_scorer: OnceLock::new(),
        }
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

    /// The snapshot's single-precision scoring tier, derived from the f64
    /// model on first use and shared by every subsequent caller.
    ///
    /// The snapshot is immutable, so the derived scorer can never go stale;
    /// the f64 [`ModelSnapshot::model`] remains the source of truth and the
    /// path the reproduction's determinism goldens exercise.
    #[must_use]
    pub fn f32_scorer(&self) -> &F32Scorer {
        self.f32_scorer.get_or_init(|| F32Scorer::new(&self.model))
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

/// One ingest shard: a worker thread owning the LinUCB arms whose action
/// index is congruent to the shard index modulo the shard count.
struct IngestShard {
    commands: Sender<ShardCommand>,
    worker: Option<JoinHandle<()>>,
}

/// The worker loop: apply update runs in FIFO order through the fast
/// scratch-threaded batch path (arena synced once per touched arm per
/// batch), remember the first internal failure, track which arms were
/// folded since the previous snapshot, answer snapshot requests.
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
/// Owns `M ≥ 1` ingest shards. [`ModelService::ingest`] partitions a batch
/// of coalesced updates by `action % M` and dispatches each partition to
/// its shard without waiting; [`ModelService::assemble`] synchronizes with
/// every shard (the FIFO command queues guarantee all prior ingests are
/// folded) and merges the shard models into one [`LinUcb`].
///
/// The service is deliberately model-only: validation against the encoder
/// and the code representation happens in [`crate::CentralServer`], which
/// also owns epoch bookkeeping and snapshot caching.
pub struct ModelService {
    shards: Vec<IngestShard>,
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
        let mut workers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let model = LinUcb::new(config)?;
            let (tx, rx) = unbounded::<ShardCommand>();
            let worker = std::thread::spawn(move || run_shard(&rx, model));
            workers.push(IngestShard {
                commands: tx,
                worker: Some(worker),
            });
        }
        Ok(Self {
            shards: workers,
            config,
            assembled: None,
        })
    }

    /// Number of ingest shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
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
    /// what keeps the assembled model independent of the shard count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a shard worker has shut down,
    /// which cannot happen while the service is alive.
    pub fn ingest(&self, updates: Vec<CoalescedUpdate>) -> Result<(), CoreError> {
        let shards = self.shards.len();
        if shards == 1 {
            return self.dispatch(0, updates);
        }
        let mut partitions: Vec<Vec<CoalescedUpdate>> = vec![Vec::new(); shards];
        for update in updates {
            partitions[update.action().index() % shards].push(update);
        }
        for (shard, partition) in partitions.into_iter().enumerate() {
            if !partition.is_empty() {
                self.dispatch(shard, partition)?;
            }
        }
        Ok(())
    }

    fn dispatch(&self, shard: usize, updates: Vec<CoalescedUpdate>) -> Result<(), CoreError> {
        if updates.is_empty() {
            return Ok(());
        }
        self.shards[shard]
            .commands
            .send(ShardCommand::Apply(updates))
            .map_err(|_| CoreError::InvalidConfig {
                parameter: "model_service",
                message: "ingest shard worker has shut down".to_owned(),
            })
    }

    /// Requests a state snapshot from every shard and collects the replies
    /// in shard-index order.
    fn collect_shards(&self) -> Result<Vec<ShardState>, CoreError> {
        let mut replies = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = unbounded();
            shard
                .commands
                .send(ShardCommand::Snapshot(tx))
                .map_err(|_| CoreError::InvalidConfig {
                    parameter: "model_service",
                    message: "ingest shard worker has shut down".to_owned(),
                })?;
            replies.push(rx);
        }
        let mut states = Vec::with_capacity(replies.len());
        for reply in replies {
            let state = reply
                .recv()
                .map_err(|_| CoreError::InvalidConfig {
                    parameter: "model_service",
                    message: "ingest shard worker has shut down".to_owned(),
                })?
                .map_err(CoreError::Bandit)?;
            states.push(state);
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
        match self.assembled.take() {
            None => {
                let mut assembled = LinUcb::new(self.config)?;
                for state in &states {
                    assembled.merge(&state.model)?;
                }
                self.assembled = Some(assembled);
            }
            Some(mut assembled) => {
                let mut remerge = || -> Result<(), CoreError> {
                    for &arm in &dirty {
                        let action = Action::new(arm);
                        assembled.reset_arm(action)?;
                        for state in &states {
                            assembled.merge_arm(action, &state.model)?;
                        }
                    }
                    Ok(())
                };
                // On failure `self.assembled` stays `None`: the next call
                // rebuilds from scratch rather than reusing partial state.
                remerge()?;
                self.assembled = Some(assembled);
            }
        }
        let model = self
            .assembled
            .as_ref()
            .ok_or_else(|| CoreError::InvalidConfig {
                parameter: "model_service",
                message: "assembled model missing after assembly".to_owned(),
            })?
            .clone();
        Ok((model, dirty))
    }
}

impl fmt::Debug for ModelService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelService")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Drop for ModelService {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Dropping the sender disconnects the worker's receive loop.
            let (closed, _) = unbounded();
            shard.commands = closed;
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
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
    fn snapshot_f32_scorer_is_built_once_and_agrees_with_the_model() {
        use p2b_bandit::{SelectScratch, SelectScratchF32};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut service = ModelService::spawn(LinUcbConfig::new(2, 4), 2).unwrap();
        service
            .ingest(vec![
                update(0, 5, 4.0),
                update(2, 7, 7.0),
                update(3, 1, 1.0),
            ])
            .unwrap();
        let snapshot = ModelSnapshot::new(1, service.assemble().unwrap().0);

        // Lazy + memoized: both calls hand back the same derived scorer.
        let first = snapshot.f32_scorer() as *const _;
        let second = snapshot.f32_scorer() as *const _;
        assert_eq!(first, second, "scorer must be derived at most once");

        // The derived tier serves the same actions as the f64 model here.
        let mut rng64 = StdRng::seed_from_u64(11);
        let mut rng32 = rng64.clone();
        let mut scratch64 = SelectScratch::new();
        let mut scratch32 = SelectScratchF32::new();
        for step in 0..64u64 {
            let ctx = Vector::from(vec![
                0.25 + (step % 5) as f64 * 0.1,
                0.75 - (step % 5) as f64 * 0.1,
            ]);
            let a64 = snapshot
                .model()
                .select_action_with(&ctx, &mut rng64, &mut scratch64)
                .unwrap();
            let a32 = snapshot
                .f32_scorer()
                .select_action_with(&ctx, &mut rng32, &mut scratch32)
                .unwrap();
            assert_eq!(a64, a32, "f32 tier diverged at step {step}");
        }

        // Cloned snapshots re-derive their own scorer lazily and still agree.
        let clone = snapshot.clone();
        assert_eq!(clone.epoch(), snapshot.epoch());
        let mut rng = StdRng::seed_from_u64(3);
        let mut rng_clone = rng.clone();
        let ctx = Vector::from(vec![0.5, 0.5]);
        assert_eq!(
            snapshot
                .f32_scorer()
                .select_action_with(&ctx, &mut rng, &mut scratch32)
                .unwrap(),
            clone
                .f32_scorer()
                .select_action_with(&ctx, &mut rng_clone, &mut scratch32)
                .unwrap()
        );
    }

    #[test]
    fn internal_shard_failures_surface_on_assemble() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 2), 1).unwrap();
        // A mis-dimensioned context slips past the (bypassed) validation.
        let bad = CoalescedUpdate::new(Vector::zeros(5), Action::new(0), 1, 0.0).unwrap();
        service.ingest(vec![bad]).unwrap();
        assert!(matches!(service.assemble(), Err(CoreError::Bandit(_))));
    }
}
