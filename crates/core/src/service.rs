//! The sharded central model service: concurrent ingestion of released
//! cells and epoch-versioned model snapshots.
//!
//! The paper's analyzer folds a stream of anonymized `(y, a, r)` tuples into
//! one central LinUCB model. All it needs from them is each arm's sums
//! `A_a = λI + Σ n·x xᵀ` and `b_a = Σ s·x`; the inverse is needed only by
//! the published model. The service is built around that split, and every
//! per-arm step runs on the shard that owns the arm:
//!
//! ```text
//!   cells of each batch ──▶ pair-sorted epoch run ──▶ publish: the run's
//!   (ShuffledBatch)         (one linear merge per     action % M shares,
//!                            batch, in CentralServer)  each + Arc<Centroids>
//!                                                             │
//!                       ┌─ ingest shard 0 (arms 0, M, 2M, …) ◀┤  fold, x = row(code):
//!                       ├─ ingest shard 1 (arms 1, M+1, …)   ◀┤  A += n·x xᵀ,
//!                       └─ ingest shard M−1                  ◀┘  b += s·x
//!                                │ snapshot request: each shard builds
//!                                │ its dirty arms (merge, one refresh,
//!                                │ θ solve) and sends each as it is built
//!                                ▼
//!                built arms, streamed ──▶ assemble: install each, shard by
//!                                         shard, and stamp it
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
//! * **One centroid table** — a cell carries its code, not its context:
//!   the encoder's `k` representatives are read once into an immutable
//!   [`Centroids`] table, checked finite row by row, and every shard reads
//!   `x` off the one table it shares behind an `Arc`.
//! * **Action sharding** — disjoint-arm LinUCB keeps per-arm statistics
//!   that never interact, so partitioning cells by `action % M` across
//!   the `M` workers of a [`ShardPool`] is an *exact* parallelization: no
//!   locks, no merge conflicts, and per-arm fold order is preserved by the
//!   FIFO shard queues. The queues are bounded; a full one blocks only the
//!   dispatcher, and no worker waits on the dispatcher.
//! * **Sums, not models** — a shard keeps one [`ArmSums`] per owned arm and
//!   a fold is an `O(d²)` outer-product add: no Sherman–Morrison inverse
//!   update or θ solve per fold.
//! * **Install on the shard** — at a snapshot request each shard builds
//!   the arms it folded into since the previous one ([`BuiltArm::new`]: a
//!   cold arm merged with the sums, one Cholesky refresh, the θ solve), so
//!   the `O(d³)` work of an epoch runs on every core; the service only
//!   installs the built arms, shard by shard as they arrive, into one
//!   persistent model ([`LinUcb::install_arm`]: a copy and a stamp) and
//!   publishes one [`ModelSnapshot`] per *epoch* (a counter bumped on every
//!   mutating ingest) behind an `Arc`. All agents created within an epoch
//!   share one assembly.
//! * **Each heap frees its own** — the cell runs, the reply queues and the
//!   installed arms are allocated and freed by the service's thread, and a
//!   built arm, allocated by its shard, is freed only once every shard is
//!   idle. So what the service leaves on its heap and on a shard's does
//!   not depend on how the threads interleave.
//!
//! Determinism: each arm is owned by exactly one shard and receives its
//! cells in submission order, and the build is the arithmetic of
//! [`LinUcb::set_arm`], itself that of a merge of every shard model in
//! shard order (each non-owner adds `+0.0`), so the assembled model is
//! bit-for-bit independent of thread scheduling *and* of the shard count.

use crate::shard_pool::{ShardPool, SHARD_QUEUE_CAPACITY};
use crate::CoreError;
use crossbeam::channel::{bounded, Receiver, Sender};
use p2b_bandit::{Action, ArmSums, BanditError, BuiltArm, LinUcb, LinUcbConfig};
use p2b_encoding::{ContextCode, Encoder};
use p2b_linalg::Vector;
use p2b_shuffler::{ReleasedCell, ShufflerError};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// The context vector of every code: an encoder's `k` representatives, read
/// once, checked once, then shared read-only behind an `Arc` by every
/// ingest shard. A released cell names its code; a shard folds the cell as
/// `row(code)`.
///
/// Every row has the same dimension and only finite coordinates: a NaN
/// folded into an arm would poison its design for good, so a table that
/// holds one is never built.
#[derive(Debug, Clone, PartialEq)]
pub struct Centroids {
    rows: Vec<Vector>,
}

impl Centroids {
    /// A table with row `c` the context of code `c`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for rows of unequal dimension
    /// and [`CoreError::NonFiniteCentroid`] naming the first row with a NaN
    /// or infinite coordinate.
    pub fn new(rows: Vec<Vector>) -> Result<Self, CoreError> {
        for (code, row) in rows.iter().enumerate() {
            if row.len() != rows[0].len() {
                return Err(CoreError::InvalidConfig {
                    parameter: "centroids",
                    message: format!(
                        "code {code} has dimension {}, code 0 {}",
                        row.len(),
                        rows[0].len()
                    ),
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(CoreError::NonFiniteCentroid { code });
            }
        }
        Ok(Self { rows })
    }

    /// The table of `encoder`'s representatives, codes `0..k`.
    ///
    /// # Errors
    ///
    /// Propagates the encoder's error for a code it cannot represent and
    /// [`Centroids::new`]'s checks.
    pub fn from_encoder(encoder: &dyn Encoder) -> Result<Self, CoreError> {
        let rows = (0..encoder.num_codes())
            .map(|code| encoder.representative(ContextCode::new(code)))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(rows)
    }

    /// Number of codes `k`.
    #[must_use]
    pub fn codes(&self) -> usize {
        self.rows.len()
    }

    /// The context dimension `d` of every row (0 for an empty table).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.rows.first().map_or(0, Vector::len)
    }

    /// The context of `code`, or `None` past the table.
    #[must_use]
    pub fn row(&self, code: usize) -> Option<&Vector> {
        self.rows.get(code)
    }
}

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
    /// [`crate::CentralServer::snapshot`].
    pub(crate) fn new(epoch: u64, model: LinUcb) -> Self {
        Self { epoch, model }
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

/// One message of a shard's reply to a snapshot request: each arm as soon
/// as it is built, then the arms the shard folded cells into since the
/// previous successful snapshot (or its failure), which ends the reply.
enum Reply {
    Built(usize, BuiltArm),
    Done(Result<Vec<usize>, BanditError>),
}

/// What one ingest shard can be asked to do.
enum ShardCommand {
    /// Fold a run of cells (all on arms this shard owns) into the shard's
    /// sums, in order, each as its code's row of `centroids`. The service
    /// keeps its own handle on the run until the next assembly, so the run
    /// is freed by the thread that allocated it.
    Fold {
        cells: Arc<Vec<ReleasedCell>>,
        centroids: Arc<Centroids>,
    },
    /// Build the dirty arms — every owned arm when `install_all` — sending
    /// each as it is built, then the dirty set; or the first fold error the
    /// shard ever hit, or the build's error. A successful reply clears the
    /// shard's dirty tracking.
    Snapshot {
        install_all: bool,
        reply: Sender<Reply>,
    },
}

/// One ingest shard's worker loop. Shard `shard` of `shards` owns the arms
/// `shard, shard + shards, …` and keeps only their running sums
/// ([`ArmSums`]) between snapshots. It folds cell runs in FIFO order,
/// remembers the first fold failure (a cell on an arm it does not own, a
/// code past the table, a mis-sized row), tracks which arms were folded
/// since the previous snapshot, and answers snapshot requests with those
/// arms built.
fn run_shard(
    commands: &Receiver<ShardCommand>,
    shard: usize,
    shards: usize,
    config: &LinUcbConfig,
    cold: &ArmSums,
) {
    let owned = owned_arms(config.num_actions, shard, shards);
    let mut sums = vec![cold.clone(); owned];
    let mut dirty = vec![false; owned];
    let mut failure: Option<BanditError> = None;
    while let Ok(command) = commands.recv() {
        match command {
            // After a failure the shard only answers snapshots, with it.
            ShardCommand::Fold { .. } if failure.is_some() => {}
            ShardCommand::Fold { cells, centroids } => {
                for cell in cells.iter() {
                    let local = cell.action() / shards;
                    let folded = match (sums.get_mut(local), centroids.row(cell.code())) {
                        (Some(arm), Some(context)) if cell.action() % shards == shard => {
                            arm.fold(context, cell.count(), cell.reward_sum())
                        }
                        // Unreachable through `ModelService::ingest`, which
                        // validates every cell before dispatch.
                        _ => Err(BanditError::InvalidAction {
                            action: cell.action(),
                            num_actions: config.num_actions,
                        }),
                    };
                    match folded {
                        Ok(()) => dirty[local] = true,
                        Err(error) => {
                            failure = Some(error);
                            break;
                        }
                    }
                }
            }
            ShardCommand::Snapshot { install_all, reply } => {
                let arm = |local: usize| shard + local * shards;
                let built = match &failure {
                    Some(error) => Err(error.clone()),
                    None => (0..owned)
                        .filter(|&local| install_all || dirty[local])
                        .try_for_each(|local| {
                            let built = BuiltArm::new(config, &sums[local])?;
                            // A dropped reply receiver just means the
                            // requester went away; the shard keeps serving.
                            let _ = reply.send(Reply::Built(arm(local), built));
                            Ok(())
                        }),
                };
                let done = built.map(|()| {
                    let folded = (0..owned).filter(|&local| dirty[local]).map(arm).collect();
                    dirty.fill(false);
                    folded
                });
                let _ = reply.send(Reply::Done(done));
            }
        }
    }
}

/// Number of the `num_actions` arms that shard `shard` of `shards` owns:
/// the arms `shard, shard + shards, …`.
fn owned_arms(num_actions: usize, shard: usize, shards: usize) -> usize {
    num_actions.saturating_sub(shard).div_ceil(shards)
}

/// The concurrent central model service.
///
/// Owns `M ≥ 1` ingest shards; [`crate::CentralServer`] spawns
/// [`crate::P2bConfig::ingest_shards`] of them, by default one per available
/// hardware thread, capped at the number of actions, so a flush's folds and
/// builds run on every core. [`ModelService::ingest`] validates a run of
/// released cells, splits it by `action % M` and dispatches each share to
/// its shard without waiting; [`ModelService::assemble`] synchronizes with
/// every shard (the FIFO command queues guarantee all prior ingests are
/// folded), and installs the arms the shards build into one [`LinUcb`].
///
/// The service is deliberately model-only: validation against the
/// configured ranges and the epoch's cell run live in
/// [`crate::CentralServer`], which also owns epoch bookkeeping and snapshot
/// caching.
pub struct ModelService {
    shards: ShardPool<ShardCommand, ()>,
    config: LinUcbConfig,
    /// The persistent assembled central model, installed incrementally:
    /// after the first assembly installs every arm, each assembly installs
    /// only the arms some shard folded since the previous one. `None` until
    /// the first assembly, and reset to `None` if an assembly fails (the
    /// next one then installs every arm again).
    assembled: Option<LinUcb>,
    /// The cell runs dispatched since the last assembly, each shared with
    /// the shard folding it. The assembly drops them once every shard has
    /// folded its runs, so this thread frees every run it allocated.
    dispatched: Mutex<Vec<Arc<Vec<ReleasedCell>>>>,
    /// Arms installed into the assembled model, over the service's lifetime.
    #[cfg(test)]
    pub(crate) installs: u64,
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
        let cold = ArmSums::new(&config)?;
        Ok(Self {
            shards: ShardPool::spawn(shards, SHARD_QUEUE_CAPACITY, move |shard, commands| {
                run_shard(&commands, shard, shards, &config, &cold);
            }),
            config,
            assembled: None,
            dispatched: Mutex::default(),
            #[cfg(test)]
            installs: 0,
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

    /// Dispatches a run of released cells to the ingest shards: each shard
    /// receives its `action % shards` share, in run order, with a pointer
    /// to `centroids`, from which it reads each cell's context as the row
    /// of its code. Returns without waiting for the folds to complete;
    /// [`ModelService::assemble`] synchronizes.
    ///
    /// Relative order of cells sharing an action is preserved (each arm
    /// lives on exactly one shard and the shard queue is FIFO), which is
    /// what keeps the assembled model independent of the shard count. Each
    /// call sends at most one command per shard, blocking while that shard's
    /// bounded queue is full.
    ///
    /// # Errors
    ///
    /// Returns, before anything is dispatched, [`CoreError::EncoderMismatch`]
    /// when the table's rows are not the model's dimension and
    /// [`CoreError::InvalidConfig`] for a cell on an action past the model or
    /// a code past the table; and
    /// [`CoreError::Shuffler`] wrapping [`ShufflerError::PipelineClosed`] if
    /// a shard worker has died.
    pub fn ingest(
        &self,
        cells: &[ReleasedCell],
        centroids: &Arc<Centroids>,
    ) -> Result<(), CoreError> {
        if centroids.dimension() != self.config.context_dimension {
            return Err(CoreError::EncoderMismatch {
                expected: self.config.context_dimension,
                found: centroids.dimension(),
            });
        }
        let shards = self.shards.shards();
        let mut shares = vec![Vec::new(); shards];
        for cell in cells {
            if cell.action() >= self.config.num_actions || cell.code() >= centroids.codes() {
                return Err(CoreError::InvalidConfig {
                    parameter: "cells",
                    message: format!(
                        "cell ({}, {}) is past the model's {} arms or the table's {} codes",
                        cell.code(),
                        cell.action(),
                        self.config.num_actions,
                        centroids.codes()
                    ),
                });
            }
            shares[cell.action() % shards].push(*cell);
        }
        let mut dispatched = self
            .dispatched
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (shard, cells) in shares.into_iter().enumerate() {
            if !cells.is_empty() {
                let cells = Arc::new(cells);
                dispatched.push(Arc::clone(&cells));
                let centroids = Arc::clone(centroids);
                self.shards
                    .send(shard, ShardCommand::Fold { cells, centroids })?;
            }
        }
        Ok(())
    }

    /// Epoch assembly: synchronizes with every ingest shard (the FIFO
    /// command queues guarantee all prior ingests are folded), installs the
    /// arms the shards build into the persistent assembled model, and
    /// returns the model together with the sorted dirty-arm union.
    ///
    /// Arm `a` is folded only by shard `a % M`, which builds it with
    /// [`BuiltArm::new`] — the arithmetic of [`LinUcb::set_arm`] from its
    /// sums: a cold arm merged with the sums, one Cholesky refresh — so the
    /// arm is bit-identical to the arm under a from-scratch merge of every
    /// shard in shard order: each other shard would add exactly `+0.0` (the
    /// `assembly_equivalence` suite rebuilds that oracle from public API).
    /// The first call, and the call after a failed one, ask every shard to
    /// build every arm it owns, which also fixes never-updated arms' bit
    /// patterns to the post-merge refresh; later calls install only the
    /// dirty union. The builds run on the shards, in parallel; this thread
    /// only installs each built arm as it arrives, shard by shard — a copy
    /// into this thread's allocations, so nothing the model keeps lives on
    /// a shard's heap — and stamps it ([`LinUcb::install_arm`]), no
    /// factorization. Publication piggybacks on this: `LinUcb` stores its
    /// arms behind per-arm `Arc`s, so the returned clone shares every clean
    /// arm's storage with the previous epoch's snapshot.
    ///
    /// An arm appears in the dirty union iff some shard folded a cell into
    /// it since the previous assembly (the conservation property pinned by
    /// the `assembly_equivalence` suite).
    ///
    /// # Errors
    ///
    /// Surfaces the first internal fold error any shard encountered, a
    /// build error, or a shard shutdown. All indicate a bug rather than bad
    /// input: every cell is validated before dispatch. After a failure the
    /// persistent model is discarded, so the next assembly installs every
    /// arm again instead of serving a half-installed state.
    pub fn assemble(&mut self) -> Result<(LinUcb, Vec<usize>), CoreError> {
        // `take` leaves `self.assembled` at `None` until every install
        // succeeds, so after a failure the next call installs every arm.
        let previous = self.assembled.take();
        let install_all = previous.is_none();
        // One reply queue per shard, allocated here with room for every arm
        // the shard owns and its `Done`: no shard ever blocks on a reply or
        // grows a queue this thread frees.
        let shards = self.shards.shards();
        let replies = (0..shards)
            .map(|shard| {
                let (reply, replies) =
                    bounded(owned_arms(self.config.num_actions, shard, shards) + 1);
                self.shards
                    .send(shard, ShardCommand::Snapshot { install_all, reply })?;
                Ok(replies)
            })
            .collect::<Result<Vec<Receiver<Reply>>, CoreError>>()?;
        let mut assembled = match previous {
            Some(assembled) => assembled,
            None => LinUcb::new(self.config)?,
        };
        // The shards build in parallel; this thread installs each shard's
        // arms as they arrive, shard by shard, so the installs run in one
        // order whatever the scheduling. Each built arm stays alive until
        // every shard is done: it lives on its shard's heap, and freeing it
        // while that shard still builds would make the shard's heap depend
        // on the scheduling too.
        let (mut dirty, mut built_arms) = (Vec::new(), Vec::new());
        for replies in &replies {
            loop {
                // The sender gone before its `Done`: the shard died.
                match replies.recv().map_err(|_| ShufflerError::PipelineClosed)? {
                    Reply::Built(arm, built) => {
                        assembled.install_arm(Action::new(arm), built.clone())?;
                        built_arms.push(built);
                        #[cfg(test)]
                        {
                            self.installs += 1;
                        }
                    }
                    Reply::Done(folded) => {
                        dirty.extend(folded?);
                        break;
                    }
                }
            }
        }
        drop(built_arms);
        // Every shard has folded every run dispatched before this call.
        self.dispatched
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        dirty.sort_unstable();
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
    use crossbeam::channel::unbounded;
    use p2b_bandit::ContextualPolicy;
    use p2b_shuffler::EncodedReport;

    /// A cell of `count` reports on code 0, whose context is [`table`]'s
    /// one row, with rewards summing to `reward_sum`.
    fn cell(action: usize, count: u64, reward_sum: f64) -> ReleasedCell {
        let one = EncodedReport::new(0, action, reward_sum / count as f64).unwrap();
        let mut cell = ReleasedCell::of(&one);
        for _ in 1..count {
            cell.absorb(&ReleasedCell::of(&one));
        }
        cell
    }

    fn table() -> Arc<Centroids> {
        Arc::new(Centroids::new(vec![Vector::from(vec![0.25, 0.75])]).unwrap())
    }

    #[test]
    fn the_service_frees_the_runs_it_dispatched_at_the_assembly() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 4), 2).unwrap();
        service
            .ingest(
                &[cell(0, 1, 1.0), cell(1, 2, 0.5), cell(2, 1, 0.0)],
                &table(),
            )
            .unwrap();
        service.ingest(&[cell(3, 1, 1.0)], &table()).unwrap();
        // One run per shard with cells: shard 0 (arms 0, 2), shard 1 (arm
        // 1), then shard 1 (arm 3).
        let runs: Vec<_> = service
            .dispatched
            .get_mut()
            .unwrap()
            .iter()
            .map(Arc::downgrade)
            .collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(service.assemble().unwrap().0.observations(), 5);
        assert!(service.dispatched.get_mut().unwrap().is_empty());
        assert!(runs.iter().all(|run| run.upgrade().is_none()));
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(ModelService::spawn(LinUcbConfig::new(2, 3), 0).is_err());
    }

    #[test]
    fn centroid_tables_are_finite_and_of_one_dimension() {
        let row = |v: Vec<f64>| Vector::from(v);
        assert!(matches!(
            Centroids::new(vec![row(vec![0.5, 0.5]), row(vec![f64::NAN, 1.0])]),
            Err(CoreError::NonFiniteCentroid { code: 1 })
        ));
        assert!(matches!(
            Centroids::new(vec![row(vec![f64::INFINITY, 0.0])]),
            Err(CoreError::NonFiniteCentroid { code: 0 })
        ));
        assert!(Centroids::new(vec![row(vec![0.5, 0.5]), row(vec![1.0])]).is_err());
        assert_eq!(Centroids::new(Vec::new()).unwrap().dimension(), 0);
        let table = Centroids::new(vec![row(vec![0.5, 0.5]), row(vec![1.0, 0.0])]).unwrap();
        assert_eq!((table.codes(), table.dimension()), (2, 2));
        assert_eq!(table.row(1), Some(&row(vec![1.0, 0.0])));
        assert_eq!(table.row(2), None);
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
        let cells = vec![
            cell(0, 5, 4.0),
            cell(1, 3, 0.0),
            cell(2, 7, 7.0),
            cell(0, 2, 1.0),
            cell(3, 1, 1.0),
        ];
        let mut assembled = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut service = ModelService::spawn(LinUcbConfig::new(2, 4), shards).unwrap();
            service.ingest(&cells, &table()).unwrap();
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
        service.ingest(&[cell(0, 4, 2.0)], &table()).unwrap();
        service
            .ingest(&[cell(0, 6, 3.0), cell(1, 2, 2.0)], &table())
            .unwrap();
        let (model, _) = service.assemble().unwrap();
        assert_eq!(model.pulls(Action::new(0)).unwrap(), 10);
        assert_eq!(model.pulls(Action::new(1)).unwrap(), 2);
        assert_eq!(model.observations(), 12);
    }

    #[test]
    fn ingest_refuses_what_no_shard_can_fold_before_dispatching_anything() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 2), 2).unwrap();
        let wide = Arc::new(Centroids::new(vec![Vector::from(vec![0.2, 0.3, 0.5])]).unwrap());
        assert!(matches!(
            service.ingest(&[cell(0, 1, 1.0)], &wide),
            Err(CoreError::EncoderMismatch {
                expected: 2,
                found: 3
            })
        ));
        assert!(matches!(
            service.ingest(&[cell(0, 1, 1.0), cell(2, 1, 1.0)], &table()),
            Err(CoreError::InvalidConfig {
                parameter: "cells",
                ..
            })
        ));
        let past = ReleasedCell::of(&EncodedReport::new(1, 0, 1.0).unwrap());
        assert!(matches!(
            service.ingest(&[cell(1, 1, 1.0), past], &table()),
            Err(CoreError::InvalidConfig {
                parameter: "cells",
                ..
            })
        ));
        // Nothing was dispatched, so no shard is poisoned.
        service.ingest(&[cell(1, 2, 1.0)], &table()).unwrap();
        assert_eq!(service.assemble().unwrap().0.observations(), 2);
    }

    #[test]
    fn internal_shard_failures_surface_on_assemble() {
        let mut service = ModelService::spawn(LinUcbConfig::new(2, 2), 2).unwrap();
        // A cell on arm 1 slips past the (bypassed) validation to shard 0,
        // which does not own it.
        let stray = ShardCommand::Fold {
            cells: Arc::new(vec![cell(1, 1, 0.0)]),
            centroids: table(),
        };
        service.shards.send(0, stray).unwrap();
        assert!(matches!(service.assemble(), Err(CoreError::Bandit(_))));
    }

    #[test]
    fn a_dead_shard_surfaces_as_pipeline_closed() {
        let config = LinUcbConfig::new(2, 2);
        let cold = ArmSums::new(&config).unwrap();
        let (exited, shard_exited) = unbounded();
        // Shard 1 exits at once, dropping its queue; shard 0 serves normally.
        let mut service = ModelService {
            shards: ShardPool::spawn(2, 1, move |shard, commands| {
                if shard == 0 {
                    run_shard(&commands, shard, 2, &config, &cold);
                } else {
                    drop(commands);
                    let _ = exited.send(());
                }
            }),
            config,
            assembled: None,
            dispatched: Mutex::default(),
            installs: 0,
        };
        shard_exited.recv().unwrap();
        service.ingest(&[cell(0, 1, 1.0)], &table()).unwrap();
        assert!(matches!(
            service.ingest(&[cell(1, 1, 1.0)], &table()),
            Err(CoreError::Shuffler(ShufflerError::PipelineClosed))
        ));
        assert!(matches!(
            service.assemble(),
            Err(CoreError::Shuffler(ShufflerError::PipelineClosed))
        ));
    }
}
