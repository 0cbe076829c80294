//! The shard-worker pool of the central model service's ingest shards.
//!
//! [`crate::ModelService`] runs `N` threads, each draining its own bounded
//! FIFO queue, closed and joined in shard order at shutdown. A
//! [`ShardPool`] is that shape:
//!
//! * **Bounded queues** — [`ShardPool::send`] blocks while the target
//!   shard's queue is full, so a slow shard slows its producers instead of
//!   buffering without limit.
//! * **One dead-worker rule** — a worker that panicked (or returned early)
//!   drops its queue; every later `send` to it, including one already
//!   blocked on its full queue, returns [`ShufflerError::PipelineClosed`].
//! * **One shutdown** — [`ShardPool::join`] closes each queue and joins its
//!   worker, in shard order, and hands back their results; dropping the
//!   pool does the same and discards them.
//!
//! It is the one place this crate starts a thread; in this crate's tests a
//! per-thread counter of the workers it started pins how many threads the
//! write path starts.

use crossbeam::channel::{bounded, Receiver, Sender};
use p2b_shuffler::ShufflerError;
use std::thread::JoinHandle;

/// Default capacity of each shard's bounded queue.
pub(crate) const SHARD_QUEUE_CAPACITY: usize = 1024;

/// `N` worker threads, each draining its own bounded FIFO queue of `M`
/// messages and returning an `R` when its queue closes.
pub(crate) struct ShardPool<M, R> {
    queues: Vec<Sender<M>>,
    workers: Vec<JoinHandle<R>>,
}

impl<M: Send + 'static, R: Send + 'static> ShardPool<M, R> {
    /// Starts `shards` workers. Worker `shard` runs `body(shard, queue)` on
    /// its own thread, where `queue` yields the messages sent to that shard
    /// in order and ends once the pool closes. A zero `capacity` is read as
    /// one.
    #[must_use]
    pub(crate) fn spawn<F>(shards: usize, capacity: usize, body: F) -> Self
    where
        F: FnOnce(usize, Receiver<M>) -> R + Clone + Send + 'static,
    {
        #[cfg(test)]
        tests::WORKERS_STARTED.with(|count| count.set(count.get() + shards as u64));
        let (queues, workers) = (0..shards)
            .map(|shard| {
                let (queue, input) = bounded(capacity.max(1));
                let body = body.clone();
                (queue, std::thread::spawn(move || body(shard, input)))
            })
            .unzip();
        Self { queues, workers }
    }
}

impl<M, R> ShardPool<M, R> {
    /// Number of shard workers.
    #[must_use]
    pub(crate) fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues `message` on shard `shard`, blocking while its queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] when `shard` is out of
    /// range or its worker has exited (panicked or returned).
    pub(crate) fn send(&self, shard: usize, message: M) -> Result<(), ShufflerError> {
        self.queues
            .get(shard)
            .ok_or(ShufflerError::PipelineClosed)?
            .send(message)
            .map_err(|_| ShufflerError::PipelineClosed)
    }

    /// Closes each queue and joins its worker, in shard order, and returns
    /// their results in that order.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] if any worker panicked. Every
    /// worker is joined either way. The model service drops its pool
    /// instead, so only the tests read the workers' results.
    #[cfg(test)]
    pub(crate) fn join(mut self) -> Result<Vec<R>, ShufflerError> {
        self.close()
    }

    fn close(&mut self) -> Result<Vec<R>, ShufflerError> {
        // One worker at a time: its queue is closed and it is joined before
        // the next queue closes, so the workers exit in shard order and hand
        // their heaps back to the allocator in one order, whatever the
        // scheduling. Every worker is joined before any result is looked
        // at, so one panic cannot leave later workers running.
        let joined: Vec<_> = self
            .queues
            .drain(..)
            .zip(self.workers.drain(..))
            .map(|(queue, worker)| {
                drop(queue);
                worker.join()
            })
            .collect();
        joined
            .into_iter()
            .map(|result| result.map_err(|_| ShufflerError::PipelineClosed))
            .collect()
    }
}

impl<M, R> Drop for ShardPool<M, R> {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{P2bConfig, P2bSystem, SecureIngestService};
    use p2b_bandit::{Action, LinUcbConfig};
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_linalg::Vector;
    use p2b_privacy::Participation;
    use p2b_shuffler::{EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    thread_local! {
        pub(super) static WORKERS_STARTED: Cell<u64> = const { Cell::new(0) };
    }

    /// Shard workers [`ShardPool::spawn`] has started from the calling
    /// thread so far: every thread this crate started on its behalf.
    fn workers_started_on_this_thread() -> u64 {
        WORKERS_STARTED.with(Cell::get)
    }

    #[test]
    fn join_returns_each_workers_result_in_shard_order() {
        let pool = ShardPool::spawn(4, 2, |shard, queue| {
            (shard, queue.iter().collect::<Vec<u32>>())
        });
        assert_eq!(pool.shards(), 4);
        for message in 0..20u32 {
            pool.send(message as usize % 4, message).unwrap();
        }
        let results = pool.join().unwrap();
        for (shard, (reported, messages)) in results.into_iter().enumerate() {
            assert_eq!(reported, shard);
            let expected: Vec<u32> = (0..20).filter(|m| *m as usize % 4 == shard).collect();
            assert_eq!(messages, expected, "shard {shard} keeps FIFO order");
        }
    }

    #[test]
    fn send_out_of_range_is_pipeline_closed() {
        let pool: ShardPool<u8, ()> =
            ShardPool::spawn(2, 1, |_, queue| queue.iter().for_each(drop));
        assert_eq!(pool.send(2, 0), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.send(usize::MAX, 0), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.send(1, 0), Ok(()));
        assert_eq!(pool.join().unwrap().len(), 2);
    }

    /// Shard 0 panics on its `k`-th message; shard 1 stays healthy.
    fn pool_with_a_fault(k: usize) -> ShardPool<usize, usize> {
        ShardPool::spawn(2, 1, move |shard, queue| {
            let mut seen = 0;
            for _ in queue.iter() {
                seen += 1;
                assert!(shard != 0 || seen < k, "injected fault");
            }
            seen
        })
    }

    #[test]
    fn a_panicked_worker_refuses_later_sends_and_fails_the_join() {
        let k = 3;
        let pool = pool_with_a_fault(k);
        // k messages are consumed and at most one more fits the queue, so
        // the send after that must observe the dead worker.
        let accepted = (0..k + 2).take_while(|&m| pool.send(0, m).is_ok()).count();
        assert!((k..=k + 1).contains(&accepted), "accepted {accepted}");
        assert_eq!(pool.send(0, 0), Err(ShufflerError::PipelineClosed));
        pool.send(1, 0).unwrap();
        assert_eq!(pool.join(), Err(ShufflerError::PipelineClosed));
    }

    #[test]
    fn a_sender_blocked_on_a_full_queue_is_released_by_the_panic() {
        let gate = Arc::new(Barrier::new(2));
        let worker_gate = Arc::clone(&gate);
        let pool: ShardPool<u8, ()> = ShardPool::spawn(1, 1, move |_, queue| {
            let _first = queue.recv();
            worker_gate.wait();
            panic!("injected fault");
        });
        pool.send(0, 1).unwrap();
        // This send returns once the worker has taken message 1, so message
        // 2 fills the queue and the third send blocks until the worker dies.
        pool.send(0, 2).unwrap();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            gate.wait();
        });
        assert_eq!(pool.send(0, 3), Err(ShufflerError::PipelineClosed));
        opener.join().unwrap();
        assert_eq!(pool.join(), Err(ShufflerError::PipelineClosed));
    }

    #[test]
    fn dropping_a_pool_with_a_panicked_worker_returns() {
        let pool = pool_with_a_fault(1);
        while pool.send(0, 0).is_ok() {}
        pool.send(1, 0).unwrap();
        drop(pool);
    }

    /// Spawns one worker that reads nothing until released, sends up to
    /// `capacity + 2` messages from a producer thread, and returns how many
    /// sends completed while the worker was stalled.
    fn sends_accepted_while_stalled(capacity: usize) -> usize {
        let gate = Arc::new(Barrier::new(2));
        let worker_gate = Arc::clone(&gate);
        let pool: ShardPool<usize, usize> = ShardPool::spawn(1, capacity, move |_, queue| {
            worker_gate.wait();
            queue.iter().count()
        });
        let attempts = capacity.max(1) + 2;
        let (progress, sent) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            let pool = &pool;
            scope.spawn(move || {
                for message in 0..attempts {
                    if pool.send(0, message).is_ok() {
                        let _ = progress.send(());
                    }
                }
            });
            // Sends into free slots return promptly; the first send past the
            // capacity must still be blocked after a generous pause.
            let mut accepted = 0;
            while sent.recv_timeout(Duration::from_secs(5)).is_ok() {
                accepted += 1;
                if accepted == capacity.max(1) {
                    break;
                }
            }
            if sent.recv_timeout(Duration::from_millis(100)).is_ok() {
                accepted += 1;
            }
            gate.wait();
            accepted
        })
    }

    #[test]
    fn a_stalled_worker_holds_exactly_capacity_messages() {
        assert_eq!(sends_accepted_while_stalled(3), 3);
    }

    #[test]
    fn zero_capacity_is_read_as_one() {
        assert_eq!(sends_accepted_while_stalled(0), 1);
    }

    #[test]
    fn an_empty_pool_refuses_sends_and_joins_to_nothing() {
        let pool: ShardPool<u8, ()> =
            ShardPool::spawn(0, 4, |_, queue| queue.iter().for_each(drop));
        assert_eq!(pool.shards(), 0);
        assert_eq!(pool.send(0, 0), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.join(), Ok(Vec::new()));
    }

    #[test]
    fn a_worker_that_returns_early_refuses_sends_but_joins_cleanly() {
        let pool: ShardPool<u8, Option<u8>> = ShardPool::spawn(1, 1, |_, queue| queue.recv().ok());
        pool.send(0, 7).unwrap();
        // At most one more message fits the queue before the worker's exit
        // closes it.
        let accepted = (0..3).take_while(|_| pool.send(0, 0).is_ok()).count();
        assert!(accepted <= 1, "accepted {accepted}");
        assert_eq!(pool.send(0, 0), Err(ShufflerError::PipelineClosed));
        assert_eq!(pool.join(), Ok(vec![Some(7)]));
    }

    #[test]
    fn workers_exit_in_shard_order() {
        let exits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&exits);
        let pool: ShardPool<(), ()> = ShardPool::spawn(3, 1, move |shard, queue| {
            queue.iter().for_each(drop);
            // The lower shards take longest to wind down; the later ones
            // still exit after them.
            std::thread::sleep(Duration::from_millis(10 * (3 - shard as u64)));
            log.lock().unwrap().push(shard);
        });
        drop(pool);
        assert_eq!(*exits.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn dropping_a_healthy_pool_drains_every_queue() {
        let folded = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&folded);
        let pool: ShardPool<usize, ()> = ShardPool::spawn(3, 2, move |_, queue| {
            for _ in queue.iter() {
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        for message in 0..50 {
            pool.send(message % 3, message).unwrap();
        }
        drop(pool);
        assert_eq!(folded.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn join_waits_for_healthy_workers_after_a_panic() {
        let folded = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&folded);
        let pool: ShardPool<usize, ()> = ShardPool::spawn(2, 16, move |shard, queue| {
            for _ in queue.iter() {
                assert_ne!(shard, 0, "injected fault");
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        for message in 0..10 {
            pool.send(1, message).unwrap();
        }
        pool.send(0, 0).unwrap();
        assert_eq!(pool.join(), Err(ShufflerError::PipelineClosed));
        assert_eq!(folded.load(Ordering::SeqCst), 10);
    }

    // How many threads the write path starts, counted, not timed: a system
    // starts its ingest shards once, a flush through the shuffler engine
    // starts none, and secure aggregation starts none.

    const DIMENSION: usize = 4;
    const CODES: usize = 4;
    const ACTIONS: usize = 3;

    fn encoder() -> Arc<KMeansEncoder> {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus: Vec<Vector> = (0..80)
            .map(|i| {
                let mut raw = vec![0.1; DIMENSION];
                raw[i % DIMENSION] = 1.0;
                Vector::from(raw).normalized_l1().expect("non-empty")
            })
            .collect();
        Arc::new(
            KMeansEncoder::fit(&corpus, KMeansConfig::new(CODES), &mut rng).expect("k ≤ corpus"),
        )
    }

    /// `n` reports of round `round`, over every code and action.
    fn reports(round: usize, n: usize) -> Vec<RawReport> {
        (0..n)
            .map(|i| {
                let payload = EncodedReport::new(i % CODES, (i + round) % ACTIONS, 0.5)
                    .expect("reward in [0, 1]");
                RawReport::new(format!("agent-{round}-{i}"), payload)
            })
            .collect()
    }

    #[test]
    fn spawn_counts_the_workers_it_starts() {
        // The counter the tests below read: if it missed a spawn, "starts
        // no thread" would hold vacuously.
        let before = workers_started_on_this_thread();
        let pool: ShardPool<u8, ()> =
            ShardPool::spawn(3, 1, |_, queue| queue.iter().for_each(drop));
        assert_eq!(workers_started_on_this_thread() - before, 3);
        drop(pool);
        let empty: ShardPool<u8, ()> =
            ShardPool::spawn(0, 1, |_, queue| queue.iter().for_each(drop));
        assert_eq!(workers_started_on_this_thread() - before, 3);
        drop(empty);
    }

    #[test]
    fn a_system_starts_its_ingest_shards_once_and_no_thread_per_flush() {
        let before = workers_started_on_this_thread();
        let config = P2bConfig::new(DIMENSION, ACTIONS)
            .with_shuffler_threshold(2)
            .with_shuffler_batch_size(64)
            .with_ingest_shards(2);
        let mut system = P2bSystem::new(config, encoder()).expect("system builds");
        assert_eq!(
            workers_started_on_this_thread() - before,
            2,
            "the ingest shards"
        );
        for round in 0..5 {
            let (stats, _ledger) = system
                .streaming_round(reports(round, 150), round as u64)
                .expect("round folds");
            assert_eq!(
                stats.len(),
                3,
                "150 reports cut at 64: two full batches and a partial one"
            );
            system.server_mut().model().expect("publish succeeds");
        }
        assert_eq!(
            workers_started_on_this_thread() - before,
            2,
            "five flushes and publishes start no thread"
        );
    }

    #[test]
    fn an_engine_run_starts_no_thread() {
        // The experiment channel's shape: build an engine, open a handle,
        // submit a flush's reports, finish.
        let before = workers_started_on_this_thread();
        let engine = ShufflerEngine::builder(ShufflerConfig::new(2))
            .batch_size(64)
            .privacy_accounting(Participation::new(0.5).expect("p in (0, 1]"), 1.0)
            .build()
            .expect("valid engine");
        let handle = engine.spawn();
        for report in reports(0, 200) {
            handle.submit(report).expect("engine is open");
        }
        let output = handle.finish();
        assert_eq!(output.batches.len(), 4);
        assert_eq!(workers_started_on_this_thread() - before, 0);
    }

    #[test]
    fn a_secure_ingest_run_starts_no_thread() {
        let before = workers_started_on_this_thread();
        let mut service = SecureIngestService::new(LinUcbConfig::new(DIMENSION, ACTIONS), 2, 7)
            .expect("two parties");
        let context = Vector::from(vec![0.5; DIMENSION]);
        for epoch in 0..5 {
            for action in 0..ACTIONS {
                service
                    .ingest(&context, Action::new(action), epoch + 1, 0.5)
                    .expect("leaf in range");
            }
            service.assemble().expect("assembly succeeds");
        }
        assert_eq!(service.epoch(), 5);
        assert_eq!(workers_started_on_this_thread() - before, 0);
    }
}
