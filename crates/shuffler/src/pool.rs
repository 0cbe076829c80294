//! The shard-worker pool shared by every sharded stage of the pipeline.
//!
//! The [`ShufflerEngine`](crate::ShufflerEngine)'s lane (a pool of one),
//! the [`SecureAggEngine`](crate::SecureAggEngine) aggregators and the
//! central model service's ingest shards all have the same shape: `N` threads, each
//! draining its own bounded FIFO queue, closed and joined in shard order at
//! shutdown. A [`ShardPool`] is that shape, written once:
//!
//! * **Bounded queues** — [`ShardPool::send`] blocks while the target
//!   shard's queue is full, so a slow shard slows its producers instead of
//!   buffering without limit.
//! * **One dead-worker rule** — a worker that panicked (or returned early)
//!   drops its queue; every later `send` to it, including one already
//!   blocked on its full queue, returns [`ShufflerError::PipelineClosed`].
//! * **One shutdown** — [`ShardPool::join`] closes every queue, joins the
//!   workers in shard order and hands back their results; dropping the pool
//!   does the same and discards them.

use crate::ShufflerError;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::fmt;
use std::thread::JoinHandle;

/// Default capacity of each shard's bounded queue.
pub const SHARD_QUEUE_CAPACITY: usize = 1024;

/// `N` worker threads, each draining its own bounded FIFO queue of `M`
/// messages and returning an `R` when its queue closes.
///
/// # Examples
///
/// ```
/// use p2b_shuffler::{ShardPool, SHARD_QUEUE_CAPACITY};
///
/// # fn main() -> Result<(), p2b_shuffler::ShufflerError> {
/// let pool = ShardPool::spawn(2, SHARD_QUEUE_CAPACITY, |_, queue| queue.iter().sum::<u64>());
/// pool.send(0, 3)?;
/// pool.send(1, 4)?;
/// pool.send(0, 5)?;
/// assert_eq!(pool.join()?, vec![8, 4]);
/// # Ok(())
/// # }
/// ```
pub struct ShardPool<M, R> {
    queues: Vec<Sender<M>>,
    workers: Vec<JoinHandle<R>>,
}

impl<M: Send + 'static, R: Send + 'static> ShardPool<M, R> {
    /// Starts `shards` workers. Worker `shard` runs `body(shard, queue)` on
    /// its own thread, where `queue` yields the messages sent to that shard
    /// in order and ends once the pool closes. A zero `capacity` is read as
    /// one.
    #[must_use]
    pub fn spawn<F>(shards: usize, capacity: usize, body: F) -> Self
    where
        F: FnOnce(usize, Receiver<M>) -> R + Clone + Send + 'static,
    {
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
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues `message` on shard `shard`, blocking while its queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] when `shard` is out of
    /// range or its worker has exited (panicked or returned).
    pub fn send(&self, shard: usize, message: M) -> Result<(), ShufflerError> {
        self.queues
            .get(shard)
            .ok_or(ShufflerError::PipelineClosed)?
            .send(message)
            .map_err(|_| ShufflerError::PipelineClosed)
    }

    /// Closes every queue, joins the workers in shard order and returns
    /// their results in that order.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] if any worker panicked. Every
    /// worker is joined either way.
    pub fn join(mut self) -> Result<Vec<R>, ShufflerError> {
        self.close()
    }

    fn close(&mut self) -> Result<Vec<R>, ShufflerError> {
        self.queues.clear();
        // Join every worker before looking at any result, so one panic
        // cannot leave later workers running.
        let joined: Vec<_> = self.workers.drain(..).map(JoinHandle::join).collect();
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

impl<M, R> fmt::Debug for ShardPool<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.queues.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

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
}
