//! Minimal scoped-thread parallel map for experiment sweeps.

use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item of `inputs`, running up to `max_threads` items
/// concurrently, and returns the results in input order.
///
/// Experiment sweeps (over population sizes, context dimensions or action
/// counts) are embarrassingly parallel because each setting owns its own
/// environment, encoder and server; this helper keeps the figure binaries'
/// wall-clock time reasonable without pulling in a task-scheduling
/// dependency.
///
/// `max_threads == 0` is treated as 1. Panics inside `f` propagate.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let max_threads = max_threads.max(1);
    let total = inputs.len();
    if total == 0 {
        return Vec::new();
    }
    if max_threads == 1 || total == 1 {
        return inputs.into_iter().map(f).collect();
    }

    // Work items and results carry their original index so results keep
    // input order. `f` runs outside the lock, and the only update under it
    // is one `pop`, so even a poisoned queue is a valid queue to keep
    // draining. A worker's panic reaches the caller through its join.
    let work: Mutex<Vec<(usize, T)>> = Mutex::new(inputs.into_iter().enumerate().rev().collect());
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..max_threads.min(total))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let item = work.lock().unwrap_or_else(PoisonError::into_inner).pop();
                        let Some((index, input)) = item else {
                            return done;
                        };
                        done.push((index, f(input)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..50).collect();
        let outputs = parallel_map(inputs.clone(), 8, |x| x * 2);
        assert_eq!(outputs, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_inputs() {
        assert_eq!(parallel_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![1, 2, 3], 0, |x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(vec![7], 16, |x| x - 7), vec![0]);
    }

    #[test]
    fn actually_runs_work_from_multiple_threads() {
        let ids = parallel_map((0..64).collect::<Vec<_>>(), 8, |_| {
            // Keep each work item busy long enough that a single worker cannot
            // drain the whole queue before the others have started.
            std::thread::sleep(std::time::Duration::from_millis(2));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected more than one worker thread");
    }
}
