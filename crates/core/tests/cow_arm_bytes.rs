//! Pins the heap a copy-on-write fold keeps per arm it writes: an agent
//! that folds into an arm it still shares with the epoch's snapshot copies
//! that arm, and the copy is the arm's statistics — the packed Cholesky
//! factor of its design (`d(d+1)/2` words), the reward vector and θ (`d`
//! words each; θ doubles as the fold's lane) — plus the arm's own
//! allocation. The bound allows `d` words more than that and the headers:
//! `d(d+1)/2 + 3·d` words plus 512 bytes, 1 984 bytes at d = 16.
//!
//! A counting global allocator tallies the bytes allocated minus the bytes
//! freed on the test's own thread; it only counts and delegates to
//! [`System`]. This file holds a single test so that no other test's thread
//! shares the process-wide allocator while the count is read.

use p2b_bandit::{Action, ContextualPolicy};
use p2b_core::{P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{EncodedReport, RawReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    let delta = i64::try_from(bytes).unwrap_or(i64::MAX) * sign;
    // `try_with`: the slot is gone while the thread tears down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` with a `const` initialiser, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size, 1);
        add(layout.size(), -1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIMENSION: usize = 16;
const CODES: usize = 4;
const ACTIONS: usize = 6;
const WORD: usize = std::mem::size_of::<f64>();
/// Room for the arm's own allocation: the `Arc` counts and the arm's
/// inline fields (factor and vector headers, counters), and the allocator's
/// rounding of three buffers.
const HEADER_ALLOWANCE_BYTES: usize = 512;

fn encoder() -> Arc<KMeansEncoder> {
    let mut rng = StdRng::seed_from_u64(11);
    let corpus: Vec<Vector> = (0..160)
        .map(|i| {
            let mut raw = vec![0.05; DIMENSION];
            raw[i % DIMENSION] = 1.0;
            raw[(i * 7 + 3) % DIMENSION] += 0.5;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(CODES), &mut rng).expect("k ≤ corpus"))
}

/// Three reports for every `(code, action)` pair, so one flush releases a
/// cell for every pair and the published snapshot's every arm is built from
/// its sums by one factorization.
fn reports() -> Vec<RawReport> {
    let mut reports = Vec::new();
    for code in 0..CODES {
        for action in 0..ACTIONS {
            for copy in 0..3 {
                let reward = [0.2, 0.9, 0.5][copy];
                let payload = EncodedReport::new(code, action, reward).expect("reward in [0, 1]");
                reports.push(RawReport::new(
                    format!("user-{code}-{action}-{copy}"),
                    payload,
                ));
            }
        }
    }
    reports
}

#[test]
fn a_cow_fold_keeps_only_the_arms_statistics() {
    // No reporting opportunity in this test's few interactions, so a fold
    // queues no report.
    let config = P2bConfig::new(DIMENSION, ACTIONS)
        .with_shuffler_threshold(2)
        .with_local_interactions(1_000)
        .with_ingest_shards(1);
    let mut system = P2bSystem::new(config, encoder()).expect("system builds");
    system
        .streaming_round(reports(), 0)
        .expect("one flush folds");
    let snapshot = system.central_snapshot().expect("the flush publishes");
    for action in (0..ACTIONS).map(Action::new) {
        assert!(snapshot.model().pulls(action).expect("arm in range") > 0);
    }

    let mut agent = system.make_warm_agent().expect("warm agent");
    let mut rng = StdRng::seed_from_u64(3);
    let context = Vector::from(vec![1.0 / DIMENSION as f64; DIMENSION]);
    // The first fold promotes the agent's policy to an owned model sharing
    // every arm with the snapshot, and copies arm 0.
    agent
        .observe_reward(&context, Action::new(0), 1.0, &mut rng)
        .expect("fold");
    assert!(
        agent.warm_snapshot().is_none(),
        "the fold promoted the agent"
    );

    let written = ACTIONS - 1;
    let before = live_bytes();
    for action in 1..ACTIONS {
        agent
            .observe_reward(&context, Action::new(action), 0.5, &mut rng)
            .expect("fold");
    }
    let kept = usize::try_from(live_bytes() - before).expect("a fold frees nothing it keeps");
    assert_eq!(
        agent.policy().observations(),
        snapshot.model().observations() + 6
    );

    let per_arm = kept / written;
    let d = DIMENSION;
    let statistics = (d * (d + 1) / 2 + 2 * d) * WORD;
    let bound = (d * (d + 1) / 2 + 3 * d) * WORD + HEADER_ALLOWANCE_BYTES;
    assert!(
        per_arm >= statistics,
        "{per_arm} bytes per written arm cannot hold the {statistics} bytes of statistics"
    );
    assert!(
        per_arm < bound,
        "one copy-on-write fold kept {per_arm} bytes per written arm at d = {d}; \
         the arm's statistics are {statistics} bytes and the bound is {bound}"
    );
}
