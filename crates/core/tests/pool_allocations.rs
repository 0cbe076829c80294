//! Pins that checking out a resident agent allocates nothing: the pool runs
//! the closure on the agent where it is stored, and a hit only relinks the
//! agent's slot at the most-recently-used end of the LRU list.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread; it only counts and delegates to [`System`]. This file holds
//! a single test so that no other test's thread shares the process-wide
//! allocator while the count is read.

use p2b_core::{AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` with a `const` initialiser, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const RESIDENTS: u64 = 128;
const HITS: u64 = 10_000;

fn source() -> AgentSource {
    let mut rng = StdRng::seed_from_u64(42);
    let corpus: Vec<Vector> = (0..80)
        .map(|i| {
            let mut raw = vec![0.1; 4];
            raw[i % 4] = 1.0;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    let encoder = Arc::new(
        KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng)
            .expect("corpus is larger than k"),
    );
    let mut system =
        P2bSystem::new(P2bConfig::new(4, 3), encoder).expect("static configuration is valid");
    AgentSource::capture(&mut system).expect("a fresh system publishes its snapshot")
}

#[test]
fn hit_checkouts_allocate_nothing() {
    let source = source();
    let budget = usize::try_from(RESIDENTS).expect("small");
    let mut pool = AgentPool::new(AgentPoolConfig::bounded(budget)).expect("positive budget");
    for key in 0..RESIDENTS {
        pool.with_agent_at(&source, key, |_| Ok(()))
            .expect("creation succeeds");
    }
    let before = allocations();
    for step in 0..HITS {
        // A stride coprime to the key count visits every resident in turn
        // and relinks from the middle of the list as well as its ends.
        let key = step * 37 % RESIDENTS;
        pool.with_agent_at(&source, key, |_| Ok(()))
            .expect("hit succeeds");
    }
    let allocated = allocations() - before;
    assert_eq!(pool.stats().hits, HITS);
    assert_eq!(pool.resident_agents(), budget);
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {HITS} hit checkouts"
    );
}
