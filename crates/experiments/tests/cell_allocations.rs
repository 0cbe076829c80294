//! Pins the heap allocations one `run_cell` makes per interaction, set-up
//! included, for the two scenarios of the repo benchmark's matrix workload:
//! a non-private LinUCB cell of 400 users × 20 interactions, seed 7.
//!
//! A round evaluates its environment's mean vector once, into a buffer the
//! cell keeps, and its users select through one long-lived select scratch.
//! Before that, a synthetic round evaluated `β·softmax(Wx)` ten times (the
//! realized reward, the expected reward and the optimum as one query per
//! action at A = 8), three allocations each, and every selection allocated
//! a fresh scratch: the synthetic cell read 31.60 allocations per
//! interaction and the Criteo-like one 11.71. They now read 5.56 and 5.71;
//! the bound is 6 for both, so either regression fails here.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread; it only counts and delegates to [`System`]. This file holds
//! a single test so that no other test's thread shares the process-wide
//! allocator while the count is read.

use p2b_experiments::{run_cell, CellSpec, MatrixConfig, PolicyKind, PrivacyRegime, ScenarioKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|total| total.set(total.get() + 1));
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
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per interaction of one non-private LinUCB cell over
/// `scenario`: 400 users of 20 interactions, seed 7.
fn allocations_per_interaction(scenario: ScenarioKind) -> f64 {
    let mut config = MatrixConfig::new().with_seed(7);
    config.num_users = 400;
    config.interactions_per_user = 20;
    let spec = CellSpec {
        scenario,
        regime: PrivacyRegime::NonPrivate,
        policy: PolicyKind::LinUcb,
        repeat: 0,
        seed: 7,
    };
    let before = allocations();
    let result = run_cell(&config, spec).expect("a valid cell");
    let made = allocations() - before;
    assert_eq!(result.rounds, 8_000, "{scenario}");
    made as f64 / result.rounds as f64
}

#[test]
fn a_cell_allocates_within_its_pinned_budget_per_interaction() {
    for (scenario, bound) in [
        (ScenarioKind::SyntheticGaussian, 6.0),
        (ScenarioKind::CriteoLike, 6.0),
    ] {
        let per_interaction = allocations_per_interaction(scenario);
        println!("{scenario}: {per_interaction:.3} allocations per interaction");
        assert!(
            per_interaction <= bound,
            "{scenario}: {per_interaction:.3} allocations per interaction, over the pinned {bound}"
        );
    }
}
