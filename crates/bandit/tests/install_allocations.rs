//! Pins what [`LinUcb::install_arm`] allocates: an arm built on the
//! installing thread is moved into the model (0 bytes), while an arm built
//! on another thread is copied into the installing thread's allocations,
//! so the building thread's heap keeps nothing the model holds.
//!
//! A counting global allocator tallies the bytes allocated on each thread;
//! it only counts and delegates to [`System`]. Each test reads only its own
//! thread's count, so the tests of this file may share the process.

use p2b_bandit::{Action, ArmSums, BuiltArm, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_linalg::Vector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` with a `const` initialiser, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIMENSION: usize = 16;
const WORD: u64 = std::mem::size_of::<f64>() as u64;

fn config() -> LinUcbConfig {
    LinUcbConfig::new(DIMENSION, 3)
}

/// An arm with one folded observation, built on the calling thread.
fn built_arm() -> BuiltArm {
    let mut sums = ArmSums::new(&config()).expect("valid configuration");
    let context = Vector::filled(DIMENSION, 0.25);
    sums.fold(&context, 2, 1.5).expect("matching dimension");
    BuiltArm::new(&config(), &sums).expect("positive-definite design")
}

/// Bytes the install of `built` as arm 1 of `model` allocates on this
/// thread.
fn install_bytes(model: &mut LinUcb, built: BuiltArm) -> u64 {
    let before = allocated_bytes();
    model
        .install_arm(Action::new(1), built)
        .expect("arm in range");
    allocated_bytes() - before
}

#[test]
fn a_same_thread_install_moves_the_arm_in() {
    let mut model = LinUcb::new(config()).expect("valid configuration");
    let built = built_arm();
    let bytes = install_bytes(&mut model, built);
    assert_eq!(bytes, 0, "a same-thread install allocated {bytes} bytes");
    assert_eq!(model.observations(), 2);
}

#[test]
fn a_cross_thread_install_copies_the_arm() {
    let mut model = LinUcb::new(config()).expect("valid configuration");
    let built = std::thread::spawn(built_arm)
        .join()
        .expect("the builder returns");
    let bytes = install_bytes(&mut model, built);
    // The copy holds at least the packed factor and the reward vector.
    let least = (DIMENSION * (DIMENSION + 1) / 2 + DIMENSION) as u64 * WORD;
    assert!(
        bytes >= least,
        "a cross-thread install allocated {bytes} bytes, under the {least} of a copy"
    );
    assert_eq!(model.observations(), 2);
}
