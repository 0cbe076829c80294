//! Pins that a [`ShardPool`] queue is allocated whole when the pool
//! starts: sends that find room allocate nothing on the sending thread, so
//! no heap is grown by whichever producer happens to fill a queue.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread; it only counts and delegates to [`System`]. This file holds
//! a single test so that no other test's thread shares the process-wide
//! allocator while the count is read.

use p2b_core::ShardPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

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

const CAPACITY: usize = 1024;

#[test]
fn sends_within_capacity_allocate_nothing() {
    let gate = Arc::new(Barrier::new(2));
    let worker_gate = Arc::clone(&gate);
    // The worker reads nothing until every send is done, so each send
    // lands in a free slot of the queue.
    let pool: ShardPool<u64, usize> = ShardPool::spawn(1, CAPACITY, move |_, queue| {
        worker_gate.wait();
        queue.iter().count()
    });
    let before = allocated_bytes();
    for message in 0..CAPACITY as u64 {
        pool.send(0, message).expect("the worker is alive");
    }
    let sent = allocated_bytes() - before;
    gate.wait();
    assert_eq!(pool.join().expect("the worker returns"), vec![CAPACITY]);
    assert_eq!(
        sent, 0,
        "{CAPACITY} sends within capacity allocated {sent} bytes"
    );
}
