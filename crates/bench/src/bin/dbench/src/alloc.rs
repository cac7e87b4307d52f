//! Counting global allocator.
//!
//! Every `alloc`/`realloc` call bumps a counter owned by the calling
//! thread. Counters live in cache-line-padded slots so the grid and
//! fleet workers never contend on one line; [`total`] sums every slot.
//! A traced span counts the allocations of every thread while it is
//! open, which charges the scoring threads a diagnosis re-rank spawns to
//! the call that spawned them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 8;

#[repr(align(64))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot. Slots are handed out round-robin, so a
/// process that has started more than [`SLOTS`] threads shares slots,
/// which only costs contention.
fn my_slot() -> &'static AtomicU64 {
    let index = MY_SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            slot.get()
        })
        // Thread-local storage already torn down: count on slot 0.
        .unwrap_or(0);
    &COUNTS[index].0
}

/// Allocation calls made by every thread so far.
pub fn total() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

pub struct CountingAlloc;

// SAFETY: every call defers to the system allocator unchanged; the
// counters are relaxed atomics that never touch layouts or pointers,
// and the thread-local slot index has a const initializer and no
// destructor, so reading it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        my_slot().fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout` (every
        // allocation above is forwarded to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        my_slot().fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
