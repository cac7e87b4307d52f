//! Allocation-counting probe for the loop hot path.
//!
//! The fleet executor (chaos::fleet) multiplies whatever each campaign
//! step costs by the campaign population, so `TvDependabilityLoop::run`
//! keeps per-step heap churn out of the press loop: scratch buffers are
//! hoisted and reused, `sys_state`/`ref_state` updates reuse the
//! existing key and value storage instead of re-inserting fresh
//! `String`s, and the oracle executor fires transitions without cloning
//! them. This test pins that property with a counting global allocator:
//! the *marginal* allocation cost of one extra press must stay under a
//! budget the old allocate-per-step code could not meet.
//!
//! The probe counts every `alloc`/`realloc` call in the process, so the
//! budget below is calibrated against what the rest of the step
//! genuinely needs (the SUO's observation vector and its `String`
//! payloads, channel traffic, the coverage snapshot). Measured on this
//! scenario in release mode: ~175 allocation calls per closed-loop
//! press before the scratch/executor refactor, 20 after — the oracle
//! executor alone dropped from ~78 to ~3 by borrowing transitions and
//! entry/exit actions from the machine instead of cloning them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use trader::{TimedScenario, TvDependabilityLoop};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

/// Runs a healthy closed loop over `presses` presses and returns the
/// allocation-call count of the `run` itself (loop construction is
/// excluded — it is per-campaign, not per-step).
fn closed_run_allocs(presses: usize) -> u64 {
    let scenario = TimedScenario::teletext_session(presses);
    let mut looped = TvDependabilityLoop::closed(1);
    let (allocs, outcome) = allocations_during(|| looped.run(&scenario));
    assert_eq!(outcome.steps, presses);
    assert_eq!(outcome.failure_steps, 0);
    allocs
}

/// The marginal allocation budget per additional press. The press loop
/// legitimately allocates for SUO observations (each carries `String`
/// sources/payloads), channel messages, and the coverage snapshot; the
/// scratch-hoisted hot path must not add avoidable per-step churn on
/// top (fresh scratch vectors, cloned oracle transitions, re-inserted
/// state keys). Measured 20/press after the refactor vs ~175 before;
/// the slack covers allocator/toolchain drift without ever readmitting
/// the old per-step clones.
const MARGINAL_ALLOCS_PER_PRESS: u64 = 28;

/// Both checks live in one test: the counter is process-wide, so a
/// second test running in parallel would count this one's allocations
/// (and vice versa).
#[test]
fn press_allocations_are_bounded_and_deterministic() {
    // Warm-up sizes the allocator's internal structures.
    let _ = closed_run_allocs(30);
    let short = closed_run_allocs(30);
    let long = closed_run_allocs(90);
    let marginal = long.saturating_sub(short) / 60;
    assert!(
        marginal <= MARGINAL_ALLOCS_PER_PRESS,
        "loop hot path allocates {marginal} times per press \
         (budget {MARGINAL_ALLOCS_PER_PRESS}; short run {short}, long run {long})"
    );

    let a = closed_run_allocs(40);
    let b = closed_run_allocs(40);
    assert_eq!(
        a, b,
        "same-seed runs allocated differently — hidden nondeterminism in the hot path"
    );
}
