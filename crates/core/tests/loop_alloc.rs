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
//! genuinely needs (the SUO's observation vector, the model's output
//! records, channel traffic, the coverage snapshot). The scratch/executor
//! refactor took a closed-loop press on this scenario from ~175
//! allocation calls to 20 — the oracle executor alone dropped from ~78 to
//! ~3 by borrowing transitions and entry/exit actions from the machine
//! instead of cloning them — and later changes took it to 16, then
//! 14.5 once the boundary channels delivered into reused buffers, then
//! 5.3 once the TV's names travelled as borrowed `&'static str` literals
//! instead of fresh `String`s, then 4.6 once a press sized its
//! observation vector once. The faulted run's error path (repairs,
//! retransmissions) and the probed run's self-check bursts are budgeted
//! separately, and a diagnosed press, which folds its coverage as block
//! runs instead of snapshotting it, is pinned one call below an
//! undiagnosed one.
//!
//! Per-run set-up is pinned too. Every loop borrows the one specification
//! machine `tvsim::tv_spec()` builds per process, so building a loop and
//! running it costs a few dozen allocation calls rather than the ~1,700
//! a fresh `tv_spec_machine()` build makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use trader::faults::Schedule;
use trader::simkit::SimDuration;
use trader::tvsim::TvFault;
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
/// excluded here and pinned by [`setup_allocs`]).
fn closed_run_allocs(presses: usize) -> u64 {
    let scenario = TimedScenario::teletext_session(presses);
    let mut looped = TvDependabilityLoop::closed(1);
    let (allocs, outcome) = allocations_during(|| looped.run(&scenario));
    assert_eq!(outcome.steps, presses);
    assert_eq!(outcome.failure_steps, 0);
    allocs
}

/// Allocation calls to build a closed or open loop and run it over an
/// empty scenario: the set-up every scorecard cell and campaign arm pays.
fn setup_allocs(closed: bool) -> u64 {
    let scenario = TimedScenario::teletext_session(0);
    assert!(scenario.is_empty());
    let (allocs, outcome) = allocations_during(|| {
        let mut looped = if closed {
            TvDependabilityLoop::closed(1)
        } else {
            TvDependabilityLoop::open(1)
        };
        looped.run(&scenario)
    });
    assert_eq!(outcome.steps, 0);
    allocs
}

/// Runs a faulted closed loop over `presses` presses — two periodic
/// faults over lossy reliable channels, with or without online
/// diagnosis — and returns the allocation-call count of the `run`.
fn faulted_run_allocs(presses: usize, diagnose: bool) -> u64 {
    let scenario = TimedScenario::full_mix_session(presses);
    let mut looped = TvDependabilityLoop::closed(3);
    for (fault, duty_ms) in [
        (TvFault::MuteInversion, 600),
        (TvFault::TeletextRenderFault, 1_600),
    ] {
        looped.schedule_fault(
            Schedule::Periodic {
                period: SimDuration::from_millis(2_000),
                duty: SimDuration::from_millis(duty_ms),
            },
            fault,
        );
    }
    looped.set_channel_loss(0.1);
    looped.use_reliable(true);
    if diagnose {
        looped.diagnose_online(32);
    }
    let (allocs, outcome) = allocations_during(|| looped.run(&scenario));
    assert_eq!(outcome.steps, presses);
    assert_eq!(outcome.diagnoses_triggered > 0, diagnose, "{outcome:?}");
    allocs
}

/// Runs a healthy closed loop with active probes over a `presses`-press
/// full-mix session and returns the allocation-call count of the `run`:
/// the self-check bursts press the TV between user presses, so this is
/// the path the probed scorecard cells spend most of their allocations
/// on.
fn probed_run_allocs(presses: usize) -> u64 {
    let scenario = TimedScenario::full_mix_session(presses);
    let mut looped = TvDependabilityLoop::closed(1);
    looped.active_probes();
    let (allocs, outcome) = allocations_during(|| looped.run(&scenario));
    assert_eq!(outcome.steps, presses);
    allocs
}

/// The marginal allocation budget per additional press. The press loop
/// legitimately allocates for the SUO's observation vector, the model's
/// output records (their names are still `String`s), and the coverage
/// snapshot; the scratch-hoisted hot path must not add avoidable
/// per-step churn on top (fresh scratch vectors, cloned oracle
/// transitions, re-inserted state keys, owned copies of the TV's
/// names). Measured 20/press after the refactor vs ~175 before, 16.1
/// with a fresh `Vec` per channel delivery, 14.5 since the channels
/// deliver into reused buffers, and 5.3 since observation, event and
/// boundary-message names are borrowed, and 4.57 since the TV sizes a
/// press's observation vector once instead of growing it; the slack
/// (1.05, as before) covers allocator/toolchain drift without
/// readmitting one owned name per output.
const MARGINAL_ALLOCS_PER_PRESS: f64 = 5.7;

/// The marginal allocation budget per additional press of the faulted,
/// undiagnosed run (lossy reliable channels, repairs). Measured 29.9
/// when every channel delivery, ack batch and retransmission round
/// collected into a fresh `Vec` and discarded repair-path coverage went
/// through a snapshot, 21.1 since both are allocation-free, 18.3
/// since the reliable protocol moves each payload once instead of
/// cloning it onto the wire per transmission, 6.9 since the TV's
/// names are borrowed, and 5.91 since a press's observation vector is
/// sized once (the slack stays 1.4).
const FAULTED_MARGINAL_ALLOCS_PER_PRESS: f64 = 7.4;

/// The marginal allocation budget per additional user press of a
/// healthy run with the health observatory on: each press may be
/// followed by a probe burst of 1–5 presses and its witness samples.
/// Measured 64.7 while every probe press copied the TV's names into
/// fresh `String`s, 19.8 since they are borrowed and the timer
/// heartbeat returns an `Option` instead of a `Vec`, and 16.4 since
/// every press, probe presses included, sizes its observation vector
/// once (the slack stays 1.2).
const PROBED_MARGINAL_ALLOCS_PER_PRESS: f64 = 17.7;

/// The allocation budget for building a closed loop and running it over
/// an empty scenario. Measured 48 with the shared specification machine,
/// 1,746 when every loop built its own, and 43 since the detector's
/// consistency rule borrows its names (the slack stays 16).
const CLOSED_SETUP_ALLOCS: u64 = 59;

/// The same budget for an open loop (no monitor, detectors or probes).
/// Measured 21 with the shared specification machine, unchanged by the
/// borrowed names.
const OPEN_SETUP_ALLOCS: u64 = 32;

/// All checks live in one test: the counter is process-wide, so a
/// second test running in parallel would count this one's allocations
/// (and vice versa).
#[test]
fn press_allocations_are_bounded_and_deterministic() {
    // Online diagnosis folds each press's coverage, taken as block runs
    // into a reused buffer, into counters allocated at set-up, and scores
    // the suspect window once, at the end of the run. So a diagnosed
    // press makes exactly one allocation call fewer than an undiagnosed
    // one: the 60,000-block snapshot the undiagnosed press still takes
    // for the monitor to drop.
    let _ = faulted_run_allocs(60, true);
    let (diag_short, diag_long) = (faulted_run_allocs(60, true), faulted_run_allocs(180, true));
    let (short, long) = (
        faulted_run_allocs(60, false),
        faulted_run_allocs(180, false),
    );
    assert_eq!(
        diag_long - diag_short,
        long - short - 120,
        "a diagnosed press should allocate one call fewer than an undiagnosed one, \
         which snapshots its coverage ({diag_short} and {diag_long} calls over 60 and 180 \
         diagnosed presses, {short} and {long} undiagnosed)"
    );
    let a = faulted_run_allocs(60, true);
    assert_eq!(
        a, diag_short,
        "same-seed diagnosed runs allocated differently"
    );

    // The error path: faults fire, the comparator and detectors flag
    // them, repairs run and lost frames are retransmitted.
    let marginal = long.saturating_sub(short) as f64 / 120.0;
    assert!(
        marginal <= FAULTED_MARGINAL_ALLOCS_PER_PRESS,
        "faulted loop allocates {marginal:.1} times per press \
         (budget {FAULTED_MARGINAL_ALLOCS_PER_PRESS}; short run {short}, long run {long})"
    );

    // Warm-up sizes the allocator's internal structures.
    let _ = closed_run_allocs(30);
    let short = closed_run_allocs(30);
    let long = closed_run_allocs(90);
    let marginal = long.saturating_sub(short) as f64 / 60.0;
    assert!(
        marginal <= MARGINAL_ALLOCS_PER_PRESS,
        "loop hot path allocates {marginal:.1} times per press \
         (budget {MARGINAL_ALLOCS_PER_PRESS}; short run {short}, long run {long})"
    );

    let a = closed_run_allocs(40);
    let b = closed_run_allocs(40);
    assert_eq!(
        a, b,
        "same-seed runs allocated differently — hidden nondeterminism in the hot path"
    );

    // The probe path: every user press may be followed by a self-check
    // burst and its witness samples.
    let (short, long) = (probed_run_allocs(60), probed_run_allocs(180));
    let marginal = long.saturating_sub(short) as f64 / 120.0;
    assert!(
        marginal <= PROBED_MARGINAL_ALLOCS_PER_PRESS,
        "probed loop allocates {marginal:.1} times per user press \
         (budget {PROBED_MARGINAL_ALLOCS_PER_PRESS}; short run {short}, long run {long})"
    );
    assert_eq!(
        short,
        probed_run_allocs(60),
        "same-seed probed runs allocated differently"
    );

    // Warm-up builds the shared specification machine, which every later
    // loop borrows.
    let _ = (setup_allocs(true), setup_allocs(false));
    let (closed, open) = (setup_allocs(true), setup_allocs(false));
    assert!(
        closed <= CLOSED_SETUP_ALLOCS,
        "closed-loop set-up makes {closed} allocation calls (budget {CLOSED_SETUP_ALLOCS})"
    );
    assert!(
        open <= OPEN_SETUP_ALLOCS,
        "open-loop set-up makes {open} allocation calls (budget {OPEN_SETUP_ALLOCS})"
    );
}
