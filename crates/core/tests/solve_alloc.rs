//! Allocation counts of the BCP solve: the start index is one flat
//! layout and the batch ladder one array, so a solve makes a number of
//! allocations independent of the color count — not one per color.
//!
//! A counting global allocator tallies allocations per thread, and the
//! solves run under a 1-thread pool, so every allocation they make lands
//! on the test's own thread and tests running on other threads do not
//! disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpfill_core::bcp::{BcpInstance, SolveOptions};
use dpfill_core::Interval;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allowed growth in allocations from 4096 to 65536 colors: a few more
/// parametric probes at most, never one per color.
const SLACK: usize = 16;

/// An instance over `colors` colors with the same density at every
/// size: about 1.2 intervals per color, mostly short with every
/// 64th spanning up to the full range, a light baseline, and — when
/// `weighted` — loads 1..=16. Intervals come from a fixed xorshift
/// stream.
fn instance(colors: usize, weighted: bool) -> BcpInstance {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ colors as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let c = colors as u64;
    let mut inst = BcpInstance::new(colors);
    for i in 0..colors + colors / 5 {
        let start = next() % c;
        let reach = if i % 64 == 0 { c } else { 8 };
        let end = (start + next() % reach).min(c - 1);
        let interval = Interval::new(start as u32, end as u32);
        let load = if weighted { 1 + next() % 16 } else { 1 };
        inst.add_weighted_interval(interval, load)
            .expect("interval in range, load >= 1");
    }
    for t in 0..colors {
        if next() % 8 == 0 {
            inst.add_baseline(t, 1 + next() % 2)
                .expect("color in range");
        }
    }
    inst
}

/// Allocations made on this thread by one `solve_with` of `inst` under
/// a 1-thread pool.
fn solve_allocations(inst: &BcpInstance) -> usize {
    let pool = minipool::ThreadPool::new(1);
    minipool::with_pool(&pool, || {
        let opts = SolveOptions::default();
        let before = ALLOCATIONS.with(Cell::get);
        let solution = inst
            .solve_with(&opts)
            .expect("mapping-shaped instances solve");
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert!(solution.peak.with_baseline >= solution.lower_bound);
        made
    })
}

fn assert_independent_of_colors(weighted: bool) {
    let small = instance(4096, weighted);
    let large = instance(65536, weighted);
    assert_eq!(small.is_unit(), !weighted);
    let (small, large) = (solve_allocations(&small), solve_allocations(&large));
    assert!(
        large <= small + SLACK,
        "{} solve allocations grew with the color count: {small} at 4096 colors, \
         {large} at 65536",
        if weighted { "weighted" } else { "unit" }
    );
}

#[test]
fn unit_solve_allocations_are_independent_of_the_color_count() {
    assert_independent_of_colors(false);
}

#[test]
fn weighted_solve_allocations_are_independent_of_the_color_count() {
    assert_independent_of_colors(true);
}
