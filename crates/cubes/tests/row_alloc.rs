//! Allocation counts of the row store: a row of up to 64 pins keeps its
//! planes inline, so parsing, cloning and filling a narrow set allocate
//! only for the set's own `Vec`; a wider row owns exactly one block.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpfill_cubes::format::parse_patterns;
use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::Bit;

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

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A pattern file of `cubes` rows over `width` pins, `0/1/X` from a
/// fixed xorshift stream.
fn pattern_text(cubes: usize, width: usize) -> String {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut text = String::with_capacity(cubes * (width + 1));
    for _ in 0..cubes {
        for _ in 0..width {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            text.push(['0', '1', 'X', 'X'][(state >> 62) as usize]);
        }
        text.push('\n');
    }
    text
}

/// Allocations made by each step of parse → clone → zero-fill (the
/// clone plus per-row `fill_x_with(Zero)` that `ZeroFill` runs).
struct Steps {
    parse: usize,
    clone: usize,
    fill: usize,
}

fn steps(cubes: usize, width: usize) -> Steps {
    let text = pattern_text(cubes, width);
    let (set, parse) = counted(|| parse_patterns(&text).expect("generated patterns parse"));
    assert_eq!((set.len(), set.width()), (cubes, width));
    let (copy, clone) = counted(|| set.clone());
    let (filled, fill) = counted(move || {
        let mut filled = copy;
        for row in filled.packed_cubes_mut() {
            row.fill_x_with(Bit::Zero);
        }
        filled
    });
    assert!(filled.is_fully_specified());
    Steps { parse, clone, fill }
}

#[test]
fn narrow_rows_allocate_independently_of_the_cube_count() {
    let small = steps(1024, 16);
    let large = steps(4096, 16);
    // Cloning a set is one `Vec`; filling in place allocates nothing.
    assert_eq!((small.clone, large.clone), (1, 1));
    assert_eq!((small.fill, large.fill), (0, 0));
    // Parsing grows one `Vec` by doubling: four times the cubes is two
    // more growth steps, not thousands of row blocks.
    assert!(
        large.parse <= small.parse + 2,
        "parse allocations grew with the cube count: {} at 1024 cubes, {} at 4096",
        small.parse,
        large.parse
    );
    assert!(large.parse <= 32, "{} allocations to parse", large.parse);
}

#[test]
fn wide_rows_own_exactly_one_block_each() {
    let cubes = 4096;
    let narrow = steps(cubes, 16);
    let wide = steps(cubes, 2048);
    // Same set shape, so the `Vec` growth matches: the difference is
    // the row blocks, one per cube.
    assert_eq!(wide.parse - narrow.parse, cubes);
    assert_eq!(wide.clone, cubes + 1);
    assert_eq!(wide.fill, 0);
    let (_, one) = counted(|| PackedBits::all_x(65));
    assert_eq!(one, 1);
    let (_, none) = counted(|| PackedBits::all_x(64));
    assert_eq!(none, 0);
}

#[test]
fn a_row_is_at_most_four_words() {
    assert!(std::mem::size_of::<PackedBits>() <= 32);
}
