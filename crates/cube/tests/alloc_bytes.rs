//! Verifies that cube materialization does no **schema-sized work**: a
//! build over a tiny universe must allocate bytes in proportion to its
//! ratings and distinct reviewer profiles, not to the reviewer schema's
//! cell count (14 994 base cells, 26 928 cells over the 8 geo cuboids).
//! A dense per-cell count, entry or slot table for even one cuboid would
//! blow the bound below.
//!
//! The counter is thread-local so concurrent test-harness machinery on
//! other threads cannot perturb the measurement (the measured build runs
//! single-threaded, i.e. inline); this file holds a single test for the
//! same reason.

use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::synth::{generate, SynthConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
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
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_allocated() -> u64 {
    BYTES.with(|c| c.get())
}

#[test]
fn tiny_universe_build_allocates_no_schema_sized_tables() {
    let dataset = generate(&SynthConfig::tiny(606)).unwrap();
    let item = dataset.find_title("Toy Story").unwrap();
    let idx: Vec<u32> = dataset.rating_range_for_item(item).take(8).collect();
    assert_eq!(idx.len(), 8);
    let options = CubeOptions {
        min_support: 1,
        require_geo: true,
        max_arity: 4,
    };

    let before = bytes_allocated();
    let cube = RatingCube::build_with_threads(&dataset, idx, options, 1);
    let build_bytes = bytes_allocated() - before;
    assert!(!cube.is_empty());
    black_box(&cube);

    assert!(
        build_bytes <= 150_000,
        "an 8-rating build allocated {build_bytes} B — a table sized by the \
         schema's cell count crept back in"
    );
}
