//! Parsing a module allocates per array, not per device: a counting
//! global allocator sees fewer heap allocations than one per ten devices
//! while the `.mnl` text of a 10^4-device module parses. A module that
//! owned each name, template and pin name as its own `String` would make
//! several per device.
//!
//! The allocator counts for the whole process, so this file holds one
//! test: no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use maestro_netlist::generate::{self, RandomLogicConfig};
use maestro_netlist::mnl;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, so from `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn parsing_a_module_allocates_per_array_not_per_device() {
    let cfg = RandomLogicConfig {
        device_count: 12_000,
        ..Default::default()
    };
    let text = mnl::to_mnl(&generate::random_logic(7, &cfg));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let module = mnl::parse(&text).expect("generated text parses");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let devices = module.device_count();
    assert!(devices >= 10_000, "{devices} devices");
    assert_eq!(mnl::to_mnl(&module), text, "the parse kept every binding");
    assert!(
        allocations < devices / 10,
        "{allocations} allocations to parse {devices} devices"
    );
}
