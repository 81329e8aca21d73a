//! A counting global allocator for the traced iteration.
//!
//! Counting is off except while [`Counting::enable`] is in force, so the
//! untraced iterations pay one relaxed load per allocation and nothing
//! else. The count covers every thread, pool workers included, and counts
//! each call that may hand out new memory: `alloc`, `alloc_zeroed` and
//! `realloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Both atomics are statistics that publish no other data, so `Relaxed`
// is enough.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
pub struct Counting;

impl Counting {
    /// Switches counting on or off.
    pub fn enable(on: bool) {
        ON.store(on, Relaxed);
    }

    /// Allocations counted so far.
    pub fn count() -> u64 {
        COUNT.load(Relaxed)
    }

    fn tick() {
        if ON.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::tick();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::tick();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::tick();
        // SAFETY: `ptr` was allocated by this allocator, which is `System`
        // underneath, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}
