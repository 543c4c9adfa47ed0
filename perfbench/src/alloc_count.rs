//! A counting global allocator for the traced run's `alloc.*` metrics.
//!
//! Only the traced binary (`perfbench_traced`) installs it, so untraced runs
//! pay nothing. `GlobalAlloc` is an unsafe trait; delegating to `System`
//! verbatim adds no behaviour beyond two relaxed counters, which is why this
//! file is the crate's one sanctioned `unsafe` (the same exception as the
//! repository's `suite/tests/alloc_free.rs`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap requests (alloc, alloc_zeroed, realloc) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those calls.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; install with `#[global_allocator]`.
#[derive(Debug)]
pub struct CountingAlloc;

#[inline]
fn note(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` requested so far; both stay 0 unless the binary
/// installed [`CountingAlloc`].
#[inline]
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
