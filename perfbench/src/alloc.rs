//! Counting global allocator for the traced run.
//!
//! Counts `alloc` and `realloc` calls, like the `hotpath` probe behind
//! `BENCH_hotpath.json`, so `mc.allocs_per_exec` continues that series.
//! Counting is off unless a traced pass switches it on, and a thread
//! can exclude work the benchmark adds itself (its duplicate rf
//! signature and sampled checker calls) with [`uncounted`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ENABLED.load(Ordering::Relaxed) && !SUPPRESSED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switch counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` without counting this thread's allocations.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    SUPPRESSED.with(|s| s.set(true));
    let out = f();
    SUPPRESSED.with(|s| s.set(false));
    out
}
