//! A counting global allocator: allocator calls and net heap growth,
//! with a resettable peak.
//!
//! Counting is off unless switched on with [`counting`]: its shared
//! atomics slow allocation-heavy code on two threads by tens of percent,
//! so timed runs never count. Heap bytes are tracked as a signed net
//! balance; a block allocated while counting was off and freed while on
//! lowers the balance exactly as it would have with counting always on,
//! so growth above a [`reset_peak`] level is unaffected. The counters
//! publish no other data, so `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let bytes = bytes as i64;
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for a block this allocator handed out.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with counting on, restoring the previous state after.
pub fn counting<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ON.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(ON.swap(true, Ordering::SeqCst));
    f()
}

/// Allocator calls (alloc, alloc_zeroed, realloc) counted so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Re-arms the peak at the current balance and returns that level.
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest balance since the last [`reset_peak`], in bytes.
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
