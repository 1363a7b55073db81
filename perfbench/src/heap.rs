//! Heap accounting behind `peak_heap_mb`: the largest number of bytes
//! the process held allocated at once.
//!
//! The resident set is not used for this: with several threads, glibc
//! keeps freed memory in per-thread arenas, so `VmHWM` of the same run
//! varies by tens of MiB with thread timing. Live heap bytes depend only
//! on what the program allocates. Each thread batches its changes and
//! publishes them in steps of at least [`FLUSH`] bytes, so the count is
//! exact to within a few KiB per thread and costs one thread-local add
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
const FLUSH: isize = 4096;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let publish = PENDING
        .try_with(|pending| {
            let v = pending.get() + delta;
            if v.abs() < FLUSH {
                pending.set(v);
                None
            } else {
                pending.set(0);
                Some(v)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(v) = publish {
        let live = LIVE.fetch_add(v, Ordering::Relaxed) + v;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees hold; the wrapper only
// counts bytes, and `account` never allocates (a const-initialised
// thread-local `Cell` and two atomics).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Peak live heap so far, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
