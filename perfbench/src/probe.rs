//! Process-level probes read from outside the runtime: a counting global
//! allocator, the calling thread's context switches and the process's peak
//! resident set, all from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it without allocating.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every call that may hand out memory
/// (`alloc`, `alloc_zeroed`, `realloc`) per process and per thread.
/// Installed as the benchmark binary's `#[global_allocator]`, so it sees
/// the runtime's allocations without any change to the runtime.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics, publish no other data and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls made by every thread of the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocator calls made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Voluntary and involuntary context switches of the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxSwitches {
    pub voluntary: u64,
    pub involuntary: u64,
}

impl CtxSwitches {
    /// Read `/proc/thread-self/status`. Zero when the file is unreadable
    /// (non-Linux hosts), which the per-layer table then shows as 0.
    pub fn now() -> Self {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
        CtxSwitches {
            voluntary: status_field(&status, "voluntary_ctxt_switches:"),
            involuntary: status_field(&status, "nonvoluntary_ctxt_switches:"),
        }
    }

    pub fn since(self, earlier: CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
        }
    }
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// The first integer after `key` on its line of a `/proc/*/status` file.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(s, "VmHWM:"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), 7);
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches:"), 3);
        assert_eq!(status_field(s, "Missing:"), 0);
    }
}
