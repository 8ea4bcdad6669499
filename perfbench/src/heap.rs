//! Peak heap: a counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`Counting`] as its global allocator, so
//! every allocation the program makes is counted where it happens. Unlike
//! the resident set, the live-heap high-water mark does not depend on
//! what the allocator kept from earlier passes, and at one worker it
//! repeats exactly for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Decisions per heap part on the serve and sim workloads.
const SEGMENT: usize = 25;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe
// the sizes of allocations that succeeded.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

/// Live-heap high-water marks of consecutive parts of a pass.
#[derive(Debug, Default)]
pub struct PeakMeter {
    parts_mb: Vec<f64>,
    pending: usize,
}

impl PeakMeter {
    pub fn start() -> Self {
        reset_peak();
        PeakMeter::default()
    }

    /// Count one decision; every [`SEGMENT`] decisions close a part.
    pub fn decision(&mut self) {
        self.pending += 1;
        if self.pending == SEGMENT {
            self.cut();
        }
    }

    /// Close the current part: record its high-water mark and start the
    /// next part from the heap that is live now.
    pub fn cut(&mut self) {
        self.parts_mb
            .push(PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0));
        self.pending = 0;
        reset_peak();
    }

    /// Close a partly filled last part and hand back every part's mark.
    pub fn finish(mut self) -> Vec<f64> {
        if self.pending > 0 {
            self.cut();
        }
        self.parts_mb
    }
}

fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
