//! Allocation budget of the connection lab's packet path.
//!
//! A counting global allocator measures heap allocations (including
//! reallocations) per lab run, with every run reusing one [`LabScratch`]
//! the way a scan worker does. Two mixes: the clean, untapped probe of a
//! paper sweep, and a tapped run over a lossy, reordering, jittery path.
//! The budgets sit above the measured counts with headroom; a change that
//! puts an allocation back on the per-packet path (≈ 60 packets per run)
//! blows through them.
//!
//! Measured: 180 allocations (156 KB) per clean run and 203 (176 KB) per
//! lossy tapped run. While every packet still allocated its frames, ACK
//! ranges and payload copies, the same runs made 614 (254 KB) and 736
//! (299 KB); both budgets stay under a third of those.

use quicspin_quic::{ConnectionLab, LabConfig, LabScratch, ServerProfile, TransportConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread, then defers to the
/// system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Runs `runs` labs through one scratch after three warm-up runs and
/// returns (allocations, bytes) per run.
fn per_run(runs: u64, config: impl Fn(u64) -> LabConfig) -> (u64, u64) {
    let mut scratch = LabScratch::default();
    let mut run = |seed| {
        let out = ConnectionLab::new(config(seed)).run_with_scratch(&mut scratch);
        assert!(out.response_complete, "seed {seed}");
        scratch.reclaim(out);
    };
    for seed in 0..3 {
        run(seed);
    }
    let (a0, b0) = counts();
    for seed in 3..3 + runs {
        run(seed);
    }
    let (a1, b1) = counts();
    ((a1 - a0) / runs, (b1 - b0) / runs)
}

fn config(seed: u64, loss: f64, reorder: f64, jitter: f64, tap: Option<f64>) -> LabConfig {
    let rtt = 15.0 + (seed % 7) as f64 * 12.0;
    LabConfig {
        path_rtt_ms: rtt,
        jitter_ms: rtt * jitter,
        loss,
        reorder,
        seed: 0x5eed_0000 + seed,
        client: TransportConfig::default(),
        server: TransportConfig::default(),
        server_profile: ServerProfile::default(),
        link_rate_bytes_per_sec: Some(12_500_000),
        tap_position: tap,
        response_prefix: b"HTTP/3 200\r\nserver: budget\r\n\r\n".to_vec(),
        ..LabConfig::default()
    }
}

/// Allocation budget per clean, untapped run.
const CLEAN_BUDGET: u64 = 200;
/// Allocation budget per lossy, tapped run.
const LOSSY_TAP_BUDGET: u64 = 240;

#[test]
fn lab_runs_stay_inside_their_allocation_budget() {
    let (clean, clean_bytes) = per_run(40, |s| config(s, 0.0, 0.0, 0.0, None));
    let (lossy, lossy_bytes) = per_run(40, |s| config(s, 0.02, 0.01, 0.05, Some(0.5)));
    println!(
        "allocations per run: clean {clean} ({} KB), lossy tap {lossy} ({} KB)",
        clean_bytes / 1024,
        lossy_bytes / 1024
    );
    assert!(
        clean <= CLEAN_BUDGET,
        "clean lab run made {clean} allocations (budget {CLEAN_BUDGET})"
    );
    assert!(
        lossy <= LOSSY_TAP_BUDGET,
        "lossy tapped lab run made {lossy} allocations (budget {LOSSY_TAP_BUDGET})"
    );
}
