//! Steady-state allocation gate for the simulator hot path.
//!
//! Every structure the run loop touches per record (caches, DBI entries,
//! sweep and writeback scratch buffers, DRAM queues) is sized at
//! construction or reaches its high-water mark during warmup, so a longer
//! measurement window must not make `System::run` allocate more. The
//! check counts allocations, not time, so it does not depend on the host.
//!
//! The counting allocator is process-wide, which is why this file holds a
//! single test: a second test running on another thread would add its own
//! allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use system_sim::{Mechanism, System, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `System::run` alone (construction excluded).
fn run_allocations(mix: &WorkloadMix, config: &SystemConfig) -> u64 {
    let system = System::new(mix, config);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = system.run();
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    drop(result);
    made
}

#[test]
fn longer_runs_allocate_nothing_more() {
    let mix = WorkloadMix::new(vec![
        Benchmark::Lbm,
        Benchmark::Stream,
        Benchmark::GemsFdtd,
        Benchmark::Mcf,
    ]);
    let mut failures = Vec::new();
    for l2_dbi in [false, true] {
        for mechanism in Mechanism::ALL {
            let mut config = SystemConfig::for_cores(4, mechanism);
            config.llc_bytes_per_core = 256 * 1024;
            config.l2_dbi = l2_dbi;
            config.predictor_epoch_cycles = 100_000;
            config.warmup_insts = 200_000;
            let counts: Vec<u64> = [100_000, 300_000]
                .into_iter()
                .map(|measure| {
                    config.measure_insts = measure;
                    run_allocations(&mix, &config)
                })
                .collect();
            if counts[0] != counts[1] {
                failures.push(format!(
                    "{mechanism} (l2_dbi {l2_dbi}): {} allocations at the short window, {} at the long one",
                    counts[0], counts[1]
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
