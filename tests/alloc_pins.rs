//! Allocation pins: the exact number of heap allocations that small, fixed
//! campaigns make, counted by a `#[global_allocator]` that wraps the system
//! allocator.
//!
//! Allocation counts are deterministic costs, so they are pinned exactly,
//! like the pinned reports: a change that adds allocations to the generate,
//! execute, reduce or checkpoint path fails here, and a change that removes
//! some moves the pin down in the same commit. Every campaign is Peach or
//! Peach\* on modbus, 2,000 executions, seed 3, a reset every 250.
//!
//! Registered with `harness = false`: `main` runs the pins one after another
//! on one thread, so no concurrently running test allocates into the
//! counter. Worker threads of the worker topology count too.
//!
//! The worker topology is pinned with one worker. With two, the count
//! depends on the thread schedule: each worker's executor pools buffers
//! (the trace map's dirty-slot list among them) that grow with the windows
//! that worker happens to run, so the same campaign measured a few
//! allocations apart from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use peachstar::campaign::{
    Campaign, CampaignConfig, CampaignReport, RunPlan, ShardConfig, ShardedCampaign,
};
use peachstar::strategy::StrategyKind;
use peachstar_protocols::TargetId;

/// Allocations of the unbatched Peach campaign, which runs as a batch of one.
const PEACH_UNBATCHED: u64 = 1_201;
/// Allocations of the same campaign with `batch(64)`.
const PEACH_BATCH_64: u64 = 1_887;
/// Allocations of the same campaign on the worker topology, one worker.
const PEACH_ONE_WORKER: u64 = 9_800;
/// Allocations of the unbatched Peach\* campaign.
const PEACHSTAR_UNBATCHED: u64 = 41_896;
/// Allocations a final-snapshot capture adds to the Peach\* campaign.
const PEACHSTAR_CAPTURE: u64 = 573;
/// Allocations of encoding that final snapshot.
const PEACHSTAR_ENCODE: u64 = 63;
/// Length of the encoded final snapshot, in bytes.
const PEACHSTAR_ENCODED_LEN: u64 = 19_006;

/// The system allocator, counting every `alloc` and `realloc` (the provided
/// `alloc_zeroed` goes through `alloc`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made, on any thread, while `f` runs, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Relaxed);
    let result = f();
    (ALLOCATIONS.load(Relaxed) - before, result)
}

fn config(strategy: StrategyKind) -> CampaignConfig {
    CampaignConfig::new(strategy)
        .executions(2_000)
        .rng_seed(3)
        .reset_interval(250)
}

/// Allocations of one whole campaign: target, set-up, run and report.
fn campaign(run: impl FnOnce() -> CampaignReport) -> u64 {
    let (count, report) = allocations(run);
    assert_eq!(report.executions, 2_000);
    count
}

fn inline(config: CampaignConfig) -> u64 {
    campaign(|| Campaign::new(TargetId::Modbus.create(), config).run())
}

fn main() -> ExitCode {
    // The first campaign in a process makes one allocation more than every
    // later one, so a warm-up runs before any pin is measured.
    inline(config(StrategyKind::Peach));

    let peach_unbatched = inline(config(StrategyKind::Peach));
    let peach_batch_1 = inline(config(StrategyKind::Peach).batch(1));
    let peach_batch_64 = inline(config(StrategyKind::Peach).batch(64));
    let peach_one_worker = campaign(|| {
        ShardedCampaign::new(
            TargetId::Modbus.create(),
            config(StrategyKind::Peach),
            ShardConfig::with_workers(1),
        )
        .run()
    });
    let peachstar_unbatched = inline(config(StrategyKind::PeachStar));
    let (captured, snapshot) = allocations(|| {
        Campaign::new(TargetId::Modbus.create(), config(StrategyKind::PeachStar))
            .run_plan(RunPlan {
                capture_final: true,
                ..RunPlan::default()
            })
            .expect("a capture-only campaign performs no fallible snapshot operations")
            .1
            .expect("capture_final returns the final snapshot")
    });
    let (encode, encoded) = allocations(|| snapshot.encode());

    let pins = [
        ("peach_unbatched", peach_unbatched, PEACH_UNBATCHED),
        // An unbatched inline campaign is a batch of one by construction.
        (
            "peach_unbatched_equals_batch_1",
            peach_batch_1,
            peach_unbatched,
        ),
        ("peach_batch_64", peach_batch_64, PEACH_BATCH_64),
        ("peach_one_worker", peach_one_worker, PEACH_ONE_WORKER),
        (
            "peachstar_unbatched",
            peachstar_unbatched,
            PEACHSTAR_UNBATCHED,
        ),
        (
            "peachstar_capture",
            captured - peachstar_unbatched,
            PEACHSTAR_CAPTURE,
        ),
        ("peachstar_encode", encode, PEACHSTAR_ENCODE),
        (
            "peachstar_encoded_len",
            encoded.len() as u64,
            PEACHSTAR_ENCODED_LEN,
        ),
    ];
    let mut failed = 0;
    for (name, measured, pinned) in pins {
        if measured == pinned {
            println!("test {name} ... ok ({measured})");
        } else {
            println!("test {name} ... FAILED: measured {measured}, pinned {pinned}");
            failed += 1;
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed",
        if failed == 0 { "ok" } else { "FAILED" },
        pins.len() - failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
