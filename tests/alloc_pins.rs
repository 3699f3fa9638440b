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
//!
//! The worker topology keeps its windows, each with its packets and its
//! results, and each worker its packet-slice table, across rounds: its
//! one-round campaign (8 windows of 250) pays for buffers that grow with a
//! window's bytes and hits, not for one seed per packet or one trace per
//! execution. The same campaign with a
//! merge barrier after every window runs 8 rounds and must not cost more:
//! besides its exact pin, it is held to the one-round count as a ceiling,
//! so a change that allocates per round again fails either way.
//!
//! The framed-TCP transport is measured as what it adds to the same inline
//! campaign in process, counting both ends (the socket server's threads
//! too), at `batch(1)` and at `batch(250)`. Once its buffers have grown, no
//! exchange and no packet allocates at either end: the 2,000
//! single-packet exchanges are held to the windowed campaign's count as a
//! ceiling, and the windowed campaign to fewer allocations than it has
//! executions. The two counts are not pinned: a connection's handler
//! thread starts on its own time, and under load a few of its allocations
//! fell outside the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use peachstar::campaign::{
    Campaign, CampaignConfig, CampaignReport, RunPlan, ShardConfig, ShardedCampaign, TransportMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig};
use peachstar::strategy::{
    GenerationStrategy, SemanticAwareConfig, SemanticAwareStrategy, StrategyKind, StrategyState,
};
use peachstar::Seed;
use peachstar_datamodel::emit::emit_default;
use peachstar_protocols::TargetId;

/// Allocations of the unbatched Peach campaign, which runs as a batch of one.
const PEACH_UNBATCHED: u64 = 987;
/// Allocations of the same campaign with `batch(64)`.
const PEACH_BATCH_64: u64 = 1_546;
/// Allocations of the same campaign on the worker topology, one worker.
const PEACH_ONE_WORKER: u64 = 1_281;
/// Allocations of the one-worker campaign with a merge barrier after every
/// window: 8 rounds instead of 1.
const PEACH_ONE_WORKER_8_ROUNDS: u64 = 1_062;
/// Allocations of the unbatched Peach\* campaign.
const PEACHSTAR_UNBATCHED: u64 = 5_778;
/// Allocations a final-snapshot capture adds to the Peach\* campaign.
/// `capture_final` returns an owned snapshot, so it clones the map, the
/// pool and the monitor; only checkpoints written to disk encode straight
/// from the engine.
const PEACHSTAR_CAPTURE: u64 = 573;
/// Allocations of encoding that final snapshot.
const PEACHSTAR_ENCODE: u64 = 14;
/// Length of the encoded final snapshot, in bytes.
const PEACHSTAR_ENCODED_LEN: u64 = 12_886;
/// Length of the final snapshot of the same campaign sampled at every
/// execution (2,000 series points), in bytes.
const PEACHSTAR_SERIES_ENCODED_LEN: u64 = 13_404;
/// Allocations that checkpointing after every window (8 checkpoints, each
/// into a rotation of 4 slots) adds to the Peach\* campaign.
const PEACHSTAR_CHECKPOINTS: u64 = 3_694;
/// Allocations of the valuable-seed path beyond one per new puzzle and two
/// per queued packet (its bytes and its model name): a fresh Peach\*
/// strategy observes every modbus model's default packet as valuable, then
/// its queue is drained. What remains is one-time growth: the models' crack
/// plans, the corpus's rule map and donor lists, the queue, and the
/// cracker's, refill's and emitter's reusable buffers.
const PEACHSTAR_OBSERVE_OVERHEAD: u64 = 112;

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

/// What the wire adds to an inline campaign: its allocations over a framed
/// loopback TCP connection beyond the same campaign in process. Both sides
/// count, the socket server's threads included.
fn wire(config: CampaignConfig) -> u64 {
    let over_tcp = inline(config.transport(TransportMode::FramedTcp));
    over_tcp.saturating_sub(inline(config))
}

/// The Peach campaign on the worker topology.
fn one_worker(shard: ShardConfig) -> u64 {
    campaign(|| {
        ShardedCampaign::new(
            TargetId::Modbus.create(),
            config(StrategyKind::Peach),
            shard,
        )
        .run()
    })
}

/// The final snapshot of an inline campaign, captured with `capture_final`.
fn final_snapshot(config: CampaignConfig) -> CampaignSnapshot {
    Campaign::new(TargetId::Modbus.create(), config)
        .run_plan(RunPlan {
            capture_final: true,
            ..RunPlan::default()
        })
        .expect("a capture-only campaign performs no fallible snapshot operations")
        .1
        .expect("capture_final returns the final snapshot")
}

/// The valuable-seed path on its own: the allocations of a fresh Peach\*
/// strategy observing every modbus model's default packet as valuable and
/// then handing out its whole queue, with the new puzzles and the queued
/// packets those observes made.
fn valuable_observes() -> (u64, u64, u64) {
    let models = TargetId::Modbus.create().data_models();
    let packets: Vec<Seed> = models
        .models()
        .iter()
        .map(|model| Seed::new(emit_default(model).expect("emits"), model.name(), false))
        .collect();
    let mut strategy = SemanticAwareStrategy::new(SemanticAwareConfig::default());
    let (observes, ()) = allocations(|| {
        for packet in &packets {
            strategy.observe(packet, true, &models);
        }
    });
    let StrategyState::PeachStar { corpus, queue, .. } = strategy.snapshot_state() else {
        unreachable!("a Peach* strategy");
    };
    let (puzzles, queued) = (corpus.inserted(), queue.len());
    drop((corpus, queue));
    let mut rng = SmallRng::seed_from_u64(3);
    let mut slot = Seed::new(Vec::new(), "", false);
    let (drain, ()) = allocations(|| {
        for _ in 0..queued {
            strategy.next_packet_into(&models, &mut rng, &mut slot);
        }
    });
    assert!(slot.semantic, "the drained packets are the queued ones");
    (observes + drain, puzzles, queued as u64)
}

fn main() -> ExitCode {
    // The first campaign in a process makes one allocation more than every
    // later one, so a warm-up runs before any pin is measured.
    inline(config(StrategyKind::Peach));

    let peach_unbatched = inline(config(StrategyKind::Peach));
    let peach_batch_1 = inline(config(StrategyKind::Peach).batch(1));
    let peach_batch_64 = inline(config(StrategyKind::Peach).batch(64));
    let peach_one_worker = one_worker(ShardConfig::with_workers(1));
    let peach_one_worker_8_rounds = one_worker(ShardConfig::with_workers(1).sync_windows(1));
    let peachstar_unbatched = inline(config(StrategyKind::PeachStar));
    let (captured, snapshot) = allocations(|| final_snapshot(config(StrategyKind::PeachStar)));
    let (encode, encoded) = allocations(|| snapshot.encode());
    let series_encoded =
        final_snapshot(config(StrategyKind::PeachStar).sample_interval(1)).encode();
    let rotation =
        std::env::temp_dir().join(format!("peachstar-alloc-pins-{}", std::process::id()));
    let checkpointed = campaign(|| {
        Campaign::new(TargetId::Modbus.create(), config(StrategyKind::PeachStar))
            .run_checkpointed(&CheckpointConfig::new(&rotation, 1).rotation(4))
            .expect("checkpoints write")
    });
    std::fs::remove_dir_all(&rotation).ok();
    let (observed, puzzles, queued) = valuable_observes();
    // Last, so that no server thread of theirs can still be allocating
    // while an exact pin is measured.
    let peach_wire_batch_1 = wire(config(StrategyKind::Peach).batch(1));
    let peach_wire_batch_250 = wire(config(StrategyKind::Peach).batch(250));

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
            "peach_one_worker_8_rounds",
            peach_one_worker_8_rounds,
            PEACH_ONE_WORKER_8_ROUNDS,
        ),
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
        (
            "peachstar_series_encoded_len",
            series_encoded.len() as u64,
            PEACHSTAR_SERIES_ENCODED_LEN,
        ),
        (
            "peachstar_checkpoints",
            checkpointed - peachstar_unbatched,
            PEACHSTAR_CHECKPOINTS,
        ),
        (
            "peachstar_valuable_observes",
            observed,
            puzzles + 2 * queued + PEACHSTAR_OBSERVE_OVERHEAD,
        ),
    ];
    // Ceilings: counts that may move, but never above another count.
    let ceilings = [
        // Rounds reuse the worker topology's buffers, so more rounds of the
        // same campaign cost no more allocations.
        (
            "peach_one_worker_8_rounds_within_1_round",
            peach_one_worker_8_rounds,
            peach_one_worker,
        ),
        // No exchange allocates, so 2,000 single-packet exchanges (and 8
        // resets) cost the wire no more than 9 windows of up to 250.
        (
            "peach_wire_batch_1_within_batch_250",
            peach_wire_batch_1,
            peach_wire_batch_250,
        ),
        // Nor does any packet: the wire adds fewer allocations than the
        // campaign has executions.
        (
            "peach_wire_batch_250_within_the_executions",
            peach_wire_batch_250,
            2_000,
        ),
    ];
    let checks = pins
        .into_iter()
        .map(|(name, measured, pinned)| (name, measured, measured == pinned, "pinned", pinned))
        .chain(ceilings.into_iter().map(|(name, measured, ceiling)| {
            (name, measured, measured <= ceiling, "ceiling", ceiling)
        }));
    let (mut passed, mut failed) = (0, 0);
    for (name, measured, ok, bound, value) in checks {
        if ok {
            println!("test {name} ... ok ({measured})");
            passed += 1;
        } else {
            println!("test {name} ... FAILED: measured {measured}, {bound} {value}");
            failed += 1;
        }
    }
    println!(
        "\ntest result: {}. {passed} passed; {failed} failed",
        if failed == 0 { "ok" } else { "FAILED" },
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
