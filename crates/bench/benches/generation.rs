//! Micro-benchmark: packet generation throughput, random (Peach) vs
//! semantic-aware (Peach\*), including the `leaves_only` and `repair`
//! ablations called out in DESIGN.md.
//!
//! Each bench times what a campaign runs: `random_peach` is 100 packets of
//! Algorithm 1 through `next_packet_into` into one reused slot, on a
//! strategy whose buffers are warm; each `semantic_*` bench is one valuable
//! `observe` (Algorithm 2's crack, then Algorithm 3's refill) plus handing
//! out the batch it queued.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::strategy::{
    GenerationStrategy, RandomGenerationStrategy, SemanticAwareConfig, SemanticAwareStrategy,
};
use peachstar::Seed;
use peachstar_datamodel::emit::emit_default;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::TargetId;

/// A strategy that has observed every modbus default packet but the last
/// and handed out what it queued, so its corpus holds donors and its
/// buffers are warm, and the last default packet, whose observe is timed:
/// it cracks into new puzzles, so it refills the queue.
fn primed_semantic(
    models: &DataModelSet,
    config: SemanticAwareConfig,
) -> (SemanticAwareStrategy, Seed, Seed) {
    let mut packets: Vec<Seed> = models
        .models()
        .iter()
        .map(|model| {
            Seed::new(
                emit_default(model).expect("default packet emits"),
                model.name(),
                false,
            )
        })
        .collect();
    let valuable = packets.pop().expect("modbus has models");
    let mut strategy = SemanticAwareStrategy::new(config);
    let mut slot = Seed::new(Vec::new(), "", false);
    for packet in &packets {
        strategy.observe(packet, true, models);
        drain(&mut strategy, models, &mut slot);
    }
    (strategy, valuable, slot)
}

/// Hands out queued packets until the strategy falls back to Algorithm 1,
/// returning how many were queued.
fn drain(strategy: &mut SemanticAwareStrategy, models: &DataModelSet, slot: &mut Seed) -> usize {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut queued = 0;
    loop {
        strategy.next_packet_into(models, &mut rng, slot);
        if !slot.semantic {
            return queued;
        }
        queued += 1;
    }
}

fn bench_generation(c: &mut Criterion) {
    let models = TargetId::Modbus.create().data_models();
    let mut group = c.benchmark_group("generation");
    group.sample_size(30);

    let mut strategy = RandomGenerationStrategy::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut slot = Seed::new(Vec::new(), "", false);
    for _ in 0..1_000 {
        strategy.next_packet_into(&models, &mut rng, &mut slot);
    }
    group.bench_function("random_peach", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for _ in 0..100 {
                strategy.next_packet_into(&models, &mut rng, &mut slot);
                bytes += slot.len();
            }
            bytes
        });
    });

    let configs = [
        ("semantic_peachstar", SemanticAwareConfig::default()),
        (
            "semantic_leaves_only",
            SemanticAwareConfig {
                leaves_only: true,
                ..SemanticAwareConfig::default()
            },
        ),
        (
            "semantic_no_repair",
            SemanticAwareConfig {
                repair: false,
                ..SemanticAwareConfig::default()
            },
        ),
        (
            "semantic_donor_cap_1",
            SemanticAwareConfig {
                max_donors_per_field: 1,
                ..SemanticAwareConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_function(name, |b| {
            b.iter_batched(
                || primed_semantic(&models, config),
                |(mut strategy, valuable, mut slot)| {
                    strategy.observe(&valuable, true, &models);
                    let queued = drain(&mut strategy, &models, &mut slot);
                    // Returning the strategy keeps the teardown of its
                    // corpus out of the timed region.
                    (queued, strategy, valuable, slot)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
