//! The generator's contract: one iteration of Algorithm 1 equals the
//! two-pass form it was written from, and Peach\*'s refill (Algorithm 3)
//! equals the cross product it was written as.
//!
//! The first oracle is that two-pass form. It picks a model, then for every
//! leaf either keeps the default (`gen_bool(0.15)`) or runs the leaf's
//! mutator into a buffer of its own, and only then emits the packet with
//! File Fixup on. The strategies generate in one pass over the model's
//! leaves instead. The second oracle builds every refill batch as a list of
//! cloned assignments, expanded leaf by leaf and truncated at `max_batch`;
//! the strategy emits the batch's tuples by index from one candidate table.
//! Each pair must produce the same packets, and leave the RNG (and the
//! corpus and queue) in the same state, for every target's model set:
//! seeded campaigns, and with them every pinned report, depend on it.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use peachstar::mutator::{generate_leaf, generate_leaf_into};
use peachstar::strategy::{
    GenerationStrategy, RandomGenerationStrategy, SemanticAwareConfig, SemanticAwareStrategy,
    StrategyKind, StrategyState,
};
use peachstar::{PuzzleCorpus, Seed};
use peachstar_datamodel::crack::crack;
use peachstar_datamodel::emit::{emit_with, EmitScratch};
use peachstar_datamodel::{DataModel, DataModelSet, InsTree};
use peachstar_protocols::TargetId;

const PACKETS: usize = 2_000;

/// One content buffer per leaf plus a presence mask.
#[derive(Default)]
struct Leaves {
    bufs: Vec<Vec<u8>>,
    used: Vec<bool>,
}

/// Algorithm 1 in two passes: draw every leaf, then emit and repair.
fn oracle_packet(
    models: &DataModelSet,
    rng: &mut SmallRng,
    leaves: &mut Leaves,
    scratch: &mut EmitScratch,
    out: &mut Seed,
) {
    let model = &models.models()[rng.gen_range(0..models.len())];
    let linear = model.linear();
    leaves.used.clear();
    leaves.used.resize(linear.len(), false);
    leaves
        .bufs
        .resize_with(linear.len().max(leaves.bufs.len()), Vec::new);
    for (index, leaf) in linear.iter().enumerate() {
        if rng.gen_bool(0.15) {
            continue;
        }
        leaves.used[index] = true;
        leaves.bufs[index].clear();
        generate_leaf_into(&leaf.chunk, rng, &mut leaves.bufs[index]);
    }
    emit_with(model, true, scratch, &mut out.bytes, |index, _, bytes| {
        if leaves.used[index] {
            bytes.extend_from_slice(&leaves.bufs[index]);
        }
        leaves.used[index]
    });
    out.model.clear();
    out.model.push_str(model.name());
}

#[test]
fn one_pass_generation_matches_the_two_pass_oracle() {
    for target in TargetId::ALL {
        let models = target.create().data_models();
        // Peach\* without feedback generates exactly as Peach does.
        for kind in [StrategyKind::Peach, StrategyKind::PeachStar] {
            for seed in 1..=5u64 {
                let mut strategy = kind.create();
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = SmallRng::seed_from_u64(seed);
                let mut leaves = Leaves::default();
                let mut scratch = EmitScratch::new();
                let mut packet = Seed::new(Vec::new(), "", false);
                let mut expected = Seed::new(Vec::new(), "", false);
                for round in 0..PACKETS {
                    strategy.next_packet_into(&models, &mut rng, &mut packet);
                    oracle_packet(
                        &models,
                        &mut oracle_rng,
                        &mut leaves,
                        &mut scratch,
                        &mut expected,
                    );
                    assert_eq!(
                        (packet.model.as_str(), &packet.bytes),
                        (expected.model.as_str(), &expected.bytes),
                        "{target} {kind} seed {seed} packet {round}"
                    );
                    assert!(!packet.semantic);
                }
                assert_eq!(rng, oracle_rng, "{target} {kind} seed {seed}: RNG state");
            }
        }
    }
}

/// Algorithm 3 as it was first written, the oracle of the refill: per-leaf
/// candidate draws, the cross product expanded by cloning assignments and
/// truncated at `max_batch`, then one emission per assignment. Its corpus
/// is filled from the puzzles of `crack`'s instantiation trees, and its
/// fallback is Algorithm 1.
struct RefillOracle {
    config: SemanticAwareConfig,
    corpus: PuzzleCorpus,
    queue: VecDeque<Seed>,
    random: RandomGenerationStrategy,
    scratch: EmitScratch,
}

impl RefillOracle {
    fn new(config: SemanticAwareConfig) -> Self {
        Self {
            config,
            corpus: PuzzleCorpus::new(),
            queue: VecDeque::new(),
            random: RandomGenerationStrategy::new(),
            scratch: EmitScratch::new(),
        }
    }

    fn next_packet(&mut self, models: &DataModelSet, rng: &mut SmallRng, out: &mut Seed) {
        match self.queue.pop_front() {
            Some(seed) => *out = seed,
            None => self.random.next_packet_into(models, rng, out),
        }
    }

    fn observe(&mut self, packet: &Seed, models: &DataModelSet) {
        let trees: Vec<InsTree> = models
            .models()
            .iter()
            .filter_map(|model| crack(model, &packet.bytes).ok())
            .collect();
        let puzzles = trees.iter().flat_map(|tree| {
            if self.config.leaves_only {
                tree.leaf_puzzles()
            } else {
                tree.puzzles()
            }
        });
        if self.corpus.insert_all(puzzles) == 0 {
            return;
        }
        let mut rng =
            SmallRng::seed_from_u64(self.corpus.inserted() ^ (packet.bytes.len() as u64) << 32);
        for model in models.models() {
            if self.queue.len() >= 256 {
                break;
            }
            for assignment in self.construct(model, &mut rng) {
                let mut bytes = Vec::new();
                emit_with(
                    model,
                    self.config.repair,
                    &mut self.scratch,
                    &mut bytes,
                    |index, _, out| {
                        out.extend_from_slice(&assignment[index]);
                        true
                    },
                );
                self.queue.push_back(Seed::new(bytes, model.name(), true));
            }
        }
    }

    fn construct(&self, model: &DataModel, rng: &mut SmallRng) -> Vec<Vec<Arc<[u8]>>> {
        let mut per_position: Vec<Vec<Arc<[u8]>>> = Vec::new();
        for leaf in model.linear().iter() {
            let donors = self.corpus.donors(leaf.chunk.rule_id());
            let mut candidates = Vec::new();
            if !donors.is_empty() && rng.gen_bool(self.config.donor_probability) {
                let take = donors.len().min(self.config.max_donors_per_field);
                let mut indices: Vec<usize> = (0..donors.len()).collect();
                for _ in 0..take {
                    let pick = rng.gen_range(0..indices.len());
                    candidates.push(Arc::clone(&donors[indices.swap_remove(pick)]));
                }
            }
            if candidates.is_empty() {
                candidates.push(Arc::from(generate_leaf(&leaf.chunk, rng)));
            }
            per_position.push(candidates);
        }
        let mut assignments = vec![Vec::new()];
        for candidates in &per_position {
            let mut expanded = Vec::new();
            'outer: for assignment in &assignments {
                for candidate in candidates {
                    let mut next: Vec<Arc<[u8]>> = assignment.clone();
                    next.push(Arc::clone(candidate));
                    expanded.push(next);
                    if expanded.len() >= self.config.max_batch {
                        break 'outer;
                    }
                }
            }
            assignments = expanded;
        }
        assignments
    }
}

/// Packets per refill run; every tenth one is reported valuable.
const REFILL_PACKETS: usize = 600;
const VALUABLE_EVERY: usize = 10;

#[test]
fn peachstar_refill_matches_the_cross_product_oracle() {
    let default = SemanticAwareConfig::default();
    let configs = [
        ("default", default),
        (
            "max_batch 0",
            SemanticAwareConfig {
                max_batch: 0,
                ..default
            },
        ),
        (
            "max_batch 1",
            SemanticAwareConfig {
                max_batch: 1,
                ..default
            },
        ),
        (
            "max_batch 3",
            SemanticAwareConfig {
                max_batch: 3,
                ..default
            },
        ),
        (
            "donor cap 1",
            SemanticAwareConfig {
                max_donors_per_field: 1,
                ..default
            },
        ),
        (
            "donor cap 3",
            SemanticAwareConfig {
                max_donors_per_field: 3,
                ..default
            },
        ),
        (
            "donor_probability 1.0",
            SemanticAwareConfig {
                donor_probability: 1.0,
                ..default
            },
        ),
        (
            "repair off",
            SemanticAwareConfig {
                repair: false,
                ..default
            },
        ),
        (
            "leaves_only",
            SemanticAwareConfig {
                leaves_only: true,
                ..default
            },
        ),
    ];
    for target in TargetId::ALL {
        let models = target.create().data_models();
        for (label, config) in configs {
            for seed in 1..=5u64 {
                let mut strategy = SemanticAwareStrategy::new(config);
                let mut oracle = RefillOracle::new(config);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = SmallRng::seed_from_u64(seed);
                let mut packet = Seed::new(Vec::new(), "", false);
                let mut expected = Seed::new(Vec::new(), "", false);
                let mut semantic = 0;
                for round in 1..=REFILL_PACKETS {
                    strategy.next_packet_into(&models, &mut rng, &mut packet);
                    oracle.next_packet(&models, &mut oracle_rng, &mut expected);
                    assert_eq!(
                        packet, expected,
                        "{target} {label} seed {seed} packet {round}"
                    );
                    semantic += usize::from(packet.semantic);
                    let valuable = round % VALUABLE_EVERY == 0;
                    strategy.observe(&packet, valuable, &models);
                    if valuable {
                        oracle.observe(&expected, &models);
                    }
                }
                let context = format!("{target} {label} seed {seed}");
                assert!(semantic > 0, "{context}: no refill happened");
                assert_eq!(strategy.corpus(), &oracle.corpus, "{context}: corpus");
                assert_eq!(rng, oracle_rng, "{context}: RNG state");
                let StrategyState::PeachStar { queue, .. } = strategy.snapshot_state() else {
                    panic!("{context}: Peach* state");
                };
                assert_eq!(queue, Vec::from(oracle.queue), "{context}: queue");
            }
        }
    }
}
