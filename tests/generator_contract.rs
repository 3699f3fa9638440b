//! The generator's contract: one iteration of Algorithm 1 equals the
//! two-pass form it was written from.
//!
//! The oracle below is that two-pass form. It picks a model, then for every
//! leaf either keeps the default (`gen_bool(0.15)`) or runs the leaf's
//! mutator into a buffer of its own, and only then emits the packet through
//! `emit_into` with File Fixup on. The strategies generate in one pass over
//! the model's leaves instead. Both must produce the same bytes for every
//! packet, and leave the RNG in the same state, for every target's model
//! set: seeded campaigns, and with them every pinned report, depend on it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use peachstar::mutator::generate_leaf_into;
use peachstar::strategy::StrategyKind;
use peachstar::Seed;
use peachstar_datamodel::emit::{emit_into, EmitScratch, LeafSource};
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::TargetId;

const PACKETS: usize = 2_000;

/// One content buffer per leaf plus a presence mask.
#[derive(Default)]
struct Leaves {
    bufs: Vec<Vec<u8>>,
    used: Vec<bool>,
}

impl LeafSource for Leaves {
    fn leaf(&self, index: usize) -> Option<&[u8]> {
        self.used[index].then(|| self.bufs[index].as_slice())
    }
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
    emit_into(model, leaves, true, scratch, &mut out.bytes).expect("layout-sized source");
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
