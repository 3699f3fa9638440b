//! Cracking / emission round-trip properties across every built-in target's
//! data models, plus property-based tests on the cracker with arbitrary
//! byte strings.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::strategy::{GenerationStrategy, RandomGenerationStrategy};
use peachstar::{FileCracker, PuzzleCorpus};
use peachstar_datamodel::crack::{crack, crack_with, CrackOptions};
use peachstar_datamodel::emit::{emit_default, emit_tree};
use peachstar_datamodel::{DataModelSet, InsTree, ModelError, Puzzle};
use peachstar_protocols::TargetId;

#[test]
fn every_default_packet_cracks_against_its_own_model() {
    for target in TargetId::ALL {
        let models = target.create().data_models();
        for model in models.models() {
            let packet = emit_default(model).expect("default packet emits");
            let tree = crack(model, &packet).unwrap_or_else(|e| {
                panic!("{}/{}: default packet fails to crack: {e}", target, model.name())
            });
            assert_eq!(tree.bytes(), &packet[..]);
            // Re-emitting the cracked tree with repair reproduces the packet.
            let re_emitted = emit_tree(model, &tree, true).expect("re-emission succeeds");
            assert_eq!(
                re_emitted, packet,
                "{}/{}: crack → emit round trip changed the packet",
                target,
                model.name()
            );
        }
    }
}

#[test]
fn cracked_packets_always_yield_nonempty_puzzles_with_rules_from_the_model() {
    for target in TargetId::ALL {
        let models = target.create().data_models();
        let mut cracker = FileCracker::new();
        let mut corpus = PuzzleCorpus::new();
        for model in models.models() {
            let packet = emit_default(model).expect("default packet emits");
            let added = cracker.crack_into(&models, &packet, &mut corpus);
            assert!(added > 0, "{}/{}: no puzzles added", target, model.name());
        }
        // Every model should now find a donor for at least one of its rules.
        for model in models.models() {
            let has_donor = model.rule_ids().iter().any(|rule| corpus.has_donor(*rule));
            assert!(
                has_donor,
                "{}/{}: no donor available after cracking every default packet",
                target,
                model.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cracker must never panic, whatever bytes it is fed.
    #[test]
    fn cracker_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let models = TargetId::Modbus.create().data_models();
        let mut cracker = FileCracker::new();
        let _ = cracker.crack(&models, &data);
    }

    /// A packet that cracks can always be re-emitted without repair to the
    /// exact same bytes (emission of the instantiation tree is lossless).
    #[test]
    fn crack_then_emit_without_repair_is_lossless(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let models = TargetId::Iccp.create().data_models();
        for model in models.models() {
            if let Ok(tree) = crack(model, &data) {
                let re_emitted = emit_tree(model, &tree, false).expect("emission succeeds");
                prop_assert_eq!(&re_emitted, &data);
            }
        }
    }

    /// Corpus insertion is idempotent: inserting the same puzzles twice
    /// never increases the corpus size the second time.
    #[test]
    fn corpus_insertion_is_idempotent(data in proptest::collection::vec(any::<u8>(), 4..64)) {
        let models = TargetId::Lib60870.create().data_models();
        let mut cracker = FileCracker::new();
        let mut corpus = PuzzleCorpus::new();
        let first = cracker.crack_into(&models, &data, &mut corpus);
        let second = cracker.crack_into(&models, &data, &mut corpus);
        prop_assert!(first >= second);
        prop_assert_eq!(second, 0);
    }
}

/// The recursive parser `crack_with` was first written as, kept as the
/// oracle of the cracker: it builds an owned `InsNode` per matched chunk and
/// a map of the number values parsed so far.
mod recursive {
    use std::collections::HashMap;

    use peachstar_datamodel::crack::CrackOptions;
    use peachstar_datamodel::{
        Chunk, ChunkKind, DataModel, InsNode, InsTree, LengthSpec, ModelError,
    };

    pub fn crack_with(
        model: &DataModel,
        packet: &[u8],
        options: CrackOptions,
    ) -> Result<InsTree, ModelError> {
        let mut cracker = Cracker {
            packet,
            cursor: 0,
            values: HashMap::new(),
        };
        let root = cracker.parse_chunk(model.root(), packet.len())?;
        if options.reject_trailing && cracker.cursor != packet.len() {
            return Err(ModelError::TrailingBytes {
                remaining: packet.len() - cracker.cursor,
            });
        }
        if options.verify_checksums {
            verify_checksums(model, &root)?;
        }
        Ok(InsTree::new(model.name(), root))
    }

    struct Cracker<'packet> {
        packet: &'packet [u8],
        cursor: usize,
        values: HashMap<String, u64>,
    }

    impl<'packet> Cracker<'packet> {
        fn remaining(&self) -> usize {
            self.packet.len() - self.cursor
        }

        fn take(&mut self, field: &str, len: usize) -> Result<&'packet [u8], ModelError> {
            if len > self.remaining() {
                return Err(ModelError::UnexpectedEnd {
                    field: field.to_string(),
                    needed: len,
                    available: self.remaining(),
                });
            }
            let slice = &self.packet[self.cursor..self.cursor + len];
            self.cursor += len;
            Ok(slice)
        }

        fn parse_chunk(&mut self, chunk: &Chunk, scope_end: usize) -> Result<InsNode, ModelError> {
            match &chunk.kind {
                ChunkKind::Number(spec) => {
                    let bytes = self.take(&chunk.name, spec.width.bytes())?;
                    let value = spec.decode(bytes).expect("exactly width bytes");
                    if let Some(allowed) = &spec.allowed {
                        if !allowed.contains(&value) {
                            return Err(ModelError::IllegalValue {
                                field: chunk.name.clone(),
                                found: value,
                            });
                        }
                    }
                    self.values.insert(chunk.name.clone(), value);
                    Ok(InsNode::leaf(&chunk.name, chunk.rule_id(), bytes.to_vec()))
                }
                ChunkKind::Bytes(spec) => {
                    let len = self.resolve_length(&chunk.name, &spec.length, scope_end)?;
                    let bytes = self.take(&chunk.name, len)?;
                    Ok(InsNode::leaf(&chunk.name, chunk.rule_id(), bytes.to_vec()))
                }
                ChunkKind::Str(spec) => {
                    let len = self.resolve_length(&chunk.name, &spec.length, scope_end)?;
                    let bytes = self.take(&chunk.name, len)?;
                    if spec.ascii_only && !bytes.iter().all(|&b| b.is_ascii_graphic() || b == b' ')
                    {
                        return Err(ModelError::IllegalValue {
                            field: chunk.name.clone(),
                            found: u64::from(
                                *bytes.iter().find(|b| !b.is_ascii_graphic()).unwrap_or(&0),
                            ),
                        });
                    }
                    Ok(InsNode::leaf(&chunk.name, chunk.rule_id(), bytes.to_vec()))
                }
                ChunkKind::Block(children) => {
                    let mut nodes = Vec::with_capacity(children.len());
                    let child_mins: Vec<usize> =
                        children.iter().map(Chunk::min_encoded_size).collect();
                    let mut trailing: usize = child_mins.iter().sum();
                    for (child, &min) in children.iter().zip(&child_mins) {
                        trailing -= min;
                        let child_end = scope_end.saturating_sub(trailing).max(self.cursor);
                        nodes.push(self.parse_chunk(child, child_end)?);
                    }
                    Ok(InsNode::internal(&chunk.name, chunk.rule_id(), nodes))
                }
                ChunkKind::Choice(options) => {
                    for option in options {
                        let checkpoint_cursor = self.cursor;
                        let checkpoint_values = self.values.clone();
                        match self.parse_chunk(option, scope_end) {
                            Ok(node) => {
                                return Ok(InsNode::internal(
                                    &chunk.name,
                                    chunk.rule_id(),
                                    vec![node],
                                ));
                            }
                            Err(_) => {
                                self.cursor = checkpoint_cursor;
                                self.values = checkpoint_values;
                            }
                        }
                    }
                    Err(ModelError::NoChoiceMatched {
                        field: chunk.name.clone(),
                    })
                }
            }
        }

        fn resolve_length(
            &self,
            field: &str,
            spec: &LengthSpec,
            scope_end: usize,
        ) -> Result<usize, ModelError> {
            match spec {
                LengthSpec::Fixed(n) => Ok(*n),
                LengthSpec::Remainder => Ok(scope_end.saturating_sub(self.cursor)),
                LengthSpec::FromField(reference) => {
                    let value = self.values.get(reference.name()).copied().ok_or_else(|| {
                        ModelError::UnknownField {
                            field: reference.name().to_string(),
                        }
                    })?;
                    let len = usize::try_from(value).map_err(|_| ModelError::LengthOutOfRange {
                        field: field.to_string(),
                        length: usize::MAX,
                    })?;
                    if len > self.packet.len() {
                        return Err(ModelError::LengthOutOfRange {
                            field: field.to_string(),
                            length: len,
                        });
                    }
                    Ok(len)
                }
            }
        }
    }

    fn verify_checksums(model: &DataModel, root: &InsNode) -> Result<(), ModelError> {
        for chunk in model.root().iter() {
            let ChunkKind::Number(spec) = &chunk.kind else {
                continue;
            };
            let Some(fixup) = &spec.fixup else { continue };
            let Some(node) = root.find(&chunk.name) else {
                continue;
            };
            let Some(found) = spec.decode(&node.content) else {
                continue;
            };
            let mut covered = Vec::new();
            for target in &fixup.over {
                if let Some(target_node) = root.find(target.name()) {
                    covered.extend_from_slice(&target_node.content);
                }
            }
            let expected = fixup.kind.compute(&covered);
            if expected != found {
                return Err(ModelError::ChecksumMismatch {
                    field: chunk.name.clone(),
                    found,
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// The oracle's outcome in comparable form: the tree's bytes, or the error
/// with an `IllegalValue`'s reported byte dropped (the oracle keeps the old
/// report of a rejected ASCII string, which named the wrong byte).
fn outcome(result: Result<InsTree, ModelError>) -> Result<Vec<u8>, ModelError> {
    match result {
        Ok(tree) => Ok(tree.bytes().to_vec()),
        Err(ModelError::IllegalValue { field, .. }) => {
            Err(ModelError::IllegalValue { field, found: 0 })
        }
        Err(error) => Err(error),
    }
}

/// Holds the cracker to the recursive oracle on one packet: `crack_with`
/// per model and option set, and `FileCracker::crack` (puzzles and
/// counters) with `leaves_only` off and on.
fn assert_cracks_like_the_oracle(models: &DataModelSet, packet: &[u8], context: &str) {
    let option_sets = [
        CrackOptions::default(),
        CrackOptions {
            verify_checksums: true,
            reject_trailing: false,
        },
    ];
    let mut trees = Vec::new();
    for model in models.models() {
        for options in option_sets {
            let expected = recursive::crack_with(model, packet, options);
            if options == CrackOptions::default() {
                if let Ok(tree) = &expected {
                    trees.push(tree.clone());
                }
            }
            let found = crack_with(model, packet, options);
            if let Ok(tree) = &found {
                assert_eq!(
                    Ok(tree),
                    expected.as_ref(),
                    "{context}: {} tree under {options:?}",
                    model.name()
                );
            }
            assert_eq!(
                outcome(found),
                outcome(expected),
                "{context}: {} under {options:?}",
                model.name()
            );
        }
    }
    for leaves_only in [false, true] {
        let expected: Vec<Puzzle> = trees
            .iter()
            .flat_map(|tree| {
                if leaves_only {
                    tree.leaf_puzzles()
                } else {
                    tree.puzzles()
                }
            })
            .collect();
        let mut cracker = FileCracker::new().leaves_only(leaves_only);
        assert_eq!(
            cracker.crack(models, packet),
            expected,
            "{context}: puzzles, leaves_only {leaves_only}"
        );
        let cracked = u64::from(!trees.is_empty());
        assert_eq!(
            (cracker.cracked_seeds(), cracker.failed_seeds()),
            (cracked, 1 - cracked),
            "{context}: counters, leaves_only {leaves_only}"
        );
    }
}

#[test]
fn every_default_packet_cracks_like_the_recursive_oracle() {
    for target in TargetId::ALL {
        let models = target.create().data_models();
        for model in models.models() {
            let packet = emit_default(model).expect("default packet emits");
            assert_cracks_like_the_oracle(&models, &packet, &format!("{target}/{}", model.name()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, and Algorithm 1 packets whole, truncated and with
    /// one byte flipped, crack exactly as the recursive oracle cracks them.
    #[test]
    fn cracker_matches_the_recursive_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
        cut in any::<usize>(),
        flip in any::<u8>(),
    ) {
        for target in TargetId::ALL {
            let models = target.create().data_models();
            assert_cracks_like_the_oracle(&models, &data, &format!("{target} arbitrary"));
            let mut strategy = RandomGenerationStrategy::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            for round in 0..4 {
                let packet = strategy.next_packet(&models, &mut rng).bytes;
                let context = format!("{target} seed {seed} packet {round}");
                assert_cracks_like_the_oracle(&models, &packet, &context);
                if packet.is_empty() {
                    continue;
                }
                let at = cut % packet.len();
                assert_cracks_like_the_oracle(&models, &packet[..at], &format!("{context} cut"));
                let mut flipped = packet.clone();
                flipped[at] ^= flip | 1;
                assert_cracks_like_the_oracle(&models, &flipped, &format!("{context} flipped"));
            }
        }
    }
}
