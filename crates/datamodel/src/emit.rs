//! Packet emission: serialising a data model's instantiation to bytes and
//! re-establishing integrity constraints (the "File Fixup" of the paper).

use std::ops::Range;

use crate::chunk::{Chunk, ChunkKind};
use crate::error::ModelError;
use crate::instree::{InsNode, InsTree};
use crate::model::{DataModel, LinearLayout};
use crate::types::{Endianness, LengthSpec};

/// Reusable emission workspace: the byte offset at which each leaf starts,
/// and the checksum input buffer.
///
/// The generation strategies hold one `EmitScratch` and pass it to
/// [`emit_with`] for every packet, so emitting a packet allocates nothing
/// once the buffers have warmed up.
#[derive(Debug, Clone, Default)]
pub struct EmitScratch {
    /// Start offset of every leaf in the packet, then the packet's length:
    /// the bytes of leaf range `a..b` are `offsets[a]..offsets[b]`.
    offsets: Vec<usize>,
    /// Concatenation buffer for a fixup over several separate ranges.
    covered: Vec<u8>,
}

impl EmitScratch {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Emits the model's default instantiation with all relations and fixups
/// applied.
///
/// # Errors
///
/// None at present: every validated model has a default instantiation.
///
/// ```
/// use peachstar_datamodel::{examples, emit::emit_default};
/// let packet = emit_default(&examples::figure1_model())?;
/// assert!(!packet.is_empty());
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
pub fn emit_default(model: &DataModel) -> Result<Vec<u8>, ModelError> {
    let mut bytes = Vec::new();
    emit_with(
        model,
        true,
        &mut EmitScratch::new(),
        &mut bytes,
        |_, _, _| false,
    );
    Ok(bytes)
}

/// The one emission loop, behind every `emit_*` function and the
/// generators: writes the leaves of the model's [`LinearLayout`] into `out`
/// (cleared first) in packet order, then, when `repair` is set, runs File
/// Fixup over the result. When `repair` is `false`, the provided and default
/// bytes are emitted verbatim, which is how the ablation without repair is
/// run.
///
/// For each leaf, `content(index, chunk, out)` either appends the leaf's
/// content to `out` and returns `true`, or appends nothing and returns
/// `false`, and the leaf's default is emitted. Whatever it appends is
/// fitted to the leaf: a number keeps its least significant bytes (in its
/// own byte order) and is zero-padded to its width, and a fixed-length
/// blob or string is padded or truncated to its length. `content` must not
/// remove bytes from `out`.
///
/// ```
/// use peachstar_datamodel::{emit::{emit_default, emit_with, EmitScratch}, examples};
/// let model = examples::figure1_model();
/// let mut packet = Vec::new();
/// emit_with(&model, true, &mut EmitScratch::new(), &mut packet, |_, _, _| false);
/// assert_eq!(packet, emit_default(&model)?);
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
pub fn emit_with<F>(
    model: &DataModel,
    repair: bool,
    scratch: &mut EmitScratch,
    out: &mut Vec<u8>,
    mut content: F,
) where
    F: FnMut(usize, &Chunk, &mut Vec<u8>) -> bool,
{
    let layout = model.linear();
    let offsets = &mut scratch.offsets;
    offsets.clear();
    out.clear();
    for (index, leaf) in layout.iter().enumerate() {
        let start = out.len();
        offsets.push(start);
        if !content(index, &leaf.chunk, out) {
            push_default(&leaf.chunk, out);
        }
        fit_leaf(&leaf.chunk, start, out);
    }
    offsets.push(out.len());
    if repair {
        repair_in_place(layout, offsets, &mut scratch.covered, out);
    }
}

/// Re-emits an instantiation tree, optionally repairing relations and fixups.
///
/// The tree's leaf bytes are the leaf content, matched to the model's
/// leaves by field name; structural nodes are ignored (their content is
/// recomputed by concatenation), and a model leaf the tree lacks keeps its
/// default. This is used to repair a packet assembled from donated puzzles.
///
/// # Errors
///
/// None at present: a tree cracked against a different model emits the
/// leaves whose names the two share.
pub fn emit_tree(model: &DataModel, tree: &InsTree, repair: bool) -> Result<Vec<u8>, ModelError> {
    let mut leaves = Vec::new();
    flatten_leaves(&tree.root, &mut leaves);
    let (mut scratch, mut bytes) = (EmitScratch::new(), Vec::new());
    emit_with(model, repair, &mut scratch, &mut bytes, |_, chunk, out| {
        leaves
            .iter()
            .find(|node| node.name == chunk.name)
            .map(|node| out.extend_from_slice(&node.content))
            .is_some()
    });
    Ok(bytes)
}

fn flatten_leaves<'tree>(node: &'tree InsNode, out: &mut Vec<&'tree InsNode>) {
    if node.is_leaf() {
        out.push(node);
    } else {
        for child in &node.children {
            flatten_leaves(child, out);
        }
    }
}

/// Appends a leaf's default content.
fn push_default(chunk: &Chunk, out: &mut Vec<u8>) {
    match &chunk.kind {
        ChunkKind::Number(spec) => spec.encode_into(spec.default, out),
        ChunkKind::Bytes(spec) => out.extend_from_slice(&spec.default),
        ChunkKind::Str(spec) => out.extend_from_slice(spec.default.as_bytes()),
        // A layout holds leaves only.
        ChunkKind::Block(_) | ChunkKind::Choice(_) => {}
    }
}

/// Fits the content appended at `start` to the leaf's wire size. Content is
/// wire bytes in the field's own byte order — the convention shared by the
/// cracker and the mutators — so a number keeps its least significant bytes:
/// the trailing ones when big-endian, the leading ones when little-endian.
/// Correctly sized content, all a mutator or a default ever produces, is
/// left as it is.
fn fit_leaf(chunk: &Chunk, start: usize, out: &mut Vec<u8>) {
    let len = out.len() - start;
    match &chunk.kind {
        ChunkKind::Number(spec) => {
            let width = spec.width.bytes();
            match spec.endian {
                _ if len == width => {}
                Endianness::Big if len > width => {
                    out.drain(start..start + len - width);
                }
                Endianness::Big => {
                    out.splice(start..start, std::iter::repeat_n(0, width - len));
                }
                Endianness::Little => out.resize(start + width, 0),
            }
        }
        ChunkKind::Bytes(spec) => {
            if let LengthSpec::Fixed(fixed) = spec.length {
                out.resize(start + fixed, 0);
            }
        }
        ChunkKind::Str(spec) => {
            if let LengthSpec::Fixed(fixed) = spec.length {
                out.resize(start + fixed, b' ');
            }
        }
        ChunkKind::Block(_) | ChunkKind::Choice(_) => {}
    }
}

/// Recomputes relation fields first and fixup fields second, overwriting
/// their emitted bytes in place.
///
/// Both passes walk the layout's precompiled repair plans, whose fields and
/// ranges are leaf positions: `offsets` turns them into byte ranges, so the
/// per-packet work is exactly the repairs themselves.
fn repair_in_place(
    layout: &LinearLayout,
    offsets: &[usize],
    covered: &mut Vec<u8>,
    bytes: &mut [u8],
) {
    let span = |leaves: &Range<usize>| offsets[leaves.start]..offsets[leaves.end];
    let field = |own: usize| offsets[own]..offsets[own + 1];
    // Pass 1: relations (sizes and counts).
    for repair in layout.relation_repairs() {
        let value = repair.relation.value_for_size(span(&repair.target).len());
        repair.spec.store(value, &mut bytes[field(repair.own)]);
    }
    // Pass 2: fixups (checksums), computed over the repaired bytes.
    for repair in layout.fixup_repairs() {
        let value = match repair.over.as_slice() {
            [only] => repair.kind.compute(&bytes[span(only)]),
            over => {
                covered.clear();
                for leaves in over {
                    covered.extend_from_slice(&bytes[span(leaves)]);
                }
                repair.kind.compute(covered)
            }
        };
        repair.spec.store(value, &mut bytes[field(repair.own)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataModelBuilder;
    use crate::chunk::{BytesSpec, NumberSpec};
    use crate::crack::crack;
    use crate::types::{Fixup, Relation};

    fn framed_model() -> DataModel {
        DataModelBuilder::new("framed")
            .number("magic", NumberSpec::u8().fixed_value(0x7e))
            .number(
                "len",
                NumberSpec::u16_be().relation(Relation::size_of("payload")),
            )
            .bytes("payload", BytesSpec::length_from("len").default_content(vec![1, 2, 3]))
            .number("crc", NumberSpec::u32_be().fixup(Fixup::crc32("payload")))
            .build()
            .unwrap()
    }

    #[test]
    fn default_emission_is_consistent() {
        let model = framed_model();
        let packet = emit_default(&model).unwrap();
        // magic, len(=3), payload(3), crc.
        assert_eq!(packet.len(), 1 + 2 + 3 + 4);
        assert_eq!(packet[0], 0x7e);
        assert_eq!(&packet[1..3], &[0x00, 0x03]);
        let crc = crate::checksum::crc32(&[1, 2, 3]);
        assert_eq!(&packet[6..10], &crc.to_be_bytes());
    }

    #[test]
    fn emission_then_crack_roundtrips() {
        let model = framed_model();
        let packet = emit_default(&model).unwrap();
        let tree = crack(&model, &packet).unwrap();
        assert_eq!(tree.bytes(), &packet[..]);
        let re_emitted = emit_tree(&model, &tree, true).unwrap();
        assert_eq!(re_emitted, packet);
    }

    /// Emits `model` with the given content for some leaf positions and
    /// the default for the others.
    fn emit_leaves(model: &DataModel, repair: bool, leaves: &[(usize, &[u8])]) -> Vec<u8> {
        let mut packet = Vec::new();
        emit_with(
            model,
            repair,
            &mut EmitScratch::new(),
            &mut packet,
            |index, _, out| {
                leaves
                    .iter()
                    .find(|(at, _)| *at == index)
                    .map(|(_, bytes)| out.extend_from_slice(bytes))
                    .is_some()
            },
        );
        packet
    }

    #[test]
    fn repair_recomputes_length_after_payload_change() {
        let model = framed_model();
        // Linear order: magic(0), len(1), payload(2), crc(3).
        let packet = emit_leaves(&model, true, &[(2, &[0xAB; 10])]);
        assert_eq!(&packet[1..3], &[0x00, 0x0A], "length repaired to 10");
        let crc = crate::checksum::crc32(&[0xAB; 10]);
        assert_eq!(&packet[13..17], &crc.to_be_bytes());
    }

    #[test]
    fn without_repair_constraints_stay_broken() {
        let model = framed_model();
        // A bogus length over a one-byte payload.
        let packet = emit_leaves(&model, false, &[(1, &[0xFF, 0xFF]), (2, &[0x01])]);
        assert_eq!(&packet[1..3], &[0xFF, 0xFF]);
    }

    #[test]
    fn number_values_are_normalised_to_width() {
        let model = DataModelBuilder::new("norm")
            .number("wide", NumberSpec::u32_be())
            .number("narrow", NumberSpec::u8())
            .number("little", NumberSpec::u16_be().endian(Endianness::Little))
            .build()
            .unwrap();
        let packet = emit_leaves(
            &model,
            false,
            &[
                (0, &[0x12]),       // too short → zero-padded
                (1, &[0xAA, 0xBB]), // too long → least-significant kept
                (2, &[0x12, 0x34]), // correctly sized wire bytes → verbatim
            ],
        );
        assert_eq!(&packet[0..4], &[0x00, 0x00, 0x00, 0x12]);
        assert_eq!(packet[4], 0xBB);
        assert_eq!(&packet[5..7], &[0x12, 0x34]);
    }

    #[test]
    fn fixed_blob_is_padded_or_truncated() {
        let model = DataModelBuilder::new("fixed")
            .bytes("body", BytesSpec::fixed(4))
            .build()
            .unwrap();
        assert_eq!(
            emit_leaves(&model, false, &[(0, &[0x01])]),
            vec![0x01, 0, 0, 0]
        );
        assert_eq!(emit_leaves(&model, false, &[(0, &[9; 10])]).len(), 4);
    }

    #[test]
    fn multi_field_fixup_covers_all_targets() {
        let model = DataModelBuilder::new("multi")
            .number("a", NumberSpec::u8().default_value(0x11))
            .number("b", NumberSpec::u8().default_value(0x22))
            .number(
                "sum",
                NumberSpec::u8().fixup(Fixup::new(
                    crate::types::ChecksumKind::Sum8,
                    vec!["a".into(), "b".into()],
                )),
            )
            .build()
            .unwrap();
        let packet = emit_default(&model).unwrap();
        assert_eq!(packet[2], 0x33);
    }
}
