//! Packet cracking: parsing concrete bytes against a [`DataModel`] (the
//! `PARSE` step of Algorithm 2 in the paper).
//!
//! There is one parser, [`CrackTable::crack`]. It appends every chunk it
//! matches to a reusable table, in post-order, as the chunk's construction
//! rule and the byte range of the packet it covers: a node's content is
//! always one contiguous slice of the packet, so the table owns no bytes.
//! The facts the parser needs per chunk (rule id, minimal encoded size, the
//! field a length is read from) come from a plan built once per model, at
//! its first crack. [`crack_with`] builds its owned [`InsTree`], or its
//! [`ModelError`], from that same table.

use std::ops::Range;

use crate::chunk::{Chunk, ChunkKind, RuleId};
use crate::error::ModelError;
use crate::instree::{InsNode, InsTree};
use crate::model::{DataModel, DataModelSet};
use crate::types::LengthSpec;

/// Options controlling how strictly packets are cracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackOptions {
    /// Reject packets whose fixup fields do not match the recomputed
    /// checksum. Disabled by default: the File Cracker should accept
    /// packets the fuzzer itself generated with deliberately broken
    /// checksums, as long as the structure matches.
    pub verify_checksums: bool,
    /// Reject packets with bytes left over after the model matched.
    /// Enabled by default so that the first matching model is a structural
    /// fit, not a prefix match.
    pub reject_trailing: bool,
}

impl Default for CrackOptions {
    fn default() -> Self {
        Self {
            verify_checksums: false,
            reject_trailing: true,
        }
    }
}

/// Cracks `packet` against `model` with default [`CrackOptions`].
///
/// # Errors
///
/// Returns a [`ModelError`] when the packet does not structurally match the
/// model (truncated fields, illegal constrained values, trailing bytes, …).
///
/// ```
/// use peachstar_datamodel::{crack::crack, examples};
/// use peachstar_datamodel::emit::emit_default;
///
/// let model = examples::figure1_model();
/// let packet = emit_default(&model)?;
/// let tree = crack(&model, &packet)?;
/// assert_eq!(tree.bytes(), &packet[..]);
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
pub fn crack(model: &DataModel, packet: &[u8]) -> Result<InsTree, ModelError> {
    crack_with(model, packet, CrackOptions::default())
}

/// Cracks `packet` against `model` with explicit options.
///
/// # Errors
///
/// Returns a [`ModelError`] when the packet does not match the model under
/// the given options.
pub fn crack_with(
    model: &DataModel,
    packet: &[u8],
    options: CrackOptions,
) -> Result<InsTree, ModelError> {
    match CrackTable::new().crack(model, packet, options) {
        Ok(nodes) => Ok(build_tree(model, packet, nodes)),
        Err(miss) => Err(miss.into_error(model)),
    }
}

/// Cracks `packet` against every model of `set`, returning the trees of all
/// models that match (the paper's Algorithm 2 tries every data model and
/// keeps the legal instantiation trees).
#[must_use]
pub fn crack_against_set(set: &DataModelSet, packet: &[u8]) -> Vec<InsTree> {
    let mut table = CrackTable::new();
    set.models()
        .iter()
        .filter_map(|model| {
            let nodes = table.crack(model, packet, CrackOptions::default()).ok()?;
            Some(build_tree(model, packet, nodes))
        })
        .collect()
}

/// One chunk a cracked packet matched: a row of the [`CrackTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrackNode {
    /// The chunk's position in the model tree, in [`Chunk::iter`] order.
    pub chunk: usize,
    /// The chunk's construction rule.
    pub rule: RuleId,
    /// The bytes of the packet the chunk matched.
    pub range: Range<usize>,
    /// `true` for a leaf chunk (number, bytes or string).
    pub leaf: bool,
}

/// The reusable workspace of the cracker: the matched chunks of the last
/// packet cracked, in post-order (each chunk after its children, children
/// in packet order), and the number values parsed so far.
///
/// A caller that cracks many packets, such as the File Cracker, keeps one
/// table, so that cracking allocates nothing once its buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct CrackTable {
    nodes: Vec<CrackNode>,
    /// The value of every number chunk parsed so far, by chunk position:
    /// what a [`LengthSpec::FromField`] length is read from.
    values: Vec<Option<u64>>,
}

impl CrackTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cracks `packet` against `model`, returning the matched chunks in
    /// post-order: the sub-tree puzzles of Algorithm 2, in the order of its
    /// depth-first traversal, are the rows with a non-empty range.
    ///
    /// # Errors
    ///
    /// Returns a [`CrackMiss`] when the packet does not match the model
    /// under `options`; [`crack_with`] reports the same miss as a
    /// [`ModelError`].
    ///
    /// ```
    /// use peachstar_datamodel::crack::{CrackOptions, CrackTable};
    /// use peachstar_datamodel::{emit::emit_default, examples};
    ///
    /// let model = examples::figure1_model();
    /// let packet = emit_default(&model)?;
    /// let mut table = CrackTable::new();
    /// let nodes = table.crack(&model, &packet, CrackOptions::default()).unwrap();
    /// // The root comes last and covers the whole packet.
    /// assert_eq!(nodes.last().unwrap().range, 0..packet.len());
    /// # Ok::<(), peachstar_datamodel::ModelError>(())
    /// ```
    pub fn crack(
        &mut self,
        model: &DataModel,
        packet: &[u8],
        options: CrackOptions,
    ) -> Result<&[CrackNode], CrackMiss> {
        let plan = model.crack_plan();
        self.nodes.clear();
        self.values.clear();
        self.values.resize(plan.len(), None);
        let mut parser = Parser {
            plan,
            packet,
            cursor: 0,
            nodes: &mut self.nodes,
            values: &mut self.values,
        };
        parser.parse(model.root(), 0, packet.len())?;
        if options.reject_trailing && parser.cursor != packet.len() {
            return Err(CrackMiss(Miss::TrailingBytes {
                remaining: packet.len() - parser.cursor,
            }));
        }
        if options.verify_checksums {
            verify_checksums(model, packet, &self.nodes)?;
        }
        Ok(&self.nodes)
    }
}

/// Why a packet did not match a model, unformatted: the chunk position and
/// the numbers, without the field names a [`ModelError`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackMiss(Miss);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    UnexpectedEnd {
        chunk: usize,
        needed: usize,
        available: usize,
    },
    TrailingBytes {
        remaining: usize,
    },
    IllegalValue {
        chunk: usize,
        found: u64,
    },
    ChecksumMismatch {
        chunk: usize,
        found: u64,
        expected: u64,
    },
    NoChoiceMatched {
        chunk: usize,
    },
    /// The field chunk `chunk` reads its length from holds no parsed
    /// number.
    UnknownField {
        chunk: usize,
    },
    LengthOutOfRange {
        chunk: usize,
        length: usize,
    },
}

impl CrackMiss {
    /// The miss as a [`ModelError`], naming the fields of `model`, the
    /// model the packet was cracked against.
    fn into_error(self, model: &DataModel) -> ModelError {
        let chunk = |at: usize| model.root().iter().nth(at).expect("a chunk of the model");
        let field = |at: usize| chunk(at).name.clone();
        match self.0 {
            Miss::UnexpectedEnd {
                chunk,
                needed,
                available,
            } => ModelError::UnexpectedEnd {
                field: field(chunk),
                needed,
                available,
            },
            Miss::TrailingBytes { remaining } => ModelError::TrailingBytes { remaining },
            Miss::IllegalValue { chunk, found } => ModelError::IllegalValue {
                field: field(chunk),
                found,
            },
            Miss::ChecksumMismatch {
                chunk,
                found,
                expected,
            } => ModelError::ChecksumMismatch {
                field: field(chunk),
                found,
                expected,
            },
            Miss::NoChoiceMatched { chunk } => ModelError::NoChoiceMatched {
                field: field(chunk),
            },
            Miss::UnknownField { chunk: at } => {
                let Some(LengthSpec::FromField(reference)) = length_spec(chunk(at)) else {
                    unreachable!("only a length read from a field misses its field");
                };
                ModelError::UnknownField {
                    field: reference.name().to_string(),
                }
            }
            Miss::LengthOutOfRange { chunk, length } => ModelError::LengthOutOfRange {
                field: field(chunk),
                length,
            },
        }
    }
}

/// What the parser needs to know of every chunk of a model, by chunk
/// position ([`Chunk::iter`] order). [`DataModel`] builds it at its first
/// crack, so models that are never cracked never pay for the rule hashes.
#[derive(Debug, Clone)]
pub(crate) struct CrackPlan {
    chunks: Vec<PlannedChunk>,
}

#[derive(Debug, Clone)]
struct PlannedChunk {
    rule: RuleId,
    /// [`Chunk::min_encoded_size`].
    min_size: usize,
    /// The position after the chunk's sub-tree: its next sibling's.
    end: usize,
    /// For a length read from a field, that field's position.
    length_from: Option<usize>,
}

impl CrackPlan {
    pub(crate) fn new(root: &Chunk) -> Self {
        fn walk<'tree>(
            chunk: &'tree Chunk,
            all: &mut Vec<&'tree Chunk>,
            planned: &mut Vec<PlannedChunk>,
        ) {
            let at = planned.len();
            all.push(chunk);
            planned.push(PlannedChunk {
                rule: chunk.rule_id(),
                min_size: chunk.min_encoded_size(),
                end: 0,
                length_from: None,
            });
            for child in chunk.children() {
                walk(child, all, planned);
            }
            planned[at].end = planned.len();
        }
        let (mut all, mut chunks) = (Vec::new(), Vec::new());
        walk(root, &mut all, &mut chunks);
        for (planned, chunk) in chunks.iter_mut().zip(&all) {
            if let Some(LengthSpec::FromField(reference)) = length_spec(chunk) {
                planned.length_from = all.iter().position(|c| c.name == reference.name());
            }
        }
        Self { chunks }
    }

    fn len(&self) -> usize {
        self.chunks.len()
    }
}

/// The length of a bytes or string chunk.
fn length_spec(chunk: &Chunk) -> Option<&LengthSpec> {
    match &chunk.kind {
        ChunkKind::Bytes(spec) => Some(&spec.length),
        ChunkKind::Str(spec) => Some(&spec.length),
        _ => None,
    }
}

/// One crack in progress: the packet, the cursor and the table being
/// filled.
struct Parser<'a> {
    plan: &'a CrackPlan,
    packet: &'a [u8],
    cursor: usize,
    nodes: &'a mut Vec<CrackNode>,
    values: &'a mut [Option<u64>],
}

impl<'a> Parser<'a> {
    fn take(&mut self, at: usize, len: usize) -> Result<&'a [u8], CrackMiss> {
        let available = self.packet.len() - self.cursor;
        if len > available {
            return Err(CrackMiss(Miss::UnexpectedEnd {
                chunk: at,
                needed: len,
                available,
            }));
        }
        self.cursor += len;
        Ok(&self.packet[self.cursor - len..self.cursor])
    }

    /// Parses `chunk`, at position `at`, and appends it after its children.
    /// `scope_end` is the absolute offset its enclosing scope ends at,
    /// bounding [`LengthSpec::Remainder`] chunks.
    fn parse(&mut self, chunk: &Chunk, at: usize, scope_end: usize) -> Result<(), CrackMiss> {
        let start = self.cursor;
        match &chunk.kind {
            ChunkKind::Number(spec) => {
                let bytes = self.take(at, spec.width.bytes())?;
                let value = spec
                    .decode(bytes)
                    .expect("take() returned exactly width bytes");
                if spec
                    .allowed
                    .as_ref()
                    .is_some_and(|allowed| !allowed.contains(&value))
                {
                    return Err(CrackMiss(Miss::IllegalValue {
                        chunk: at,
                        found: value,
                    }));
                }
                self.values[at] = Some(value);
            }
            ChunkKind::Bytes(spec) => {
                let len = self.resolve_length(at, &spec.length, scope_end)?;
                self.take(at, len)?;
            }
            ChunkKind::Str(spec) => {
                let len = self.resolve_length(at, &spec.length, scope_end)?;
                let bytes = self.take(at, len)?;
                if spec.ascii_only {
                    if let Some(&bad) = bytes
                        .iter()
                        .find(|&&b| !(b.is_ascii_graphic() || b == b' '))
                    {
                        return Err(CrackMiss(Miss::IllegalValue {
                            chunk: at,
                            found: u64::from(bad),
                        }));
                    }
                }
            }
            ChunkKind::Block(children) => {
                // Reserve the minimal footprint of the siblings after each
                // child, so a greedy remainder field cannot swallow a
                // fixed-size trailer (e.g. a CRC after an opaque body). A
                // block's own minimal size is its children's sum.
                let mut trailing = self.plan.chunks[at].min_size;
                let mut child_at = at + 1;
                for child in children {
                    trailing -= self.plan.chunks[child_at].min_size;
                    let child_end = scope_end.saturating_sub(trailing).max(self.cursor);
                    self.parse(child, child_at, child_end)?;
                    child_at = self.plan.chunks[child_at].end;
                }
            }
            ChunkKind::Choice(options) => {
                let mut option_at = at + 1;
                let matched = options.iter().any(|option| {
                    let rows = self.nodes.len();
                    if self.parse(option, option_at, scope_end).is_ok() {
                        return true;
                    }
                    // Undo the failed option: its rows, its bytes and the
                    // values of the number fields inside it.
                    let end = self.plan.chunks[option_at].end;
                    self.nodes.truncate(rows);
                    self.cursor = start;
                    self.values[option_at..end].fill(None);
                    option_at = end;
                    false
                });
                if !matched {
                    return Err(CrackMiss(Miss::NoChoiceMatched { chunk: at }));
                }
            }
        }
        self.nodes.push(CrackNode {
            chunk: at,
            rule: self.plan.chunks[at].rule,
            range: start..self.cursor,
            leaf: chunk.is_leaf(),
        });
        Ok(())
    }

    fn resolve_length(
        &self,
        at: usize,
        spec: &LengthSpec,
        scope_end: usize,
    ) -> Result<usize, CrackMiss> {
        match spec {
            LengthSpec::Fixed(n) => Ok(*n),
            LengthSpec::Remainder => Ok(scope_end.saturating_sub(self.cursor)),
            LengthSpec::FromField(_) => {
                let value = self.plan.chunks[at]
                    .length_from
                    .and_then(|field| self.values[field])
                    .ok_or(CrackMiss(Miss::UnknownField { chunk: at }))?;
                let len = usize::try_from(value).map_err(|_| {
                    CrackMiss(Miss::LengthOutOfRange {
                        chunk: at,
                        length: usize::MAX,
                    })
                })?;
                if len > self.packet.len() {
                    return Err(CrackMiss(Miss::LengthOutOfRange {
                        chunk: at,
                        length: len,
                    }));
                }
                Ok(len)
            }
        }
    }
}

/// Checks every fixup field a cracked packet matched against the checksum
/// of the fields it covers, concatenated in declaration order.
fn verify_checksums(
    model: &DataModel,
    packet: &[u8],
    nodes: &[CrackNode],
) -> Result<(), CrackMiss> {
    let matched = |at: usize| {
        nodes
            .iter()
            .find(|node| node.chunk == at)
            .map(|node| &packet[node.range.clone()])
    };
    for (at, chunk) in model.root().iter().enumerate() {
        let ChunkKind::Number(spec) = &chunk.kind else {
            continue;
        };
        let Some(fixup) = &spec.fixup else { continue };
        let Some(found) = matched(at).and_then(|content| spec.decode(content)) else {
            continue;
        };
        let mut covered = Vec::new();
        for target in &fixup.over {
            let position = model.root().iter().position(|c| c.name == target.name());
            if let Some(content) = position.and_then(matched) {
                covered.extend_from_slice(content);
            }
        }
        let expected = fixup.kind.compute(&covered);
        if expected != found {
            return Err(CrackMiss(Miss::ChecksumMismatch {
                chunk: at,
                found,
                expected,
            }));
        }
    }
    Ok(())
}

/// Builds the instantiation tree of a crack from its post-order table: each
/// structural node takes the nodes its children left on the stack.
fn build_tree(model: &DataModel, packet: &[u8], nodes: &[CrackNode]) -> InsTree {
    let chunks: Vec<&Chunk> = model.root().iter().collect();
    let mut stack: Vec<InsNode> = Vec::new();
    for node in nodes {
        let chunk = chunks[node.chunk];
        let built = match &chunk.kind {
            ChunkKind::Block(children) => {
                let children = stack.split_off(stack.len() - children.len());
                InsNode::internal(&chunk.name, node.rule, children)
            }
            ChunkKind::Choice(_) => {
                let option = stack.split_off(stack.len() - 1);
                InsNode::internal(&chunk.name, node.rule, option)
            }
            _ => InsNode::leaf(&chunk.name, node.rule, packet[node.range.clone()].to_vec()),
        };
        stack.push(built);
    }
    InsTree::new(model.name(), stack.pop().expect("the root is the last row"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BlockBuilder, DataModelBuilder};
    use crate::chunk::{BytesSpec, NumberSpec, StrSpec};
    use crate::types::{Fixup, Relation};

    fn length_prefixed_model() -> DataModel {
        DataModelBuilder::new("length_prefixed")
            .number("magic", NumberSpec::u8().fixed_value(0xAA))
            .number(
                "len",
                NumberSpec::u16_be().relation(Relation::size_of("payload")),
            )
            .bytes("payload", BytesSpec::length_from("len"))
            .number("crc", NumberSpec::u32_be().fixup(Fixup::crc32("payload")))
            .build()
            .unwrap()
    }

    #[test]
    fn cracks_well_formed_packet() {
        let model = length_prefixed_model();
        let payload = [0x01u8, 0x02, 0x03];
        let crc = crate::checksum::crc32(&payload);
        let mut packet = vec![0xAA, 0x00, 0x03];
        packet.extend_from_slice(&payload);
        packet.extend_from_slice(&crc.to_be_bytes());

        let tree = crack(&model, &packet).expect("packet matches model");
        assert_eq!(tree.find("payload").unwrap().content, payload);
        assert_eq!(tree.find("len").unwrap().content, vec![0x00, 0x03]);
        assert_eq!(tree.bytes(), &packet[..]);
    }

    #[test]
    fn rejects_wrong_magic() {
        let model = length_prefixed_model();
        let packet = vec![0xBB, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        assert!(matches!(
            crack(&model, &packet),
            Err(ModelError::IllegalValue { .. })
        ));
    }

    #[test]
    fn rejects_truncated_packet() {
        let model = length_prefixed_model();
        // Claims 16 payload bytes but provides none.
        let packet = vec![0xAA, 0x00, 0x10];
        assert!(matches!(
            crack(&model, &packet),
            Err(ModelError::UnexpectedEnd { .. } | ModelError::LengthOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_trailing_bytes_by_default() {
        let model = DataModelBuilder::new("short")
            .number("a", NumberSpec::u8())
            .build()
            .unwrap();
        let err = crack(&model, &[0x01, 0x02]).unwrap_err();
        assert_eq!(err, ModelError::TrailingBytes { remaining: 1 });

        let relaxed = crack_with(
            &model,
            &[0x01, 0x02],
            CrackOptions {
                reject_trailing: false,
                ..CrackOptions::default()
            },
        );
        assert!(relaxed.is_ok());
    }

    #[test]
    fn checksum_verification_is_optional() {
        let model = length_prefixed_model();
        let mut packet = vec![0xAA, 0x00, 0x01, 0x55];
        packet.extend_from_slice(&[0, 0, 0, 0]); // wrong CRC

        assert!(crack(&model, &packet).is_ok(), "lenient by default");
        let strict = crack_with(
            &model,
            &packet,
            CrackOptions {
                verify_checksums: true,
                ..CrackOptions::default()
            },
        );
        assert!(matches!(strict, Err(ModelError::ChecksumMismatch { .. })));
    }

    #[test]
    fn remainder_consumes_rest_of_packet() {
        let model = DataModelBuilder::new("rest")
            .number("tag", NumberSpec::u8())
            .bytes("body", BytesSpec::remainder())
            .build()
            .unwrap();
        let tree = crack(&model, &[0x09, 0x01, 0x02, 0x03]).unwrap();
        assert_eq!(tree.find("body").unwrap().content, vec![0x01, 0x02, 0x03]);
    }

    #[test]
    fn choice_selects_matching_option() {
        let read = BlockBuilder::new("read")
            .number("fc_read", NumberSpec::u8().fixed_value(0x01))
            .number("addr_r", NumberSpec::u16_be())
            .build();
        let write = BlockBuilder::new("write")
            .number("fc_write", NumberSpec::u8().fixed_value(0x02))
            .number("addr_w", NumberSpec::u16_be())
            .build();
        let model = DataModelBuilder::new("choice_model")
            .choice("body", vec![read, write])
            .build()
            .unwrap();

        let tree = crack(&model, &[0x02, 0x00, 0x10]).unwrap();
        assert!(tree.find("write").is_some());
        assert!(tree.find("read").is_none());

        let err = crack(&model, &[0x07, 0x00, 0x10]).unwrap_err();
        assert!(matches!(err, ModelError::NoChoiceMatched { .. }));
    }

    #[test]
    fn crack_against_set_returns_all_matches() {
        let generic = DataModelBuilder::new("generic")
            .number("first", NumberSpec::u8())
            .bytes("rest", BytesSpec::remainder())
            .build()
            .unwrap();
        let strict = DataModelBuilder::new("strict")
            .number("first", NumberSpec::u8().fixed_value(0x01))
            .bytes("rest", BytesSpec::remainder())
            .build()
            .unwrap();
        let set: DataModelSet = vec![generic, strict].into_iter().collect();

        let both = crack_against_set(&set, &[0x01, 0xff]);
        assert_eq!(both.len(), 2);
        let one = crack_against_set(&set, &[0x02, 0xff]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].model, "generic");
    }

    #[test]
    fn ascii_error_reports_the_offending_byte() {
        // The space before the offender is legal in an ASCII string.
        let model = DataModelBuilder::new("ascii")
            .str("name", StrSpec::fixed(4).ascii())
            .build()
            .unwrap();
        assert_eq!(
            crack(&model, b"a b\x01").unwrap_err(),
            ModelError::IllegalValue {
                field: "name".into(),
                found: 0x01,
            }
        );
        assert!(crack(&model, b"a b.").is_ok());
    }

    #[test]
    fn a_failed_option_leaves_no_rows_and_no_values() {
        // Option `a` parses `n` before it fails; `data` then finds no `n`
        // to read its length from, as `n` was never part of the match.
        let a = BlockBuilder::new("a")
            .number("n", NumberSpec::u8())
            .number("tag_a", NumberSpec::u8().fixed_value(1))
            .build();
        let b = BlockBuilder::new("b")
            .number("k", NumberSpec::u8())
            .number("tag_b", NumberSpec::u8().fixed_value(2))
            .build();
        let model = DataModelBuilder::new("rollback")
            .choice("body", vec![a, b])
            .bytes("data", BytesSpec::length_from("n"))
            .build()
            .unwrap();
        assert_eq!(
            crack(&model, &[3, 2, 9, 9, 9]).unwrap_err(),
            ModelError::UnknownField { field: "n".into() }
        );

        let mut table = CrackTable::new();
        let model = DataModelBuilder::new("choice_only")
            .choice(
                "body",
                vec![
                    BlockBuilder::new("a")
                        .number("x", NumberSpec::u8())
                        .number("tag_a", NumberSpec::u8().fixed_value(1))
                        .build(),
                    BlockBuilder::new("b")
                        .number("y", NumberSpec::u8())
                        .number("tag_b", NumberSpec::u8().fixed_value(2))
                        .build(),
                ],
            )
            .build()
            .unwrap();
        let nodes = table
            .crack(&model, &[7, 2], CrackOptions::default())
            .unwrap();
        let names: Vec<&str> = nodes
            .iter()
            .map(|node| model.root().iter().nth(node.chunk).unwrap().name.as_str())
            .collect();
        assert_eq!(names, ["y", "tag_b", "b", "body", "choice_only_packet"]);
        assert_eq!(nodes[2].range, 0..2);
    }

    #[test]
    fn table_rows_are_the_tree_puzzles_in_order() {
        let model = length_prefixed_model();
        let mut packet = vec![0xAA, 0x00, 0x02, 0x10, 0x20];
        packet.extend_from_slice(&crate::checksum::crc32(&[0x10, 0x20]).to_be_bytes());
        let puzzles: Vec<(RuleId, Vec<u8>)> = crack(&model, &packet)
            .unwrap()
            .puzzles()
            .into_iter()
            .map(|puzzle| (puzzle.rule, puzzle.content))
            .collect();
        let mut table = CrackTable::new();
        let rows: Vec<(RuleId, Vec<u8>)> = table
            .crack(&model, &packet, CrackOptions::default())
            .unwrap()
            .iter()
            .map(|node| (node.rule, packet[node.range.clone()].to_vec()))
            .collect();
        assert_eq!(rows, puzzles);
    }

    #[test]
    fn cracked_tree_has_puzzles_for_blocks() {
        let model = DataModelBuilder::new("blocky")
            .number("hdr", NumberSpec::u8().fixed_value(0x01))
            .block(
                BlockBuilder::new("body")
                    .number("x", NumberSpec::u16_be())
                    .number("y", NumberSpec::u16_be()),
            )
            .build()
            .unwrap();
        let tree = crack(&model, &[0x01, 0x00, 0x02, 0x00, 0x03]).unwrap();
        let puzzles = tree.puzzles();
        // x, y, body, hdr, root → 5 puzzles.
        assert_eq!(puzzles.len(), 5);
        let body = puzzles.iter().find(|p| p.origin == "body").unwrap();
        assert_eq!(body.content, vec![0x00, 0x02, 0x00, 0x03]);
    }
}
