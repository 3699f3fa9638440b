//! Chunk definitions: the nodes of a data-model tree.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::{Endianness, Fixup, LengthSpec, NumberWidth, Relation};

/// Identifier of a chunk's *construction rule*.
///
/// The Peach\* insight (paper §III, Figure 2) is that chunks belonging to
/// different packet types often conform to the same or similar construction
/// rules; a puzzle cracked from one packet type can therefore be donated when
/// generating another. The rule id is what links a puzzle in the corpus to
/// the positions where it may be donated.
///
/// By default the id is derived structurally from the chunk specification
/// (width, endianness, length behaviour, …), so identically-specified chunks
/// in different models automatically share a rule. A model author may also
/// assign an explicit rule name (e.g. `"asdu-address"`) to force sharing
/// between chunks whose specs differ superficially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(u64);

impl RuleId {
    /// Creates a rule id from an explicit name.
    #[must_use]
    pub fn named(name: &str) -> Self {
        let mut hasher = DefaultHasher::new();
        "explicit-rule".hash(&mut hasher);
        name.hash(&mut hasher);
        Self(hasher.finish())
    }

    /// Creates a rule id from a raw hash value.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw hash value of the rule id.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule:{:016x}", self.0)
    }
}

/// Specification of a numeric chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberSpec {
    /// Width in bytes.
    pub width: NumberWidth,
    /// Byte order.
    pub endian: Endianness,
    /// Default value emitted when nothing else is specified.
    pub default: u64,
    /// Legal values, if the field is constrained (e.g. a function code).
    /// `None` means any value of the width is legal.
    pub allowed: Option<Vec<u64>>,
    /// Relation deriving this field's value from another chunk's size.
    pub relation: Option<Relation>,
    /// Fixup overwriting this field's value with a checksum.
    pub fixup: Option<Fixup>,
}

impl NumberSpec {
    /// A big-endian number of the given width with default value 0.
    #[must_use]
    pub fn new(width: NumberWidth) -> Self {
        Self {
            width,
            endian: Endianness::Big,
            default: 0,
            allowed: None,
            relation: None,
            fixup: None,
        }
    }

    /// One-byte number.
    #[must_use]
    pub fn u8() -> Self {
        Self::new(NumberWidth::U8)
    }

    /// Two-byte big-endian number.
    #[must_use]
    pub fn u16_be() -> Self {
        Self::new(NumberWidth::U16)
    }

    /// Two-byte little-endian number.
    #[must_use]
    pub fn u16_le() -> Self {
        Self::new(NumberWidth::U16).endian(Endianness::Little)
    }

    /// Four-byte big-endian number.
    #[must_use]
    pub fn u32_be() -> Self {
        Self::new(NumberWidth::U32)
    }

    /// Four-byte little-endian number.
    #[must_use]
    pub fn u32_le() -> Self {
        Self::new(NumberWidth::U32).endian(Endianness::Little)
    }

    /// Sets the byte order.
    #[must_use]
    pub fn endian(mut self, endian: Endianness) -> Self {
        self.endian = endian;
        self
    }

    /// Sets the default value.
    #[must_use]
    pub fn default_value(mut self, value: u64) -> Self {
        self.default = value;
        self
    }

    /// Constrains the field to exactly one legal value (also used as the
    /// default). Typical for function-code / type-id fields.
    #[must_use]
    pub fn fixed_value(mut self, value: u64) -> Self {
        self.default = value;
        self.allowed = Some(vec![value]);
        self
    }

    /// Constrains the field to a set of legal values; the first becomes the
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn allowed_values(mut self, values: Vec<u64>) -> Self {
        assert!(!values.is_empty(), "allowed value set must not be empty");
        self.default = values[0];
        self.allowed = Some(values);
        self
    }

    /// Attaches a relation.
    #[must_use]
    pub fn relation(mut self, relation: Relation) -> Self {
        self.relation = Some(relation);
        self
    }

    /// Attaches a fixup.
    #[must_use]
    pub fn fixup(mut self, fixup: Fixup) -> Self {
        self.fixup = Some(fixup);
        self
    }

    /// Encodes `value` at this spec's width and endianness.
    #[must_use]
    pub fn encode(&self, value: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.width.bytes());
        self.encode_into(value, &mut out);
        out
    }

    /// [`encode`](NumberSpec::encode) appended to a caller-provided buffer —
    /// the per-leaf emission path uses this so that emitting a packet never
    /// allocates one small vector per number field.
    pub fn encode_into(&self, value: u64, out: &mut Vec<u8>) {
        self.with_wire(value, |wire| out.extend_from_slice(wire));
    }

    /// Overwrites `field`, which must be exactly the spec's width, with the
    /// encoding of `value` — File Fixup's in-place write.
    pub(crate) fn store(&self, value: u64, field: &mut [u8]) {
        self.with_wire(value, |wire| field.copy_from_slice(wire));
    }

    /// Calls `write` with the encoding of `value`: its least significant
    /// `width` bytes in this spec's byte order, as one fixed-size array per
    /// width, so every write is a store of a length known at compile time.
    fn with_wire<R>(&self, value: u64, write: impl FnOnce(&[u8]) -> R) -> R {
        let big = matches!(self.endian, Endianness::Big);
        match self.width {
            NumberWidth::U8 => write(&[value as u8]),
            NumberWidth::U16 if big => write(&(value as u16).to_be_bytes()),
            NumberWidth::U16 => write(&(value as u16).to_le_bytes()),
            NumberWidth::U32 if big => write(&(value as u32).to_be_bytes()),
            NumberWidth::U32 => write(&(value as u32).to_le_bytes()),
            NumberWidth::U64 if big => write(&value.to_be_bytes()),
            NumberWidth::U64 => write(&value.to_le_bytes()),
        }
    }

    /// Decodes a value from `bytes` (must be exactly the spec's width).
    ///
    /// Returns `None` when `bytes` has the wrong length.
    #[must_use]
    pub fn decode(&self, bytes: &[u8]) -> Option<u64> {
        if bytes.len() != self.width.bytes() {
            return None;
        }
        let mut buf = [0u8; 8];
        match self.endian {
            Endianness::Big => buf[8 - bytes.len()..].copy_from_slice(bytes),
            Endianness::Little => {
                for (i, &byte) in bytes.iter().enumerate() {
                    buf[7 - i] = byte;
                }
            }
        }
        Some(u64::from_be_bytes(buf))
    }

    /// Whether `value` is legal for this field.
    #[must_use]
    pub fn is_legal(&self, value: u64) -> bool {
        if value > self.width.max_value() {
            return false;
        }
        match &self.allowed {
            Some(values) => values.contains(&value),
            None => true,
        }
    }
}

/// Specification of a raw-bytes (blob) chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytesSpec {
    /// How many bytes the chunk occupies.
    pub length: LengthSpec,
    /// Default content emitted when nothing else is specified. For
    /// fixed-length chunks shorter defaults are zero-padded and longer ones
    /// truncated at emission time.
    pub default: Vec<u8>,
}

impl BytesSpec {
    /// Fixed-length blob of `len` bytes, default all zero.
    #[must_use]
    pub fn fixed(len: usize) -> Self {
        Self {
            length: LengthSpec::Fixed(len),
            default: vec![0u8; len],
        }
    }

    /// Blob whose length is carried by the named field.
    #[must_use]
    pub fn length_from(field: impl Into<crate::types::FieldRef>) -> Self {
        Self {
            length: LengthSpec::FromField(field.into()),
            default: Vec::new(),
        }
    }

    /// Blob consuming the rest of the enclosing scope.
    #[must_use]
    pub fn remainder() -> Self {
        Self {
            length: LengthSpec::Remainder,
            default: Vec::new(),
        }
    }

    /// Sets the default content.
    #[must_use]
    pub fn default_content(mut self, content: Vec<u8>) -> Self {
        self.default = content;
        self
    }
}

/// Specification of a string chunk (ASCII payloads such as object names in
/// MMS / ICCP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrSpec {
    /// How many bytes the string occupies.
    pub length: LengthSpec,
    /// Default content.
    pub default: String,
    /// Whether cracked content must be printable ASCII to be considered
    /// legal.
    pub ascii_only: bool,
}

impl StrSpec {
    /// String whose length is carried by the named field.
    #[must_use]
    pub fn length_from(field: impl Into<crate::types::FieldRef>) -> Self {
        Self {
            length: LengthSpec::FromField(field.into()),
            default: String::new(),
            ascii_only: false,
        }
    }

    /// Fixed-length string.
    #[must_use]
    pub fn fixed(len: usize) -> Self {
        Self {
            length: LengthSpec::Fixed(len),
            default: String::new(),
            ascii_only: false,
        }
    }

    /// String consuming the rest of the enclosing scope.
    #[must_use]
    pub fn remainder() -> Self {
        Self {
            length: LengthSpec::Remainder,
            default: String::new(),
            ascii_only: false,
        }
    }

    /// Sets the default content.
    #[must_use]
    pub fn default_content(mut self, content: impl Into<String>) -> Self {
        self.default = content.into();
        self
    }

    /// Requires cracked content to be printable ASCII.
    #[must_use]
    pub fn ascii(mut self) -> Self {
        self.ascii_only = true;
        self
    }
}

/// The kind of a chunk: a typed leaf or a structural node.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkKind {
    /// Numeric leaf.
    Number(NumberSpec),
    /// Raw-bytes leaf.
    Bytes(BytesSpec),
    /// String leaf.
    Str(StrSpec),
    /// Ordered group of child chunks.
    Block(Vec<Chunk>),
    /// Exactly one of the child chunks matches (tried in order when
    /// cracking; the first child is the default when generating).
    Choice(Vec<Chunk>),
}

impl ChunkKind {
    /// `true` for leaf kinds (number, bytes, string).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(
            self,
            ChunkKind::Number(_) | ChunkKind::Bytes(_) | ChunkKind::Str(_)
        )
    }

    fn structural_signature(&self, hasher: &mut DefaultHasher) {
        match self {
            ChunkKind::Number(spec) => {
                "number".hash(hasher);
                spec.width.bytes().hash(hasher);
                matches!(spec.endian, Endianness::Little).hash(hasher);
                spec.allowed.is_some().hash(hasher);
                spec.relation.is_some().hash(hasher);
                spec.fixup.as_ref().map(|f| f.kind.to_string()).hash(hasher);
            }
            ChunkKind::Bytes(spec) => {
                "bytes".hash(hasher);
                match &spec.length {
                    LengthSpec::Fixed(n) => {
                        "fixed".hash(hasher);
                        n.hash(hasher);
                    }
                    LengthSpec::FromField(_) => "from-field".hash(hasher),
                    LengthSpec::Remainder => "remainder".hash(hasher),
                }
            }
            ChunkKind::Str(spec) => {
                "str".hash(hasher);
                match &spec.length {
                    LengthSpec::Fixed(n) => {
                        "fixed".hash(hasher);
                        n.hash(hasher);
                    }
                    LengthSpec::FromField(_) => "from-field".hash(hasher),
                    LengthSpec::Remainder => "remainder".hash(hasher),
                }
                spec.ascii_only.hash(hasher);
            }
            ChunkKind::Block(children) => {
                "block".hash(hasher);
                children.len().hash(hasher);
                for child in children {
                    child.kind.structural_signature(hasher);
                }
            }
            ChunkKind::Choice(options) => {
                "choice".hash(hasher);
                options.len().hash(hasher);
                for option in options {
                    option.kind.structural_signature(hasher);
                }
            }
        }
    }
}

/// A node of the data-model tree: a named, rule-tagged chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Field name, unique within its [`DataModel`](crate::DataModel).
    pub name: String,
    /// Explicit rule name, if the model author assigned one.
    pub explicit_rule: Option<String>,
    /// The chunk's kind.
    pub kind: ChunkKind,
}

impl Chunk {
    /// Creates a chunk.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: ChunkKind) -> Self {
        Self {
            name: name.into(),
            explicit_rule: None,
            kind,
        }
    }

    /// Creates a numeric chunk.
    #[must_use]
    pub fn number(name: impl Into<String>, spec: NumberSpec) -> Self {
        Self::new(name, ChunkKind::Number(spec))
    }

    /// Creates a raw-bytes chunk.
    #[must_use]
    pub fn bytes(name: impl Into<String>, spec: BytesSpec) -> Self {
        Self::new(name, ChunkKind::Bytes(spec))
    }

    /// Creates a string chunk.
    #[must_use]
    pub fn str(name: impl Into<String>, spec: StrSpec) -> Self {
        Self::new(name, ChunkKind::Str(spec))
    }

    /// Creates a block chunk with the given children.
    #[must_use]
    pub fn block(name: impl Into<String>, children: Vec<Chunk>) -> Self {
        Self::new(name, ChunkKind::Block(children))
    }

    /// Creates a choice chunk with the given options.
    #[must_use]
    pub fn choice(name: impl Into<String>, options: Vec<Chunk>) -> Self {
        Self::new(name, ChunkKind::Choice(options))
    }

    /// Assigns an explicit construction-rule name, forcing rule sharing with
    /// any other chunk carrying the same name.
    #[must_use]
    pub fn with_rule(mut self, rule: impl Into<String>) -> Self {
        self.explicit_rule = Some(rule.into());
        self
    }

    /// `true` if this chunk is a leaf (number, bytes or string).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.kind.is_leaf()
    }

    /// The chunk's construction-rule identifier.
    ///
    /// Explicit rule names take precedence; otherwise the id is a structural
    /// hash of the specification, so equally-specified chunks share a rule
    /// even across different models.
    #[must_use]
    pub fn rule_id(&self) -> RuleId {
        if let Some(rule) = &self.explicit_rule {
            return RuleId::named(rule);
        }
        let mut hasher = DefaultHasher::new();
        "structural-rule".hash(&mut hasher);
        self.kind.structural_signature(&mut hasher);
        RuleId::from_raw(hasher.finish())
    }

    /// Child chunks (empty for leaves).
    #[must_use]
    pub fn children(&self) -> &[Chunk] {
        match &self.kind {
            ChunkKind::Block(children) | ChunkKind::Choice(children) => children,
            _ => &[],
        }
    }

    /// The minimal number of bytes any instantiation of this chunk occupies
    /// on the wire: variable-length content (remainder / field-driven
    /// lengths) counts as zero.
    ///
    /// The cracker uses this to stop a greedy [`LengthSpec::Remainder`]
    /// field from swallowing the bytes of fixed-size siblings that follow
    /// it (e.g. a trailing CRC).
    #[must_use]
    pub fn min_encoded_size(&self) -> usize {
        match &self.kind {
            ChunkKind::Number(spec) => spec.width.bytes(),
            ChunkKind::Bytes(spec) => match spec.length {
                crate::types::LengthSpec::Fixed(len) => len,
                _ => 0,
            },
            ChunkKind::Str(spec) => match spec.length {
                crate::types::LengthSpec::Fixed(len) => len,
                _ => 0,
            },
            ChunkKind::Block(children) => {
                children.iter().map(Chunk::min_encoded_size).sum()
            }
            ChunkKind::Choice(options) => options
                .iter()
                .map(Chunk::min_encoded_size)
                .min()
                .unwrap_or(0),
        }
    }

    /// Iterates over this chunk and all descendants in depth-first,
    /// declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Chunk> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let next = stack.pop()?;
            for child in next.children().iter().rev() {
                stack.push(child);
            }
            Some(next)
        })
    }
}

impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.kind {
            ChunkKind::Number(spec) => format!("number<{}>", spec.width),
            ChunkKind::Bytes(spec) => format!("bytes<{}>", spec.length),
            ChunkKind::Str(spec) => format!("str<{}>", spec.length),
            ChunkKind::Block(children) => format!("block[{}]", children.len()),
            ChunkKind::Choice(options) => format!("choice[{}]", options.len()),
        };
        write!(f, "{} : {}", self.name, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_encode_decode_roundtrip() {
        let spec = NumberSpec::u32_be().default_value(7);
        for value in [0u64, 1, 0xdead_beef, u32::MAX as u64] {
            let encoded = spec.encode(value);
            assert_eq!(encoded.len(), 4);
            assert_eq!(spec.decode(&encoded), Some(value));
        }
    }

    #[test]
    fn number_little_endian_encoding() {
        let spec = NumberSpec::u16_le();
        assert_eq!(spec.encode(0x1234), vec![0x34, 0x12]);
        assert_eq!(spec.decode(&[0x34, 0x12]), Some(0x1234));
    }

    #[test]
    fn encoding_keeps_the_low_bytes_of_wide_values() {
        // Reference: the value's low `width` big-endian bytes, reversed for
        // a little-endian field.
        let values = [0, 1, 0x1234, 0xdead_beef, 0x0123_4567_89ab_cdef, u64::MAX];
        for width in [
            NumberWidth::U8,
            NumberWidth::U16,
            NumberWidth::U32,
            NumberWidth::U64,
        ] {
            for endian in [Endianness::Big, Endianness::Little] {
                let spec = NumberSpec::new(width).endian(endian);
                for value in values {
                    let mut expected = value.to_be_bytes()[8 - width.bytes()..].to_vec();
                    if matches!(endian, Endianness::Little) {
                        expected.reverse();
                    }
                    assert_eq!(spec.encode(value), expected, "{width} {value:#x}");
                    let mut field = vec![0xee; width.bytes()];
                    spec.store(value, &mut field);
                    assert_eq!(field, expected, "{width} {value:#x}");
                }
            }
        }
    }

    #[test]
    fn number_decode_wrong_length_is_none() {
        assert_eq!(NumberSpec::u16_be().decode(&[0x01]), None);
        assert_eq!(NumberSpec::u8().decode(&[]), None);
    }

    #[test]
    fn legality_respects_allowed_set_and_width() {
        let fc = NumberSpec::u8().allowed_values(vec![1, 2, 3, 4]);
        assert!(fc.is_legal(3));
        assert!(!fc.is_legal(9));
        let narrow = NumberSpec::u8();
        assert!(!narrow.is_legal(0x100));
    }

    #[test]
    fn fixed_value_sets_default_and_allowed() {
        let spec = NumberSpec::u8().fixed_value(0x2a);
        assert_eq!(spec.default, 0x2a);
        assert_eq!(spec.allowed, Some(vec![0x2a]));
    }

    #[test]
    fn structural_rule_ids_shared_across_identical_specs() {
        let a = Chunk::number("start_addr", NumberSpec::u16_be());
        let b = Chunk::number("output_addr", NumberSpec::u16_be());
        assert_eq!(a.rule_id(), b.rule_id(), "same spec, same rule");

        let c = Chunk::number("count", NumberSpec::u16_le());
        assert_ne!(a.rule_id(), c.rule_id(), "different endianness, different rule");
    }

    #[test]
    fn explicit_rule_overrides_structure() {
        let a = Chunk::number("addr", NumberSpec::u16_be()).with_rule("ioa");
        let b = Chunk::number("addr2", NumberSpec::u32_be()).with_rule("ioa");
        assert_eq!(a.rule_id(), b.rule_id());
        assert_eq!(RuleId::named("ioa"), a.rule_id());
    }

    #[test]
    fn iter_visits_depth_first_in_declaration_order() {
        let model = Chunk::block(
            "root",
            vec![
                Chunk::number("a", NumberSpec::u8()),
                Chunk::block(
                    "b",
                    vec![
                        Chunk::number("b1", NumberSpec::u8()),
                        Chunk::number("b2", NumberSpec::u8()),
                    ],
                ),
                Chunk::number("c", NumberSpec::u8()),
            ],
        );
        let names: Vec<&str> = model.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["root", "a", "b", "b1", "b2", "c"]);
    }

    #[test]
    fn display_is_informative() {
        let chunk = Chunk::bytes("payload", BytesSpec::remainder());
        assert!(chunk.to_string().contains("payload"));
        assert!(chunk.to_string().contains("bytes"));
    }
}
