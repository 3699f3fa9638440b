//! The [`DataModel`] (one packet type), the [`DataModelSet`] (a whole format
//! specification) and the linearised view used by the generators.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use crate::chunk::{Chunk, ChunkKind, NumberSpec, RuleId};
use crate::crack::CrackPlan;
use crate::error::ModelError;
use crate::types::{ChecksumKind, Relation};

/// A complete data model for one packet type, i.e. one `Mᵢ` of the paper.
///
/// A model owns a tree of [`Chunk`]s. ICS protocols usually define one model
/// per function code / type identifier; the whole format specification is the
/// [`DataModelSet`].
///
/// ```
/// use peachstar_datamodel::{Chunk, DataModel, NumberSpec};
///
/// let model = DataModel::new(
///     "ping",
///     Chunk::block("packet", vec![
///         Chunk::number("opcode", NumberSpec::u8().fixed_value(0x01)),
///         Chunk::number("cookie", NumberSpec::u32_be()),
///     ]),
/// )?;
/// assert_eq!(model.linear().len(), 2);
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataModel {
    name: String,
    root: Chunk,
    /// Linearised view, computed once at construction. Models are immutable
    /// after [`DataModel::new`], so the cache can never go stale.
    layout: LinearLayout,
    /// The cracker's per-chunk plan, built at the model's first crack, so
    /// that models that are never cracked (the Peach baseline's) never pay
    /// for it.
    crack_plan: OnceLock<CrackPlan>,
}

impl PartialEq for DataModel {
    fn eq(&self, other: &Self) -> bool {
        // The layout and the crack plan are derived from the root, so
        // comparing them would only re-compare the tree.
        self.name == other.name && self.root == other.root
    }
}

impl DataModel {
    /// Creates a model from its root chunk, validating that the tree is
    /// non-empty, that field names are unique and that every relation,
    /// fixup and length reference points at an existing field.
    ///
    /// The linearised leaf view ([`DataModel::linear`]) is precomputed here,
    /// once, so the generators' per-packet hot path never re-walks the tree.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`], [`ModelError::DuplicateField`]
    /// or [`ModelError::UnknownField`] when the model is malformed.
    pub fn new(name: impl Into<String>, root: Chunk) -> Result<Self, ModelError> {
        let name = name.into();
        let mut model = Self {
            name,
            root,
            layout: LinearLayout::default(),
            crack_plan: OnceLock::new(),
        };
        model.validate()?;
        model.layout = LinearLayout::compute(&model.root);
        Ok(model)
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.root.children().is_empty() && !self.root.is_leaf() {
            return Err(ModelError::EmptyModel {
                model: self.name.clone(),
            });
        }
        let mut seen = HashSet::new();
        for chunk in self.root.iter() {
            if !seen.insert(chunk.name.clone()) {
                return Err(ModelError::DuplicateField {
                    field: chunk.name.clone(),
                });
            }
        }
        // Every reference must resolve.
        for chunk in self.root.iter() {
            let check = |field: &crate::types::FieldRef| -> Result<(), ModelError> {
                if seen.contains(field.name()) {
                    Ok(())
                } else {
                    Err(ModelError::UnknownField {
                        field: field.name().to_string(),
                    })
                }
            };
            match &chunk.kind {
                ChunkKind::Number(spec) => {
                    if let Some(relation) = &spec.relation {
                        check(relation.target())?;
                    }
                    if let Some(fixup) = &spec.fixup {
                        for field in &fixup.over {
                            check(field)?;
                        }
                    }
                }
                ChunkKind::Bytes(spec) => {
                    if let crate::types::LengthSpec::FromField(field) = &spec.length {
                        check(field)?;
                    }
                }
                ChunkKind::Str(spec) => {
                    if let crate::types::LengthSpec::FromField(field) = &spec.length {
                        check(field)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The model's name (e.g. `"read_holding_registers"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root chunk of the model tree.
    #[must_use]
    pub fn root(&self) -> &Chunk {
        &self.root
    }

    /// Finds a chunk by field name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Chunk> {
        self.root.iter().find(|chunk| chunk.name == name)
    }

    /// The linearised view of the model: its leaf chunks in packet order,
    /// with choice nodes resolved to their first (default) option.
    ///
    /// This corresponds to the linear model `M_L` of the paper's Figure 2(a)
    /// and Algorithm 3. The view is computed once in [`DataModel::new`] and
    /// returned by reference, so calling this per generated packet is free.
    #[must_use]
    pub fn linear(&self) -> &LinearLayout {
        &self.layout
    }

    /// The cracker's plan of this model, built on first use.
    pub(crate) fn crack_plan(&self) -> &CrackPlan {
        self.crack_plan.get_or_init(|| CrackPlan::new(&self.root))
    }

    /// All construction-rule identifiers appearing in this model (leaves and
    /// internal nodes), in depth-first order, deduplicated.
    #[must_use]
    pub fn rule_ids(&self) -> Vec<RuleId> {
        let mut seen = HashSet::new();
        let mut rules = Vec::new();
        for chunk in self.root.iter() {
            let rule = chunk.rule_id();
            if seen.insert(rule) {
                rules.push(rule);
            }
        }
        rules
    }
}

impl fmt::Display for DataModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {}", self.name)?;
        fn render(chunk: &Chunk, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "{:indent$}{}", "", chunk, indent = depth * 2)?;
            for child in chunk.children() {
                render(child, depth + 1, f)?;
            }
            Ok(())
        }
        render(&self.root, 1, f)
    }
}

/// One leaf position of a [`LinearLayout`].
///
/// Owns a copy of the leaf chunk (leaves are small type specifications), so
/// the layout needs no lifetime tie to the model tree and can be cached
/// inside the [`DataModel`] itself.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearChunk {
    /// The leaf chunk definition.
    pub chunk: Chunk,
    /// Dotted path from the root to the leaf (e.g. `"packet.pdu.function"`).
    pub path: String,
}

/// Linearised view of a [`DataModel`]: the ordered leaf chunks, their
/// construction rules, and the File Fixup repairs precompiled against leaf
/// positions.
///
/// Computed once per model at construction — the per-packet generators and
/// the emitter only read it. Every chunk the emitter writes covers a
/// contiguous run of leaves, so each repair names its field and the chunks
/// it measures as leaf indices and leaf ranges: the emitter needs only the
/// byte offset at which each leaf starts to find them in a packet.
#[derive(Debug, Clone, Default)]
pub struct LinearLayout {
    leaves: Vec<LinearChunk>,
    rules: Vec<RuleId>,
    /// Relation fields to repair after emission, in tree order.
    relation_repairs: Vec<RelationRepair>,
    /// Fixup fields to repair after emission (after all relations), in tree
    /// order.
    fixup_repairs: Vec<FixupRepair>,
}

/// One precompiled relation repair: re-encode leaf `own` from the emitted
/// length of the leaves in `target`.
#[derive(Debug, Clone)]
pub(crate) struct RelationRepair {
    pub(crate) own: usize,
    pub(crate) target: Range<usize>,
    pub(crate) relation: Relation,
    pub(crate) spec: NumberSpec,
}

/// One precompiled fixup repair: re-encode the checksum at leaf `own` over
/// the emitted bytes of the leaf ranges in `over`, concatenated in order.
#[derive(Debug, Clone)]
pub(crate) struct FixupRepair {
    pub(crate) own: usize,
    pub(crate) over: Vec<Range<usize>>,
    pub(crate) kind: ChecksumKind,
    pub(crate) spec: NumberSpec,
}

impl LinearLayout {
    fn compute(root: &Chunk) -> Self {
        let mut layout = Self::default();
        let mut ranges = HashMap::new();
        layout.collect(root, &mut Vec::new(), &mut ranges);
        // Precompile the File Fixup passes: relations first, then fixups,
        // both in tree order. Only a choice's first option is emitted, so a
        // field in a later option has no leaf range: a repair of such a
        // field, a relation measuring one, and a fixup's share of one are
        // dropped here, once, instead of per packet.
        for chunk in root.iter() {
            let ChunkKind::Number(spec) = &chunk.kind else {
                continue;
            };
            let Some(own) = ranges.get(chunk.name.as_str()) else {
                continue;
            };
            let own = own.start;
            if let Some(relation) = &spec.relation {
                if let Some(target) = ranges.get(relation.target().name()) {
                    layout.relation_repairs.push(RelationRepair {
                        own,
                        target: target.clone(),
                        relation: relation.clone(),
                        spec: spec.clone(),
                    });
                }
            }
            if let Some(fixup) = &spec.fixup {
                let over = fixup
                    .over
                    .iter()
                    .filter_map(|field| ranges.get(field.name()).cloned())
                    .collect();
                layout.fixup_repairs.push(FixupRepair {
                    own,
                    over,
                    kind: fixup.kind,
                    spec: spec.clone(),
                });
            }
        }
        layout
    }

    /// Walks the chunks the emitter writes (all block children, only the
    /// first choice option), collecting the leaves in packet order and
    /// recording the leaf range of every chunk visited.
    fn collect<'tree>(
        &mut self,
        chunk: &'tree Chunk,
        path: &mut Vec<&'tree str>,
        ranges: &mut HashMap<&'tree str, Range<usize>>,
    ) {
        let first = self.leaves.len();
        path.push(&chunk.name);
        match &chunk.kind {
            ChunkKind::Block(children) => {
                for child in children {
                    self.collect(child, path, ranges);
                }
            }
            ChunkKind::Choice(options) => {
                if let Some(option) = options.first() {
                    self.collect(option, path, ranges);
                }
            }
            _ => {
                self.rules.push(chunk.rule_id());
                self.leaves.push(LinearChunk {
                    chunk: chunk.clone(),
                    path: path.join("."),
                });
            }
        }
        path.pop();
        ranges.insert(&chunk.name, first..self.leaves.len());
    }

    /// Number of leaf positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// `true` when the model has no leaves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The leaf at `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&LinearChunk> {
        self.leaves.get(index)
    }

    /// Iterates over the leaf positions in packet order.
    pub fn iter(&self) -> impl Iterator<Item = &LinearChunk> {
        self.leaves.iter()
    }

    /// The construction rule at each position, in order.
    #[must_use]
    pub fn rules(&self) -> &[RuleId] {
        &self.rules
    }

    /// The precompiled relation repairs, in tree order.
    pub(crate) fn relation_repairs(&self) -> &[RelationRepair] {
        &self.relation_repairs
    }

    /// The precompiled fixup repairs, in tree order.
    pub(crate) fn fixup_repairs(&self) -> &[FixupRepair] {
        &self.fixup_repairs
    }
}

/// A complete format specification `G`: the set of data models of a protocol,
/// one per packet type.
///
/// ```
/// use peachstar_datamodel::{Chunk, DataModel, DataModelSet, NumberSpec};
///
/// let mut set = DataModelSet::new("toy");
/// set.push(DataModel::new(
///     "ping",
///     Chunk::number("opcode", NumberSpec::u8().fixed_value(1)),
/// )?);
/// assert_eq!(set.len(), 1);
/// assert!(set.find("ping").is_some());
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataModelSet {
    name: String,
    models: Vec<DataModel>,
}

impl DataModelSet {
    /// Creates an empty set named after the protocol.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            models: Vec::new(),
        }
    }

    /// The protocol name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a model to the set.
    pub fn push(&mut self, model: DataModel) {
        self.models.push(model);
    }

    /// Number of models in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when the set contains no models.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The models, in insertion order.
    #[must_use]
    pub fn models(&self) -> &[DataModel] {
        &self.models
    }

    /// Looks a model up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&DataModel> {
        self.models.iter().find(|m| m.name() == name)
    }

    /// Looks a model up by name, returning an error when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownModel`] when no model has that name.
    pub fn require(&self, name: &str) -> Result<&DataModel, ModelError> {
        self.find(name).ok_or_else(|| ModelError::UnknownModel {
            model: name.to_string(),
        })
    }

    /// Fraction of construction rules shared by at least two models of the
    /// set (the quantity behind Figure 2 of the paper: how much do packet
    /// types overlap structurally?).
    ///
    /// Returns 0.0 for sets with fewer than two models.
    #[must_use]
    pub fn rule_overlap(&self) -> f64 {
        if self.models.len() < 2 {
            return 0.0;
        }
        let mut counts = std::collections::HashMap::new();
        for model in &self.models {
            for rule in model.rule_ids() {
                *counts.entry(rule).or_insert(0usize) += 1;
            }
        }
        if counts.is_empty() {
            return 0.0;
        }
        let shared = counts.values().filter(|&&count| count >= 2).count();
        shared as f64 / counts.len() as f64
    }
}

impl FromIterator<DataModel> for DataModelSet {
    fn from_iter<T: IntoIterator<Item = DataModel>>(iter: T) -> Self {
        let mut set = DataModelSet::new("unnamed");
        for model in iter {
            set.push(model);
        }
        set
    }
}

impl Extend<DataModel> for DataModelSet {
    fn extend<T: IntoIterator<Item = DataModel>>(&mut self, iter: T) {
        for model in iter {
            self.push(model);
        }
    }
}

impl fmt::Display for DataModelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "format {} ({} models)", self.name, self.models.len())?;
        for model in &self.models {
            writeln!(f, "  - {}", model.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{BytesSpec, NumberSpec};
    use crate::types::{Fixup, Relation};

    fn simple_model() -> DataModel {
        DataModel::new(
            "simple",
            Chunk::block(
                "packet",
                vec![
                    Chunk::number("id", NumberSpec::u8().fixed_value(0x10)),
                    Chunk::number(
                        "size",
                        NumberSpec::u16_be().relation(Relation::size_of("data")),
                    ),
                    Chunk::bytes("data", BytesSpec::length_from("size")),
                    Chunk::number("crc", NumberSpec::u32_be().fixup(Fixup::crc32("data"))),
                ],
            ),
        )
        .expect("valid model")
    }

    #[test]
    fn linear_model_orders_leaves() {
        let model = simple_model();
        let linear = model.linear();
        let names: Vec<&str> = linear.iter().map(|l| l.chunk.name.as_str()).collect();
        assert_eq!(names, vec!["id", "size", "data", "crc"]);
        assert_eq!(linear.len(), 4);
        assert!(!linear.is_empty());
        assert_eq!(linear.get(0).unwrap().path, "packet.id");
    }

    #[test]
    fn duplicate_field_rejected() {
        let result = DataModel::new(
            "dup",
            Chunk::block(
                "p",
                vec![
                    Chunk::number("x", NumberSpec::u8()),
                    Chunk::number("x", NumberSpec::u8()),
                ],
            ),
        );
        assert!(matches!(result, Err(ModelError::DuplicateField { .. })));
    }

    #[test]
    fn dangling_reference_rejected() {
        let result = DataModel::new(
            "dangling",
            Chunk::block(
                "p",
                vec![Chunk::number(
                    "size",
                    NumberSpec::u16_be().relation(Relation::size_of("nope")),
                )],
            ),
        );
        assert!(matches!(result, Err(ModelError::UnknownField { .. })));
    }

    #[test]
    fn empty_block_rejected() {
        let result = DataModel::new("empty", Chunk::block("p", vec![]));
        assert!(matches!(result, Err(ModelError::EmptyModel { .. })));
    }

    #[test]
    fn single_leaf_model_is_valid() {
        let model = DataModel::new("leaf", Chunk::number("x", NumberSpec::u8()));
        assert!(model.is_ok());
    }

    #[test]
    fn choice_linearises_first_option() {
        let model = DataModel::new(
            "choice",
            Chunk::block(
                "p",
                vec![Chunk::choice(
                    "body",
                    vec![
                        Chunk::number("read", NumberSpec::u8().fixed_value(1)),
                        Chunk::number("write", NumberSpec::u8().fixed_value(2)),
                    ],
                )],
            ),
        )
        .unwrap();
        let names: Vec<&str> = model.linear().iter().map(|l| l.chunk.name.as_str()).collect();
        assert_eq!(names, vec!["read"]);
    }

    #[test]
    fn find_locates_nested_chunks() {
        let model = simple_model();
        assert!(model.find("data").is_some());
        assert!(model.find("packet").is_some());
        assert!(model.find("missing").is_none());
    }

    #[test]
    fn model_set_lookup_and_require() {
        let mut set = DataModelSet::new("toy");
        set.push(simple_model());
        assert_eq!(set.len(), 1);
        assert!(set.find("simple").is_some());
        assert!(set.require("simple").is_ok());
        assert!(matches!(
            set.require("absent"),
            Err(ModelError::UnknownModel { .. })
        ));
    }

    #[test]
    fn rule_overlap_detects_shared_rules() {
        let model_a = DataModel::new(
            "a",
            Chunk::block(
                "pa",
                vec![
                    Chunk::number("fc_a", NumberSpec::u8().fixed_value(1)),
                    Chunk::number("addr_a", NumberSpec::u16_be()),
                ],
            ),
        )
        .unwrap();
        let model_b = DataModel::new(
            "b",
            Chunk::block(
                "pb",
                vec![
                    Chunk::number("fc_b", NumberSpec::u8().fixed_value(2)),
                    Chunk::number("addr_b", NumberSpec::u16_be()),
                ],
            ),
        )
        .unwrap();
        let set: DataModelSet = vec![model_a, model_b].into_iter().collect();
        assert!(set.rule_overlap() > 0.0, "u16-be address rule is shared");

        let lone: DataModelSet = std::iter::once(simple_model()).collect();
        assert_eq!(lone.rule_overlap(), 0.0);
    }

    #[test]
    fn display_lists_models() {
        let mut set = DataModelSet::new("modbus");
        set.push(simple_model());
        let text = set.to_string();
        assert!(text.contains("modbus"));
        assert!(text.contains("simple"));
    }
}
