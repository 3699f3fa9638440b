//! Generation strategies: the baseline model instantiation of Peach
//! (Algorithm 1) and the semantic-aware generation of Peach\* (Algorithm 3).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use peachstar_datamodel::emit::{emit_with, EmitScratch};
use peachstar_datamodel::{DataModel, DataModelSet};

use crate::corpus::PuzzleCorpus;
use crate::cracker::FileCracker;
use crate::mutator;
use crate::seed::Seed;

/// Which of the two fuzzers a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The baseline generation-based fuzzer (Peach).
    Peach,
    /// The coverage-guided packet crack and generation fuzzer (Peach\*).
    PeachStar,
}

impl StrategyKind {
    /// Human-readable name matching the paper's terminology.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            StrategyKind::Peach => "Peach",
            StrategyKind::PeachStar => "Peach*",
        }
    }

    /// Instantiates the strategy with default settings.
    #[must_use]
    pub fn create(self) -> Box<dyn GenerationStrategy> {
        match self {
            StrategyKind::Peach => Box::new(RandomGenerationStrategy::new()),
            StrategyKind::PeachStar => {
                Box::new(SemanticAwareStrategy::new(SemanticAwareConfig::default()))
            }
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A packet produced by a strategy, before execution.
pub type GeneratedPacket = Seed;

/// The resumable state of a generation strategy, as captured into (and
/// restored from) a campaign snapshot.
///
/// A strategy's observable behaviour must be a function of this state plus
/// the campaign RNG stream: restoring the state and the RNG position must
/// reproduce the exact packet sequence an uninterrupted run would have
/// produced. The emit, crack and refill scratch buffers are *not* part of
/// the state — they only affect allocation, never output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyState {
    /// No resumable state beyond the RNG stream (third-party strategies
    /// that keep no feedback-derived state).
    Stateless,
    /// The Peach baseline: only the generated-packet counter.
    Peach {
        /// Packets generated so far.
        generated: u64,
    },
    /// Peach\*: the puzzle corpus, the queued semantic batch and the
    /// production counters.
    PeachStar {
        /// The rule-indexed puzzle corpus.
        corpus: PuzzleCorpus,
        /// Donor-built packets queued but not yet handed out, front first.
        queue: Vec<Seed>,
        /// Packets produced by donor-based construction so far.
        semantic_generated: u64,
        /// Packets produced by plain model instantiation so far.
        random_generated: u64,
    },
}

/// A test-case generation strategy plugged into the campaign loop.
pub trait GenerationStrategy {
    /// Short display name ("Peach", "Peach*", …).
    fn name(&self) -> &'static str;

    /// Produces the next packet into a reusable slot, overwriting every
    /// field — the engine's packet-arena entry point, which lets the slot's
    /// existing buffers take the packet instead of a fresh seed.
    fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    );

    /// Produces the next packet to execute, into a fresh seed.
    fn next_packet(&mut self, models: &DataModelSet, rng: &mut SmallRng) -> GeneratedPacket {
        let mut seed = Seed::new(Vec::new(), "", false);
        self.next_packet_into(models, rng, &mut seed);
        seed
    }

    /// Observes the execution result of a previously generated packet.
    /// `valuable` is `true` when the packet triggered new coverage.
    fn observe(&mut self, packet: &GeneratedPacket, valuable: bool, models: &DataModelSet);

    /// Number of puzzles currently available to the strategy (0 for
    /// feedback-free strategies).
    fn corpus_size(&self) -> usize {
        0
    }

    /// Captures the strategy's resumable state for a campaign snapshot.
    ///
    /// The default returns [`StrategyState::Stateless`], correct for
    /// strategies whose packet stream depends only on the RNG position.
    fn snapshot_state(&self) -> StrategyState {
        StrategyState::Stateless
    }

    /// Restores state previously captured by
    /// [`snapshot_state`](GenerationStrategy::snapshot_state).
    ///
    /// Returns `false` (leaving the strategy untouched) when `state` was
    /// captured from a different strategy kind — the snapshot does not
    /// belong to this campaign configuration.
    fn restore_state(&mut self, state: StrategyState) -> bool {
        matches!(state, StrategyState::Stateless)
    }
}

/// One iteration of Algorithm 1 into `slot`: instantiates `model` by
/// generating every leaf with the type mutators and emitting with relations
/// and fixups repaired.
///
/// One pass over the model's cached linear layout: each leaf either keeps
/// its default (`gen_bool(0.15)`) or has its mutator append straight into
/// the slot's buffer, and File Fixup then repairs the packet in place. The
/// RNG draws are those of the two-pass form (draw every leaf into a buffer
/// of its own, then emit), so seeded packet streams are unchanged;
/// `tests/generator_contract.rs` holds the two against each other.
fn instantiate_randomly_into(
    model: &DataModel,
    rng: &mut SmallRng,
    scratch: &mut EmitScratch,
    slot: &mut GeneratedPacket,
) {
    emit_with(model, true, scratch, &mut slot.bytes, |_, chunk, out| {
        // Keep the default value sometimes; otherwise run the mutator.
        if rng.gen_bool(0.15) {
            return false;
        }
        mutator::generate_leaf_into(chunk, rng, out);
        true
    });
    slot.model.clear();
    slot.model.push_str(model.name());
    slot.semantic = false;
}

/// Overwrites `slot` with the degenerate empty-model-set seed (the in-place
/// twin of [`empty_set_seed`]).
fn set_empty_seed(slot: &mut GeneratedPacket) {
    slot.bytes.clear();
    slot.model.clear();
    slot.model.push_str("<empty-model-set>");
    slot.semantic = false;
}

/// Picks a random model from the set, or `None` when the set is empty (an
/// empty [`DataModelSet`] must not panic; both strategies fall back to an
/// empty-bytes seed).
pub(crate) fn pick_model<'set>(
    models: &'set DataModelSet,
    rng: &mut SmallRng,
) -> Option<&'set DataModel> {
    if models.is_empty() {
        return None;
    }
    let index = rng.gen_range(0..models.len());
    Some(&models.models()[index])
}

/// The seed both strategies emit when asked to generate from an empty model
/// set: zero bytes, clearly-labelled provenance, no panic.
pub(crate) fn empty_set_seed() -> GeneratedPacket {
    Seed::new(Vec::new(), "<empty-model-set>", false)
}

/// The baseline Peach strategy: random, feedback-free model instantiation.
#[derive(Debug, Default)]
pub struct RandomGenerationStrategy {
    generated: u64,
    scratch: EmitScratch,
}

impl RandomGenerationStrategy {
    /// Creates the baseline strategy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packets generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

impl GenerationStrategy for RandomGenerationStrategy {
    fn name(&self) -> &'static str {
        "Peach"
    }

    fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        self.generated += 1;
        let Some(model) = pick_model(models, rng) else {
            set_empty_seed(slot);
            return;
        };
        instantiate_randomly_into(model, rng, &mut self.scratch, slot);
    }

    fn observe(&mut self, _packet: &GeneratedPacket, _valuable: bool, _models: &DataModelSet) {
        // The baseline discards valuable seeds — exactly the limitation the
        // paper's introduction calls out.
    }

    fn snapshot_state(&self) -> StrategyState {
        StrategyState::Peach {
            generated: self.generated,
        }
    }

    fn restore_state(&mut self, state: StrategyState) -> bool {
        match state {
            StrategyState::Peach { generated } => {
                self.generated = generated;
                true
            }
            _ => false,
        }
    }
}

/// Tunables of the semantic-aware strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SemanticAwareConfig {
    /// Maximum donors tried per field position when expanding the
    /// combinatorial construction of Algorithm 3 (the paper's p × q grows
    /// quickly; this cap bounds the batch produced per valuable seed).
    pub max_donors_per_field: usize,
    /// Maximum number of packets queued from one construction pass.
    pub max_batch: usize,
    /// Probability of using a donor when one is available (1.0 reproduces
    /// Algorithm 3 exactly; lower values blend in fresh random content).
    pub donor_probability: f64,
    /// Whether the File Fixup pass repairs sizes and checksums after
    /// donor splicing (disabling this is the `repair` ablation).
    pub repair: bool,
    /// Whether the File Cracker collects only leaf puzzles (ablation).
    pub leaves_only: bool,
}

impl Default for SemanticAwareConfig {
    fn default() -> Self {
        Self {
            max_donors_per_field: 2,
            max_batch: 8,
            donor_probability: 0.7,
            repair: true,
            leaves_only: false,
        }
    }
}

/// The Peach\* strategy: coverage-guided packet crack and generation.
///
/// Until the first valuable seed appears the strategy behaves exactly like
/// the baseline. Once the puzzle corpus is non-empty, new packets are
/// assembled by donating puzzles to chunks that share their construction
/// rule (Algorithm 3), followed by the File Fixup pass.
pub struct SemanticAwareStrategy {
    config: SemanticAwareConfig,
    corpus: PuzzleCorpus,
    cracker: FileCracker,
    queue: VecDeque<Seed>,
    semantic_generated: u64,
    random_generated: u64,
    scratch: EmitScratch,
    refill: Refill,
}

impl std::fmt::Debug for SemanticAwareStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticAwareStrategy")
            .field("corpus", &self.corpus.len())
            .field("queued", &self.queue.len())
            .field("semantic_generated", &self.semantic_generated)
            .field("random_generated", &self.random_generated)
            .finish()
    }
}

impl SemanticAwareStrategy {
    /// Creates the strategy with the given configuration.
    #[must_use]
    pub fn new(config: SemanticAwareConfig) -> Self {
        Self {
            config,
            corpus: PuzzleCorpus::new(),
            cracker: FileCracker::new().leaves_only(config.leaves_only),
            queue: VecDeque::new(),
            semantic_generated: 0,
            random_generated: 0,
            scratch: EmitScratch::new(),
            refill: Refill::default(),
        }
    }

    /// Creates the strategy pre-seeded with an existing puzzle corpus — the
    /// `--shared-corpus` entry point, where a later repetition inherits the
    /// donors every earlier repetition discovered.
    #[must_use]
    pub fn with_corpus(config: SemanticAwareConfig, corpus: PuzzleCorpus) -> Self {
        let mut strategy = Self::new(config);
        strategy.corpus = corpus;
        strategy
    }

    /// The current puzzle corpus.
    #[must_use]
    pub fn corpus(&self) -> &PuzzleCorpus {
        &self.corpus
    }

    /// Number of packets produced by donor-based construction.
    #[must_use]
    pub fn semantic_generated(&self) -> u64 {
        self.semantic_generated
    }

    /// Number of packets produced by plain model instantiation.
    #[must_use]
    pub fn random_generated(&self) -> u64 {
        self.random_generated
    }

    /// Queues a batch of donor-built packets for every data model. Called
    /// right after a valuable seed was cracked, mirroring the paper's flow:
    /// the semantic-aware strategy is employed in the iteration following a
    /// valuable-seed detection, and the puzzles of one packet type are
    /// donated to the models of the other packet types.
    fn refill_queue(&mut self, models: &DataModelSet, rng: &mut SmallRng) {
        const MAX_QUEUE: usize = 256;
        let Self {
            config,
            corpus,
            queue,
            scratch,
            refill,
            ..
        } = self;
        for model in models.models() {
            if queue.len() >= MAX_QUEUE {
                break;
            }
            let batch = refill.draw(model, corpus, config, rng);
            for index in 0..batch {
                refill.emit(model, index, config.repair, scratch);
                queue.push_back(Seed::new(refill.packet.clone(), model.name(), true));
            }
        }
        // Release the donors, so none outlives its eviction from the corpus.
        refill.candidates.clear();
    }
}

/// One candidate content of a leaf in a refill: a corpus donor, or a range
/// of [`Refill::drawn`] that a mutator wrote.
#[derive(Debug)]
enum Candidate {
    Donor(Arc<[u8]>),
    Drawn(Range<usize>),
}

/// The reusable workspace of Algorithm 3's refill, for one model at a time:
/// every leaf's candidates in one flat table, and the buffers the batch is
/// emitted through.
///
/// The batch is the cross product of the leaves' candidates, first leaf
/// slowest, cut at `max_batch` packets. Packet `i` of it is the `i`-th
/// tuple, whose digits are `i` written in the mixed radix of the candidate
/// counts, last leaf fastest, so no tuple but the one being emitted is ever
/// built.
#[derive(Debug, Default)]
struct Refill {
    candidates: Vec<Candidate>,
    /// Where each leaf's candidates start in `candidates`, then its length.
    starts: Vec<usize>,
    /// The mutator output of every leaf that took no donor, back to back.
    drawn: Vec<u8>,
    /// The donors of the current leaf not sampled yet.
    unsampled: Vec<usize>,
    /// The candidate each leaf takes in the packet being emitted.
    picks: Vec<usize>,
    /// The packet being emitted.
    packet: Vec<u8>,
}

impl Refill {
    /// Draws the candidates of every leaf of `model`, in leaf order: when
    /// the leaf's rule has donors and `gen_bool(donor_probability)` says
    /// so, up to `max_donors_per_field` of them sampled without
    /// replacement, and otherwise one mutator output. Returns the batch
    /// size: the product of the candidate counts, cut at `max_batch` (and
    /// at least one packet, as the first tuple is always emitted).
    fn draw(
        &mut self,
        model: &DataModel,
        corpus: &PuzzleCorpus,
        config: &SemanticAwareConfig,
        rng: &mut SmallRng,
    ) -> usize {
        self.candidates.clear();
        self.starts.clear();
        self.drawn.clear();
        let cap = config.max_batch.max(1);
        let mut batch = 1usize;
        let linear = model.linear();
        for (leaf, &rule) in linear.iter().zip(linear.rules()) {
            let start = self.candidates.len();
            self.starts.push(start);
            let donors = corpus.donors(rule);
            if !donors.is_empty() && rng.gen_bool(config.donor_probability) {
                self.unsampled.clear();
                self.unsampled.extend(0..donors.len());
                for _ in 0..donors.len().min(config.max_donors_per_field) {
                    let pick = rng.gen_range(0..self.unsampled.len());
                    let donor = &donors[self.unsampled.swap_remove(pick)];
                    self.candidates.push(Candidate::Donor(Arc::clone(donor)));
                }
            }
            if self.candidates.len() == start {
                let from = self.drawn.len();
                mutator::generate_leaf_into(&leaf.chunk, rng, &mut self.drawn);
                self.candidates
                    .push(Candidate::Drawn(from..self.drawn.len()));
            }
            batch = batch.saturating_mul(self.candidates.len() - start).min(cap);
        }
        self.starts.push(self.candidates.len());
        batch
    }

    /// Emits packet `index` of the batch into [`Refill::packet`].
    fn emit(
        &mut self,
        model: &DataModel,
        mut index: usize,
        repair: bool,
        scratch: &mut EmitScratch,
    ) {
        let leaves = self.starts.len() - 1;
        self.picks.resize(leaves, 0);
        for leaf in (0..leaves).rev() {
            let (start, count) = (self.starts[leaf], self.starts[leaf + 1] - self.starts[leaf]);
            self.picks[leaf] = start + index % count;
            index /= count;
        }
        let Self {
            candidates,
            drawn,
            picks,
            packet,
            ..
        } = self;
        emit_with(model, repair, scratch, packet, |leaf, _, out| {
            out.extend_from_slice(match &candidates[picks[leaf]] {
                Candidate::Donor(donor) => donor,
                Candidate::Drawn(range) => &drawn[range.clone()],
            });
            true
        });
    }
}

impl GenerationStrategy for SemanticAwareStrategy {
    fn name(&self) -> &'static str {
        "Peach*"
    }

    fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        // Drain the batch queued after the last valuable seed first; fall
        // back to the inherent (random) generation strategy otherwise —
        // exactly the control flow described in §IV-A of the paper.
        if let Some(seed) = self.queue.pop_front() {
            self.semantic_generated += 1;
            *slot = seed;
            return;
        }
        self.random_generated += 1;
        let Some(model) = pick_model(models, rng) else {
            set_empty_seed(slot);
            return;
        };
        instantiate_randomly_into(model, rng, &mut self.scratch, slot);
    }

    fn observe(&mut self, packet: &GeneratedPacket, valuable: bool, models: &DataModelSet) {
        if !valuable {
            return;
        }
        // Algorithm 2: crack the valuable seed into puzzles for the corpus,
        // then queue the semantic-aware batch for the following iterations.
        let added = self
            .cracker
            .crack_into(models, &packet.bytes, &mut self.corpus);
        if added > 0 {
            let mut rng = SmallRng::seed_from_u64(
                self.corpus.inserted() ^ (packet.bytes.len() as u64) << 32,
            );
            self.refill_queue(models, &mut rng);
        }
    }

    fn corpus_size(&self) -> usize {
        self.corpus.len()
    }

    fn snapshot_state(&self) -> StrategyState {
        StrategyState::PeachStar {
            corpus: self.corpus.clone(),
            queue: self.queue.iter().cloned().collect(),
            semantic_generated: self.semantic_generated,
            random_generated: self.random_generated,
        }
    }

    fn restore_state(&mut self, state: StrategyState) -> bool {
        match state {
            StrategyState::PeachStar {
                corpus,
                queue,
                semantic_generated,
                random_generated,
            } => {
                self.corpus = corpus;
                self.queue = queue.into();
                self.semantic_generated = semantic_generated;
                self.random_generated = random_generated;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;
    use peachstar_datamodel::examples::toy_protocol;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn baseline_generates_packets_for_every_model() {
        let models = toy_protocol();
        let mut strategy = RandomGenerationStrategy::new();
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let packet = strategy.next_packet(&models, &mut rng);
            seen.insert(packet.model.clone());
            assert!(!packet.semantic);
        }
        assert_eq!(seen.len(), models.len(), "all packet types get generated");
        assert_eq!(strategy.generated(), 100);
        assert_eq!(strategy.corpus_size(), 0);
    }

    #[test]
    fn baseline_ignores_feedback() {
        let models = toy_protocol();
        let mut strategy = RandomGenerationStrategy::new();
        let mut rng = rng();
        let packet = strategy.next_packet(&models, &mut rng);
        strategy.observe(&packet, true, &models);
        assert_eq!(strategy.corpus_size(), 0);
    }

    #[test]
    fn semantic_strategy_behaves_like_baseline_until_first_valuable_seed() {
        let models = toy_protocol();
        let mut strategy = SemanticAwareStrategy::new(SemanticAwareConfig::default());
        let mut rng = rng();
        for _ in 0..20 {
            let packet = strategy.next_packet(&models, &mut rng);
            assert!(!packet.semantic, "no corpus yet, so no semantic packets");
        }
        assert_eq!(strategy.semantic_generated(), 0);
    }

    #[test]
    fn valuable_seed_populates_corpus_and_enables_semantic_generation() {
        let models = toy_protocol();
        let mut strategy = SemanticAwareStrategy::new(SemanticAwareConfig::default());
        let mut rng = rng();
        // Pretend the default echo packet was valuable.
        let valuable = Seed::new(
            emit_default(models.find("echo").unwrap()).unwrap(),
            "echo",
            false,
        );
        strategy.observe(&valuable, true, &models);
        assert!(strategy.corpus_size() > 0);

        let mut semantic_seen = false;
        for _ in 0..50 {
            let packet = strategy.next_packet(&models, &mut rng);
            if packet.semantic {
                semantic_seen = true;
                assert!(!packet.bytes.is_empty());
            }
        }
        assert!(semantic_seen, "semantic packets should appear once the corpus is populated");
        assert!(strategy.semantic_generated() > 0);
    }

    #[test]
    fn non_valuable_seeds_are_not_cracked() {
        let models = toy_protocol();
        let mut strategy = SemanticAwareStrategy::new(SemanticAwareConfig::default());
        let valuable = Seed::new(
            emit_default(models.find("echo").unwrap()).unwrap(),
            "echo",
            false,
        );
        strategy.observe(&valuable, false, &models);
        assert_eq!(strategy.corpus_size(), 0);
    }

    #[test]
    fn refill_honours_the_batch_cap() {
        let models = toy_protocol();
        let config = SemanticAwareConfig {
            max_batch: 4,
            ..SemanticAwareConfig::default()
        };
        let mut strategy = SemanticAwareStrategy::new(config);
        let valuable = Seed::new(
            emit_default(models.find("echo").unwrap()).unwrap(),
            "echo",
            false,
        );
        strategy.observe(&valuable, true, &models);
        let StrategyState::PeachStar { queue, .. } = strategy.snapshot_state() else {
            panic!("Peach* state");
        };
        for model in models.models() {
            let batch = queue
                .iter()
                .filter(|seed| seed.model == model.name())
                .count();
            assert!(
                (1..=4).contains(&batch),
                "{}: {batch} packets",
                model.name()
            );
        }
    }

    #[test]
    fn donated_packets_reuse_cracked_content() {
        let models = toy_protocol();
        let mut strategy = SemanticAwareStrategy::new(SemanticAwareConfig {
            donor_probability: 1.0,
            ..SemanticAwareConfig::default()
        });
        // Crack an echo packet with a distinctive device address.
        let echo = models.find("echo").unwrap();
        let mut packet = Vec::new();
        emit_with(
            echo,
            true,
            &mut EmitScratch::new(),
            &mut packet,
            |index, _, out| {
                // The device field.
                let device = index == 1;
                if device {
                    out.extend_from_slice(&[0xBE, 0xEF]);
                }
                device
            },
        );
        strategy.observe(&Seed::new(packet, "echo", false), true, &models);

        // Generated read/write packets should frequently carry 0xBEEF in
        // their shared device-address field.
        let mut rng = rng();
        let mut reused = false;
        for _ in 0..200 {
            let packet = strategy.next_packet(&models, &mut rng);
            if packet.semantic && packet.bytes.windows(2).any(|w| w == [0xBE, 0xEF]) {
                reused = true;
                break;
            }
        }
        assert!(reused, "donated device address should reappear in new packets");
    }

    #[test]
    fn next_packet_into_matches_next_packet_for_both_strategies() {
        // The arena entry point must be a drop-in for the allocating one:
        // same packets for the same RNG stream, same bookkeeping — including
        // when a pre-populated slot carries stale bytes from an earlier,
        // longer packet.
        let models = toy_protocol();
        for kind in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let mut by_value = kind.create();
            let mut in_place = kind.create();
            let mut rng_a = SmallRng::seed_from_u64(17);
            let mut rng_b = SmallRng::seed_from_u64(17);
            let mut slot = Seed::new(vec![0xEE; 300], "stale-model-name", true);
            for round in 0..150 {
                let fresh = by_value.next_packet(&models, &mut rng_a);
                in_place.next_packet_into(&models, &mut rng_b, &mut slot);
                assert_eq!(slot, fresh, "{kind} round {round}");
                // Exercise the feedback path too, so Peach* queues semantic
                // batches on both sides identically.
                if round == 10 {
                    by_value.observe(&fresh, true, &models);
                    in_place.observe(&slot, true, &models);
                }
            }
        }
    }

    #[test]
    fn empty_model_set_yields_empty_seed_instead_of_panicking() {
        let empty = DataModelSet::new("empty");
        let mut rng = rng();
        for kind in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let mut strategy = kind.create();
            let packet = strategy.next_packet(&empty, &mut rng);
            assert!(packet.bytes.is_empty(), "{kind}: empty set → empty bytes");
            assert_eq!(packet.model, "<empty-model-set>");
            assert!(!packet.semantic);
            // Observing the degenerate packet must not panic either.
            strategy.observe(&packet, true, &empty);
        }
    }

    #[test]
    fn strategy_kind_factory() {
        assert_eq!(StrategyKind::Peach.create().name(), "Peach");
        assert_eq!(StrategyKind::PeachStar.create().name(), "Peach*");
        assert_eq!(StrategyKind::PeachStar.to_string(), "Peach*");
    }
}
