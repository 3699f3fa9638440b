//! The puzzle corpus: rule-indexed storage of cracked packet pieces.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use peachstar_datamodel::{Puzzle, RuleId};

/// The corpus of puzzles produced by the File Cracker.
///
/// Puzzles are indexed by the [`RuleId`] of the chunk they were cracked from,
/// because that is how the semantic-aware generator looks donors up (the
/// `GETDONOR(Rule, Corpus)` step of Algorithm 3). Duplicate contents per rule
/// are discarded, and each rule keeps at most `capacity_per_rule` distinct
/// puzzles (newest kept) so that the corpus cannot grow without bound on long
/// campaigns.
///
/// Contents are stored as `Arc<[u8]>` so the semantic-aware generator's
/// donor sampling and cross-product expansion share the bytes by reference
/// count instead of deep-cloning a vector per candidate packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PuzzleCorpus {
    by_rule: HashMap<RuleId, Vec<Arc<[u8]>>>,
    capacity_per_rule: usize,
    inserted: u64,
    rejected_duplicates: u64,
}

impl PuzzleCorpus {
    /// Default number of distinct puzzles kept per construction rule.
    pub const DEFAULT_CAPACITY_PER_RULE: usize = 64;

    /// Creates an empty corpus with the default per-rule capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_per_rule(Self::DEFAULT_CAPACITY_PER_RULE)
    }

    /// Creates an empty corpus keeping at most `capacity` puzzles per rule.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity_per_rule(capacity: usize) -> Self {
        assert!(capacity > 0, "per-rule capacity must be positive");
        Self {
            by_rule: HashMap::new(),
            capacity_per_rule: capacity,
            inserted: 0,
            rejected_duplicates: 0,
        }
    }

    /// Inserts one puzzle; returns `true` when it was new for its rule.
    pub fn insert(&mut self, puzzle: Puzzle) -> bool {
        self.insert_bytes(puzzle.rule, &puzzle.content)
    }

    /// Inserts the puzzle `content` of `rule`, borrowed (the File Cracker
    /// passes slices of the cracked packet); returns `true` when it was new
    /// for its rule. Only a new puzzle is copied, into one `Arc<[u8]>`.
    pub fn insert_bytes(&mut self, rule: RuleId, content: &[u8]) -> bool {
        let entry = self.by_rule.entry(rule).or_default();
        if entry.iter().any(|existing| existing.as_ref() == content) {
            self.rejected_duplicates += 1;
            return false;
        }
        if entry.len() == self.capacity_per_rule {
            entry.remove(0);
        }
        entry.push(Arc::from(content));
        self.inserted += 1;
        true
    }

    /// Inserts every puzzle of an iterator, returning how many were new.
    pub fn insert_all<I: IntoIterator<Item = Puzzle>>(&mut self, puzzles: I) -> usize {
        puzzles
            .into_iter()
            .filter(|puzzle| !puzzle.is_empty())
            .map(|puzzle| usize::from(self.insert(puzzle)))
            .sum()
    }

    /// The donors stored for `rule` (the `Candidates` set of Algorithm 3).
    ///
    /// Donors are shared `Arc<[u8]>` slices: cloning one to place it into a
    /// generated packet is a reference-count bump, not a byte copy.
    #[must_use]
    pub fn donors(&self, rule: RuleId) -> &[Arc<[u8]>] {
        self.by_rule.get(&rule).map_or(&[], Vec::as_slice)
    }

    /// `true` when at least one donor exists for `rule`.
    #[must_use]
    pub fn has_donor(&self, rule: RuleId) -> bool {
        self.by_rule.get(&rule).is_some_and(|v| !v.is_empty())
    }

    /// Number of distinct rules with at least one donor.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.by_rule.len()
    }

    /// Total number of stored puzzles across all rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_rule.values().map(Vec::len).sum()
    }

    /// `true` when the corpus holds no puzzles (the state in which Peach\*
    /// behaves exactly like the baseline).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_rule.is_empty()
    }

    /// Number of successful inserts so far.
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Number of inserts rejected as duplicates.
    #[must_use]
    pub fn rejected_duplicates(&self) -> u64 {
        self.rejected_duplicates
    }

    /// The per-rule capacity this corpus was created with.
    #[must_use]
    pub fn capacity_per_rule(&self) -> usize {
        self.capacity_per_rule
    }

    /// Iterates every `(rule, donors)` entry, in unspecified order.
    ///
    /// Snapshot encoders must sort by [`RuleId::raw`] themselves to obtain a
    /// canonical byte stream (hash-map iteration order is not deterministic).
    pub fn iter_rules(&self) -> impl Iterator<Item = (RuleId, &[Arc<[u8]>])> + '_ {
        self.by_rule
            .iter()
            .map(|(rule, donors)| (*rule, donors.as_slice()))
    }

    /// Resets the corpus to the empty state — donors *and* the
    /// `inserted`/`rejected_duplicates` counters, so a cleared corpus can
    /// never leak stale statistics into a later report.
    pub fn clear(&mut self) {
        self.by_rule.clear();
        self.inserted = 0;
        self.rejected_duplicates = 0;
    }

    /// Rebuilds a corpus from decoded snapshot parts, restoring the exact
    /// counters (which `insert` replays could not: `inserted` can exceed the
    /// stored donor count once capacity eviction has happened).
    ///
    /// Callers must pre-validate `capacity > 0` and that every donor list
    /// is non-empty, as the snapshot decoder does: a corpus never holds a
    /// rule without donors.
    pub(crate) fn from_snapshot_parts(
        capacity: usize,
        entries: impl IntoIterator<Item = (RuleId, Vec<Arc<[u8]>>)>,
        inserted: u64,
        rejected_duplicates: u64,
    ) -> Self {
        let mut corpus = Self::with_capacity_per_rule(capacity);
        corpus.by_rule.extend(entries);
        corpus.inserted = inserted;
        corpus.rejected_duplicates = rejected_duplicates;
        corpus
    }

    /// Absorbs every donor of `other` that this corpus does not already
    /// hold, returning how many were added.
    ///
    /// This is the corpus-side counterpart of `CoverageMap::absorb`, used by
    /// shared-corpus repetition runs to pool discoveries across seeds. The
    /// algebra is deliberately clean:
    ///
    /// * donors already present are skipped *silently* — they are not
    ///   failed insert attempts, so `rejected_duplicates` does not move and
    ///   `a.merge(&a)` is a complete no-op (idempotence);
    /// * novel donors count into `inserted`, exactly as if the cracker had
    ///   produced them here;
    /// * rules are visited in ascending [`RuleId::raw`] order and donors in
    ///   their stored order, so capacity eviction (and therefore the merged
    ///   contents) is deterministic regardless of hash-map iteration order.
    pub fn merge(&mut self, other: &PuzzleCorpus) -> usize {
        let mut rules: Vec<RuleId> = other.by_rule.keys().copied().collect();
        rules.sort_unstable_by_key(|rule| rule.raw());
        let mut added = 0;
        for rule in rules {
            for donor in &other.by_rule[&rule] {
                let entry = self.by_rule.entry(rule).or_default();
                if entry
                    .iter()
                    .any(|existing| existing.as_ref() == donor.as_ref())
                {
                    continue;
                }
                if entry.len() == self.capacity_per_rule {
                    entry.remove(0);
                }
                entry.push(Arc::clone(donor));
                self.inserted += 1;
                added += 1;
            }
        }
        added
    }
}

impl Default for PuzzleCorpus {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for PuzzleCorpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "puzzle corpus: {} puzzles across {} rules",
            self.len(),
            self.rule_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn puzzle(rule: u64, content: &[u8]) -> Puzzle {
        Puzzle::new(RuleId::from_raw(rule), "test", content.to_vec())
    }

    #[test]
    fn insert_and_lookup_by_rule() {
        let mut corpus = PuzzleCorpus::new();
        assert!(corpus.is_empty());
        assert!(corpus.insert(puzzle(1, &[0xAA])));
        assert!(corpus.insert(puzzle(1, &[0xBB])));
        assert!(corpus.insert(puzzle(2, &[0xCC])));
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.rule_count(), 2);
        assert_eq!(corpus.donors(RuleId::from_raw(1)).len(), 2);
        assert!(corpus.has_donor(RuleId::from_raw(2)));
        assert!(!corpus.has_donor(RuleId::from_raw(3)));
        assert!(corpus.donors(RuleId::from_raw(3)).is_empty());
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut corpus = PuzzleCorpus::new();
        assert!(corpus.insert(puzzle(1, &[0xAA])));
        assert!(!corpus.insert(puzzle(1, &[0xAA])));
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.rejected_duplicates(), 1);
        assert_eq!(corpus.inserted(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut corpus = PuzzleCorpus::with_capacity_per_rule(2);
        corpus.insert(puzzle(1, &[1]));
        corpus.insert(puzzle(1, &[2]));
        corpus.insert(puzzle(1, &[3]));
        let donors = corpus.donors(RuleId::from_raw(1));
        assert_eq!(donors.len(), 2);
        let contents: Vec<&[u8]> = donors.iter().map(AsRef::as_ref).collect();
        assert_eq!(contents, vec![&[2u8][..], &[3u8][..]]);
    }

    #[test]
    fn insert_all_skips_empty_puzzles() {
        let mut corpus = PuzzleCorpus::new();
        let added = corpus.insert_all(vec![puzzle(1, &[1]), puzzle(2, &[]), puzzle(1, &[1])]);
        assert_eq!(added, 1);
        assert_eq!(corpus.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = PuzzleCorpus::with_capacity_per_rule(0);
    }

    #[test]
    fn display_reports_counts() {
        let mut corpus = PuzzleCorpus::new();
        corpus.insert(puzzle(1, &[1]));
        assert!(corpus.to_string().contains("1 puzzles across 1 rules"));
    }
}
