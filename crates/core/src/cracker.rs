//! The File Cracker (Algorithm 2): splitting valuable seeds into puzzles.

use peachstar_datamodel::crack::{CrackNode, CrackOptions, CrackTable};
use peachstar_datamodel::{DataModel, DataModelSet, Puzzle};

use crate::corpus::PuzzleCorpus;

/// The File Cracker of Peach\*.
///
/// Given the format specification (a [`DataModelSet`]) and a valuable seed,
/// it tries to parse the seed with every data model and extracts every
/// sub-tree puzzle of each model that matches (Algorithm 2 of the paper),
/// in model order and, within a model, in the post-order of the
/// instantiation tree's depth-first traversal. The puzzles feed the
/// [`PuzzleCorpus`] consumed by semantic-aware generation.
///
/// The cracker keeps one [`CrackTable`], and a puzzle is a row of it: a rule
/// and a range of the seed. [`FileCracker::crack_into`] offers each puzzle
/// to the corpus as a slice of the seed, so cracking a seed allocates only
/// for the puzzles that are new.
#[derive(Debug, Clone)]
pub struct FileCracker {
    options: CrackOptions,
    /// When `true`, only leaf-chunk puzzles are collected (the
    /// `leaves_only` ablation discussed in DESIGN.md).
    leaves_only: bool,
    cracked_seeds: u64,
    failed_seeds: u64,
    table: CrackTable,
}

impl FileCracker {
    /// Creates a cracker with lenient options (checksums are not verified,
    /// as fuzzer-generated packets often carry deliberately broken ones).
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: CrackOptions::default(),
            leaves_only: false,
            cracked_seeds: 0,
            failed_seeds: 0,
            table: CrackTable::new(),
        }
    }

    /// Restricts puzzle extraction to leaf chunks.
    #[must_use]
    pub fn leaves_only(mut self, leaves_only: bool) -> Self {
        self.leaves_only = leaves_only;
        self
    }

    /// Number of seeds successfully cracked by at least one model.
    #[must_use]
    pub fn cracked_seeds(&self) -> u64 {
        self.cracked_seeds
    }

    /// Number of seeds no model could parse.
    #[must_use]
    pub fn failed_seeds(&self) -> u64 {
        self.failed_seeds
    }

    /// Cracks `seed` against every model of `models` and returns the puzzles
    /// of every legal instantiation tree.
    pub fn crack(&mut self, models: &DataModelSet, seed: &[u8]) -> Vec<Puzzle> {
        let mut puzzles = Vec::new();
        self.for_each_puzzle(models, seed, |model, node| {
            let origin = &model.root().iter().nth(node.chunk).expect("a chunk").name;
            puzzles.push(Puzzle::new(
                node.rule,
                origin,
                seed[node.range.clone()].to_vec(),
            ));
        });
        puzzles
    }

    /// Cracks `seed` and inserts the resulting puzzles into `corpus`,
    /// returning how many were new.
    pub fn crack_into(
        &mut self,
        models: &DataModelSet,
        seed: &[u8],
        corpus: &mut PuzzleCorpus,
    ) -> usize {
        let mut added = 0;
        self.for_each_puzzle(models, seed, |_, node| {
            added += usize::from(corpus.insert_bytes(node.rule, &seed[node.range.clone()]));
        });
        added
    }

    /// Cracks `seed` against every model and passes each puzzle (a non-empty
    /// row, and only a leaf's under `leaves_only`) to `visit`, then counts
    /// the seed as cracked or failed.
    fn for_each_puzzle(
        &mut self,
        models: &DataModelSet,
        seed: &[u8],
        mut visit: impl FnMut(&DataModel, &CrackNode),
    ) {
        let mut matched = false;
        for model in models.models() {
            let Ok(nodes) = self.table.crack(model, seed, self.options) else {
                continue;
            };
            matched = true;
            for node in nodes {
                if !node.range.is_empty() && (node.leaf || !self.leaves_only) {
                    visit(model, node);
                }
            }
        }
        if matched {
            self.cracked_seeds += 1;
        } else {
            self.failed_seeds += 1;
        }
    }
}

impl Default for FileCracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;
    use peachstar_datamodel::examples::toy_protocol;

    #[test]
    fn cracking_a_default_packet_yields_puzzles() {
        let models = toy_protocol();
        let mut cracker = FileCracker::new();
        let packet = emit_default(models.find("echo").unwrap()).unwrap();
        let puzzles = cracker.crack(&models, &packet);
        assert!(!puzzles.is_empty());
        assert_eq!(cracker.cracked_seeds(), 1);
        assert_eq!(cracker.failed_seeds(), 0);
    }

    #[test]
    fn garbage_cannot_be_cracked() {
        let models = toy_protocol();
        let mut cracker = FileCracker::new();
        let puzzles = cracker.crack(&models, &[0xFF; 3]);
        assert!(puzzles.is_empty());
        assert_eq!(cracker.failed_seeds(), 1);
    }

    #[test]
    fn leaves_only_yields_fewer_puzzles() {
        let models = toy_protocol();
        let packet = emit_default(models.find("echo").unwrap()).unwrap();
        let all = FileCracker::new().crack(&models, &packet).len();
        let leaves = FileCracker::new()
            .leaves_only(true)
            .crack(&models, &packet)
            .len();
        assert!(leaves < all, "leaves {leaves} < all {all}");
        assert!(leaves > 0);
    }

    #[test]
    fn crack_into_populates_the_corpus_with_shared_rules() {
        let models = toy_protocol();
        let mut cracker = FileCracker::new();
        let mut corpus = PuzzleCorpus::new();
        let echo_packet = emit_default(models.find("echo").unwrap()).unwrap();
        let added = cracker.crack_into(&models, &echo_packet, &mut corpus);
        assert!(added > 0);
        // The cracked echo packet provides a donor for the shared
        // `device-address` rule used by the read and write models.
        let read_device_rule = models
            .find("read")
            .unwrap()
            .find("device")
            .unwrap()
            .rule_id();
        assert!(corpus.has_donor(read_device_rule));
    }
}
