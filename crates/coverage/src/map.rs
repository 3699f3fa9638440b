//! The persistent, campaign-global coverage map.

use std::fmt;

use crate::stats::{bucket_for, CoverageStats, HitBucket};
use crate::trace::{fnv_path_id, PathId, TraceMap};

/// Number of slots in the coverage bitmap (64 KiB, the classic AFL size).
pub const MAP_SIZE: usize = 1 << 16;

/// Outcome of merging one execution's [`TraceMap`] into the global map.
///
/// The fuzzer labels the seed that produced the trace *valuable* when the
/// outcome [`is_interesting`](MergeOutcome::is_interesting): valuable seeds
/// are retained and cracked into puzzles (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Number of map slots never hit by any previous execution.
    pub new_edges: usize,
    /// Number of slots whose hit-count bucket grew (e.g. 1 hit → many hits).
    pub new_buckets: usize,
    /// Whether the whole execution path (edge set + buckets) was new.
    pub new_path: bool,
    /// Stable identifier of the execution path.
    pub path_id: PathId,
}

impl MergeOutcome {
    /// `true` when the execution uncovered a map slot never seen before.
    #[must_use]
    pub fn has_new_edges(&self) -> bool {
        self.new_edges > 0
    }

    /// `true` when the execution should be treated as a valuable seed
    /// (new edge or new hit-count bucket).
    #[must_use]
    pub fn is_interesting(&self) -> bool {
        self.new_edges > 0 || self.new_buckets > 0
    }
}

/// Campaign-global accumulation of edge coverage.
///
/// This is the fuzzer-side view of the `shared_mem[]` region: per slot it
/// remembers the union of hit-count buckets observed so far, plus the set of
/// distinct path ids, so it can answer both "new edge?" and "new path?".
///
/// [`merge`](CoverageMap::merge) and [`peek`](CoverageMap::peek) walk the
/// trace's dirty-slot list, so their cost is O(edges hit by the execution)
/// rather than O([`MAP_SIZE`]).
///
/// ```
/// use peachstar_coverage::{CoverageMap, TraceContext, EdgeId};
///
/// let mut map = CoverageMap::new();
/// let mut ctx = TraceContext::new();
/// ctx.edge(EdgeId::new(77));
/// let outcome = map.merge(ctx.trace());
/// assert!(outcome.has_new_edges());
/// assert_eq!(map.edges_covered(), 1);
/// assert_eq!(map.paths_covered(), 1);
/// ```
#[derive(Clone)]
pub struct CoverageMap {
    /// Bitmask of observed [`HitBucket`]s per slot.
    buckets: Box<[u8; MAP_SIZE]>,
    edges_covered: usize,
    paths: std::collections::HashSet<PathId>,
    executions: u64,
    /// Reusable sort buffer for per-merge path-id hashing, so the campaign
    /// hot loop performs no allocation per execution.
    path_scratch: Vec<u16>,
}

impl CoverageMap {
    /// Creates an empty global coverage map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u8; MAP_SIZE]),
            edges_covered: 0,
            paths: std::collections::HashSet::new(),
            executions: 0,
            path_scratch: Vec::new(),
        }
    }

    /// The one accumulation body behind [`merge`](CoverageMap::merge) and
    /// [`merge_sparse`](CoverageMap::merge_sparse): batched and worker
    /// campaigns are bit-identical to the paper's per-packet loop only while
    /// the two representations never drift apart, so they share this code.
    fn merge_hits(
        &mut self,
        hits: impl Iterator<Item = (usize, u8)>,
        path_id: PathId,
        trace_empty: bool,
    ) -> MergeOutcome {
        self.executions += 1;
        let mut new_edges = 0;
        let mut new_buckets = 0;
        for (slot, count) in hits {
            let bucket_bit = 1u8 << (bucket_for(count) as u8);
            let seen = self.buckets[slot];
            if seen == 0 {
                new_edges += 1;
                self.edges_covered += 1;
            } else if seen & bucket_bit == 0 {
                new_buckets += 1;
            }
            self.buckets[slot] = seen | bucket_bit;
        }
        let new_path = !trace_empty && self.paths.insert(path_id);
        MergeOutcome {
            new_edges,
            new_buckets,
            new_path,
            path_id,
        }
    }

    /// Merges a single execution's trace, returning what (if anything) it
    /// added to global coverage.
    pub fn merge(&mut self, trace: &TraceMap) -> MergeOutcome {
        let path_id = trace.path_id_with(&mut self.path_scratch);
        self.merge_hits(trace.iter_hits(), path_id, trace.is_empty())
    }

    /// Merges one execution's trace given as its hits in snapshot form
    /// (see [`SparseTrace::hits`](crate::SparseTrace::hits)), returning
    /// what (if anything) it added to global coverage.
    ///
    /// Bit-identical to [`merge`](CoverageMap::merge) of the live
    /// [`TraceMap`] the hits were taken from: same counters, same
    /// [`MergeOutcome`], same path id. Every campaign merges its executions
    /// through here, from the flat hit buffer of a window's results instead
    /// of one 64 KiB trace map per execution.
    pub fn merge_sparse(&mut self, hits: &[(u16, u8)]) -> MergeOutcome {
        debug_assert!(
            hits.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "hits ascend by slot"
        );
        let path_id = fnv_path_id(hits.iter().copied());
        let slots = hits.iter().map(|&(slot, count)| (usize::from(slot), count));
        self.merge_hits(slots, path_id, hits.is_empty())
    }

    /// Absorbs everything another coverage map has seen: per-slot bucket
    /// masks, path-id set and execution count.
    ///
    /// This is the shard-sync primitive for engines that keep one map per
    /// worker and union them at a barrier (edge and bucket union are
    /// commutative, so the merged map is independent of absorb order).
    pub fn absorb(&mut self, other: &CoverageMap) {
        for slot in 0..MAP_SIZE {
            let theirs = other.buckets[slot];
            if theirs == 0 {
                continue;
            }
            if self.buckets[slot] == 0 {
                self.edges_covered += 1;
            }
            self.buckets[slot] |= theirs;
        }
        self.paths.extend(other.paths.iter().copied());
        self.executions += other.executions;
    }

    /// Checks what a trace *would* add, without updating the map.
    #[must_use]
    pub fn peek(&self, trace: &TraceMap) -> MergeOutcome {
        let mut new_edges = 0;
        let mut new_buckets = 0;
        for (slot, count) in trace.iter_hits() {
            let bucket_bit = 1u8 << (bucket_for(count) as u8);
            let seen = self.buckets[slot];
            if seen == 0 {
                new_edges += 1;
            } else if seen & bucket_bit == 0 {
                new_buckets += 1;
            }
        }
        let path_id = trace.path_id();
        MergeOutcome {
            new_edges,
            new_buckets,
            new_path: !trace.is_empty() && !self.paths.contains(&path_id),
            path_id,
        }
    }

    /// Number of distinct map slots covered so far.
    #[must_use]
    pub fn edges_covered(&self) -> usize {
        self.edges_covered
    }

    /// Number of distinct execution paths observed so far.
    ///
    /// This is the metric plotted in Figure 4 of the paper.
    #[must_use]
    pub fn paths_covered(&self) -> usize {
        self.paths.len()
    }

    /// Total number of traces merged.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether slot `slot` has ever been hit.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MAP_SIZE`.
    #[must_use]
    pub fn is_covered(&self, slot: usize) -> bool {
        self.buckets[slot] != 0
    }

    /// Buckets observed for slot `slot`, as an iterator.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MAP_SIZE`.
    pub fn buckets_for(&self, slot: usize) -> impl Iterator<Item = HitBucket> + '_ {
        let mask = self.buckets[slot];
        HitBucket::ALL
            .iter()
            .copied()
            .filter(move |bucket| mask & (1u8 << (*bucket as u8)) != 0)
    }

    /// Summary statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            edges_covered: self.edges_covered,
            paths_covered: self.paths.len(),
            executions: self.executions,
            map_density: self.edges_covered as f64 / MAP_SIZE as f64,
        }
    }

    /// Resets the map to the empty state.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.edges_covered = 0;
        self.paths.clear();
        self.executions = 0;
    }

    /// The covered slots in ascending slot order, as `(slot, bucket_mask)`.
    ///
    /// This is the serialisation view used by campaign snapshots: together
    /// with [`path_ids`](CoverageMap::path_ids) and
    /// [`executions`](CoverageMap::executions) it captures every observable
    /// field of the map (`edges_covered` is derived — the number of nonzero
    /// slots). The ascending order makes the encoding canonical.
    pub fn covered_slots(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &mask)| mask != 0)
            .map(|(slot, &mask)| (slot, mask))
    }

    /// The distinct path ids observed so far, in unspecified order.
    ///
    /// Snapshot encoders must sort these themselves to obtain a canonical
    /// byte stream (hash-set iteration order is not deterministic).
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.paths.iter().copied()
    }

    /// Rebuilds a map from the parts exposed by
    /// [`covered_slots`](CoverageMap::covered_slots),
    /// [`path_ids`](CoverageMap::path_ids) and
    /// [`executions`](CoverageMap::executions).
    ///
    /// `edges_covered` is recomputed from the nonzero slots, so a decoder
    /// cannot desynchronise the derived count from the bucket contents.
    ///
    /// # Panics
    ///
    /// Panics if a slot index is `>= MAP_SIZE`; callers deserialising
    /// untrusted bytes must bounds-check before constructing.
    #[must_use]
    pub fn from_parts(
        slots: impl IntoIterator<Item = (usize, u8)>,
        paths: impl IntoIterator<Item = PathId>,
        executions: u64,
    ) -> Self {
        let mut map = Self::new();
        for (slot, mask) in slots {
            assert!(slot < MAP_SIZE, "coverage slot {slot} out of range");
            if mask != 0 && map.buckets[slot] == 0 {
                map.edges_covered += 1;
            }
            map.buckets[slot] |= mask;
        }
        map.paths.extend(paths);
        map.executions = executions;
        map
    }
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoverageMap")
            .field("edges_covered", &self.edges_covered)
            .field("paths_covered", &self.paths.len())
            .field("executions", &self.executions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EdgeId, TraceContext};

    fn trace_of(ids: &[u32]) -> TraceMap {
        let mut ctx = TraceContext::new();
        for &id in ids {
            ctx.edge(EdgeId::new(id));
        }
        ctx.into_trace()
    }

    #[test]
    fn first_merge_is_interesting() {
        let mut map = CoverageMap::new();
        let outcome = map.merge(&trace_of(&[1, 2, 3]));
        assert!(outcome.is_interesting());
        assert!(outcome.new_path);
        assert_eq!(map.paths_covered(), 1);
    }

    #[test]
    fn duplicate_merge_is_not_interesting() {
        let mut map = CoverageMap::new();
        map.merge(&trace_of(&[1, 2, 3]));
        let outcome = map.merge(&trace_of(&[1, 2, 3]));
        assert!(!outcome.is_interesting());
        assert!(!outcome.new_path);
        assert_eq!(map.paths_covered(), 1);
        assert_eq!(map.executions(), 2);
    }

    #[test]
    fn new_subset_path_without_new_edges() {
        let mut map = CoverageMap::new();
        map.merge(&trace_of(&[1, 2, 3]));
        // Prefix of the earlier trace: no new edges, but a distinct path.
        let outcome = map.merge(&trace_of(&[1, 2]));
        assert_eq!(outcome.new_edges, 0);
        assert!(outcome.new_path);
        assert_eq!(map.paths_covered(), 2);
    }

    #[test]
    fn bucket_growth_is_interesting() {
        let looped = |iterations: usize| {
            let mut ctx = TraceContext::new();
            for _ in 0..iterations {
                ctx.edge(EdgeId::new(9));
            }
            ctx.into_trace()
        };
        let mut map = CoverageMap::new();
        // Covers both map slots the loop can touch, each with a low count.
        map.merge(&looped(2));
        // Same slots but one of them is now hit ~40 times → new hit bucket.
        let outcome = map.merge(&looped(40));
        assert_eq!(outcome.new_edges, 0);
        assert!(outcome.new_buckets > 0);
        assert!(outcome.is_interesting());
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut map = CoverageMap::new();
        map.merge(&trace_of(&[4, 5]));
        let trace = trace_of(&[6]);
        let peeked = map.peek(&trace);
        assert!(peeked.has_new_edges());
        assert_eq!(map.edges_covered(), 2);
        assert_eq!(map.paths_covered(), 1);
        // Now actually merge and observe the same verdict.
        let merged = map.merge(&trace);
        assert_eq!(peeked.new_edges, merged.new_edges);
    }

    #[test]
    fn empty_trace_is_not_a_path() {
        let mut map = CoverageMap::new();
        let outcome = map.merge(&TraceMap::new());
        assert!(!outcome.new_path);
        assert_eq!(map.paths_covered(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut map = CoverageMap::new();
        map.merge(&trace_of(&[1, 2, 3]));
        map.clear();
        assert_eq!(map.edges_covered(), 0);
        assert_eq!(map.paths_covered(), 0);
        assert_eq!(map.executions(), 0);
    }

    #[test]
    fn merge_sparse_is_bit_identical_to_merge() {
        let traces = [
            trace_of(&[1, 2, 3]),
            trace_of(&[1, 2]),
            trace_of(&[7, 7, 7, 9]),
            trace_of(&[1, 2, 3]),
            TraceMap::new(),
        ];
        let mut dense = CoverageMap::new();
        let mut sparse = CoverageMap::new();
        for trace in &traces {
            assert_eq!(
                dense.merge(trace),
                sparse.merge_sparse(trace.to_sparse().hits())
            );
        }
        assert_eq!(dense.edges_covered(), sparse.edges_covered());
        assert_eq!(dense.paths_covered(), sparse.paths_covered());
        assert_eq!(dense.executions(), sparse.executions());
    }

    #[test]
    fn absorb_unions_two_maps() {
        let mut a = CoverageMap::new();
        a.merge(&trace_of(&[1, 2, 3]));
        let mut b = CoverageMap::new();
        b.merge(&trace_of(&[3, 4]));
        b.merge(&trace_of(&[3, 4]));

        // The union must equal a map that merged every trace itself.
        let mut sequential = CoverageMap::new();
        sequential.merge(&trace_of(&[1, 2, 3]));
        sequential.merge(&trace_of(&[3, 4]));
        sequential.merge(&trace_of(&[3, 4]));

        a.absorb(&b);
        assert_eq!(a.edges_covered(), sequential.edges_covered());
        assert_eq!(a.paths_covered(), sequential.paths_covered());
        assert_eq!(a.executions(), 3);
        for slot in 0..MAP_SIZE {
            assert_eq!(
                a.buckets_for(slot).collect::<Vec<_>>(),
                sequential.buckets_for(slot).collect::<Vec<_>>(),
                "slot {slot} bucket masks differ"
            );
        }
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut left = CoverageMap::new();
        left.merge(&trace_of(&[10, 11]));
        let mut right = CoverageMap::new();
        right.merge(&trace_of(&[11, 12]));

        let mut ab = left.clone();
        ab.absorb(&right);
        let mut ba = right.clone();
        ba.absorb(&left);
        assert_eq!(ab.edges_covered(), ba.edges_covered());
        assert_eq!(ab.paths_covered(), ba.paths_covered());
        assert_eq!(ab.executions(), ba.executions());
    }

    #[test]
    fn stats_snapshot() {
        let mut map = CoverageMap::new();
        map.merge(&trace_of(&[1, 2, 3]));
        let stats = map.stats();
        assert_eq!(stats.edges_covered, map.edges_covered());
        assert!(stats.edges_covered >= 2);
        assert_eq!(stats.paths_covered, 1);
        assert_eq!(stats.executions, 1);
        assert!(stats.map_density > 0.0);
    }
}
