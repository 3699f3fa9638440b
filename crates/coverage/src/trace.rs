//! Per-execution trace recording: [`EdgeId`], [`TraceContext`] and [`TraceMap`].

use std::fmt;

use crate::map::MAP_SIZE;

/// Identifier of a basic block / instrumentation site in the target.
///
/// Plays the role of the compile-time random `cur_location` value the paper's
/// instrumentation pass assigns to each basic block. Only the low bits that
/// index the trace map matter; the full 32-bit value is kept so that
/// diagnostics can refer to the original site.
///
/// ```
/// use peachstar_coverage::EdgeId;
/// let id = EdgeId::new(0xdead_beef);
/// assert_eq!(id.raw(), 0xdead_beef);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an identifier from a raw 32-bit value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw 32-bit value.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Index of this block in the coverage bitmap.
    #[must_use]
    pub(crate) const fn slot(self) -> usize {
        (self.0 as usize) & (MAP_SIZE - 1)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edge:{:08x}", self.0)
    }
}

impl From<u32> for EdgeId {
    fn from(raw: u32) -> Self {
        Self::new(raw)
    }
}

/// Stable identifier of a whole execution *path*.
///
/// Two executions that hit the same set of (edge, hit-bucket) pairs get the
/// same `PathId`. The fuzzer uses distinct path ids as its "paths covered"
/// metric — the quantity plotted on the Y axis of Figure 4 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u64);

impl PathId {
    /// Creates a path identifier from its raw hash value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw 64-bit hash value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path:{:016x}", self.0)
    }
}

/// Coverage bitmap produced by a single execution of the target.
///
/// Each byte counts how many times the corresponding edge hash was traversed,
/// exactly like the `shared_mem[]` array in the paper's instrumentation
/// snippet (saturating instead of wrapping so that loops cannot erase
/// evidence of having run).
///
/// A packet execution hits a few dozen of the 65 536 slots, so the map keeps
/// a *dirty list* of the slots touched at least once. Consumers
/// ([`iter_hits`](TraceMap::iter_hits), [`path_id`](TraceMap::path_id),
/// [`CoverageMap::merge`](crate::CoverageMap::merge)) walk only that list —
/// O(edges hit), not O([`MAP_SIZE`]) — and [`clear`](TraceMap::clear) zeroes
/// only the dirty slots instead of the whole 64 KiB.
#[derive(Clone)]
pub struct TraceMap {
    bytes: Box<[u8; MAP_SIZE]>,
    /// Slots hit at least once, in first-hit order. `MAP_SIZE` is `1 << 16`,
    /// so every slot index fits in a `u16` (enforced at compile time below).
    dirty: Vec<u16>,
}

// `record` narrows slot indices to `u16` for the dirty list; a larger map
// would truncate them silently, so reject that configuration at compile time.
const _: () = assert!(MAP_SIZE <= u16::MAX as usize + 1);

impl TraceMap {
    /// Creates an empty (all-zero) trace map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bytes: Box::new([0u8; MAP_SIZE]),
            dirty: Vec::new(),
        }
    }

    /// Number of distinct map slots hit at least once during the execution.
    #[must_use]
    pub fn edges_hit(&self) -> usize {
        self.dirty.len()
    }

    /// Returns `true` if no edge was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Raw view of the bitmap bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Hit count for map slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAP_SIZE`.
    #[must_use]
    pub fn hit_count(&self, index: usize) -> u8 {
        self.bytes[index]
    }

    /// Iterator over `(slot, hit_count)` pairs for slots hit at least once.
    ///
    /// Visits only the dirty slots, in first-hit order (not ascending slot
    /// order). Order-sensitive consumers must sort; [`path_id`] does.
    ///
    /// [`path_id`]: TraceMap::path_id
    pub fn iter_hits(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.dirty
            .iter()
            .map(|&slot| (slot as usize, self.bytes[slot as usize]))
    }

    /// Computes the stable identifier of this execution path.
    ///
    /// The hash covers every hit slot together with its bucketed hit count,
    /// so two executions with the same branches but very different loop
    /// counts map to different paths, while small loop-count jitter does not.
    ///
    /// The dirty list is sorted into ascending slot order before hashing, so
    /// the identifier is bit-identical to a dense full-map scan no matter in
    /// which order the edges were recorded.
    ///
    /// Allocates a sort buffer per call; hot paths that compute path ids per
    /// execution should hold a reusable buffer and call
    /// [`path_id_with`](TraceMap::path_id_with) instead (as
    /// [`CoverageMap::merge`](crate::CoverageMap::merge) does).
    #[must_use]
    pub fn path_id(&self) -> PathId {
        self.path_id_with(&mut Vec::new())
    }

    /// [`path_id`](TraceMap::path_id) with a caller-provided sort buffer, so
    /// repeated calls reuse one allocation.
    #[must_use]
    pub fn path_id_with(&self, scratch: &mut Vec<u16>) -> PathId {
        scratch.clear();
        scratch.extend_from_slice(&self.dirty);
        scratch.sort_unstable();
        fnv_path_id(scratch.iter().map(|&slot| (slot, self.bytes[slot as usize])))
    }

    /// Captures a compact, self-contained snapshot of this trace.
    ///
    /// The snapshot's [`path_id`](SparseTrace::path_id) and
    /// [`hits`](SparseTrace::hits) agree exactly with this map's,
    /// so a [`CoverageMap::merge_sparse`](crate::CoverageMap::merge_sparse)
    /// of its [`hits`](SparseTrace::hits) is bit-identical to a
    /// [`merge`](crate::CoverageMap::merge) of the live trace.
    #[must_use]
    pub fn to_sparse(&self) -> SparseTrace {
        let mut hits: Vec<(u16, u8)> = self
            .dirty
            .iter()
            .map(|&slot| (slot, self.bytes[slot as usize]))
            .collect();
        hits.sort_unstable_by_key(|&(slot, _)| slot);
        SparseTrace { hits }
    }

    /// Resets the map to the all-zero state by clearing only the slots that
    /// were actually hit, keeping the dirty list's allocation for reuse.
    pub fn clear(&mut self) {
        for &slot in &self.dirty {
            self.bytes[slot as usize] = 0;
        }
        self.dirty.clear();
    }

    pub(crate) fn record(&mut self, slot: usize) {
        let byte = &mut self.bytes[slot];
        if *byte == 0 {
            self.dirty.push(slot as u16);
        }
        *byte = byte.saturating_add(1);
    }
}

impl Default for TraceMap {
    fn default() -> Self {
        Self::new()
    }
}

/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// One FNV-1a step followed by two over zero bytes (see [`fnv_path_id`]).
const FNV_PRIME_CUBED: u64 = FNV_PRIME.wrapping_mul(FNV_PRIME).wrapping_mul(FNV_PRIME);

/// FNV-1a over `(slot, hit-bucket)` pairs in ascending slot order — the one
/// path hash shared by [`TraceMap::path_id_with`] and
/// [`SparseTrace::path_id`], so the two representations can never drift.
///
/// Each pair hashes the four little-endian bytes of `u32::from(slot)`, then
/// the bucket. A slot is a `u16`, so bytes 2 and 3 are zero and their two
/// steps fold into the high byte's multiply: three multiplies per hit, and
/// the same id as hashing all five bytes.
pub(crate) fn fnv_path_id<I: Iterator<Item = (u16, u8)>>(sorted_hits: I) -> PathId {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (slot, count) in sorted_hits {
        let [low, high] = slot.to_le_bytes();
        let bucket = crate::stats::bucket_for(count) as u8;
        hash = (hash ^ u64::from(low)).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(high)).wrapping_mul(FNV_PRIME_CUBED);
        hash = (hash ^ u64::from(bucket)).wrapping_mul(FNV_PRIME);
    }
    PathId::new(hash)
}

/// A compact, immutable snapshot of one execution's [`TraceMap`]: the hit
/// slots with their saturating counts, in ascending slot order.
///
/// A trace map owns a 64 KiB bitmap, so buffering one per execution (as a
/// batched window does) would cost megabytes; a snapshot costs a few bytes
/// per edge actually hit.
/// [`CoverageMap::merge_sparse`](crate::CoverageMap::merge_sparse) folds a
/// snapshot's [`hits`](SparseTrace::hits) into the campaign-global map with
/// outcomes bit-identical to merging the live trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseTrace {
    /// `(slot, hit count)` pairs, ascending by slot.
    hits: Vec<(u16, u8)>,
}

impl SparseTrace {
    /// Creates an empty snapshot: the trace of an execution that hit no
    /// edge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(slot, hit count)` pairs as one slice, in ascending slot order,
    /// with no zero count and no repeated slot: the *snapshot form* that
    /// [`CoverageMap::merge_sparse`](crate::CoverageMap::merge_sparse) and
    /// [`TraceContext::load_sparse`] take.
    #[must_use]
    pub fn hits(&self) -> &[(u16, u8)] {
        &self.hits
    }

    /// The stable path identifier — bit-identical to
    /// [`TraceMap::path_id`] of the trace this snapshot was taken from.
    #[must_use]
    pub fn path_id(&self) -> PathId {
        fnv_path_id(self.hits.iter().copied())
    }
}

impl fmt::Debug for TraceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceMap")
            .field("edges_hit", &self.edges_hit())
            .field("path_id", &self.path_id())
            .finish()
    }
}

/// Execution context threaded through an instrumented target.
///
/// Holds the `prev_location` register and the per-execution [`TraceMap`]. One
/// context corresponds to one packet fed to the target; the fuzzer reuses a
/// single context across a whole campaign via [`TraceContext::reset`], which
/// clears only the slots the previous execution dirtied instead of
/// reallocating the 64 KiB map.
///
/// ```
/// use peachstar_coverage::{EdgeId, TraceContext};
///
/// let mut ctx = TraceContext::new();
/// ctx.edge(EdgeId::new(1));
/// ctx.edge(EdgeId::new(2));
/// assert_eq!(ctx.trace().edges_hit(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceContext {
    prev_location: u32,
    trace: TraceMap,
}

impl TraceContext {
    /// Creates a fresh context with an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self {
            prev_location: 0,
            trace: TraceMap::new(),
        }
    }

    /// Records traversal of the instrumentation site `id`.
    ///
    /// Implements the paper's hashing scheme: the map slot is
    /// `cur ^ prev`, and `prev` is then set to `cur >> 1` so that the
    /// direction of an edge (A→B vs B→A) and tight self-loops remain
    /// distinguishable.
    pub fn edge<I: Into<EdgeId>>(&mut self, id: I) {
        let id = id.into();
        let cur = id.slot() as u32;
        let slot = (cur ^ self.prev_location) as usize & (MAP_SIZE - 1);
        self.trace.record(slot);
        self.prev_location = cur >> 1;
    }

    /// Read access to the per-execution trace.
    #[must_use]
    pub fn trace(&self) -> &TraceMap {
        &self.trace
    }

    /// Consumes the context and returns the trace.
    #[must_use]
    pub fn into_trace(self) -> TraceMap {
        self.trace
    }

    /// Clears the trace and the previous-location register so the context can
    /// be reused for another execution.
    ///
    /// Only the dirty slots of the trace are zeroed — no allocation, no
    /// 64 KiB memset — so resetting costs O(edges hit by the last execution).
    pub fn reset(&mut self) {
        self.prev_location = 0;
        self.trace.clear();
    }

    /// Replaces the context's trace with one recorded elsewhere, given as
    /// its hits in snapshot form (see [`SparseTrace::hits`]): a framed-TCP
    /// client mirrors the server's last reply trace this way, reusing the
    /// dirty list's allocation. The previous-location register is cleared:
    /// the loaded trace represents a *finished* execution, not one to be
    /// extended.
    ///
    /// The round trip is lossless: after `ctx.load_sparse(s.hits())`,
    /// `ctx.trace().to_sparse() == s`, and `path_id`/`iter_hits` agree with
    /// the original trace the snapshot was taken from.
    pub fn load_sparse(&mut self, hits: &[(u16, u8)]) {
        self.prev_location = 0;
        self.trace.clear();
        for &(slot, count) in hits {
            self.trace.bytes[slot as usize] = count;
            self.trace.dirty.push(slot);
        }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace() {
        let trace = TraceMap::new();
        assert!(trace.is_empty());
        assert_eq!(trace.edges_hit(), 0);
        assert_eq!(trace.iter_hits().count(), 0);
    }

    #[test]
    fn edge_direction_matters() {
        let mut ab = TraceContext::new();
        ab.edge(EdgeId::new(0x10));
        ab.edge(EdgeId::new(0x20));

        let mut ba = TraceContext::new();
        ba.edge(EdgeId::new(0x20));
        ba.edge(EdgeId::new(0x10));

        assert_ne!(ab.trace().path_id(), ba.trace().path_id());
    }

    #[test]
    fn repeated_edges_saturate() {
        let mut ctx = TraceContext::new();
        for _ in 0..1000 {
            ctx.edge(EdgeId::new(0x7));
            ctx.edge(EdgeId::new(0x8));
        }
        // The steady-state slots are hit ~1000 times and must saturate
        // instead of wrapping back to small counts.
        let max = ctx.trace().iter_hits().map(|(_, c)| c).max().unwrap();
        assert_eq!(max, u8::MAX);
    }

    #[test]
    fn same_sequence_same_path_id() {
        let run = || {
            let mut ctx = TraceContext::new();
            for id in [1u32, 5, 9, 5, 1] {
                ctx.edge(EdgeId::new(id));
            }
            ctx.into_trace().path_id()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_clears_state() {
        let mut ctx = TraceContext::new();
        ctx.edge(EdgeId::new(3));
        ctx.reset();
        assert!(ctx.trace().is_empty());
    }

    #[test]
    fn reused_context_matches_fresh_context() {
        let ids = [7u32, 11, 13, 7, 500_000];
        let mut fresh = TraceContext::new();
        for id in ids {
            fresh.edge(EdgeId::new(id));
        }

        let mut reused = TraceContext::new();
        // Pollute with an unrelated execution, then reset.
        for id in [1u32, 2, 3, 4] {
            reused.edge(EdgeId::new(id));
        }
        reused.reset();
        for id in ids {
            reused.edge(EdgeId::new(id));
        }

        assert_eq!(fresh.trace().path_id(), reused.trace().path_id());
        assert_eq!(fresh.trace().edges_hit(), reused.trace().edges_hit());
        assert_eq!(fresh.trace().as_bytes(), reused.trace().as_bytes());
    }

    #[test]
    fn path_id_is_independent_of_hit_order() {
        // Two contexts hitting the same slots in different first-hit order
        // must produce the same path id (the dirty list is sorted).
        let mut a = TraceMap::new();
        a.record(10);
        a.record(20);
        let mut b = TraceMap::new();
        b.record(20);
        b.record(10);
        assert_eq!(a.path_id(), b.path_id());
    }

    #[test]
    fn iter_hits_visits_each_dirty_slot_once() {
        let mut trace = TraceMap::new();
        trace.record(42);
        trace.record(42);
        trace.record(7);
        let hits: Vec<(usize, u8)> = trace.iter_hits().collect();
        assert_eq!(hits, vec![(42, 2), (7, 1)]);
    }

    #[test]
    fn clear_zeroes_only_dirty_slots() {
        let mut trace = TraceMap::new();
        trace.record(1);
        trace.record(65_535);
        trace.clear();
        assert!(trace.is_empty());
        assert!(trace.as_bytes().iter().all(|&b| b == 0));
        assert_eq!(trace.iter_hits().count(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(EdgeId::new(0xab).to_string(), "edge:000000ab");
        assert_eq!(PathId::new(0x1).to_string(), "path:0000000000000001");
    }

    #[test]
    fn sparse_snapshot_matches_trace() {
        let mut ctx = TraceContext::new();
        for id in [900u32, 3, 77, 3, 900, 12] {
            ctx.edge(EdgeId::new(id));
        }
        let trace = ctx.trace();
        let sparse = trace.to_sparse();
        assert_eq!(sparse.hits().len(), trace.edges_hit());
        assert_eq!(sparse.path_id(), trace.path_id());
        // Same (slot, count) multiset; the snapshot is sorted by slot.
        let mut from_trace: Vec<(usize, u8)> = trace.iter_hits().collect();
        from_trace.sort_unstable();
        let from_sparse: Vec<(usize, u8)> = sparse
            .hits()
            .iter()
            .map(|&(slot, count)| (usize::from(slot), count))
            .collect();
        assert_eq!(from_sparse, from_trace);
        let ascending = sparse.hits().windows(2).all(|w| w[0].0 < w[1].0);
        assert!(ascending, "ascending slot order");
    }

    #[test]
    fn load_sparse_roundtrips_and_replaces_previous_contents() {
        let mut recorder = TraceContext::new();
        for id in [900u32, 3, 77, 3, 12] {
            recorder.edge(EdgeId::new(id));
        }
        let sparse = recorder.trace().to_sparse();
        let mut ctx = TraceContext::new();
        // Dirty the destination first: load_sparse must fully replace it.
        ctx.edge(EdgeId::new(5000));
        ctx.edge(EdgeId::new(1));
        ctx.load_sparse(sparse.hits());
        assert_eq!(ctx.trace().to_sparse(), sparse);
        assert_eq!(ctx.trace().path_id(), recorder.trace().path_id());
        assert_eq!(ctx.trace().edges_hit(), recorder.trace().edges_hit());
        // Loading an empty snapshot empties the map.
        ctx.load_sparse(&[]);
        assert!(ctx.trace().is_empty());
        assert!(ctx.trace().as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_sparse_snapshot() {
        let sparse = TraceMap::new().to_sparse();
        assert!(sparse.hits().is_empty());
        assert_eq!(sparse.path_id(), TraceMap::new().path_id());
    }

    #[test]
    fn context_load_sparse_rematerialises_a_finished_execution() {
        let mut recorder = TraceContext::new();
        for id in [41u32, 8, 19, 8] {
            recorder.edge(EdgeId::new(id));
        }
        let sparse = recorder.trace().to_sparse();
        let mut ctx = TraceContext::new();
        ctx.edge(EdgeId::new(5)); // stale state the load must replace
        ctx.load_sparse(sparse.hits());
        assert_eq!(ctx.trace().to_sparse(), sparse);
        assert_eq!(ctx.trace().path_id(), recorder.trace().path_id());
        // The prev-location register was cleared: a subsequent edge starts
        // the slot chain from zero, exactly like after reset().
        let mut fresh = TraceContext::new();
        fresh.edge(EdgeId::new(123));
        let mut loaded = TraceContext::new();
        loaded.load_sparse(&[]);
        loaded.edge(EdgeId::new(123));
        assert_eq!(loaded.trace().to_sparse(), fresh.trace().to_sparse());
    }
}
