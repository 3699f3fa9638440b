//! Property tests: the sparse dirty-slot trace recording must be observably
//! identical to a dense full-map scan, for arbitrary edge sequences.
//!
//! `TraceMap` keeps the dense 64 KiB byte array *and* a dirty-slot list; the
//! list is purely an acceleration structure. These properties drive the
//! public API through the sparse paths (`iter_hits`, `path_id`, `edges_hit`,
//! `merge`) and recompute every answer from the dense `as_bytes()` view.

use proptest::prelude::*;

use peachstar_coverage::{CoverageMap, EdgeId, TraceContext, TraceMap};

/// Replays an edge-id sequence into a fresh trace map.
fn trace_of(edges: &[u32]) -> TraceMap {
    let mut ctx = TraceContext::new();
    for &edge in edges {
        ctx.edge(EdgeId::new(edge));
    }
    ctx.into_trace()
}

/// Dense reference: `(slot, count)` pairs from a full scan of the bitmap,
/// in ascending slot order.
fn dense_hits(trace: &TraceMap) -> Vec<(usize, u8)> {
    trace
        .as_bytes()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(slot, &count)| (slot, count))
        .collect()
}

/// Dense reference for the path hash: FNV-1a over every hit slot (ascending)
/// and its bucketed count — the pre-refactor implementation, recomputed
/// from the dense view.
fn dense_path_id(trace: &TraceMap) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (slot, count) in dense_hits(trace) {
        let bucket = peachstar_coverage::bucket_for(count) as u8;
        for byte in (slot as u32)
            .to_le_bytes()
            .into_iter()
            .chain(std::iter::once(bucket))
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_iter_hits_equals_dense_scan(edges in collection::vec(any::<u32>(), 0..300)) {
        let trace = trace_of(&edges);
        let mut sparse: Vec<(usize, u8)> = trace.iter_hits().collect();
        sparse.sort_unstable();
        prop_assert_eq!(sparse, dense_hits(&trace));
    }

    #[test]
    fn sparse_path_id_equals_dense_reference(edges in collection::vec(any::<u32>(), 0..300)) {
        let trace = trace_of(&edges);
        prop_assert_eq!(trace.path_id().raw(), dense_path_id(&trace));
    }

    #[test]
    fn both_path_ids_equal_bytewise_fnv(edges in collection::vec(any::<u32>(), 0..300)) {
        // The path hash folds the two zero high bytes of each slot into one
        // multiply; both representations must still give the byte-wise id.
        let trace = trace_of(&edges);
        prop_assert_eq!(trace.path_id().raw(), dense_path_id(&trace));
        prop_assert_eq!(trace.to_sparse().path_id().raw(), dense_path_id(&trace));
    }

    #[test]
    fn edges_hit_matches_dense_population_count(edges in collection::vec(any::<u32>(), 0..300)) {
        let trace = trace_of(&edges);
        prop_assert_eq!(trace.edges_hit(), dense_hits(&trace).len());
        prop_assert_eq!(trace.is_empty(), dense_hits(&trace).is_empty());
    }

    #[test]
    fn merge_counts_match_dense_expectations(
        first in collection::vec(any::<u32>(), 0..120),
        second in collection::vec(any::<u32>(), 0..120),
    ) {
        let mut map = CoverageMap::new();
        let outcome = map.merge(&trace_of(&first));
        // First merge: every hit slot is a new edge.
        prop_assert_eq!(outcome.new_edges, dense_hits(&trace_of(&first)).len());

        // Second merge: new edges are exactly the dense-scan slots of the
        // second trace that the first trace never touched.
        let dense_first = dense_hits(&trace_of(&first));
        let second_trace = trace_of(&second);
        let expected_new: usize = dense_hits(&second_trace)
            .iter()
            .filter(|(slot, _)| !dense_first.iter().any(|(seen, _)| seen == slot))
            .count();
        let peeked = map.peek(&second_trace);
        let merged = map.merge(&second_trace);
        prop_assert_eq!(merged.new_edges, expected_new);
        prop_assert_eq!(peeked.new_edges, merged.new_edges);
        prop_assert_eq!(peeked.new_buckets, merged.new_buckets);
        prop_assert_eq!(peeked.path_id, merged.path_id);
    }

    #[test]
    fn reset_restores_the_pristine_state(
        first in collection::vec(any::<u32>(), 1..200),
        second in collection::vec(any::<u32>(), 0..200),
    ) {
        // A context reused via `reset` must behave exactly like a fresh one.
        let mut reused = TraceContext::new();
        for &edge in &first {
            reused.edge(EdgeId::new(edge));
        }
        reused.reset();
        prop_assert!(reused.trace().is_empty());
        prop_assert!(reused.trace().as_bytes().iter().all(|&b| b == 0));

        for &edge in &second {
            reused.edge(EdgeId::new(edge));
        }
        let fresh = trace_of(&second);
        prop_assert_eq!(reused.trace().path_id(), fresh.path_id());
        prop_assert_eq!(reused.trace().as_bytes(), fresh.as_bytes());
    }
}
