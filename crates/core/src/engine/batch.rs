//! Window execution: the one way a packet reaches the engine.
//!
//! Every campaign runs in reset-aligned windows. An inline
//! [`Campaign`](crate::campaign::Campaign) runs each window through
//! `Engine::run_window` in slices of `batch` packets (one packet per slice
//! unless [`CampaignConfig::batch`] says otherwise): every slice is
//! generated up front into a pooled `PacketArena`, executed in a
//! *single* [`TargetExecutor::execute_window`] call (one virtual dispatch
//! per slice via [`Target::process_batch`], decoding with the summary
//! sink), and then reduced through [`Engine::reduce`] in global execution
//! order, straight from the slice's [`WindowResults`]. The worker topology
//! ([`shard`](crate::engine::shard)) executes each of its windows whole
//! through the same executor call on its workers, with the same pooled
//! table of packet slices ([`RefTable`]).
//!
//! # Equivalence
//!
//! The slice size only moves *when* packets are generated and reduced,
//! never what is executed: windows are reset-aligned, packets are generated
//! in global execution order consuming the campaign RNG in one stream, and
//! results reduce in execution order through the same [`Engine::reduce`].
//! For the feedback-free Peach baseline the report is therefore
//! **bit-identical** for any batch size (`tests/batch_equivalence.rs`,
//! plus batched and unbatched entries in `tests/pinned_report.rs` that must
//! match the historic constants). The Peach\* strategy receives its
//! feedback at the end of each slice — with slices of one, before the next
//! packet is generated, exactly as the paper's loop does; with larger
//! slices deterministic but barrier-fed like the worker topology, and with
//! `batch >= window length` the stream coincides with a 1-worker,
//! 1-window-per-round worker campaign.
//!
//! [`Target::process_batch`]: peachstar_protocols::Target::process_batch
//! [`CampaignConfig::batch`]: crate::campaign::CampaignConfig::batch

use peachstar_datamodel::DataModelSet;
use peachstar_protocols::containment::RefTable;
use peachstar_protocols::WindowResults;
use rand::rngs::SmallRng;

use crate::engine::{Engine, ResetPolicy, Schedule, TargetExecutor};
use crate::seed::Seed;
use crate::strategy::GeneratedPacket;

/// The reset-aligned execution windows of a campaign: `(start, end)` pairs,
/// 1-based and inclusive, covering `1..=executions` without gaps. Every
/// window after the first starts at an execution the reset policy resets
/// before — exactly where the campaign wipes its target. For
/// [`ResetPolicy::PerSession`] this makes every window one whole session
/// (the last may be truncated by the budget), so a session never straddles
/// a window boundary — and therefore never a merge barrier either.
///
/// Shared by both topologies so their window layouts can never drift
/// apart.
pub(crate) fn windows_for_policy(executions: u64, policy: ResetPolicy) -> Vec<(u64, u64)> {
    if executions == 0 {
        return Vec::new();
    }
    let mut starts = vec![1u64];
    starts.extend(policy.boundaries(executions));
    // Interval(1) and PerSession(len) both reset before execution 1, making
    // the first boundary coincide with the initial start.
    starts.dedup();
    starts
        .iter()
        .enumerate()
        .map(|(index, &start)| {
            let end = starts.get(index + 1).map_or(executions, |&next| next - 1);
            (start, end)
        })
        .collect()
}

/// Pooled storage for generated packets, and the table of byte slices
/// [`TargetExecutor::execute_window`] takes.
///
/// Slots are [`GeneratedPacket`]s overwritten in place through
/// [`Schedule::next_packet_into`], so a reused arena recycles the packet
/// byte buffers and model-name strings of earlier slices instead of
/// allocating one fresh seed per execution.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    pub(crate) packets: Vec<GeneratedPacket>,
    refs: RefTable,
}

impl PacketArena {
    /// Regenerates the arena to exactly `count` packets, pulled from the
    /// schedule in execution order, reusing existing slots.
    pub(crate) fn fill(
        &mut self,
        schedule: &mut Schedule,
        models: &DataModelSet,
        rng: &mut SmallRng,
        count: usize,
    ) {
        self.packets
            .resize_with(count, || Seed::new(Vec::new(), "", false));
        for slot in &mut self.packets {
            schedule.next_packet_into(models, rng, slot);
        }
    }

}

impl Engine {
    /// Runs one reset-aligned window `window_start..=window_end` on
    /// `executor` in slices of at most `batch` executions — the round body
    /// of an inline campaign. Each slice runs in three phases mirroring one
    /// worker round on a single worker: generate into the pooled arena,
    /// execute in one [`TargetExecutor::execute_window`] call, reduce in
    /// global execution order. `arena` and `results` are caller-held so
    /// their allocations amortise across windows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_window(
        &mut self,
        executor: &mut TargetExecutor,
        window_start: u64,
        window_end: u64,
        batch: u64,
        models: &DataModelSet,
        rng: &mut SmallRng,
        arena: &mut PacketArena,
        results: &mut WindowResults,
    ) {
        let batch = batch.max(1);
        // Large reset windows split into `batch`-sized slices: no reset
        // falls inside a slice (target state flows through untouched),
        // while feedback reduces at every slice end instead of once per
        // giant window.
        let mut start = window_start;
        while start <= window_end {
            let end = window_end.min(start + (batch - 1));
            let count = usize::try_from(end - start + 1).expect("batch fits usize");

            // Phase 1 — generate into the pooled arena.
            arena.fill(&mut self.schedule, models, rng, count);

            // Phase 2 — execute the whole slice in one executor call.
            let packets = arena.packets.iter().map(|packet| packet.bytes.as_slice());
            arena.refs.with(packets, |packets| {
                executor.execute_window(start, packets, results);
            });
            debug_assert_eq!(results.len(), count, "one result per packet");

            // Phase 3 — reduce in global execution order.
            for ((execution, packet), (summary, hits)) in
                (start..).zip(&arena.packets).zip(results.iter())
            {
                self.reduce(execution, packet, summary, hits, models);
            }
            start = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows_for(executions: u64, reset_interval: u64) -> Vec<(u64, u64)> {
        windows_for_policy(executions, ResetPolicy::Interval(reset_interval))
    }

    #[test]
    fn windows_cover_the_budget_and_align_to_resets() {
        assert_eq!(windows_for(3_000, 2_000), vec![(1, 1_999), (2_000, 3_000)]);
        assert_eq!(windows_for(5, 10), vec![(1, 5)]);
        assert_eq!(windows_for(10, 0), vec![(1, 10)]);
        assert_eq!(windows_for(0, 100), Vec::<(u64, u64)>::new());
        assert_eq!(windows_for(3, 1), vec![(1, 1), (2, 2), (3, 3)]);
        let windows = windows_for(2_000, 250);
        assert_eq!(windows.first(), Some(&(1, 249)));
        assert_eq!(windows.last(), Some(&(2_000, 2_000)));
        // Gapless, contiguous cover of 1..=2000.
        let mut next = 1;
        for (start, end) in windows {
            assert_eq!(start, next);
            assert!(end >= start || (start, end) == (1, 0));
            next = end + 1;
        }
        assert_eq!(next, 2_001);
    }

    #[test]
    fn per_session_windows_are_whole_sessions() {
        // 3 sessions of 10 packets + one truncated by the budget: every
        // window is one session, so no session can straddle a window
        // boundary — and merge barriers only ever fall between windows.
        let windows = windows_for_policy(35, ResetPolicy::PerSession(10));
        assert_eq!(windows, vec![(1, 10), (11, 20), (21, 30), (31, 35)]);
        // Exact multiple: no truncated tail.
        let windows = windows_for_policy(30, ResetPolicy::PerSession(10));
        assert_eq!(windows, vec![(1, 10), (11, 20), (21, 30)]);
        // Session longer than the budget: one (truncated) window.
        assert_eq!(
            windows_for_policy(5, ResetPolicy::PerSession(10)),
            vec![(1, 5)]
        );
    }
}
