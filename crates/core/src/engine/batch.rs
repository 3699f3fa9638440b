//! Batched window execution: amortising per-execution dispatch out of the
//! campaign hot path.
//!
//! The sequential engine pays a full round trip through the seams for every
//! execution — one `dyn Target` dispatch, one reset-policy check, one fresh
//! [`GeneratedPacket`] allocation, and a trace borrow that forces the loop
//! to fully drain each execution before generating the next. This module
//! adds the batched driver, [`Engine::run_batched`]: the campaign is walked
//! in the same reset-aligned windows the worker topology uses, but each
//! window is generated up front into a pooled packet arena, executed in a
//! *single* [`Executor::execute_window`] call (one virtual dispatch per
//! window via [`Target::process_batch`], decoding with the summary sink),
//! and then reduced through [`Engine::reduce`] in global execution order.
//! A batched inline [`Campaign`](crate::campaign::Campaign) runs one window
//! per round through `Engine::run_window_batched`.
//!
//! # Equivalence
//!
//! Batching only moves *when* packets are generated and reduced, never what
//! is executed: windows are reset-aligned, packets are generated in global
//! execution order consuming the campaign RNG exactly as the sequential
//! loop would, and results reduce in the same order through the same seams.
//! For the feedback-free Peach baseline the batched report is therefore
//! **bit-identical** to the sequential campaign for any batch size
//! (`tests/batch_equivalence.rs`, plus a batched entry in
//! `tests/pinned_report.rs` that must match the historic constants). The
//! Peach\* strategy receives its feedback at the end of each batch instead
//! of per execution — deterministic, but barrier-fed exactly like the
//! worker topology; with `batch >= window length` the batched Peach\*
//! stream coincides with a 1-worker, 1-window-per-round worker campaign.
//!
//! [`Target::process_batch`]: peachstar_protocols::Target::process_batch
//! [`GeneratedPacket`]: crate::strategy::GeneratedPacket

use peachstar_datamodel::DataModelSet;
use peachstar_protocols::WindowResults;
use rand::rngs::SmallRng;

use crate::engine::{Engine, Executor, Feedback, Monitor, Observer, ResetPolicy, Schedule};
use crate::seed::Seed;
use crate::strategy::GeneratedPacket;

/// The reset-aligned execution windows of a campaign: `(start, end)` pairs,
/// 1-based and inclusive, covering `1..=executions` without gaps. Every
/// window after the first starts at an execution the reset policy resets
/// before — exactly where the sequential campaign wipes its target. For
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

/// Pooled storage for one window's generated packets.
///
/// Slots are [`GeneratedPacket`]s that get overwritten in place through
/// [`Schedule::next_packet_into`], so after the first window the generate
/// phase reuses the packet byte buffers and model-name strings of earlier
/// windows instead of allocating one fresh seed per execution.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    packets: Vec<GeneratedPacket>,
}

impl PacketArena {
    /// Regenerates the arena to exactly `count` packets, pulled from the
    /// schedule in execution order, reusing existing slots.
    fn fill<S: Schedule>(
        &mut self,
        schedule: &mut S,
        models: &DataModelSet,
        rng: &mut SmallRng,
        count: usize,
    ) {
        self.packets.truncate(count);
        for slot in &mut self.packets {
            schedule.next_packet_into(models, rng, slot);
        }
        while self.packets.len() < count {
            let mut slot = Seed::new(Vec::new(), "", false);
            schedule.next_packet_into(models, rng, &mut slot);
            self.packets.push(slot);
        }
    }
}

impl<X, O, F, M, S> Engine<X, O, F, M, S>
where
    X: Executor,
    O: Observer,
    F: Feedback,
    M: Monitor,
    S: Schedule,
{
    /// Runs executions `1..=budget` in batched windows of at most `batch`
    /// executions, aligned to the reset boundaries of `policy`.
    ///
    /// Each batch runs in three phases mirroring one sharded round on a
    /// single worker: generate the batch into the pooled arena (global
    /// execution order, same RNG stream as [`run`](Engine::run)), execute it
    /// in one [`Executor::execute_window`] call, then reduce every result
    /// through the seams in global execution order. `policy` must be the
    /// reset policy the executor itself applies — the windows are derived
    /// from it so that no reset boundary falls inside a window.
    pub fn run_batched(
        &mut self,
        budget: u64,
        policy: ResetPolicy,
        batch: u64,
        models: &DataModelSet,
        rng: &mut SmallRng,
    ) {
        let mut arena = PacketArena::default();
        let mut results = WindowResults::new();
        for (window_start, window_end) in windows_for_policy(budget, policy) {
            self.run_window_batched(
                window_start,
                window_end,
                batch,
                models,
                rng,
                &mut arena,
                &mut results,
            );
        }
    }

    /// Runs one reset-aligned window `window_start..=window_end` in batched
    /// slices — the per-window body of [`run_batched`](Engine::run_batched)
    /// and the round body of a batched inline campaign. `arena` and
    /// `results` are caller-held so their allocations amortise across
    /// windows exactly as in `run_batched`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_window_batched(
        &mut self,
        window_start: u64,
        window_end: u64,
        batch: u64,
        models: &DataModelSet,
        rng: &mut SmallRng,
        arena: &mut PacketArena,
        results: &mut WindowResults,
    ) {
        let batch = batch.max(1);
        {
            // Large reset windows split into `batch`-sized slices: no reset
            // falls inside a slice (target state flows through untouched,
            // exactly as in the sequential loop), while feedback reduces at
            // every slice end instead of once per giant window.
            let mut start = window_start;
            while start <= window_end {
                let end = window_end.min(start + (batch - 1));
                let count = usize::try_from(end - start + 1).expect("batch fits usize");

                // Phase 1 — generate into the pooled arena.
                arena.fill(&mut self.schedule, models, rng, count);

                // Phase 2 — execute the whole slice in one executor call.
                // (The ref table borrows the arena, so it lives only for
                // this slice; its one small allocation is amortised over
                // the whole batch.)
                let refs: Vec<&[u8]> =
                    arena.packets.iter().map(|p| p.bytes.as_slice()).collect();
                self.executor.execute_window(start, &refs, results);
                drop(refs);
                debug_assert_eq!(results.len(), count, "one result per packet");

                // Phase 3 — reduce in global execution order through the
                // same `Engine::reduce` every driver uses.
                for (offset, (summary, trace)) in results.iter().enumerate() {
                    let execution = start + offset as u64;
                    let packet = &arena.packets[offset];
                    let merge = self.observer.merge_sparse(trace);
                    if self.reduce(execution, packet, *summary, &merge, models) {
                        // The arena keeps its slot for the next window, so
                        // retention clones the (rare) valuable packet
                        // instead of moving it out.
                        self.feedback.retain(packet.clone(), &merge);
                    }
                }
                start = end + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        CampaignMonitor, CoverageObserver, NewCoverageFeedback, StrategySchedule, TargetExecutor,
    };
    use crate::strategy::StrategyKind;
    use peachstar_protocols::TargetId;
    use rand::SeedableRng;

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

    fn engine_for(
        strategy: StrategyKind,
        reset_interval: u64,
        budget: u64,
    ) -> Engine<
        TargetExecutor,
        CoverageObserver,
        NewCoverageFeedback,
        CampaignMonitor,
        StrategySchedule,
    > {
        Engine {
            executor: TargetExecutor::new(TargetId::Modbus.create(), reset_interval),
            observer: CoverageObserver::new(),
            feedback: NewCoverageFeedback::new(),
            monitor: CampaignMonitor::new(budget, 100),
            schedule: StrategySchedule::new(strategy.create()),
        }
    }

    #[test]
    fn batched_peach_engine_matches_the_sequential_engine() {
        // The engine-level equivalence claim, before any campaign plumbing:
        // for the feedback-free baseline, run_batched is bit-identical to
        // run for any batch size (including ones that straddle windows).
        let budget = 1_200;
        let mut sequential = engine_for(StrategyKind::Peach, 500, budget);
        let models = sequential.executor.data_models();
        let mut rng = SmallRng::seed_from_u64(11);
        sequential.run(budget, &models, &mut rng);

        for batch in [1, 7, 250, 5_000] {
            let mut batched = engine_for(StrategyKind::Peach, 500, budget);
            let mut rng = SmallRng::seed_from_u64(11);
            batched.run_batched(budget, ResetPolicy::Interval(500), batch, &models, &mut rng);
            assert_eq!(
                batched.observer.paths_covered(),
                sequential.observer.paths_covered(),
                "batch {batch}: paths diverged"
            );
            assert_eq!(
                batched.observer.edges_covered(),
                sequential.observer.edges_covered(),
                "batch {batch}: edges diverged"
            );
            assert_eq!(
                batched.feedback.retained(),
                sequential.feedback.retained(),
                "batch {batch}: valuable seeds diverged"
            );
            assert_eq!(
                (
                    batched.monitor.responses(),
                    batched.monitor.protocol_errors(),
                    batched.monitor.fault_hits()
                ),
                (
                    sequential.monitor.responses(),
                    sequential.monitor.protocol_errors(),
                    sequential.monitor.fault_hits()
                ),
                "batch {batch}: outcome tally diverged"
            );
        }
    }

    #[test]
    fn batched_peachstar_engine_is_deterministic_and_complete() {
        let budget = 1_000;
        let run = || {
            let mut engine = engine_for(StrategyKind::PeachStar, 250, budget);
            let models = engine.executor.data_models();
            let mut rng = SmallRng::seed_from_u64(5);
            engine.run_batched(budget, ResetPolicy::Interval(250), 64, &models, &mut rng);
            (
                engine.observer.paths_covered(),
                engine.feedback.retained(),
                engine.monitor.responses()
                    + engine.monitor.protocol_errors()
                    + engine.monitor.fault_hits(),
                engine.schedule.corpus_size(),
            )
        };
        let (paths, retained, total, corpus) = run();
        assert_eq!(run(), (paths, retained, total, corpus), "not deterministic");
        assert_eq!(total, budget, "every execution reduced exactly once");
        assert!(paths > 0);
        assert!(retained > 0);
        assert!(corpus > 0, "barrier-fed feedback still reaches the strategy");
    }
}
