//! The fuzzing engine: the paper's campaign loop (Algorithm 2) as one
//! straight line — generate → execute → merge coverage → classify → feed
//! the strategy → sample.
//!
//! An [`Engine`] holds the campaign's state: the global coverage map, the
//! pool of valuable seeds, the [`CampaignMonitor`] (outcome tallies, bug
//! dedup, series) and the [`Schedule`] (the generation strategy, plus the
//! session cursor in session mode). Packets run through a
//! [`TargetExecutor`], which owns the target and its reset policy.
//!
//! [`Engine::reduce`] is the one place an executed packet is folded back
//! into that state, so every way of executing reduces in the same order
//! (`tests/pinned_report.rs` pins the resulting reports): [`Engine::step`]
//! per packet, [`batch`] for reset-aligned windows run in slices of one
//! [`TargetExecutor::execute_window`] call each, and [`shard`] for windows
//! executed on parallel workers behind a deterministic merge barrier — the
//! two topologies of [`Campaign`](crate::campaign::Campaign), whose round
//! loop drives all three. [`session`] builds stateful session fuzzing
//! (handshake → mutated payload → teardown, with session-scoped resets) as
//! the session mode of the [`Schedule`].

pub mod batch;
pub mod executor;
pub mod monitor;
pub mod schedule;
pub mod session;
pub mod shard;
pub(crate) mod supervisor;
pub mod transport;

pub use executor::{ResetPolicy, TargetExecutor};
pub use monitor::{CampaignMonitor, MonitorState, OutcomeSummary};
pub use schedule::{Schedule, ScheduleState};
pub use session::{PhaseMask, SessionConfig, SessionPlan, SessionSchedule};
pub use shard::ShardConfig;
pub use transport::{error_class, FramedTcpTarget, ReconnectPolicy, TransportMode};

use peachstar_coverage::{CoverageMap, MergeOutcome};
use peachstar_datamodel::DataModelSet;
use rand::rngs::SmallRng;

use crate::seed::SeedPool;
use crate::snapshot::{CampaignSnapshot, SnapshotError, SnapshotMeta};
use crate::strategy::GeneratedPacket;

/// The campaign's state, and the loop that advances it.
///
/// # Example
///
/// ```
/// use peachstar::engine::{CampaignMonitor, Engine, Schedule, TargetExecutor};
/// use peachstar::strategy::StrategyKind;
/// use peachstar_protocols::TargetId;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
/// let models = executor.target().data_models();
/// let mut engine = Engine::new(
///     Schedule::new(StrategyKind::PeachStar.create()),
///     CampaignMonitor::new(200, 50),
/// );
/// let mut rng = SmallRng::seed_from_u64(1);
/// for execution in 1..=200 {
///     engine.step(&mut executor, execution, &models, &mut rng);
/// }
/// // The first execution always adds coverage, so it is a valuable seed.
/// assert!(engine.coverage.paths_covered() > 0);
/// assert!(!engine.seeds.is_empty());
/// assert_eq!(engine.monitor.series().final_paths(), engine.coverage.paths_covered());
/// ```
#[derive(Debug)]
pub struct Engine {
    /// Campaign-global coverage: every execution's trace merges here.
    pub coverage: CoverageMap,
    /// The valuable seeds retained so far.
    pub seeds: SeedPool,
    /// Tallies outcomes, dedups bugs, samples the series.
    pub monitor: CampaignMonitor,
    /// Generates packets and digests the valuable-seed verdicts.
    pub schedule: Schedule,
}

impl Engine {
    /// A fresh engine: empty coverage and seed pool.
    #[must_use]
    pub fn new(schedule: Schedule, monitor: CampaignMonitor) -> Self {
        Self {
            coverage: CoverageMap::new(),
            seeds: SeedPool::new(),
            monitor,
            schedule,
        }
    }

    /// Folds one executed packet, whose trace `merge` already went into
    /// [`coverage`](Engine::coverage), back into the state: tally/bug record
    /// → valuable verdict (new edge or hit-count bucket) → strategy feedback
    /// → series sample. Returns the verdict; on `true` the caller retains
    /// the packet with [`retain`](Engine::retain), moving it when it owns
    /// it and cloning it out of a reused arena otherwise.
    ///
    /// Every driver reduces through here, per packet or at a merge barrier,
    /// so their reduce order can never drift apart.
    ///
    /// # Example
    ///
    /// ```
    /// use peachstar::engine::{CampaignMonitor, Engine, OutcomeSummary, Schedule};
    /// use peachstar::seed::Seed;
    /// use peachstar::strategy::StrategyKind;
    /// use peachstar_coverage::{EdgeId, TraceContext};
    /// use peachstar_protocols::TargetId;
    ///
    /// let models = TargetId::Modbus.create().data_models();
    /// let mut engine = Engine::new(
    ///     Schedule::new(StrategyKind::Peach.create()),
    ///     CampaignMonitor::new(2, 1),
    /// );
    /// let mut ctx = TraceContext::new();
    /// ctx.edge(EdgeId::new(3));
    /// let packet = Seed::new(vec![0x42], "demo", false);
    /// // The same trace twice: only its first execution adds coverage.
    /// for execution in 1..=2 {
    ///     let merge = engine.coverage.merge(ctx.trace());
    ///     if engine.reduce(execution, &packet, OutcomeSummary::Response, &merge, &models) {
    ///         engine.retain(packet.clone(), &merge);
    ///     }
    /// }
    /// assert_eq!(engine.seeds.len(), 1);
    /// assert_eq!(engine.monitor.responses(), 2);
    /// ```
    pub fn reduce(
        &mut self,
        execution: u64,
        packet: &GeneratedPacket,
        outcome: OutcomeSummary,
        merge: &MergeOutcome,
        models: &DataModelSet,
    ) -> bool {
        self.monitor.record(execution, packet, outcome);
        let valuable = merge.is_interesting();
        self.schedule.feedback(execution, packet, valuable, models);
        self.monitor.sample(
            execution,
            self.coverage.paths_covered(),
            self.coverage.edges_covered(),
        );
        valuable
    }

    /// Retains a packet [`reduce`](Engine::reduce) judged valuable.
    pub fn retain(&mut self, packet: GeneratedPacket, merge: &MergeOutcome) {
        self.seeds.push(packet, merge.path_id, merge.new_edges);
    }

    /// Runs one execution: generate → execute on `executor` (reset policy
    /// inside) → coverage merge → [`reduce`](Engine::reduce) → seed
    /// retention.
    pub fn step(
        &mut self,
        executor: &mut TargetExecutor,
        execution: u64,
        models: &DataModelSet,
        rng: &mut SmallRng,
    ) {
        let packet = self.schedule.next_packet(models, rng);
        let (outcome, trace) = executor.execute(execution, &packet.bytes);
        let merge = self.coverage.merge(trace);
        if self.reduce(execution, &packet, OutcomeSummary::from(&outcome), &merge, models) {
            // The schedule only borrowed the packet, so retention moves it
            // into the pool instead of cloning.
            self.retain(packet, &merge);
        }
    }

    /// Captures a [`CampaignSnapshot`] of the engine's resumable state.
    ///
    /// `completed` must be a reset-aligned window boundary: the target's
    /// internals are *not* serialised, which is only sound at an execution
    /// index the reset policy wipes the target before anyway.
    #[must_use]
    pub fn checkpoint(&self, meta: SnapshotMeta, completed: u64, rng: &SmallRng) -> CampaignSnapshot {
        CampaignSnapshot {
            meta,
            completed,
            rng_state: rng.state(),
            map: self.coverage.clone(),
            pool: self.seeds.clone(),
            monitor: self.monitor.snapshot_state(),
            schedule: self.schedule.snapshot_state(),
        }
    }

    /// Restores a snapshot into this (freshly assembled) engine, leaving it
    /// ready to continue from `snapshot.completed + 1`.
    ///
    /// The caller is responsible for having validated
    /// [`SnapshotMeta::ensure_matches`] first; this method only rejects
    /// strategy state of a kind the schedule's strategy cannot accept.
    pub fn restore(
        &mut self,
        snapshot: &CampaignSnapshot,
        rng: &mut SmallRng,
    ) -> Result<(), SnapshotError> {
        if !self.schedule.restore_state(snapshot.schedule.clone()) {
            return Err(SnapshotError::Mismatch("strategy state"));
        }
        *rng = SmallRng::from_state(snapshot.rng_state);
        self.coverage = snapshot.map.clone();
        self.seeds = snapshot.pool.clone();
        self.monitor.restore_state(snapshot.monitor.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::Seed;
    use crate::strategy::StrategyKind;
    use peachstar_coverage::{EdgeId, TraceContext, TraceMap};
    use peachstar_protocols::TargetId;
    use rand::SeedableRng;

    fn trace_of(ids: &[u32]) -> TraceMap {
        let mut ctx = TraceContext::new();
        for &id in ids {
            ctx.edge(EdgeId::new(id));
        }
        ctx.into_trace()
    }

    fn peach_engine() -> Engine {
        Engine::new(
            Schedule::new(StrategyKind::Peach.create()),
            CampaignMonitor::new(3, 1),
        )
    }

    #[test]
    fn live_and_sparse_merges_reduce_identically() {
        // `step` merges live traces, the merge barrier buffered sparse
        // snapshots: the same executions must reduce to the same state.
        let models = TargetId::Modbus.create().data_models();
        let mut live = peach_engine();
        let mut buffered = peach_engine();
        let packet = Seed::new(vec![0x42], "m", false);
        let traces = [trace_of(&[1, 2]), trace_of(&[2, 3]), trace_of(&[1, 2])];
        for (execution, trace) in (1..).zip(&traces) {
            let a = live.coverage.merge(trace);
            let b = buffered.coverage.merge_sparse(&trace.to_sparse());
            assert_eq!(a, b);
            assert_eq!(
                live.reduce(execution, &packet, OutcomeSummary::Response, &a, &models),
                buffered.reduce(execution, &packet, OutcomeSummary::Response, &b, &models),
            );
        }
        assert_eq!(live.coverage.paths_covered(), buffered.coverage.paths_covered());
        assert_eq!(live.coverage.edges_covered(), buffered.coverage.edges_covered());
        assert_eq!(live.coverage.executions(), 3);
        assert_eq!(
            live.monitor.series().final_paths(),
            buffered.monitor.series().final_paths()
        );
    }

    #[test]
    fn reduce_retains_only_interesting_seeds() {
        let models = TargetId::Modbus.create().data_models();
        let mut engine = peach_engine();
        for (execution, trace) in (1..).zip(&[trace_of(&[1, 2]), trace_of(&[1, 2])]) {
            let merge = engine.coverage.merge(trace);
            let packet = Seed::new(vec![execution as u8], "m", false);
            if engine.reduce(execution, &packet, OutcomeSummary::Response, &merge, &models) {
                engine.retain(packet, &merge);
            }
        }
        assert_eq!(engine.seeds.len(), 1, "the duplicate trace adds nothing");
        assert_eq!(engine.seeds.iter().next().map(|kept| &kept.seed.bytes[..]), Some(&[1][..]));
        assert_eq!(engine.monitor.responses(), 2);
    }

    #[test]
    fn engine_runs_a_small_campaign() {
        let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 500);
        let models = executor.target().data_models();
        let mut engine = Engine::new(
            Schedule::new(StrategyKind::PeachStar.create()),
            CampaignMonitor::new(1_000, 100),
        );
        let mut rng = SmallRng::seed_from_u64(3);
        for execution in 1..=1_000 {
            engine.step(&mut executor, execution, &models, &mut rng);
        }

        assert!(engine.coverage.paths_covered() > 0);
        assert!(!engine.seeds.is_empty());
        assert_eq!(
            engine.monitor.responses()
                + engine.monitor.protocol_errors()
                + engine.monitor.fault_hits(),
            1_000
        );
        assert_eq!(
            engine.monitor.series().final_paths(),
            engine.coverage.paths_covered()
        );
    }
}
