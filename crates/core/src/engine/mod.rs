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
//! Packets reach the engine only in windows: [`batch`] runs each
//! reset-aligned window of an inline campaign in slices (of one packet
//! unless the campaign asks for larger ones), one
//! [`TargetExecutor::execute_window`] call each, and [`shard`] executes the
//! windows of a round on parallel workers behind a deterministic merge
//! barrier — the two topologies of
//! [`Campaign`](crate::campaign::Campaign), whose round loop drives both.
//! Both generate through [`Schedule::next_packet_into`] in execution
//! order, and both fold every executed packet back through
//! [`Engine::reduce`], straight from a window's
//! [`WindowResults`](peachstar_protocols::WindowResults), so their reduce
//! order can never drift apart (`tests/pinned_report.rs` pins the resulting
//! reports).
//! [`session`] builds stateful session fuzzing (handshake → mutated
//! payload → teardown, with session-scoped resets) as the session mode of
//! the [`Schedule`].

pub mod batch;
pub mod executor;
pub mod monitor;
pub mod schedule;
pub mod session;
pub mod shard;
pub(crate) mod supervisor;
pub mod transport;

pub use executor::{ResetPolicy, TargetExecutor};
pub use monitor::{CampaignMonitor, MonitorState};
pub use schedule::{Schedule, ScheduleState};
pub use session::{PhaseMask, SessionConfig, SessionPlan, SessionSchedule};
pub use shard::ShardConfig;
pub use transport::{error_class, FramedTcpTarget, ReconnectPolicy, TransportMode};

use peachstar_coverage::CoverageMap;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::Outcome;
use rand::rngs::SmallRng;

use crate::seed::SeedPool;
use crate::snapshot::{CampaignSnapshot, SnapshotError, SnapshotMeta, SnapshotView};
use crate::strategy::GeneratedPacket;

/// The campaign's state, and the loop that advances it.
///
/// # Example
///
/// The campaign loop with windows of one packet: generate → execute →
/// reduce.
///
/// ```
/// use peachstar::engine::{CampaignMonitor, Engine, Schedule, TargetExecutor};
/// use peachstar::strategy::StrategyKind;
/// use peachstar_protocols::{TargetId, WindowResults};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
/// let models = executor.target().data_models();
/// let mut engine = Engine::new(
///     Schedule::new(StrategyKind::PeachStar.create()),
///     CampaignMonitor::new(200, 50),
/// );
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut results = WindowResults::new();
/// for execution in 1..=200 {
///     let packet = engine.schedule.next_packet(&models, &mut rng);
///     executor.execute_window(execution, &[&packet.bytes], &mut results);
///     for (outcome, hits) in results.iter() {
///         engine.reduce(execution, &packet, outcome, hits, &models);
///     }
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

    /// Folds one executed packet back into the state: coverage merge of its
    /// trace's `hits` (in snapshot form, as a
    /// [`WindowResults`](peachstar_protocols::WindowResults) record holds
    /// them) → tally/bug record → valuable verdict (new edge or hit-count
    /// bucket) → strategy feedback → series sample, and a valuable packet
    /// is cloned into [`seeds`](Engine::seeds).
    ///
    /// The inline topology reduces through here after every slice, and the
    /// worker topology's merge barrier for every window, so the two reduce
    /// orders can never drift apart.
    ///
    /// # Example
    ///
    /// ```
    /// use peachstar::engine::{CampaignMonitor, Engine, Schedule};
    /// use peachstar::seed::Seed;
    /// use peachstar::strategy::StrategyKind;
    /// use peachstar_coverage::{EdgeId, TraceContext};
    /// use peachstar_protocols::{Outcome, TargetId};
    ///
    /// let models = TargetId::Modbus.create().data_models();
    /// let mut engine = Engine::new(
    ///     Schedule::new(StrategyKind::Peach.create()),
    ///     CampaignMonitor::new(2, 1),
    /// );
    /// let mut ctx = TraceContext::new();
    /// ctx.edge(EdgeId::new(3));
    /// let trace = ctx.trace().to_sparse();
    /// let packet = Seed::new(vec![0x42], "demo", false);
    /// // The same trace twice: only its first execution adds coverage.
    /// for execution in 1..=2 {
    ///     engine.reduce(execution, &packet, Outcome::Response, trace.hits(), &models);
    /// }
    /// assert_eq!(engine.seeds.len(), 1);
    /// assert_eq!(engine.monitor.responses(), 2);
    /// ```
    pub fn reduce(
        &mut self,
        execution: u64,
        packet: &GeneratedPacket,
        outcome: Outcome,
        hits: &[(u16, u8)],
        models: &DataModelSet,
    ) {
        let merge = self.coverage.merge_sparse(hits);
        self.monitor.record(execution, packet, outcome);
        let valuable = merge.is_interesting();
        self.schedule.feedback(execution, packet, valuable, models);
        self.monitor.sample(
            execution,
            self.coverage.paths_covered(),
            self.coverage.edges_covered(),
        );
        if valuable {
            self.seeds
                .push(packet.clone(), merge.path_id, merge.new_edges);
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

    /// Encodes the engine's resumable state into `out`, replacing its
    /// contents: the bytes `self.checkpoint(…).encode()` returns, without
    /// cloning the map, the seed pool or the monitor. Only the strategy
    /// state is taken by value, and it is taken first.
    pub(crate) fn encode_checkpoint(
        &self,
        meta: &SnapshotMeta,
        completed: u64,
        rng: &SmallRng,
        out: &mut Vec<u8>,
    ) {
        let schedule = self.schedule.snapshot_state();
        SnapshotView {
            meta,
            completed,
            rng_state: rng.state(),
            map: &self.coverage,
            pool: &self.seeds,
            series: self.monitor.series().points(),
            bugs: self.monitor.bugs(),
            tallies: [
                self.monitor.responses(),
                self.monitor.protocol_errors(),
                self.monitor.fault_hits(),
            ],
            schedule: &schedule,
        }
        .encode_into(out);
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
    use crate::engine::batch::PacketArena;
    use crate::seed::Seed;
    use crate::strategy::StrategyKind;
    use peachstar_coverage::{EdgeId, TraceContext};
    use peachstar_protocols::{TargetId, WindowResults};
    use rand::SeedableRng;

    fn trace_of(ids: &[u32]) -> peachstar_coverage::SparseTrace {
        let mut ctx = TraceContext::new();
        for &id in ids {
            ctx.edge(EdgeId::new(id));
        }
        ctx.trace().to_sparse()
    }

    fn peach_engine() -> Engine {
        Engine::new(
            Schedule::new(StrategyKind::Peach.create()),
            CampaignMonitor::new(3, 1),
        )
    }

    #[test]
    fn reduce_retains_only_interesting_seeds() {
        let models = TargetId::Modbus.create().data_models();
        let mut engine = peach_engine();
        for (execution, trace) in (1..).zip(&[trace_of(&[1, 2]), trace_of(&[1, 2])]) {
            let packet = Seed::new(vec![execution as u8], "m", false);
            engine.reduce(
                execution,
                &packet,
                Outcome::Response,
                trace.hits(),
                &models,
            );
        }
        assert_eq!(engine.seeds.len(), 1, "the duplicate trace adds nothing");
        assert_eq!(engine.seeds.iter().next().map(|kept| &kept.seed.bytes[..]), Some(&[1][..]));
        assert_eq!(engine.monitor.responses(), 2);
    }

    #[test]
    fn encode_checkpoint_writes_the_bytes_of_an_encoded_capture() {
        let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
        let models = executor.target().data_models();
        let mut engine = Engine::new(
            Schedule::new(StrategyKind::PeachStar.create()),
            CampaignMonitor::new(300, 10),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut arena, mut results) = (PacketArena::default(), WindowResults::new());
        let meta = SnapshotMeta::for_campaign(
            "libmodbus",
            &crate::campaign::CampaignConfig::new(StrategyKind::PeachStar).executions(300),
        );
        // One reused buffer across checkpoints, each at a window boundary.
        let mut out = Vec::new();
        for start in [1, 101, 201] {
            engine.run_window(
                &mut executor,
                start,
                start + 99,
                1,
                &models,
                &mut rng,
                &mut arena,
                &mut results,
            );
            engine.encode_checkpoint(&meta, start + 99, &rng, &mut out);
            assert_eq!(out, engine.checkpoint(meta.clone(), start + 99, &rng).encode());
        }
        assert!(engine.monitor.series().len() > 1 && !engine.seeds.is_empty());
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
        let (mut arena, mut results) = (PacketArena::default(), WindowResults::new());
        // Slices of one packet never straddle a reset.
        engine.run_window(
            &mut executor,
            1,
            1_000,
            1,
            &models,
            &mut rng,
            &mut arena,
            &mut results,
        );

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
