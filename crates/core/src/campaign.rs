//! The campaign runner: executes one fuzzer against one target for a fixed
//! execution budget, recording coverage growth and unique bugs.
//!
//! The work of every execution — reset policy, coverage merge,
//! valuable-seed retention, bug dedup, series sampling, strategy feedback —
//! lives in the [`engine`](crate::engine) module. A [`Campaign`] assembles an
//! [`Engine`] and drives it through one round loop: its
//! [`Topology`] only decides how a round executes (inline on the calling
//! thread, or on parallel workers behind a merge barrier), and a [`RunPlan`]
//! decides whether the run resumes, checkpoints, stops early, answers to a
//! service, or returns its final snapshot.

use std::fmt;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{Fault, Target, WindowResults, WireChaos};

use crate::corpus::PuzzleCorpus;
use crate::engine::batch::{windows_for_policy, PacketArena};
use crate::engine::shard::WorkerPool;
use crate::engine::{
    CampaignMonitor, Engine, ResetPolicy, Schedule, SessionPlan, SessionSchedule, TargetExecutor,
};
use crate::service::ServiceHooks;
use crate::snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotError, SnapshotMeta};
use crate::stats::CoverageSeries;
use crate::strategy::{
    GenerationStrategy, SemanticAwareConfig, SemanticAwareStrategy, StrategyKind, StrategyState,
};

pub use crate::engine::session::{PhaseMask, SessionConfig};
pub use crate::engine::shard::ShardConfig;
pub use crate::engine::transport::{ReconnectPolicy, TransportMode};

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Which fuzzer to run.
    pub strategy: StrategyKind,
    /// Number of packet executions (the simulated-time axis of Figure 4).
    pub executions: u64,
    /// RNG seed; campaigns with the same seed, strategy and target are
    /// bit-for-bit reproducible.
    pub rng_seed: u64,
    /// How often (in executions) a coverage sample is recorded.
    pub sample_interval: u64,
    /// Reset the target's session state every this many executions
    /// (0 disables resets). Ignored when [`session`](CampaignConfig::session)
    /// campaigns are active on a session-capable target — those reset at
    /// session boundaries instead.
    pub reset_interval: u64,
    /// Run session campaigns (handshake → mutated payload → teardown with
    /// session-scoped resets) instead of the single-packet stream. Only
    /// takes effect on targets that advertise a
    /// [`session_template`](peachstar_protocols::Target::session_template);
    /// sessionless targets fall back to the classic campaign.
    pub session: Option<SessionConfig>,
    /// Execute each reset-aligned window in slices of at most this many
    /// packets, one
    /// [`TargetExecutor::execute_window`](crate::engine::TargetExecutor::execute_window)
    /// call each. Unset, an inline campaign runs slices of one packet, so
    /// Peach\* digests every verdict before it generates the next packet.
    ///
    /// Peach campaigns are bit-identical for any batch size; Peach\* with a
    /// batch above 1 receives feedback at batch ends, so its stream is
    /// deterministic but barrier-fed like a sharded campaign's. Under
    /// [`Topology::Workers`] this instead caps the per-worker dispatch chunk
    /// (unset: one call per window), which never changes the report.
    pub batch: Option<u64>,
    /// Per-execution deadline in milliseconds (`--exec-timeout-ms`): each
    /// packet runs on a supervised watchdog thread and an execution that
    /// outlives the deadline is abandoned and recorded as a
    /// [`FaultKind::Hang`](peachstar_protocols::FaultKind::Hang) fault.
    ///
    /// Operational knob, not campaign semantics: a supervised campaign in
    /// which nothing hangs is bit-identical to an unsupervised one, and the
    /// field is deliberately excluded from the snapshot fingerprint.
    pub exec_timeout: Option<u64>,
    /// How packets reach the target (`--transport`): direct in-process
    /// calls (the default) or length-framed request/response over a
    /// loopback TCP socket against a spawned socket server
    /// ([`TransportMode::FramedTcp`]).
    ///
    /// Operational knob, not campaign semantics: the wire relays outcomes
    /// and traces verbatim, so reports are bit-identical across transports
    /// (`tests/transport_equivalence.rs`) and — like
    /// [`exec_timeout`](CampaignConfig::exec_timeout) — the field is
    /// deliberately excluded from the snapshot fingerprint: a checkpoint
    /// recorded under TCP resumes in-process bit-exactly.
    pub transport: TransportMode,
    /// Reconnect schedule for the framed-TCP transport
    /// ([`ReconnectPolicy`]): how many times a lost connection is
    /// re-dialled and with what bounded exponential backoff. Ignored
    /// in-process.
    ///
    /// Operational knob, not campaign semantics: a recovered connection
    /// replays its journal and produces the records a healthy one would, so
    /// — like [`transport`](CampaignConfig::transport) itself — the policy
    /// is deliberately excluded from the snapshot fingerprint.
    pub reconnect: ReconnectPolicy,
    /// Deterministic server-side failure injection for the framed-TCP
    /// transport's spawned socket server ([`WireChaos`]): connections
    /// dropped every N frames, reconnects rejected for a window. Ignored
    /// in-process. The default injects nothing.
    ///
    /// Operational knob, not campaign semantics: injected drops are
    /// recovered by journal replay before the dropped request is processed,
    /// so reports stay bit-identical and the field is deliberately excluded
    /// from the snapshot fingerprint.
    pub wire_chaos: WireChaos,
}

impl CampaignConfig {
    /// Creates a configuration with defaults suitable for tests: 10 000
    /// executions, samples every 250 executions, target reset every 2 000
    /// executions.
    #[must_use]
    pub fn new(strategy: StrategyKind) -> Self {
        Self {
            strategy,
            executions: 10_000,
            rng_seed: 1,
            sample_interval: 250,
            reset_interval: 2_000,
            session: None,
            batch: None,
            exec_timeout: None,
            transport: TransportMode::InProcess,
            reconnect: ReconnectPolicy::DEFAULT,
            wire_chaos: WireChaos::default(),
        }
    }

    /// Sets the execution budget.
    #[must_use]
    pub fn executions(mut self, executions: u64) -> Self {
        self.executions = executions;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the sampling interval.
    #[must_use]
    pub fn sample_interval(mut self, interval: u64) -> Self {
        self.sample_interval = interval.max(1);
        self
    }

    /// Sets the target reset interval (0 disables resets).
    #[must_use]
    pub fn reset_interval(mut self, interval: u64) -> Self {
        self.reset_interval = interval;
        self
    }

    /// Enables session campaigns with the given session shape.
    #[must_use]
    pub fn sessions(mut self, session: SessionConfig) -> Self {
        self.session = Some(session);
        self
    }

    /// Sets the slice size [`batch`](CampaignConfig::batch): at most `batch`
    /// packets per executor call (clamped to at least 1).
    #[must_use]
    pub fn batch(mut self, batch: u64) -> Self {
        self.batch = Some(batch.max(1));
        self
    }

    /// Arms the hang watchdog with a per-execution deadline in milliseconds
    /// (clamped to at least 1).
    #[must_use]
    pub fn exec_timeout_ms(mut self, millis: u64) -> Self {
        self.exec_timeout = Some(millis.max(1));
        self
    }

    /// Selects the transport carrying packets to the target (see
    /// [`transport`](CampaignConfig::transport)).
    #[must_use]
    pub fn transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the framed-TCP reconnect schedule (see
    /// [`reconnect`](CampaignConfig::reconnect)).
    #[must_use]
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Arms deterministic server-side failure injection on the framed-TCP
    /// transport (see [`wire_chaos`](CampaignConfig::wire_chaos)).
    #[must_use]
    pub fn wire_chaos(mut self, chaos: WireChaos) -> Self {
        self.wire_chaos = chaos;
        self
    }

    /// The executor an inline campaign or one worker runs `target` through:
    /// `policy` resets, and the hang watchdog when a deadline is set.
    pub(crate) fn executor(&self, target: Box<dyn Target>, policy: ResetPolicy) -> TargetExecutor {
        let executor = TargetExecutor::with_policy(target, policy);
        match self.exec_timeout {
            Some(millis) => executor.with_deadline(Duration::from_millis(millis)),
            None => executor,
        }
    }
}

/// A unique bug found during a campaign: the fault plus the execution index
/// and packet that first triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugRecord {
    /// The fault as reported by the target.
    pub fault: Fault,
    /// Execution index (1-based) at which the fault first fired.
    pub first_execution: u64,
    /// The packet that first triggered the fault.
    pub packet: Vec<u8>,
    /// Data model the packet was generated from.
    pub model: String,
}

/// The result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Name of the fuzzed target.
    pub target: String,
    /// Which fuzzer produced this report.
    pub strategy: StrategyKind,
    /// Total executions performed.
    pub executions: u64,
    /// Coverage growth curve.
    pub series: CoverageSeries,
    /// Unique bugs, deduplicated by fault site.
    pub bugs: Vec<BugRecord>,
    /// Valuable seeds retained (empty for the baseline, which discards them).
    pub valuable_seeds: usize,
    /// Final puzzle-corpus size (0 for the baseline).
    pub corpus_size: usize,
    /// Outcome tally: how many packets were answered, rejected or faulted.
    pub responses: u64,
    /// Number of packets rejected by protocol validation.
    pub protocol_errors: u64,
    /// Number of packets that hit a fault (including duplicates).
    pub fault_hits: u64,
    /// Wall-clock time the campaign loop took.
    ///
    /// Measurement only — every other field is a deterministic function of
    /// (target, strategy, seed, budget); this one varies run to run.
    pub wall_time: Duration,
}

impl CampaignReport {
    /// Final number of distinct paths covered.
    #[must_use]
    pub fn final_paths(&self) -> usize {
        self.series.final_paths()
    }

    /// Number of unique bugs found.
    #[must_use]
    pub fn unique_bugs(&self) -> usize {
        self.bugs.len()
    }

    /// Fraction of executed packets that were accepted by the target.
    #[must_use]
    pub fn validity_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 0.0;
        }
        self.responses as f64 / self.executions as f64
    }

    /// Campaign throughput in executions per wall-clock second.
    ///
    /// 0.0 when the wall time was too short to measure.
    #[must_use]
    pub fn executions_per_second(&self) -> f64 {
        let seconds = self.wall_time.as_secs_f64();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.executions as f64 / seconds
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} execs, {} paths, {} unique bugs, validity {:.1}%, {:.0} exec/s",
            self.strategy.label(),
            self.target,
            self.executions,
            self.final_paths(),
            self.unique_bugs(),
            self.validity_ratio() * 100.0,
            self.executions_per_second()
        )
    }
}

/// How a [`Campaign`] executes its rounds. Everything around a round —
/// resume, checkpoints, stop points, service hooks, the report — is shared
/// by both topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// On the calling thread (the default). Every reset-aligned window is
    /// one round, executed in slices of [`CampaignConfig::batch`] packets
    /// (one packet when unset).
    Inline,
    /// On parallel workers that execute the windows of a round and merge
    /// them at a deterministic barrier every
    /// [`sync_windows`](ShardConfig::sync_windows) windows (see
    /// [`engine::shard`](crate::engine::shard)). Under
    /// [`TransportMode::FramedTcp`] every worker is one live connection.
    Workers(ShardConfig),
}

impl Topology {
    /// Windows per round: the distance between two merge barriers.
    fn sync_windows(self) -> usize {
        match self {
            Self::Inline => 1,
            Self::Workers(shard) => shard.sync_windows.max(1),
        }
    }
}

/// What one [`Campaign::run_plan`] does besides running rounds. The default
/// is a plain uninterrupted campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunPlan<'a> {
    /// Restore this snapshot before executing anything, then skip every
    /// round it already covers. The campaign must be configured like the
    /// one that produced it ([`SnapshotMeta::ensure_matches`]; the worker
    /// count and the transport are not part of that fingerprint), and the
    /// snapshot must sit on one of its
    /// [`round_boundaries`](Campaign::round_boundaries).
    pub resume: Option<&'a CampaignSnapshot>,
    /// Write a checkpoint at every round that completes another
    /// `every_windows` windows, and at the last round run. Windows count
    /// from the campaign start, so an interrupted-and-resumed run
    /// checkpoints at the same boundaries as an uninterrupted one.
    pub checkpoint: Option<&'a CheckpointConfig>,
    /// Stop after the round ending exactly at this execution — one of the
    /// [`round_boundaries`](Campaign::round_boundaries) past the resumed
    /// point — and return the snapshot taken there.
    pub stop_after: Option<u64>,
    /// Publish live progress at every round and honour graceful stops
    /// ([`ServiceHooks::request_stop`]) there: the current round finishes,
    /// a final checkpoint is written, and the report's `executions` names
    /// the boundary the campaign stopped at.
    pub service: Option<&'a ServiceHooks>,
    /// Return a snapshot of the final state, even at zero executions.
    pub capture_final: bool,
}

/// One fuzzing campaign: a strategy, a target, an execution budget and the
/// [`Topology`] that executes it.
pub struct Campaign {
    target: Box<dyn Target>,
    config: CampaignConfig,
    topology: Topology,
    strategy: Box<dyn GenerationStrategy>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("target", &self.target.name())
            .field("config", &self.config)
            .field("topology", &self.topology)
            .finish()
    }
}

impl Campaign {
    /// Creates an inline campaign with the strategy named in the
    /// configuration.
    #[must_use]
    pub fn new(target: Box<dyn Target>, config: CampaignConfig) -> Self {
        Self::with_strategy(target, config, config.strategy.create())
    }

    /// Creates an inline campaign with an explicit (possibly customised)
    /// strategy.
    #[must_use]
    pub fn with_strategy(
        target: Box<dyn Target>,
        config: CampaignConfig,
        strategy: Box<dyn GenerationStrategy>,
    ) -> Self {
        Self {
            target,
            config,
            topology: Topology::Inline,
            strategy,
        }
    }

    /// Selects how the campaign executes its rounds.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Runs the campaign to completion and returns the report.
    ///
    /// With [`CampaignConfig::session`] set and a session-capable target,
    /// the packet stream is session-shaped (handshake → mutated payload →
    /// teardown) and the target resets at session boundaries
    /// ([`ResetPolicy::PerSession`]), so every window is one whole session
    /// and sessions never straddle a reset or a merge barrier; otherwise the
    /// classic single-packet stream with interval-scoped resets runs.
    #[must_use]
    pub fn run(self) -> CampaignReport {
        self.run_plan(RunPlan::default())
            .expect("a plain campaign performs no fallible snapshot operations")
            .0
    }

    /// Runs the campaign to completion, checkpointing per `checkpoint` (see
    /// [`RunPlan::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint write failures.
    pub fn run_checkpointed(
        self,
        checkpoint: &CheckpointConfig,
    ) -> Result<CampaignReport, SnapshotError> {
        self.run_plan(RunPlan {
            checkpoint: Some(checkpoint),
            ..RunPlan::default()
        })
        .map(|(report, _)| report)
    }

    /// The session mode and reset policy this campaign runs under: with
    /// [`CampaignConfig::session`] set and a session-capable target, every
    /// session is one reset window; otherwise the interval policy applies.
    /// The one derivation both [`run_plan`](Campaign::run_plan) and the
    /// boundary queries use.
    fn session_and_policy(&self) -> (Option<SessionSchedule>, ResetPolicy) {
        let session = self
            .config
            .session
            .and_then(|opts| self.target.session_template().map(|template| (opts, template)));
        match session {
            Some((opts, template)) => {
                let plan = SessionPlan::new(template, opts.payload_packets);
                let policy = ResetPolicy::PerSession(plan.session_len());
                (Some(SessionSchedule::new(plan, opts.mutate)), policy)
            }
            None => (None, ResetPolicy::Interval(self.config.reset_interval)),
        }
    }

    /// The reset-aligned windows of this campaign.
    fn windows(&self) -> Vec<(u64, u64)> {
        windows_for_policy(self.config.executions, self.session_and_policy().1)
    }

    /// The reset-aligned window boundaries of this campaign, ascending; the
    /// last is always the execution budget.
    #[must_use]
    pub fn window_boundaries(&self) -> Vec<u64> {
        round_ends(&self.windows(), 1)
    }

    /// The round-end executions of this campaign, ascending — the only
    /// executions a checkpoint, a stop or a resume can land on. At a round
    /// end the campaign RNG, the strategy feedback and the global coverage
    /// are synchronised and every worker target is about to reset, and the
    /// layout does not depend on the worker count. An inline round is one
    /// window, so there this equals
    /// [`window_boundaries`](Campaign::window_boundaries).
    #[must_use]
    pub fn round_boundaries(&self) -> Vec<u64> {
        round_ends(&self.windows(), self.topology.sync_windows())
    }

    /// Runs the campaign under `plan` and returns its report, plus the
    /// snapshot of the stop boundary (with [`RunPlan::stop_after`] or a
    /// service stop) or of the final state (with [`RunPlan::capture_final`]).
    ///
    /// # Errors
    ///
    /// Rejects a snapshot that does not match this campaign
    /// ([`SnapshotError::Mismatch`]), and a resume point or stop point that
    /// is not one of the [`round_boundaries`](Campaign::round_boundaries) or
    /// does not lie past the resumed point ([`SnapshotError::Unaligned`]);
    /// propagates checkpoint write failures.
    pub fn run_plan(
        self,
        plan: RunPlan<'_>,
    ) -> Result<(CampaignReport, Option<CampaignSnapshot>), SnapshotError> {
        let started = Instant::now();
        let (session, policy) = self.session_and_policy();
        let Self {
            target,
            config,
            topology,
            strategy,
        } = self;
        // The transport guard (the socket server, under `FramedTcp`) must
        // outlive the rounds; the campaign's client connections die with the
        // executors below, before the guard drops. The snapshot fingerprint
        // is transport-invariant: the framed target reports its blueprint's
        // name, and the fingerprint excludes the transport.
        let (target, _transport) = crate::engine::transport::deploy(
            target,
            config.transport,
            config.reconnect,
            config.wire_chaos,
        );
        let mut schedule = Schedule::new(strategy);
        if let Some(session) = session {
            schedule = schedule.sessions(session);
        }
        let engine = Engine::new(
            schedule,
            CampaignMonitor::new(config.executions, config.sample_interval),
        );
        let mut meta = SnapshotMeta::for_campaign(target.name(), &config);
        if let Topology::Workers(_) = topology {
            meta = meta.sharded(topology.sync_windows() as u64);
        }
        let rounds = Rounds {
            config: &config,
            plan,
            meta,
            models: target.data_models(),
            windows: windows_for_policy(config.executions, policy),
            sync_windows: topology.sync_windows(),
            target: target.name(),
            started,
        };
        match topology {
            Topology::Inline => {
                let mut executor = config.executor(target, policy);
                let mut arena = PacketArena::default();
                let mut results = WindowResults::new();
                let batch = config.batch.unwrap_or(1);
                rounds.run(engine, |engine, round, models, rng| {
                    // An inline round is exactly one window.
                    for &(start, end) in round {
                        engine.run_window(
                            &mut executor,
                            start,
                            end,
                            batch,
                            models,
                            rng,
                            &mut arena,
                            &mut results,
                        );
                    }
                })
            }
            Topology::Workers(shard) => {
                let mut pool = WorkerPool::new(target, policy, shard.workers, &config);
                rounds.run(engine, |engine, round, models, rng| {
                    pool.run_round(engine, round, models, rng);
                })
            }
        }
    }
}

/// Constructors of worker-topology campaigns.
#[derive(Debug)]
pub enum ShardedCampaign {}

// `new` deliberately returns a `Campaign`: the worker topology is a property
// of the one campaign type, not a type of its own.
#[allow(clippy::new_ret_no_self)]
impl ShardedCampaign {
    /// A [`Campaign`] on [`Topology::Workers`] with the strategy named in
    /// the configuration.
    #[must_use]
    pub fn new(target: Box<dyn Target>, config: CampaignConfig, shard: ShardConfig) -> Campaign {
        Campaign::new(target, config).topology(Topology::Workers(shard))
    }

    /// A [`Campaign`] on [`Topology::Workers`] with an explicit strategy.
    #[must_use]
    pub fn with_strategy(
        target: Box<dyn Target>,
        config: CampaignConfig,
        shard: ShardConfig,
        strategy: Box<dyn GenerationStrategy>,
    ) -> Campaign {
        Campaign::with_strategy(target, config, strategy).topology(Topology::Workers(shard))
    }
}

/// The last execution of every round of `sync_windows` windows.
fn round_ends(windows: &[(u64, u64)], sync_windows: usize) -> Vec<u64> {
    windows
        .chunks(sync_windows)
        .filter_map(|round| round.last().map(|&(_, end)| end))
        .collect()
}

/// Everything the round loop needs besides the engine.
struct Rounds<'a> {
    config: &'a CampaignConfig,
    plan: RunPlan<'a>,
    meta: SnapshotMeta,
    models: DataModelSet,
    windows: Vec<(u64, u64)>,
    sync_windows: usize,
    target: &'static str,
    started: Instant,
}

impl Rounds<'_> {
    /// The campaign's round loop: validates the plan, restores a resumed
    /// snapshot, runs every remaining round through `run_round`, and handles
    /// service progress, checkpoints, stops and snapshot capture at every
    /// round end, then folds the engine into a [`CampaignReport`].
    ///
    /// An inline round is one window, run in slices of generate → execute
    /// → reduce; a worker round is generate → execute on the workers →
    /// merge barrier. Every round end is an
    /// execution the reset policy wipes the target before, so no target
    /// state needs saving and a snapshot taken there resumes bit-exactly.
    fn run(
        self,
        mut engine: Engine,
        mut run_round: impl FnMut(&mut Engine, &[(u64, u64)], &DataModelSet, &mut SmallRng),
    ) -> Result<(CampaignReport, Option<CampaignSnapshot>), SnapshotError> {
        let Self {
            config,
            plan,
            meta,
            models,
            windows,
            sync_windows,
            target,
            started,
        } = self;
        let mut rng = SmallRng::seed_from_u64(config.rng_seed);
        let ends = round_ends(&windows, sync_windows);
        let resumed_from = match plan.resume {
            Some(snapshot) => {
                snapshot.meta.ensure_matches(&meta)?;
                if snapshot.completed != 0 && !ends.contains(&snapshot.completed) {
                    return Err(SnapshotError::Unaligned(snapshot.completed));
                }
                engine.restore(snapshot, &mut rng)?;
                snapshot.completed
            }
            None => 0,
        };
        if let Some(stop) = plan.stop_after {
            if stop <= resumed_from || !ends.contains(&stop) {
                return Err(SnapshotError::Unaligned(stop));
            }
        }
        if let Some(checkpoint) = plan.checkpoint {
            checkpoint.prepare()?;
        }
        // The cadence is "this round crossed a multiple of `every_windows`
        // windows since the campaign start": invariant under interruption
        // and worker count, and for one-window rounds simply every
        // `every_windows`-th window. A zero cadence means every round.
        let every = plan.checkpoint.map_or(1, |checkpoint| checkpoint.every_windows.max(1));

        let mut out_snapshot = None;
        let mut completed = resumed_from;
        let mut windows_done = 0u64;
        for round in windows.chunks(sync_windows) {
            let windows_before = windows_done;
            windows_done += round.len() as u64;
            let end = round.last().map_or(0, |&(_, end)| end);
            if end <= resumed_from {
                continue;
            }
            run_round(&mut engine, round, &models, &mut rng);
            completed = end;

            if let Some(service) = plan.service {
                service.observe(
                    end,
                    engine.coverage.paths_covered(),
                    engine.coverage.edges_covered(),
                    engine.monitor.bugs().len(),
                );
            }
            let final_round = end == config.executions;
            let stop_here = plan.stop_after == Some(end)
                || (!final_round && plan.service.is_some_and(ServiceHooks::stop_requested));
            let write_checkpoint = plan.checkpoint.is_some()
                && (windows_done / every > windows_before / every || final_round || stop_here);
            let capture = stop_here || (plan.capture_final && final_round);
            if write_checkpoint || capture {
                let snapshot = engine.checkpoint(meta.clone(), end, &rng);
                if let Some(checkpoint) = plan.checkpoint.filter(|_| write_checkpoint) {
                    checkpoint.store(&snapshot)?;
                    if let Some(service) = plan.service {
                        service.checkpointed(end);
                    }
                }
                if capture {
                    out_snapshot = Some(snapshot);
                }
            }
            if stop_here {
                break;
            }
        }
        // A zero-execution campaign (or a resume of an already-complete
        // snapshot) never enters the loop; capture the standing state.
        if plan.capture_final && out_snapshot.is_none() {
            out_snapshot = Some(engine.checkpoint(meta, completed, &rng));
        }

        let (responses, protocol_errors, fault_hits) = (
            engine.monitor.responses(),
            engine.monitor.protocol_errors(),
            engine.monitor.fault_hits(),
        );
        let (series, bugs) = engine.monitor.into_series_and_bugs();
        let report = CampaignReport {
            target: target.to_string(),
            strategy: config.strategy,
            executions: completed,
            series,
            bugs,
            valuable_seeds: engine.seeds.len(),
            corpus_size: engine.schedule.corpus_size(),
            responses,
            protocol_errors,
            fault_hits,
            wall_time: started.elapsed(),
        };
        Ok((report, out_snapshot))
    }
}

/// Runs `repetitions` campaigns with different RNG seeds and returns the
/// point-wise averaged coverage series plus every report — the "average of
/// 10 repetitions" protocol of the paper's evaluation.
#[must_use]
pub fn run_repetitions(
    make_target: impl Fn() -> Box<dyn Target>,
    config: CampaignConfig,
    repetitions: u64,
) -> (CoverageSeries, Vec<CampaignReport>) {
    let mut reports = Vec::with_capacity(repetitions as usize);
    for repetition in 0..repetitions {
        let run_config = config.rng_seed(config.rng_seed + repetition);
        reports.push(Campaign::new(make_target(), run_config).run());
    }
    let series: Vec<CoverageSeries> = reports.iter().map(|r| r.series.clone()).collect();
    (CoverageSeries::average(&series), reports)
}

/// Like [`run_repetitions`], but Peach\* repetitions share their puzzle
/// discoveries: each repetition starts from the merged corpus of every
/// earlier one (via [`PuzzleCorpus::merge`]), the corpus-side counterpart of
/// pooling coverage with `CoverageMap::absorb`. Later repetitions therefore
/// begin with donors the first repetition had to discover, which is the
/// `--shared-corpus` CLI mode.
///
/// The baseline keeps no corpus, so for Peach this is exactly
/// [`run_repetitions`].
#[must_use]
pub fn run_repetitions_shared(
    make_target: impl Fn() -> Box<dyn Target>,
    config: CampaignConfig,
    repetitions: u64,
) -> (CoverageSeries, Vec<CampaignReport>) {
    if config.strategy != StrategyKind::PeachStar {
        return run_repetitions(make_target, config, repetitions);
    }
    let mut shared = PuzzleCorpus::new();
    let mut reports = Vec::with_capacity(repetitions as usize);
    for repetition in 0..repetitions {
        let run_config = config.rng_seed(config.rng_seed + repetition);
        let strategy = Box::new(SemanticAwareStrategy::with_corpus(
            SemanticAwareConfig::default(),
            shared.clone(),
        ));
        let (report, snapshot) = Campaign::with_strategy(make_target(), run_config, strategy)
            .run_plan(RunPlan {
                capture_final: true,
                ..RunPlan::default()
            })
            .expect("a capture-only campaign performs no fallible snapshot operations");
        if let Some(StrategyState::PeachStar { corpus, .. }) =
            snapshot.as_ref().map(|snapshot| &snapshot.schedule.strategy)
        {
            shared.merge(corpus);
        }
        reports.push(report);
    }
    let series: Vec<CoverageSeries> = reports.iter().map(|r| r.series.clone()).collect();
    (CoverageSeries::average(&series), reports)
}

/// Measures how many executions each fuzzer needs to reach the final path
/// count the baseline achieves — the "same code coverage at 1.2X–25X speed"
/// comparison of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedComparison {
    /// Paths the baseline reached with the full budget.
    pub baseline_paths: usize,
    /// Executions the baseline needed to first reach that count.
    pub baseline_executions: u64,
    /// Executions Peach\* needed to reach the same count (`None` when it
    /// never did within the budget).
    pub peachstar_executions: Option<u64>,
}

impl SpeedComparison {
    /// The speed-up factor (baseline executions / Peach\* executions).
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.peachstar_executions
            .map(|execs| self.baseline_executions as f64 / execs.max(1) as f64)
    }
}

/// Runs both fuzzers against fresh instances of the same target and compares
/// how quickly they reach the baseline's final coverage.
#[must_use]
pub fn speed_to_coverage(
    make_target: impl Fn() -> Box<dyn Target>,
    config: CampaignConfig,
) -> SpeedComparison {
    let baseline_report = Campaign::new(
        make_target(),
        CampaignConfig {
            strategy: StrategyKind::Peach,
            ..config
        },
    )
    .run();
    let peachstar_report = Campaign::new(
        make_target(),
        CampaignConfig {
            strategy: StrategyKind::PeachStar,
            ..config
        },
    )
    .run();

    let baseline_paths = baseline_report.final_paths();
    SpeedComparison {
        baseline_paths,
        baseline_executions: baseline_report
            .series
            .executions_to_reach(baseline_paths)
            .unwrap_or(config.executions),
        peachstar_executions: peachstar_report.series.executions_to_reach(baseline_paths),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_protocols::TargetId;

    fn small_config(strategy: StrategyKind) -> CampaignConfig {
        CampaignConfig::new(strategy)
            .executions(3_000)
            .sample_interval(200)
            .rng_seed(3)
    }

    #[test]
    fn campaign_is_reproducible_for_a_fixed_seed() {
        let run = || {
            Campaign::new(TargetId::Modbus.create(), small_config(StrategyKind::PeachStar)).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_paths(), b.final_paths());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.unique_bugs(), b.unique_bugs());
    }

    #[test]
    fn campaign_covers_paths_and_records_series() {
        let report =
            Campaign::new(TargetId::Modbus.create(), small_config(StrategyKind::Peach)).run();
        assert!(report.final_paths() > 5);
        assert!(!report.series.is_empty());
        assert_eq!(report.executions, 3_000);
        assert!(report.responses + report.protocol_errors + report.fault_hits == 3_000);
        assert_eq!(report.corpus_size, 0, "baseline keeps no corpus");
        // Monotone non-decreasing path counts.
        let mut last = 0;
        for point in report.series.points() {
            assert!(point.paths >= last);
            last = point.paths;
        }
    }

    #[test]
    fn peachstar_builds_a_corpus_and_valuable_seeds() {
        let report = Campaign::new(
            TargetId::Iec104.create(),
            small_config(StrategyKind::PeachStar),
        )
        .run();
        assert!(report.valuable_seeds > 0);
        assert!(report.corpus_size > 0);
    }

    #[test]
    fn run_repetitions_averages_series() {
        let (series, reports) = run_repetitions(
            || TargetId::Modbus.create(),
            small_config(StrategyKind::Peach).executions(1_000),
            3,
        );
        assert_eq!(reports.len(), 3);
        assert!(!series.is_empty());
    }

    #[test]
    fn speed_comparison_reports_a_speedup() {
        let comparison = speed_to_coverage(
            || TargetId::Modbus.create(),
            small_config(StrategyKind::Peach).executions(4_000),
        );
        assert!(comparison.baseline_paths > 0);
        assert!(comparison.baseline_executions > 0);
        if let Some(speedup) = comparison.speedup() {
            assert!(speedup > 0.0);
        }
    }

    #[test]
    fn report_measures_wall_time_and_throughput() {
        let report = Campaign::new(
            TargetId::Modbus.create(),
            small_config(StrategyKind::Peach).executions(1_000),
        )
        .run();
        assert!(report.wall_time > Duration::ZERO);
        assert!(report.executions_per_second() > 0.0);
        let text = report.to_string();
        assert!(text.contains("exec/s"));
    }

    #[test]
    fn display_mentions_strategy_and_target() {
        let report =
            Campaign::new(TargetId::Modbus.create(), small_config(StrategyKind::Peach).executions(500)).run();
        let text = report.to_string();
        assert!(text.contains("Peach"));
        assert!(text.contains("libmodbus"));
    }
}
