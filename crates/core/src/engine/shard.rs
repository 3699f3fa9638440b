//! The worker topology ([`Topology::Workers`]): N workers execute disjoint,
//! reset-aligned slices of one campaign in parallel, syncing through a
//! deterministic merge barrier.
//!
//! # How the work is split
//!
//! The campaign resets its target every `reset_interval` executions, so the
//! execution sequence decomposes into *windows* — maximal runs that start
//! from the just-started target state. Windows are independent of each
//! other on the target side (each begins with a reset), which makes them
//! the natural unit of parallelism. Every round of the campaign's round
//! loop runs [`sync_windows`](ShardConfig::sync_windows) windows in three
//! phases:
//!
//! 1. **Generate** (sequential): the strategy fills one packet arena per
//!    window of the round, in global execution order, consuming the
//!    campaign RNG exactly as the inline topology would.
//! 2. **Execute** (parallel): `workers` threads pull windows from a queue
//!    and run them through their own [`TargetExecutor`] (over their own
//!    [`Target::clone_fresh`] copy), the same fault-tolerant path the
//!    inline topology takes, buffering each execution's [`OutcomeSummary`]
//!    and [`SparseTrace`] snapshot.
//! 3. **Reduce** (sequential, the merge barrier): window results are merged
//!    back in global execution order through
//!    [`Engine::reduce`](crate::engine::Engine::reduce), the same reduce the
//!    inline topology uses.
//!
//! Under [`TransportMode::FramedTcp`] every worker's target is its own live
//! connection to the spawned socket server, so the worker count is the
//! connection count; a connection that exhausts its reconnect budget
//! retires its worker and its windows degrade onto the survivors.
//!
//! # Determinism
//!
//! The worker count only decides *who* executes a window, never *what* is
//! executed or in which order results merge, so the final report is
//! bit-identical for any `workers >= 1` — and any connection count (see
//! `tests/shard_determinism.rs` and `tests/transport_equivalence.rs`).
//!
//! For the feedback-free Peach baseline the worker report is additionally
//! bit-identical to the inline [`Campaign`](crate::campaign::Campaign): the
//! packet stream depends only on the RNG, and windows replay the exact
//! target states of the inline topology. The Peach\* strategy receives its
//! feedback at the barrier instead of after every packet (valuable seeds
//! crack into puzzles one round later), so its packet stream is
//! deterministic but intentionally not identical to the unbatched inline
//! one.
//!
//! [`Topology::Workers`]: crate::campaign::Topology::Workers
//! [`TransportMode::FramedTcp`]: crate::campaign::TransportMode::FramedTcp

use std::collections::VecDeque;
use std::sync::Mutex;

use rand::rngs::SmallRng;

use peachstar_coverage::SparseTrace;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::containment::contained;
use peachstar_protocols::{FaultKind, Target, WindowResults};

use crate::campaign::CampaignConfig;
use crate::engine::batch::PacketArena;
use crate::engine::transport::is_connection_loss;
use crate::engine::{Engine, OutcomeSummary, ResetPolicy, TargetExecutor};

/// The terminal failure when every connection of a framed-TCP campaign has
/// exhausted its reconnect budget while windows remain unexecuted. Stable
/// (no counts, no addresses) so operators and tests can match it.
const ALL_CONNECTIONS_LOST: &str =
    "connection campaign: every connection exhausted its reconnect budget";

/// How a worker-topology campaign spreads its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads executing windows in parallel (live connections under
    /// framed TCP). Does not influence the campaign result — only how fast
    /// it is produced.
    pub workers: usize,
    /// Windows generated (and merged) per round — the distance between two
    /// merge barriers, in windows. Part of the campaign semantics for
    /// feedback-driven strategies: Peach\* digests valuable seeds at the
    /// barrier, so a different `sync_windows` is a different campaign.
    pub sync_windows: usize,
}

impl ShardConfig {
    /// Default number of windows between merge barriers.
    pub const DEFAULT_SYNC_WINDOWS: usize = 8;

    /// Configuration for `workers` parallel workers with the default
    /// barrier distance.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            sync_windows: Self::DEFAULT_SYNC_WINDOWS,
        }
    }

    /// Sets the number of windows between merge barriers.
    #[must_use]
    pub fn sync_windows(mut self, windows: usize) -> Self {
        self.sync_windows = windows.max(1);
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::with_workers(1)
    }
}

/// One window of a round: its packets travel to a worker, and come back to
/// the merge barrier with one `(summary, snapshot)` per packet, in
/// execution order.
struct Window {
    start: u64,
    arena: PacketArena,
    results: Vec<(OutcomeSummary, SparseTrace)>,
}

/// One worker, across the rounds of a campaign.
enum ShardWorker {
    /// Not started yet: the target its executor will run. The executor is
    /// built on the worker's own thread when the worker first runs, so its
    /// trace buffers are allocated there, and a campaign that runs no round
    /// never builds it.
    Idle(Box<dyn Target>),
    /// The executor the worker runs its windows through, which owns the
    /// worker's target, the spare it is rebuilt from after a contained panic
    /// and, with `--exec-timeout-ms`, the hang watchdog.
    Ready(TargetExecutor),
    /// Retired because its connection exhausted its reconnect budget
    /// (framed-TCP transport): its windows degrade onto the survivors.
    Dead,
}

/// Whether a recorded outcome is an exhausted reconnect budget, contained
/// by the executor like any other panic.
fn lost_connection(summary: &OutcomeSummary) -> bool {
    matches!(summary, OutcomeSummary::Fault(fault)
        if fault.kind == FaultKind::Panic && is_connection_loss(fault.site))
}

/// Runs one window through the worker's executor, one
/// [`TargetExecutor::execute_window`] call per `chunk` packets of its
/// arena — the worker face of the `--batch` knob. Chunks of one window
/// share the worker's target back to back, so the chunk size never changes
/// the report.
///
/// The window starts from exactly one reset: the executor's policy resets
/// before every window but the campaign's first, which gets an explicit
/// one, so a requeued window runs from the just-started state even on a
/// target that already ran other windows. Everything else is the inline
/// topology's path: a panic inside a chunk is recorded as a fault, the
/// target is rebuilt and the chunk finishes packet by packet, so a window
/// always completes in place.
///
/// `false` means the worker's connection exhausted its reconnect budget on
/// the unsupervised path: the caller requeues the window, whose partial
/// results the next run discards. Under a watchdog every execution is
/// contained per packet, so there a lost connection stays a recorded fault.
fn run_window(
    executor: &mut TargetExecutor,
    chunk: usize,
    window: &mut Window,
    scratch: &mut WindowResults,
) -> bool {
    let degradable = executor.deadline().is_none();
    window.results.clear();
    let attempt = contained(|| {
        if !executor.policy().resets_before(window.start) {
            executor.reset_before_next();
        }
        let len = window.arena.packets.len();
        for first in (0..len).step_by(chunk) {
            let end = len.min(first.saturating_add(chunk));
            let execution = window.start + first as u64;
            window
                .arena
                .execute(executor, execution, first..end, scratch);
            if degradable && scratch.iter().any(|(summary, _)| lost_connection(summary)) {
                return false;
            }
            window.results.extend(scratch.drain());
        }
        true
    });
    // Outside a contained `process`, a lost connection surfaces as an
    // uncontained panic: in the window-start reset or in a rebuild.
    match attempt {
        Ok(completed) => completed,
        Err(message) if degradable && is_connection_loss(&message) => false,
        Err(message) => panic!("{message}"),
    }
}

/// Worker loop: pull windows off the queue, run them, push the results.
fn shard_worker(
    worker: &mut ShardWorker,
    (config, policy, chunk): (&CampaignConfig, ResetPolicy, usize),
    queue: &Mutex<VecDeque<Window>>,
    done: &Mutex<Vec<Window>>,
) {
    let mut executor = match std::mem::replace(worker, ShardWorker::Dead) {
        ShardWorker::Idle(target) => config.executor(target, policy),
        ShardWorker::Ready(executor) => executor,
        ShardWorker::Dead => return,
    };
    let mut scratch = WindowResults::new();
    loop {
        // `let … else` drops the queue guard before the window runs.
        let Some(mut window) = queue.lock().expect("window queue poisoned").pop_front() else {
            break;
        };
        if !run_window(&mut executor, chunk, &mut window, &mut scratch) {
            // The packets are intact, and every window starts from a reset,
            // so any surviving connection can run it from scratch: put it
            // back at the head of the queue and leave this worker retired.
            queue
                .lock()
                .expect("window queue poisoned")
                .push_front(window);
            return;
        }
        done.lock().expect("window results poisoned").push(window);
    }
    *worker = ShardWorker::Ready(executor);
}

/// The worker topology's executor: one [`ShardWorker`] per worker, and
/// what each needs to build its [`TargetExecutor`].
pub(crate) struct WorkerPool {
    workers: Vec<ShardWorker>,
    config: CampaignConfig,
    policy: ResetPolicy,
    /// The per-worker dispatch granularity: `--batch N` caps each
    /// `execute_window` call at N packets; without it a whole window goes
    /// into one call. Never affects the report — only how often a worker
    /// crosses the target seam.
    chunk: usize,
}

impl WorkerPool {
    /// `workers` (at least 1) workers under `policy`, with the dispatch
    /// chunk and watchdog deadline `config` asks for. The first worker runs
    /// `target` itself and the others fresh clones of it, so a framed-TCP
    /// campaign opens no connection it does not execute on (besides each
    /// executor's spare).
    pub(crate) fn new(
        target: Box<dyn Target>,
        policy: ResetPolicy,
        workers: usize,
        config: &CampaignConfig,
    ) -> Self {
        let clones: Vec<Box<dyn Target>> = (1..workers.max(1))
            .map(|_| target.clone_fresh() as Box<dyn Target>)
            .collect();
        let workers = std::iter::once(target)
            .chain(clones)
            .map(ShardWorker::Idle)
            .collect();
        let chunk = config.batch.map_or(usize::MAX, |batch| {
            usize::try_from(batch.max(1)).unwrap_or(usize::MAX)
        });
        Self {
            workers,
            config: *config,
            policy,
            chunk,
        }
    }

    /// One round of the worker topology: generate → execute on the workers
    /// → reduce at the merge barrier.
    pub(crate) fn run_round(
        &mut self,
        engine: &mut Engine,
        round: &[(u64, u64)],
        models: &DataModelSet,
        rng: &mut SmallRng,
    ) {
        // Phase 1 — generate: replay the strategy sequentially, in global
        // execution order, into one fresh arena per window. (The arenas
        // die with the round: pooled across rounds, every slot would keep
        // the largest packet it ever held.)
        let work: VecDeque<Window> = round
            .iter()
            .map(|&(start, end)| {
                let mut arena = PacketArena::default();
                let count = usize::try_from(end - start + 1).expect("window fits usize");
                arena.fill(&mut engine.schedule, models, rng, count);
                Window {
                    start,
                    arena,
                    results: Vec::with_capacity(count),
                }
            })
            .collect();

        // Phase 2 — execute on the workers, in parallel.
        let mut windows = self.execute(work);

        // Phase 3 — reduce (the merge barrier): fold every window back in
        // global execution order through `Engine::reduce`.
        windows.sort_by_key(|window| window.start);
        for window in &windows {
            let executed = window.arena.packets.iter().zip(&window.results);
            for (offset, (packet, (outcome, trace))) in executed.enumerate() {
                let execution = window.start + offset as u64;
                engine.reduce(execution, packet, *outcome, trace, models);
            }
        }
    }

    /// Workers drain the window queue in parallel. Which worker runs which
    /// window is scheduling noise; the caller re-orders the buffered results.
    /// A worker whose connection exhausts its reconnect budget requeues its
    /// window and retires; the loop re-enters the scope so surviving workers
    /// drain whatever the casualties left behind (normally the survivors
    /// pick the window up within the first scope already). The campaign
    /// fails only when no live connection remains and windows are still
    /// queued.
    fn execute(&mut self, work: VecDeque<Window>) -> Vec<Window> {
        let done: Mutex<Vec<Window>> = Mutex::new(Vec::with_capacity(work.len()));
        let queue = Mutex::new(work);
        let setup = (&self.config, self.policy, self.chunk);
        let (queue_ref, done_ref) = (&queue, &done);
        loop {
            std::thread::scope(|scope| {
                for worker in &mut self.workers {
                    scope.spawn(move || shard_worker(worker, setup, queue_ref, done_ref));
                }
            });
            if queue.lock().expect("window queue poisoned").is_empty() {
                break;
            }
            assert!(
                self.workers
                    .iter()
                    .any(|worker| !matches!(worker, ShardWorker::Dead)),
                "{ALL_CONNECTIONS_LOST}"
            );
        }
        done.into_inner().expect("window results poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignReport, ShardedCampaign, TransportMode};
    use crate::strategy::StrategyKind;
    use peachstar_protocols::TargetId;

    fn run_on_workers(
        target: Box<dyn Target>,
        config: CampaignConfig,
        workers: usize,
    ) -> CampaignReport {
        ShardedCampaign::new(target, config, ShardConfig::with_workers(workers)).run()
    }

    #[test]
    fn worker_chunk_size_never_changes_the_report() {
        // The per-worker dispatch granularity (`--batch` under `--shards`)
        // must be invisible in the result: chunks of one window run back to
        // back on the same worker target, so any chunking is equivalent to
        // the historic per-packet loop.
        let run = |batch: Option<u64>| {
            let config = CampaignConfig {
                batch,
                ..CampaignConfig::new(crate::strategy::StrategyKind::PeachStar)
                    .executions(1_000)
                    .rng_seed(7)
                    .sample_interval(100)
                    .reset_interval(250)
            };
            let report = run_on_workers(TargetId::Iec104.create(), config, 2);
            (
                report.final_paths(),
                report.responses,
                report.valuable_seeds,
                report.corpus_size,
            )
        };
        let whole_window = run(None);
        for batch in [1, 16, 250, 10_000] {
            assert_eq!(run(Some(batch)), whole_window, "chunk {batch} diverged");
        }
    }

    #[test]
    fn sharded_session_campaign_produces_a_complete_report() {
        let config = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(1_000)
            .rng_seed(3)
            .sample_interval(100)
            .sessions(crate::engine::SessionConfig::new(6));
        let report = run_on_workers(TargetId::Iec104.create(), config, 2);
        assert_eq!(report.executions, 1_000);
        assert_eq!(
            report.responses + report.protocol_errors + report.fault_hits,
            1_000
        );
        assert!(report.final_paths() > 0);
    }

    #[test]
    fn sharded_campaign_produces_a_complete_report() {
        let config = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(1_500)
            .rng_seed(9)
            .sample_interval(100)
            .reset_interval(200);
        let report = run_on_workers(TargetId::Iec104.create(), config, 3);
        assert_eq!(report.executions, 1_500);
        assert_eq!(
            report.responses + report.protocol_errors + report.fault_hits,
            1_500
        );
        assert!(report.final_paths() > 0);
        assert!(report.valuable_seeds > 0);
        assert!(report.corpus_size > 0, "feedback reaches the strategy");
        assert!(!report.series.is_empty());
    }

    #[test]
    fn chaos_panics_are_worker_count_invariant() {
        // Injected panics are recovered in place by each worker's executor.
        // Injection is content-keyed, so the recovered report must not
        // depend on who executed the window.
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        let run = |workers: usize| {
            let chaos = ChaosConfig::new(11).panic_every(23).hang_every(0).garbage_every(0);
            let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
            let config = CampaignConfig::new(StrategyKind::Peach)
                .executions(600)
                .rng_seed(5)
                .sample_interval(100)
                .reset_interval(150);
            let report = run_on_workers(target, config, workers);
            assert_eq!(report.executions, 600, "chaos must not shorten the budget");
            (
                report.final_paths(),
                report.responses,
                report.fault_hits,
                report
                    .bugs
                    .iter()
                    .map(|bug| (bug.fault.kind, bug.fault.site, bug.first_execution))
                    .collect::<Vec<_>>(),
            )
        };
        let single = run(1);
        assert!(single.2 > 0, "the chaos rates must actually inject panics");
        for workers in [2, 3] {
            assert_eq!(run(workers), single, "{workers} workers diverged");
        }
    }

    #[test]
    fn supervised_sharded_campaign_matches_the_unsupervised_one() {
        // Arming the watchdog must not change the report when nothing hangs.
        let config = CampaignConfig::new(StrategyKind::Peach)
            .executions(400)
            .rng_seed(9)
            .sample_interval(100)
            .reset_interval(100);
        let plain = run_on_workers(TargetId::Iec104.create(), config, 2);
        let supervised = run_on_workers(
            TargetId::Iec104.create(),
            config.exec_timeout_ms(10_000),
            2,
        );
        assert_eq!(plain.final_paths(), supervised.final_paths());
        assert_eq!(plain.responses, supervised.responses);
        assert_eq!(plain.protocol_errors, supervised.protocol_errors);
        assert_eq!(plain.fault_hits, supervised.fault_hits);
        assert_eq!(plain.bugs, supervised.bugs);
    }

    #[test]
    fn connection_campaign_runs_over_live_sockets() {
        let config = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(1_500)
            .sample_interval(150)
            .reset_interval(250)
            .transport(TransportMode::FramedTcp);
        let report = run_on_workers(TargetId::Modbus.create(), config, 2);
        assert_eq!(report.executions, 1_500);
        assert!(report.final_paths() > 0, "coverage flows back over the wire");
    }

    /// Modbus, counting every reset of every clone into one shared counter.
    struct CountingResets {
        inner: Box<dyn Target + Send>,
        resets: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Target for CountingResets {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn data_models(&self) -> DataModelSet {
            self.inner.data_models()
        }

        fn process(
            &mut self,
            packet: &[u8],
            ctx: &mut peachstar_coverage::TraceContext,
        ) -> peachstar_protocols::Outcome {
            self.inner.process(packet, ctx)
        }

        fn reset(&mut self) {
            self.resets
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.reset();
        }

        fn clone_fresh(&self) -> Box<dyn Target + Send> {
            Box::new(Self {
                inner: self.inner.clone_fresh(),
                resets: std::sync::Arc::clone(&self.resets),
            })
        }
    }

    #[test]
    fn every_worker_window_starts_from_exactly_one_reset() {
        // The interval policy resets before every window but the first, and
        // after every fault; a worker adds exactly one reset to that, at the
        // start of the first window, whatever the worker count or chunking.
        let resets = |workers: Option<usize>, batch: Option<u64>| {
            let resets = std::sync::Arc::default();
            let target = Box::new(CountingResets {
                inner: TargetId::Modbus.create_send(),
                resets: std::sync::Arc::clone(&resets),
            });
            let config = CampaignConfig {
                batch,
                ..CampaignConfig::new(StrategyKind::Peach)
                    .executions(1_000)
                    .reset_interval(250)
            };
            match workers {
                Some(workers) => drop(run_on_workers(target, config, workers)),
                None => drop(crate::campaign::Campaign::new(target, config).run()),
            }
            resets.load(std::sync::atomic::Ordering::SeqCst)
        };
        let inline = resets(None, None);
        for (workers, batch) in [(1, None), (2, None), (2, Some(40))] {
            assert_eq!(
                resets(Some(workers), batch),
                inline + 1,
                "{workers} workers, batch {batch:?}"
            );
        }
    }

    #[test]
    fn shard_config_defaults() {
        let config = ShardConfig::default();
        assert_eq!(config.workers, 1);
        assert_eq!(config.sync_windows, ShardConfig::DEFAULT_SYNC_WINDOWS);
        assert_eq!(ShardConfig::with_workers(0).workers, 1);
        assert_eq!(ShardConfig::with_workers(4).sync_windows(0).sync_windows, 1);
    }
}
