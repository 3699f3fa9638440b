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
//! 1. **Generate** (sequential): the strategy produces the packets of the
//!    round's windows in global execution order, consuming the campaign RNG
//!    exactly as the inline loop would.
//! 2. **Execute** (parallel): `workers` threads pull windows from a queue
//!    and run them against their own [`Target::clone_fresh`] copies,
//!    buffering each execution's [`OutcomeSummary`] and
//!    [`peachstar_coverage::SparseTrace`] snapshot.
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
//! target states of the inline loop. The Peach\* strategy receives its
//! feedback at the barrier instead of per-execution (valuable seeds crack
//! into puzzles one round later), so its packet stream is deterministic but
//! intentionally not identical to the per-execution one.
//!
//! [`Topology::Workers`]: crate::campaign::Topology::Workers
//! [`TransportMode::FramedTcp`]: crate::campaign::TransportMode::FramedTcp

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::SmallRng;

use peachstar_coverage::{SparseTrace, TraceContext};
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{DecodeSink, Target, WindowResults};

use crate::campaign::{CampaignConfig, CampaignEngine};
use crate::engine::supervisor::{contained, Watchdog};
use crate::engine::transport::is_connection_loss;
use crate::engine::{Executor, Feedback, Observer, OutcomeSummary, Schedule, TargetExecutor};
use crate::strategy::GeneratedPacket;

/// How many times the merge barrier re-attempts a failed window before
/// giving up. The re-execution path contains panics per packet (and
/// supervises hangs when a deadline is set), so a single attempt normally
/// succeeds; the bound defends against targets whose `clone_fresh`/`reset`
/// themselves misbehave.
const WINDOW_RETRIES: usize = 3;

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

/// One window's packets, headed to a worker.
struct WindowWork {
    start: u64,
    packets: Vec<GeneratedPacket>,
}

/// One execution's buffered result, headed back to the merge barrier.
struct ExecRecord {
    packet: GeneratedPacket,
    outcome: OutcomeSummary,
    trace: SparseTrace,
}

/// One window's results, in execution order — or, for a window whose worker
/// failed mid-flight, the intact packet list the merge barrier re-executes.
struct WindowResult {
    start: u64,
    records: Vec<ExecRecord>,
    /// `true` when the worker panicked (or otherwise died) mid-window: the
    /// partial results were discarded and `packets` holds the full window
    /// for barrier-side re-execution on a fresh target.
    failed: bool,
    packets: Vec<GeneratedPacket>,
}

/// One shard worker's execution state: the active target, a pristine spare
/// it is rebuilt from after a contained panic, and — when a per-execution
/// deadline is armed — the [`Watchdog`] that supervises every execution.
struct ShardWorker {
    target: Box<dyn Target + Send>,
    spare: Box<dyn Target + Send>,
    watchdog: Option<Watchdog>,
    /// Set when the worker's connection exhausted its reconnect budget
    /// (framed-TCP transport): the worker is retired for the rest of the
    /// campaign and its windows degrade onto the survivors.
    dead: bool,
}

/// What a worker hands back for one window.
enum WindowOutcome {
    /// The window executed (or failed over to the barrier's re-execution
    /// path with its packets intact).
    Done(WindowResult),
    /// The worker's connection died mid-window with its reconnect budget
    /// exhausted: the window is returned untouched — every window starts
    /// from a reset, so any surviving connection can run it from scratch —
    /// and the worker retires.
    ConnectionLost(WindowWork),
}

/// The fast (unsupervised) window path: chunked [`Target::process_batch`]
/// calls under window-level panic containment.
///
/// `chunk` caps how many packets go into one `process_batch` call — the
/// sharded face of the `--batch` knob. It is pure dispatch granularity:
/// results are buffered to the merge barrier either way, so the chunk size
/// provably never changes the report (chunks of one window share the
/// worker's target state back to back, exactly like the old per-packet
/// loop).
///
/// A panic escaping the target poisons both the worker's target state and
/// the chunk's partial results, so the whole window is declared failed: the
/// target is rebuilt from the pristine spare, the full packet list is
/// reassembled (earlier chunks' records surrender their packets back) and
/// shipped to the merge barrier, which re-executes the window on the
/// fault-tolerant per-packet path. Because the same packets panic no matter
/// who executes them, failure detection — like everything else here — is
/// worker-count-invariant.
fn execute_window_fast(
    target: &mut Box<dyn Target + Send>,
    spare: &dyn Target,
    chunk: usize,
    work: WindowWork,
    ctx: &mut TraceContext,
    results: &mut WindowResults,
) -> WindowOutcome {
    // Every window begins from the just-started target state: the
    // sequential campaign either created the target right before the
    // first window or reset it at the window boundary, and `reset` is
    // documented to restore exactly that state. Over framed TCP the reset
    // is a wire exchange, so it is where an exhausted reconnect budget can
    // first surface — with the window still untouched.
    if let Err(message) = contained(|| target.reset()) {
        if is_connection_loss(&message) {
            return WindowOutcome::ConnectionLost(work);
        }
        panic!("{message}");
    }
    let start = work.start;
    let mut remaining = work.packets;
    let mut records: Vec<ExecRecord> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut rest = remaining.split_off(remaining.len().min(chunk.max(1)));
        // One virtual dispatch per chunk instead of one per packet — the
        // same amortisation, protocol overrides and summary decoding the
        // batched inline engine gets.
        let attempt = contained(|| {
            let refs: Vec<&[u8]> = remaining.iter().map(|p| p.bytes.as_slice()).collect();
            target.process_batch(&refs, ctx, results, DecodeSink::Summary);
        });
        if let Err(message) = attempt {
            // Reassemble the intact packet list: both the failed and the
            // connection-lost path ship whole windows onward.
            let mut packets: Vec<GeneratedPacket> =
                records.into_iter().map(|record| record.packet).collect();
            packets.append(&mut remaining);
            packets.append(&mut rest);
            if is_connection_loss(&message) {
                return WindowOutcome::ConnectionLost(WindowWork { start, packets });
            }
            // A target panic: rebuild from the pristine spare and declare
            // the window failed so the merge barrier re-executes it. The
            // rebuild itself reconnects over framed TCP, so it too can
            // exhaust the budget.
            match contained(|| spare.clone_fresh()) {
                Ok(fresh) => *target = fresh,
                Err(rebuild) if is_connection_loss(&rebuild) => {
                    return WindowOutcome::ConnectionLost(WindowWork { start, packets });
                }
                Err(rebuild) => panic!("{rebuild}"),
            }
            return WindowOutcome::Done(WindowResult {
                start,
                records: Vec::new(),
                failed: true,
                packets,
            });
        }
        // Draining moves the snapshots straight into the records headed for
        // the merge barrier.
        records.extend(remaining.drain(..).zip(results.drain()).map(
            |(packet, (outcome, trace))| ExecRecord {
                packet,
                outcome,
                trace,
            },
        ));
        remaining = rest;
    }
    WindowOutcome::Done(WindowResult {
        start,
        records,
        failed: false,
        packets: Vec::new(),
    })
}

/// The supervised window path, used when `--exec-timeout-ms` arms a
/// deadline: every execution runs on the worker's [`Watchdog`], which
/// contains panics and abandons hangs per packet, so the window always
/// completes in bounded time and is never declared failed.
fn execute_window_supervised(watchdog: &mut Watchdog, work: WindowWork) -> WindowResult {
    let mut records = Vec::with_capacity(work.packets.len());
    for (offset, packet) in work.packets.into_iter().enumerate() {
        // `reset_before` on the first packet is the window-start reset of
        // the fast path, applied to the supervised worker's target.
        let (outcome, trace) = watchdog.execute(offset == 0, &packet.bytes);
        records.push(ExecRecord {
            outcome: OutcomeSummary::from(&outcome),
            trace,
            packet,
        });
    }
    WindowResult {
        start: work.start,
        records,
        failed: false,
        packets: Vec::new(),
    }
}

/// Worker loop: pull windows off the queue, execute them (fast or
/// supervised path), push buffered results.
fn shard_worker(
    worker: &mut ShardWorker,
    chunk: usize,
    queue: &Mutex<VecDeque<WindowWork>>,
    done: &Mutex<Vec<WindowResult>>,
) {
    let mut ctx = TraceContext::new();
    let mut results = WindowResults::new();
    let ShardWorker {
        target,
        spare,
        watchdog,
        dead,
    } = worker;
    loop {
        let Some(work) = queue.lock().expect("window queue poisoned").pop_front() else {
            return;
        };
        let outcome = match watchdog {
            // Under a watchdog every execution is contained per packet, so a
            // connection loss surfaces as a recorded fault, never as worker
            // death — degradation is a fast-path concern.
            Some(watchdog) => WindowOutcome::Done(execute_window_supervised(watchdog, work)),
            None => {
                execute_window_fast(target, spare.as_ref(), chunk, work, &mut ctx, &mut results)
            }
        };
        match outcome {
            WindowOutcome::Done(result) => {
                done.lock().expect("window results poisoned").push(result);
            }
            WindowOutcome::ConnectionLost(work) => {
                // The window is intact; put it back at the head of the
                // queue for a surviving connection and retire this worker.
                queue.lock().expect("window queue poisoned").push_front(work);
                *dead = true;
                return;
            }
        }
    }
}

/// Barrier-side recovery: re-executes a failed window's packets on a fresh
/// target through the fault-tolerant per-packet path — panic containment,
/// post-fault resets, and the hang watchdog when a deadline is armed —
/// which is exactly what a sequential fault-tolerant campaign does for the
/// same window, so recovered results keep worker-count invariance.
fn reexecute_failed_window(
    pristine: &dyn Target,
    exec_timeout: Option<Duration>,
    packets: &[GeneratedPacket],
) -> Vec<ExecRecord> {
    for _ in 0..WINDOW_RETRIES {
        let attempt = contained(|| {
            let mut executor = TargetExecutor::new(pristine.clone_fresh(), 0);
            if let Some(timeout) = exec_timeout {
                executor = executor.with_deadline(timeout);
            }
            packets
                .iter()
                .enumerate()
                .map(|(offset, packet)| {
                    let (outcome, trace) = executor.execute(offset as u64 + 1, &packet.bytes);
                    ExecRecord {
                        outcome: OutcomeSummary::from(&outcome),
                        trace: trace.to_sparse(),
                        packet: packet.clone(),
                    }
                })
                .collect::<Vec<ExecRecord>>()
        });
        if let Ok(records) = attempt {
            return records;
        }
    }
    panic!("a sharded window failed {WINDOW_RETRIES} re-execution attempts even under containment");
}

/// The worker topology's executor: the blueprint target every worker
/// target is cloned from (and failed windows are re-executed against), plus
/// one [`ShardWorker`] per worker.
pub(crate) struct WorkerPool {
    blueprint: Box<dyn Target>,
    workers: Vec<ShardWorker>,
    /// The per-worker dispatch granularity: `--batch N` caps each
    /// `process_batch` call at N packets; without it a whole window goes
    /// into one call. Never affects the report — only how often a worker
    /// crosses the target seam.
    chunk: usize,
    exec_timeout: Option<Duration>,
}

impl WorkerPool {
    /// `workers` (at least 1) workers cloned from `blueprint`, with the
    /// dispatch chunk and watchdog deadline `config` asks for.
    pub(crate) fn new(blueprint: Box<dyn Target>, workers: usize, config: &CampaignConfig) -> Self {
        let exec_timeout = config.exec_timeout.map(Duration::from_millis);
        let workers = (0..workers.max(1))
            .map(|_| ShardWorker {
                target: blueprint.clone_fresh(),
                spare: blueprint.clone_fresh(),
                watchdog: exec_timeout
                    .map(|timeout| Watchdog::new(blueprint.clone_fresh(), timeout)),
                dead: false,
            })
            .collect();
        let chunk = config
            .batch
            .map_or(usize::MAX, |batch| usize::try_from(batch.max(1)).unwrap_or(usize::MAX));
        Self {
            blueprint,
            workers,
            chunk,
            exec_timeout,
        }
    }

    /// One round of the worker topology: generate → execute on the workers
    /// → reduce at the merge barrier.
    pub(crate) fn run_round<S: Schedule>(
        engine: &mut CampaignEngine<Self, S>,
        round: &[(u64, u64)],
        models: &DataModelSet,
        rng: &mut SmallRng,
    ) {
        // Phase 1 — generate: replay the strategy sequentially, in global
        // execution order, exactly as the inline loop would.
        let work: VecDeque<WindowWork> = round
            .iter()
            .map(|&(start, end)| WindowWork {
                start,
                packets: (start..=end)
                    .map(|_| engine.schedule.next_packet(models, rng))
                    .collect(),
            })
            .collect();

        // Phase 2 — execute on the workers, in parallel.
        let mut results = engine.executor.execute(work);

        // Phase 3 — reduce (the merge barrier): fold every window back in
        // global execution order through `Engine::reduce`.
        results.sort_by_key(|window| window.start);
        for window in results {
            // A window whose worker failed mid-flight arrives with its
            // packets intact instead of records; recover it here, on the
            // fault-tolerant per-packet path, before merging.
            let records = if window.failed {
                reexecute_failed_window(
                    engine.executor.blueprint.as_ref(),
                    engine.executor.exec_timeout,
                    &window.packets,
                )
            } else {
                window.records
            };
            for (offset, record) in records.into_iter().enumerate() {
                let execution = window.start + offset as u64;
                let merge = engine.observer.merge_sparse(&record.trace);
                if engine.reduce(execution, &record.packet, record.outcome, &merge, models) {
                    engine.feedback.retain(record.packet, &merge);
                }
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
    fn execute(&mut self, work: VecDeque<WindowWork>) -> Vec<WindowResult> {
        let chunk = self.chunk;
        let done: Mutex<Vec<WindowResult>> = Mutex::new(Vec::with_capacity(work.len()));
        let queue = Mutex::new(work);
        let (queue_ref, done_ref) = (&queue, &done);
        loop {
            std::thread::scope(|scope| {
                for worker in self.workers.iter_mut().filter(|worker| !worker.dead) {
                    scope.spawn(move || shard_worker(worker, chunk, queue_ref, done_ref));
                }
            });
            if queue.lock().expect("window queue poisoned").is_empty() {
                break;
            }
            assert!(
                self.workers.iter().any(|worker| !worker.dead),
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
        // Injected panics fail whole windows over to the merge barrier's
        // re-execution path. Failure detection is content-keyed, so the
        // recovered report must not depend on who executed the window.
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

    #[test]
    fn shard_config_defaults() {
        let config = ShardConfig::default();
        assert_eq!(config.workers, 1);
        assert_eq!(config.sync_windows, ShardConfig::DEFAULT_SYNC_WINDOWS);
        assert_eq!(ShardConfig::with_workers(0).workers, 1);
        assert_eq!(ShardConfig::with_workers(4).sync_windows(0).sync_windows, 1);
    }
}
