//! The hang watchdog under [`TargetExecutor`](super::TargetExecutor), whose
//! panic containment lives in [`peachstar_protocols::containment`] (shared
//! with the framed-TCP socket server).
//!
//! [`Watchdog`] runs executions on a dedicated worker thread under a
//! per-execution deadline. A stuck execution is *abandoned* — the reply
//! channel is dropped, the worker thread is left to finish (or sleep
//! forever) detached, and a fresh worker is built from the pristine factory
//! target — and recorded as a [`FaultKind::Hang`] fault. The worker runs
//! one [`contained_step`] per packet, whose records the in-thread
//! executor's windows reproduce, so a supervised campaign in which nothing
//! hangs is bit-identical to an unsupervised one.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use peachstar_coverage::{SparseTrace, TraceContext};
use peachstar_protocols::{Fault, FaultKind, Outcome, Target};

use peachstar_protocols::containment::contained_step;

/// The dedup site recorded when the watchdog abandons a stuck execution.
pub const HANG_SITE: &str = "watchdog: execution exceeded the --exec-timeout-ms deadline";

/// The dedup site recorded when the watchdog cannot keep a worker alive at
/// all (the worker thread died twice in a row without delivering a reply).
pub const WORKER_LOST_SITE: &str = "watchdog: supervised worker lost";

struct Job {
    packet: Vec<u8>,
    reset_before: bool,
}

/// One execution's outcome and trace, as a window records them.
type Reply = (Outcome, SparseTrace);

struct WatchdogWorker {
    jobs: mpsc::Sender<Job>,
    replies: mpsc::Receiver<Reply>,
}

/// Per-execution deadline enforcement (see the module docs).
///
/// The first worker runs the target the watchdog was given. Owns a
/// pristine *factory* copy of the target (never executed) from which every
/// worker's spare, and every replacement worker after an abandoned hang, is
/// freshly built, so a rebuilt worker is indistinguishable from a
/// restarted target.
pub(crate) struct Watchdog {
    timeout: Duration,
    /// The target of the first worker, until it is spawned.
    first: Option<Box<dyn Target>>,
    factory: Box<dyn Target>,
    worker: Option<WatchdogWorker>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("timeout", &self.timeout)
            .field("target", &self.factory.name())
            .finish()
    }
}

fn spawn_worker(mut target: Box<dyn Target>, spare: Box<dyn Target>) -> WatchdogWorker {
    let (jobs, jobs_rx) = mpsc::channel::<Job>();
    let (replies_tx, replies) = mpsc::channel::<Reply>();
    // The thread is deliberately not joined anywhere: an abandoned worker
    // may be blocked inside a hung `process` call, and the whole point of
    // the watchdog is that the campaign does not wait for it.
    thread::Builder::new()
        .name("peachstar-watchdog".into())
        .spawn(move || {
            let mut ctx = TraceContext::new();
            while let Ok(job) = jobs_rx.recv() {
                if job.reset_before {
                    target.reset();
                }
                let outcome = contained_step(&mut target, spare.as_ref(), &mut ctx, &job.packet);
                let reply = (outcome, ctx.trace().to_sparse());
                if replies_tx.send(reply).is_err() {
                    // The supervisor abandoned us (deadline missed on an
                    // earlier packet) — nothing left to do.
                    return;
                }
            }
        })
        .expect("spawning the watchdog worker thread");
    WatchdogWorker { jobs, replies }
}

impl Watchdog {
    /// Creates a watchdog enforcing `timeout` per execution, whose first
    /// worker runs `target` and whose spares and replacement workers are
    /// fresh copies of `factory`.
    pub(crate) fn new(
        target: Box<dyn Target>,
        factory: Box<dyn Target>,
        timeout: Duration,
    ) -> Self {
        Self {
            timeout,
            first: Some(target),
            factory,
            worker: None,
        }
    }

    /// The enforced per-execution deadline.
    pub(crate) fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Runs one packet on the supervised worker: resets the worker-side
    /// target first when `reset_before` is set, contains panics, and
    /// abandons the execution — recording [`FaultKind::Hang`] with an empty
    /// trace — if no reply arrives within the deadline.
    pub(crate) fn execute(&mut self, reset_before: bool, packet: &[u8]) -> Reply {
        // Two attempts: a dead worker (disconnected channel) is replaced
        // once; failing again means worker threads cannot be sustained.
        for _ in 0..2 {
            let worker = match &self.worker {
                Some(worker) => worker,
                None => {
                    let target = self
                        .first
                        .take()
                        .unwrap_or_else(|| self.factory.clone_fresh());
                    self.worker
                        .insert(spawn_worker(target, self.factory.clone_fresh()))
                }
            };
            let job = Job {
                packet: packet.to_vec(),
                reset_before,
            };
            if worker.jobs.send(job).is_err() {
                self.worker = None;
                continue;
            }
            match worker.replies.recv_timeout(self.timeout) {
                Ok(reply) => return reply,
                Err(RecvTimeoutError::Timeout) => {
                    // Abandon the stuck execution: dropping the channel ends
                    // lets the worker exit whenever (if ever) it comes back.
                    self.worker = None;
                    return (
                        Outcome::Fault(Fault::new(FaultKind::Hang, HANG_SITE)),
                        SparseTrace::new(),
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.worker = None;
                }
            }
        }
        (
            Outcome::Fault(Fault::new(FaultKind::Hang, WORKER_LOST_SITE)),
            SparseTrace::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
    use peachstar_protocols::TargetId;

    #[test]
    fn watchdog_passes_through_fast_executions() {
        let mut watchdog = Watchdog::new(
            TargetId::Modbus.create_send(),
            TargetId::Modbus.create_send(),
            Duration::from_secs(5),
        );
        let request = [0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
        let (outcome, trace) = watchdog.execute(false, &request);
        assert_eq!(outcome, Outcome::Response);
        assert!(!trace.hits().is_empty(), "supervised executions still record coverage");
    }

    #[test]
    fn watchdog_abandons_hangs_and_recovers() {
        let chaos = ChaosConfig::new(0).panic_every(0).hang_every(1).hang_ms(2_000);
        let hanging = || Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut watchdog = Watchdog::new(hanging(), hanging(), Duration::from_millis(25));
        let started = std::time::Instant::now();
        let (outcome, trace) = watchdog.execute(true, &[0x01, 0x02]);
        assert!(
            started.elapsed() < Duration::from_millis(1_500),
            "the deadline, not the hang, bounds the wall time"
        );
        let hang = Outcome::Fault(Fault::new(FaultKind::Hang, HANG_SITE));
        assert_eq!(outcome, hang);
        assert!(trace.hits().is_empty(), "an abandoned execution has no trace");
        // The rebuilt worker keeps serving — with hang_every(1) it hangs
        // again, proving replacement workers are armed too.
        let (outcome, _) = watchdog.execute(false, &[0x03]);
        assert_eq!(outcome, hang);
    }

    #[test]
    fn watchdog_contains_worker_panics() {
        let chaos = ChaosConfig::new(0).panic_every(1).sites(2);
        let panicking = || Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut watchdog = Watchdog::new(panicking(), panicking(), Duration::from_secs(5));
        let (outcome, _) = watchdog.execute(true, &[0x01, 0x02, 0x03]);
        let Outcome::Fault(fault) = outcome else {
            panic!("an injected panic becomes a fault, got {outcome:?}");
        };
        assert_eq!(fault.kind, FaultKind::Panic);
        assert!(fault.site.starts_with("chaos: injected panic #"), "{}", fault.site);
        // The worker survives its own contained panic.
        let (outcome, _) = watchdog.execute(false, &[0x04]);
        assert!(
            matches!(outcome, Outcome::Fault(fault) if fault.kind == FaultKind::Panic),
            "{outcome:?}"
        );
    }
}
