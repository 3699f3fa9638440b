//! The [`TargetExecutor`]: who runs a packet, and when the target resets.

use std::time::Duration;

use peachstar_coverage::{TraceContext, TraceMap};
use peachstar_protocols::containment::{contained, contained_step, panic_fault};
use peachstar_protocols::{DecodeSink, Outcome, Target, WindowResults};

use super::supervisor::Watchdog;

/// When the target's session state is wiped back to the just-started
/// condition (in addition to the unconditional restart after a fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetPolicy {
    /// Reset before every execution that is a multiple of the interval
    /// (0 disables periodic resets entirely) — the classic policy of the
    /// paper's harness.
    Interval(u64),
    /// Reset at every *session* boundary: before executions `1`, `1 + len`,
    /// `1 + 2·len`, … so that target state persists across all `len` packets
    /// of a session (handshake, payload, teardown) and never leaks into the
    /// next one. Used together with a session-mode
    /// [`Schedule`](crate::engine::Schedule) whose sessions are `len`
    /// packets long.
    PerSession(u64),
}

impl ResetPolicy {
    /// Whether the target resets before running execution number
    /// `execution` (1-based).
    #[must_use]
    pub fn resets_before(self, execution: u64) -> bool {
        match self {
            ResetPolicy::Interval(0) => false,
            ResetPolicy::Interval(interval) => execution.is_multiple_of(interval),
            ResetPolicy::PerSession(length) => {
                length > 0 && (execution - 1).is_multiple_of(length)
            }
        }
    }

    /// The 1-based execution numbers `1..=budget` this policy resets before
    /// — exactly the window boundaries a sharded campaign must align to.
    ///
    /// Steps arithmetically (one item per boundary), so enumerating the
    /// boundaries of a multi-million-execution campaign costs O(boundaries),
    /// not O(budget).
    pub fn boundaries(self, budget: u64) -> impl Iterator<Item = u64> {
        // (first boundary, stride); `None` for policies that never reset.
        let stride = match self {
            ResetPolicy::Interval(0) | ResetPolicy::PerSession(0) => None,
            ResetPolicy::Interval(interval) => Some((interval, interval)),
            ResetPolicy::PerSession(length) => Some((1, length)),
        };
        stride.into_iter().flat_map(move |(first, step)| {
            (first..=budget).step_by(usize::try_from(step).unwrap_or(usize::MAX))
        })
    }
}

/// Runs packets against a target and owns the *reset policy* — both the
/// periodic session reset and the restart after a fault (the paper's harness
/// restarts the crashed server): one [`Target`] instance, one reused
/// [`TraceContext`] (reset clears only the slots the previous execution
/// dirtied), and a [`ResetPolicy`] deciding when session state is wiped.
///
/// Campaigns never touch the target directly: the inline topology runs
/// every window through one executor, and every worker of the worker
/// topology owns one.
///
/// # Example
///
/// ```
/// use peachstar::engine::TargetExecutor;
/// use peachstar_protocols::TargetId;
///
/// // Reset the Modbus target's session state every 100 executions.
/// let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
/// let request = [0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
/// let (outcome, trace) = executor.execute(1, &request);
/// assert!(outcome.response().is_some());
/// assert!(trace.edges_hit() > 0, "every execution is instrumented");
/// ```
///
/// # Fault tolerance
///
/// The executor treats target misbehaviour as data rather than as a
/// process-fatal event:
///
/// * a `panic!` escaping [`Target::process`]/[`Target::process_batch`] is
///   contained with `catch_unwind` and recorded as a synthetic
///   [`FaultKind::Panic`](peachstar_protocols::FaultKind::Panic) fault whose
///   dedup site is the interned panic message; the poisoned target instance
///   is discarded and rebuilt from a pristine spare (taken via
///   [`Target::clone_fresh`] at construction), and the campaign continues on
///   the same RNG stream;
/// * with [`with_deadline`](TargetExecutor::with_deadline), executions run
///   under a hang watchdog on a supervised worker thread: an execution that
///   exceeds the deadline is abandoned and recorded as a
///   [`FaultKind::Hang`](peachstar_protocols::FaultKind::Hang) fault, and
///   the worker is rebuilt fresh.
///
/// Both layers are transparent for well-behaved executions — outcomes and
/// traces are bit-identical to the uncontained path — which is what keeps
/// the pinned campaign reports byte-stable.
pub struct TargetExecutor {
    target: Box<dyn Target>,
    /// Pristine copy taken at construction, never executed: the rebuild
    /// source after a contained panic (the panicked instance may be left in
    /// an arbitrary state, so `clone_fresh` is taken from this spare, not
    /// from the poisoned target).
    spare: Box<dyn Target>,
    ctx: TraceContext,
    policy: ResetPolicy,
    /// Set by [`reset_before_next`](TargetExecutor::reset_before_next): the
    /// next execution starts from a reset whatever the policy says.
    reset_pending: bool,
    /// Armed by [`with_deadline`](TargetExecutor::with_deadline): executions
    /// are delegated to the supervised worker, and `ctx` re-materialises
    /// the sparse reply traces.
    watchdog: Option<Watchdog>,
}

impl TargetExecutor {
    /// Wraps a target with the given periodic reset interval (0 disables
    /// periodic resets; fault resets always happen). Shorthand for
    /// [`with_policy`](TargetExecutor::with_policy) with
    /// [`ResetPolicy::Interval`].
    #[must_use]
    pub fn new(target: Box<dyn Target>, reset_interval: u64) -> Self {
        Self::with_policy(target, ResetPolicy::Interval(reset_interval))
    }

    /// Wraps a target with an explicit reset policy.
    #[must_use]
    pub fn with_policy(target: Box<dyn Target>, policy: ResetPolicy) -> Self {
        let spare = target.clone_fresh();
        Self {
            target,
            spare,
            ctx: TraceContext::new(),
            policy,
            reset_pending: false,
            watchdog: None,
        }
    }

    /// Arms the hang watchdog: every execution runs on a supervised worker
    /// thread and is abandoned — recorded as a
    /// [`FaultKind::Hang`](peachstar_protocols::FaultKind::Hang) fault with
    /// an empty trace — if it exceeds `timeout`. When nothing hangs, the
    /// supervised stream is bit-identical to the unsupervised one.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(Watchdog::new(self.spare.clone_fresh(), timeout));
        self
    }

    /// The enforced per-execution deadline, when the watchdog is armed.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.watchdog.as_ref().map(Watchdog::timeout)
    }

    /// The wrapped target.
    #[must_use]
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// The reset policy in force.
    #[must_use]
    pub fn policy(&self) -> ResetPolicy {
        self.policy
    }

    /// Makes the next execution start from a reset even where the policy
    /// schedules none: a worker's window must start from the just-started
    /// state even when its target already ran other windows.
    pub(crate) fn reset_before_next(&mut self) {
        self.reset_pending = true;
    }

    /// Whether the next execution, number `execution`, starts from a reset;
    /// consumes a pending [`reset_before_next`](Self::reset_before_next).
    fn take_reset(&mut self, execution: u64) -> bool {
        std::mem::take(&mut self.reset_pending) | self.policy.resets_before(execution)
    }
}

impl std::fmt::Debug for TargetExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetExecutor")
            .field("target", &self.target.name())
            .field("policy", &self.policy)
            .field("deadline", &self.deadline())
            .finish()
    }
}

impl TargetExecutor {
    /// Runs one packet as execution number `execution` (1-based): applies
    /// the reset policy, feeds the packet to the target, restarts the target
    /// after a fault, and returns the outcome together with the execution's
    /// coverage trace.
    pub fn execute(&mut self, execution: u64, packet: &[u8]) -> (Outcome, &TraceMap) {
        let resets = self.take_reset(execution);
        if let Some(watchdog) = &mut self.watchdog {
            // Supervised mode: the worker thread owns the authoritative
            // target and runs the same contained step as the in-thread path
            // below; the reply trace is re-materialised into `ctx` so
            // callers keep seeing a dense `TraceMap`.
            let (outcome, trace) = watchdog.execute(resets, packet);
            self.ctx.load_sparse(&trace);
            return (outcome, self.ctx.trace());
        }
        if resets {
            self.target.reset();
        }
        let outcome = contained_step(&mut self.target, self.spare.as_ref(), &mut self.ctx, packet);
        (outcome, self.ctx.trace())
    }

    /// Runs one *window* of packets — executions `first_execution ..` in
    /// order — in a single call, replacing `out`'s previous contents with
    /// one `(summary, snapshot)` pair per packet: the window crosses into
    /// the target once, through [`Target::process_batch`], instead of once
    /// per execution.
    ///
    /// The per-packet outcomes and traces are identical to calling
    /// [`execute`](Self::execute) for each packet — batched campaigns are
    /// required to be bit-identical to sequential ones.
    pub fn execute_window(
        &mut self,
        first_execution: u64,
        packets: &[&[u8]],
        out: &mut WindowResults,
    ) {
        // A window with a reset boundary strictly inside it cannot be handed
        // to the target wholesale (the target would miss a mid-window
        // reset); fall back to the per-execution path, which applies the
        // policy at every step. Reset-aligned drivers never hit this branch.
        // The supervised (watchdog) path is per-packet by construction: each
        // execution needs its own deadline.
        let interior_reset = (1..packets.len() as u64)
            .any(|offset| self.policy.resets_before(first_execution + offset));
        if interior_reset || self.watchdog.is_some() {
            out.begin();
            for (offset, packet) in packets.iter().enumerate() {
                let (outcome, trace) = self.execute(first_execution + offset as u64, packet);
                out.record(&outcome, trace);
            }
            return;
        }
        // The whole window runs inside one target call: the per-execution
        // policy check collapses to a single window-start check, and the
        // target's `process_batch` owns the packet loop — one virtual
        // dispatch per window instead of one per packet.
        if self.take_reset(first_execution) {
            self.target.reset();
        }
        // Window results keep only outcome summaries and traces, so the
        // decoders skip response assembly and error-string formatting
        // (`DecodeSink::Summary`): same control flow, state and traces.
        if let Err(message) = contained(|| {
            self.target
                .process_batch(packets, &mut self.ctx, out, DecodeSink::Summary)
        }) {
            // The batch panicked while processing packet `out.len()` (every
            // `process_batch` implementation records incrementally): record
            // the synthetic fault with the partial trace of the panicking
            // packet, rebuild the target, and finish the window on the
            // per-execution path — which contains any further panics and is
            // exactly what a sequential run of the same packets would do.
            out.record(&Outcome::Fault(panic_fault(&message)), self.ctx.trace());
            self.target = self.spare.clone_fresh();
            let completed = out.len();
            for (offset, packet) in packets.iter().enumerate().skip(completed) {
                let (outcome, trace) = self.execute(first_execution + offset as u64, packet);
                out.record(&outcome, trace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_protocols::TargetId;

    #[test]
    fn interval_policy_matches_the_historic_reset_cadence() {
        let policy = ResetPolicy::Interval(250);
        let resets: Vec<u64> = policy.boundaries(1_000).collect();
        assert_eq!(resets, vec![250, 500, 750, 1_000]);
        assert!(ResetPolicy::Interval(0).boundaries(100).next().is_none());
    }

    #[test]
    fn per_session_policy_resets_at_session_starts() {
        let policy = ResetPolicy::PerSession(10);
        let resets: Vec<u64> = policy.boundaries(35).collect();
        assert_eq!(resets, vec![1, 11, 21, 31], "executions 1 + k·len");
        assert!(!policy.resets_before(10), "never inside a session");
        assert!(ResetPolicy::PerSession(0).boundaries(100).next().is_none());
    }

    #[test]
    fn boundaries_agree_with_resets_before() {
        // The arithmetic stepping must enumerate exactly the executions the
        // per-execution predicate accepts.
        for policy in [
            ResetPolicy::Interval(0),
            ResetPolicy::Interval(1),
            ResetPolicy::Interval(7),
            ResetPolicy::PerSession(0),
            ResetPolicy::PerSession(1),
            ResetPolicy::PerSession(10),
        ] {
            let stepped: Vec<u64> = policy.boundaries(100).collect();
            let filtered: Vec<u64> =
                (1..=100).filter(|&execution| policy.resets_before(execution)).collect();
            assert_eq!(stepped, filtered, "{policy:?}");
        }
    }

    #[test]
    fn executor_exposes_target_metadata() {
        let executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
        assert_eq!(executor.target().name(), "libmodbus");
        assert!(!executor.target().data_models().is_empty());
        assert_eq!(executor.policy(), ResetPolicy::Interval(100));
    }

    #[test]
    fn execute_window_matches_the_per_execution_path() {
        // Ground truth: the per-execution `execute` loop with its
        // every-step reset-policy check. `execute_window` must match it both
        // on reset-aligned windows (fast path: one `process_batch` call) and
        // on windows with an interior reset boundary (fallback path).
        let request = vec![0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
        let garbage = vec![0xFF, 0x00, 0x01];
        let window: Vec<&[u8]> = vec![&request, &garbage, &request, &request, &garbage];
        for first_execution in [1u64, 3, 6, 7] {
            let mut reference = TargetExecutor::new(TargetId::Modbus.create(), 3);
            let expected: Vec<_> = window
                .iter()
                .enumerate()
                .map(|(offset, packet)| {
                    let (outcome, trace) =
                        reference.execute(first_execution + offset as u64, packet);
                    (
                        peachstar_protocols::OutcomeSummary::from(&outcome),
                        trace.to_sparse(),
                    )
                })
                .collect();

            let mut batched = TargetExecutor::new(TargetId::Modbus.create(), 3);
            let mut results = WindowResults::new();
            batched.execute_window(first_execution, &window, &mut results);
            assert_eq!(results.len(), window.len());
            for (offset, (summary, trace)) in results.iter().enumerate() {
                assert_eq!(*summary, expected[offset].0, "start {first_execution} offset {offset}");
                assert_eq!(*trace, expected[offset].1, "start {first_execution} offset {offset}");
            }
        }
    }

    #[test]
    fn execute_contains_panics_and_continues() {
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        use peachstar_protocols::FaultKind;
        let chaos = ChaosConfig::new(5).panic_every(2).garbage_every(0).sites(2);
        let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut executor = TargetExecutor::new(target, 0);
        let packets: Vec<Vec<u8>> = (0u8..24).map(|i| vec![i, 0x68, i ^ 0x3C]).collect();
        let mut panics = 0;
        for (index, packet) in packets.iter().enumerate() {
            let (outcome, _) = executor.execute(index as u64 + 1, packet);
            if let Some(fault) = outcome.fault() {
                if fault.kind == FaultKind::Panic {
                    panics += 1;
                    assert!(fault.site.starts_with("chaos: injected panic #"));
                }
            }
        }
        assert!(panics > 0, "panic_every=2 must fire in 24 packets");
        // The executor survived every panic and still works.
        let request = [0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
        let (outcome, trace) = executor.execute(100, &request);
        assert!(outcome.fault().is_none_or(|f| f.kind == FaultKind::Panic));
        assert!(trace.edges_hit() > 0 || outcome.is_fault());
    }

    #[test]
    fn contained_windows_match_the_contained_sequential_path() {
        // The batched path under panics must stay bit-identical to the
        // sequential contained path: same synthetic faults at the same
        // offsets, same traces for the surviving packets.
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        let chaos = ChaosConfig::new(11).panic_every(3).garbage_every(5).sites(3);
        let make = || {
            Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos))
                as Box<dyn peachstar_protocols::Target>
        };
        let packets: Vec<Vec<u8>> = (0u8..16).map(|i| vec![i, i ^ 0x77]).collect();
        let window: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();

        let mut reference = TargetExecutor::new(make(), 0);
        let expected: Vec<_> = window
            .iter()
            .enumerate()
            .map(|(offset, packet)| {
                let (outcome, trace) = reference.execute(offset as u64 + 1, packet);
                (
                    peachstar_protocols::OutcomeSummary::from(&outcome),
                    trace.to_sparse(),
                )
            })
            .collect();

        let mut batched = TargetExecutor::new(make(), 0);
        let mut results = WindowResults::new();
        batched.execute_window(1, &window, &mut results);
        assert_eq!(results.len(), window.len());
        for (offset, (summary, trace)) in results.iter().enumerate() {
            assert_eq!(*summary, expected[offset].0, "offset {offset}");
            assert_eq!(*trace, expected[offset].1, "offset {offset}");
        }
    }

    #[test]
    fn deadline_executor_matches_undeadlined_stream_when_nothing_hangs() {
        // Arming the watchdog must be observationally transparent for
        // well-behaved targets: same outcomes, same traces.
        let request = vec![0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
        let garbage = vec![0xFF, 0x00, 0x01];
        let window: Vec<&[u8]> = vec![&request, &garbage, &request, &garbage, &request];
        let mut plain = TargetExecutor::new(TargetId::Iec104.create(), 3);
        let mut supervised = TargetExecutor::new(TargetId::Iec104.create(), 3)
            .with_deadline(Duration::from_secs(10));
        assert_eq!(supervised.deadline(), Some(Duration::from_secs(10)));
        for (offset, packet) in window.iter().enumerate() {
            let execution = offset as u64 + 1;
            let (expected, expected_trace) = plain.execute(execution, packet);
            let expected_trace = expected_trace.to_sparse();
            let (actual, actual_trace) = supervised.execute(execution, packet);
            assert_eq!(expected, actual, "execution {execution}");
            assert_eq!(expected_trace, actual_trace.to_sparse(), "execution {execution}");
        }
        // The windowed entry point agrees too (it goes per-packet under a
        // deadline).
        let mut plain = TargetExecutor::new(TargetId::Iec104.create(), 3);
        let mut supervised = TargetExecutor::new(TargetId::Iec104.create(), 3)
            .with_deadline(Duration::from_secs(10));
        let mut expected = WindowResults::new();
        let mut actual = WindowResults::new();
        plain.execute_window(4, &window, &mut expected);
        supervised.execute_window(4, &window, &mut actual);
        let expected: Vec<_> = expected.iter().map(|(s, t)| (*s, t.clone())).collect();
        let actual: Vec<_> = actual.iter().map(|(s, t)| (*s, t.clone())).collect();
        assert_eq!(expected, actual);
    }

    #[test]
    fn deadline_executor_converts_hangs_into_faults() {
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        use peachstar_protocols::FaultKind;
        let chaos = ChaosConfig::new(0)
            .panic_every(0)
            .garbage_every(0)
            .hang_every(1)
            .hang_ms(2_000);
        let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut executor =
            TargetExecutor::new(target, 0).with_deadline(Duration::from_millis(25));
        let (outcome, trace) = executor.execute(1, &[0x01]);
        assert_eq!(outcome.fault().map(|f| f.kind), Some(FaultKind::Hang));
        assert!(trace.is_empty());
    }

    #[test]
    fn execute_records_a_trace() {
        let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 0);
        let request = [
            0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02,
        ];
        let (outcome, trace) = executor.execute(1, &request);
        assert!(outcome.response().is_some());
        assert!(trace.edges_hit() > 0);
        // The next execution starts from a clean trace.
        let (_, trace) = executor.execute(2, &[]);
        assert!(trace.edges_hit() > 0, "rejection path is instrumented");
    }
}
