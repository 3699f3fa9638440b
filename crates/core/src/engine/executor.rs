//! The [`TargetExecutor`]: who runs a packet, and when the target resets.

use std::time::Duration;

use peachstar_coverage::TraceContext;
use peachstar_protocols::containment::contained_window;
use peachstar_protocols::{Target, WindowResults};

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
/// Packets reach the target only in reset-aligned windows
/// ([`execute_window`](TargetExecutor::execute_window)). Campaigns never
/// touch the target directly: the inline topology runs every window through
/// one executor, and every worker of the worker topology owns one.
///
/// # Example
///
/// ```
/// use peachstar::engine::TargetExecutor;
/// use peachstar_protocols::{Outcome, TargetId, WindowResults};
///
/// // Reset the Modbus target's session state every 100 executions, so
/// // executions 1..=99 may run as one window.
/// let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 100);
/// let request = [0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
/// let mut results = WindowResults::new();
/// executor.execute_window(1, &[&request, &[0xFF], &request], &mut results);
/// assert_eq!(results.len(), 3, "one record per packet");
/// let (outcome, hits) = results.iter().next().expect("the first record");
/// assert_eq!(outcome, Outcome::Response);
/// assert!(!hits.is_empty(), "every execution is instrumented");
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
    /// The target packets run on; under the watchdog, an unexecuted
    /// [`Target::clone_fresh`] copy that only answers
    /// [`target`](TargetExecutor::target), the watchdog's worker running
    /// the one it replaced.
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
    /// are delegated to the supervised worker, whose replies are recorded
    /// as they arrive.
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
    ///
    /// The executor's own target becomes the first worker's, so a
    /// framed-TCP target's connection carries the supervised executions;
    /// the executor keeps an unexecuted copy (which never dials) to answer
    /// [`target`](TargetExecutor::target).
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        let target = std::mem::replace(&mut self.target, self.spare.clone_fresh());
        self.watchdog = Some(Watchdog::new(target, self.spare.clone_fresh(), timeout));
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
    /// Runs one reset-aligned *window* of packets — executions
    /// `first_execution ..` in order — replacing `out`'s previous contents
    /// with one record per packet. A reset the policy puts before the first
    /// execution runs first; then the window crosses into the target once,
    /// through [`contained_window`], the window step the socket server
    /// shares. Under the watchdog it runs packet by packet on the supervised
    /// worker instead, each packet under its own deadline.
    ///
    /// Either way the records are those of one
    /// [`contained_step`](peachstar_protocols::containment::contained_step)
    /// per packet after the policy's resets — batched campaigns are
    /// required to be bit-identical to sequential ones.
    ///
    /// # Panics
    ///
    /// Panics when the policy resets before any execution of the window
    /// but its first. Both topologies cut their windows at the policy's
    /// resets, so no campaign gets here.
    pub fn execute_window(
        &mut self,
        first_execution: u64,
        packets: &[&[u8]],
        out: &mut WindowResults,
    ) {
        assert!(
            !(1..packets.len() as u64)
                .any(|offset| self.policy.resets_before(first_execution + offset)),
            "executions {first_execution}..+{} cross a reset boundary",
            packets.len()
        );
        let resets = self.take_reset(first_execution);
        if let Some(watchdog) = &mut self.watchdog {
            out.begin();
            for (offset, packet) in packets.iter().enumerate() {
                let (outcome, trace) = watchdog.execute(resets && offset == 0, packet);
                let recorded = out.record_hits(outcome, trace.hits().iter().copied());
                debug_assert!(recorded, "a snapshot's hits are in snapshot form");
            }
            return;
        }
        if resets {
            self.target.reset();
        }
        contained_window(
            &mut self.target,
            self.spare.as_ref(),
            &mut self.ctx,
            packets,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::batch::windows_for_policy;
    use peachstar_protocols::containment::contained_step;
    use peachstar_protocols::{Outcome, TargetId};

    /// One execution's outcome and trace hits.
    type Record = (Outcome, Vec<(u16, u8)>);

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

    /// The per-packet reference: from execution 1, the policy's reset
    /// where it falls, then one `contained_step` per packet on a target from
    /// `make`, as the paper's harness runs them.
    fn per_packet(
        make: impl Fn() -> Box<dyn Target>,
        policy: ResetPolicy,
        packets: &[&[u8]],
    ) -> Vec<Record> {
        let (mut target, spare) = (make(), make());
        let mut ctx = TraceContext::new();
        (1..)
            .zip(packets)
            .map(|(execution, packet)| {
                if policy.resets_before(execution) {
                    target.reset();
                }
                let outcome = contained_step(&mut target, spare.as_ref(), &mut ctx, packet);
                (outcome, ctx.trace().to_sparse().hits().to_vec())
            })
            .collect()
    }

    /// Runs `packets` from execution 1 through `executor`, one
    /// `execute_window` call per window of the policy.
    fn windowed(executor: &mut TargetExecutor, packets: &[&[u8]]) -> Vec<Record> {
        let mut results = WindowResults::new();
        let mut records = Vec::new();
        for (start, end) in windows_for_policy(packets.len() as u64, executor.policy()) {
            let window = &packets[start as usize - 1..end as usize];
            executor.execute_window(start, window, &mut results);
            assert_eq!(results.len(), window.len(), "one record per packet");
            records.extend(results.iter().map(|(outcome, hits)| (outcome, hits.to_vec())));
        }
        records
    }

    const REQUEST: [u8; 12] = [
        0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02,
    ];
    const GARBAGE: [u8; 3] = [0xFF, 0x00, 0x01];

    #[test]
    fn execute_window_matches_the_per_execution_path() {
        // Ground truth: the per-packet loop with its every-step reset-policy
        // check. `execute_window` over the policy's windows (one
        // `process_batch` call each) must match it packet for packet.
        let packets: Vec<&[u8]> = (0..14)
            .map(|i| {
                if i % 3 == 1 {
                    &GARBAGE[..]
                } else {
                    &REQUEST[..]
                }
            })
            .collect();
        for policy in [ResetPolicy::Interval(3), ResetPolicy::PerSession(4)] {
            let expected = per_packet(|| TargetId::Modbus.create(), policy, &packets);
            let mut executor = TargetExecutor::with_policy(TargetId::Modbus.create(), policy);
            assert_eq!(windowed(&mut executor, &packets), expected, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cross a reset boundary")]
    fn a_window_that_crosses_a_reset_panics() {
        // Executions 2..=4 under a reset every 3 hold the reset before 3.
        let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 3);
        let window: [&[u8]; 3] = [&REQUEST, &GARBAGE, &REQUEST];
        executor.execute_window(2, &window, &mut WindowResults::new());
    }

    #[test]
    fn execute_contains_panics_and_continues() {
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        use peachstar_protocols::FaultKind;
        let chaos = ChaosConfig::new(5).panic_every(2).sites(2);
        let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut executor = TargetExecutor::new(target, 0);
        let packets: Vec<Vec<u8>> = (0u8..24).map(|i| vec![i, 0x68, i ^ 0x3C]).collect();
        let window: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
        let mut results = WindowResults::new();
        executor.execute_window(1, &window, &mut results);
        assert_eq!(
            results.len(),
            window.len(),
            "a panic never cuts a window short"
        );
        let panics = results
            .iter()
            .filter_map(|(outcome, _)| match outcome {
                Outcome::Fault(fault) if fault.kind == FaultKind::Panic => Some(fault),
                _ => None,
            })
            .inspect(|fault| assert!(fault.site.starts_with("chaos: injected panic #")))
            .count();
        assert!(panics > 0, "panic_every=2 must fire in 24 packets");
        // The executor survived every panic and still works.
        executor.execute_window(100, &[&REQUEST], &mut results);
        let (outcome, hits) = results.iter().next().expect("one record");
        assert!(match outcome {
            Outcome::Fault(fault) => fault.kind == FaultKind::Panic,
            _ => !hits.is_empty(),
        });
    }

    #[test]
    fn contained_windows_match_the_contained_sequential_path() {
        // The batched path under panics must stay bit-identical to the
        // sequential contained path: same synthetic faults at the same
        // offsets, same traces for the surviving packets.
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        let chaos = ChaosConfig::new(11).panic_every(3).sites(3);
        let make =
            || Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos)) as Box<dyn Target>;
        let packets: Vec<Vec<u8>> = (0u8..16).map(|i| vec![i, i ^ 0x77]).collect();
        let window: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
        let expected = per_packet(make, ResetPolicy::Interval(0), &window);
        let mut batched = TargetExecutor::new(make(), 0);
        assert_eq!(windowed(&mut batched, &window), expected);
    }

    #[test]
    fn deadline_executor_matches_undeadlined_stream_when_nothing_hangs() {
        // Arming the watchdog must be observationally transparent for
        // well-behaved targets: same outcomes, same traces, window by
        // window, resets included.
        let packets: [&[u8]; 7] = [
            &REQUEST,
            &GARBAGE,
            &REQUEST,
            &GARBAGE,
            &REQUEST,
            &REQUEST,
            &[],
        ];
        let mut plain = TargetExecutor::new(TargetId::Iec104.create(), 3);
        let mut supervised = TargetExecutor::new(TargetId::Iec104.create(), 3)
            .with_deadline(Duration::from_secs(10));
        assert_eq!(supervised.deadline(), Some(Duration::from_secs(10)));
        assert_eq!(
            windowed(&mut supervised, &packets),
            windowed(&mut plain, &packets)
        );
    }

    #[test]
    fn deadline_executor_converts_hangs_into_faults() {
        use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
        use peachstar_protocols::{Fault, FaultKind};
        let chaos = ChaosConfig::new(0).panic_every(0).hang_every(1).hang_ms(2_000);
        let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let mut executor = TargetExecutor::new(target, 0).with_deadline(Duration::from_millis(25));
        let mut results = WindowResults::new();
        executor.execute_window(1, &[&[0x01]], &mut results);
        let (outcome, hits) = results.iter().next().expect("one record");
        let hang = Fault::new(FaultKind::Hang, crate::engine::supervisor::HANG_SITE);
        assert_eq!(outcome, Outcome::Fault(hang));
        assert!(hits.is_empty());
    }

    #[test]
    fn execute_records_a_trace() {
        let mut executor = TargetExecutor::new(TargetId::Modbus.create(), 0);
        let mut results = WindowResults::new();
        executor.execute_window(1, &[&REQUEST, &[]], &mut results);
        let records: Vec<_> = results.iter().collect();
        assert_eq!(records[0].0, Outcome::Response);
        assert!(!records[0].1.is_empty());
        // The next execution starts from a clean trace.
        assert_ne!(records[1].1, records[0].1);
        assert!(!records[1].1.is_empty(), "rejection path is instrumented");
    }
}
