//! The decode-output seam: full-fidelity vs. summary-only decoding.
//!
//! Batched campaigns record one [`OutcomeSummary`](crate::OutcomeSummary)
//! per execution — the outcome *variant* plus the fault record — and throw
//! the response bytes and rejection strings away immediately. Yet every
//! decoder historically paid for them: `format!`-ed error reasons,
//! `Vec`-assembled response frames, all constructed only to be summarised
//! and dropped. [`DecodeSink`] names the two fidelities, and the free
//! functions in this module are the *only* places a decoder builds output
//! payloads, so switching the sink switches all of them at once:
//!
//! * [`DecodeSink::Full`] builds every response and error string
//!   bit-for-bit — the historical behaviour, required whenever outcome
//!   payloads are inspected (the per-packet engine, session handshakes,
//!   replay, tests).
//! * [`DecodeSink::Summary`] keeps the **identical control flow** — every
//!   `cov_edge!` site, branch and state mutation fires exactly as before,
//!   so recorded traces and `path_id`s are untouched by construction — but
//!   returns empty payloads instead of formatting/assembling them. Batched
//!   windows, inline or on a worker, always decode this way.
//!
//! The sink is armed per thread ([`DecodeSink::arm`]) for the duration of a
//! batched window, not threaded through every decoder helper: the decoders'
//! call graphs stay signature-identical, which is what keeps their
//! `cov_edge!` call sites (and therefore edge IDs, which hash the source
//! position) pinned. The guard restores the previous mode on drop, so panic
//! containment ([`contained`](crate::containment::contained) unwinding out
//! of a batched window) and nested arming are safe.
//!
//! Debug builds can cross-check the two fidelities end to end with
//! [`debug_cross_check_sinks`]: both sinks run the same packet on fresh
//! clones and must produce an identical summary and trace.

use std::cell::Cell;
use std::fmt;

use crate::Outcome;

/// How much of a decode's output the caller will actually read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeSink {
    /// Build responses and rejection strings bit-for-bit.
    #[default]
    Full,
    /// Identical control flow, but skip response-buffer assembly and
    /// error-string formatting; outcome payloads come back empty.
    Summary,
}

thread_local! {
    /// Whether the current thread is decoding in summary mode.
    static SUMMARY_MODE: Cell<bool> = const { Cell::new(false) };
}

impl DecodeSink {
    /// Arms this sink on the current thread until the returned guard drops.
    #[must_use = "the sink is only armed while the guard lives"]
    pub fn arm(self) -> SinkGuard {
        let previous = SUMMARY_MODE.with(|mode| mode.replace(self == Self::Summary));
        SinkGuard { previous }
    }

    /// The sink currently armed on this thread ([`DecodeSink::Full`] unless
    /// a [`SinkGuard`] is live).
    #[must_use]
    pub fn current() -> Self {
        if SUMMARY_MODE.with(Cell::get) {
            Self::Summary
        } else {
            Self::Full
        }
    }
}

/// RAII guard of [`DecodeSink::arm`]: restores the previously armed sink on
/// drop. Unwinding through the guard (panic containment) restores it too.
#[derive(Debug)]
pub struct SinkGuard {
    previous: bool,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        SUMMARY_MODE.with(|mode| mode.set(self.previous));
    }
}

/// `true` when the current thread decodes in summary mode.
#[inline]
fn summary() -> bool {
    SUMMARY_MODE.with(Cell::get)
}

/// A [`Outcome::ProtocolError`] with a static rejection reason.
#[inline]
#[must_use]
pub fn protocol_error(reason: &str) -> Outcome {
    Outcome::ProtocolError(reject_str(reason))
}

/// A [`Outcome::ProtocolError`] with a formatted rejection reason; the
/// formatting itself is skipped in summary mode (`format_args!` captures
/// references without evaluating the format string).
#[inline]
#[must_use]
pub fn protocol_error_fmt(reason: fmt::Arguments<'_>) -> Outcome {
    Outcome::ProtocolError(reject_fmt(reason))
}

/// A rejection-reason `String` from a static description — for decoders
/// whose internal plumbing is `Result<_, String>` rather than [`Outcome`].
#[inline]
#[must_use]
pub fn reject_str(reason: &str) -> String {
    if summary() {
        String::new()
    } else {
        reason.to_owned()
    }
}

/// A rejection-reason `String` from format arguments, skipped in summary
/// mode. Full mode renders exactly what `format!` would.
#[inline]
#[must_use]
pub fn reject_fmt(reason: fmt::Arguments<'_>) -> String {
    if summary() {
        String::new()
    } else {
        fmt::format(reason)
    }
}

/// An output buffer built by `fill` — or an empty one, with `fill` never
/// run, in summary mode. `fill` must only *assemble bytes*: state mutations
/// (sequence counters, register writes) belong outside the closure, where
/// they run under both sinks.
#[inline]
#[must_use]
pub fn bytes_with(capacity: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    if summary() {
        Vec::new()
    } else {
        let mut bytes = Vec::with_capacity(capacity);
        fill(&mut bytes);
        bytes
    }
}

/// A [`Outcome::Response`] whose bytes are assembled by `fill` under the
/// same rules as [`bytes_with`].
#[inline]
#[must_use]
pub fn response_with(capacity: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Outcome {
    Outcome::Response(bytes_with(capacity, fill))
}

/// A [`Outcome::Response`] from a fixed byte array (heap-allocated only in
/// full mode).
#[inline]
#[must_use]
pub fn response_array<const N: usize>(bytes: [u8; N]) -> Outcome {
    if summary() {
        Outcome::Response(Vec::new())
    } else {
        Outcome::Response(bytes.to_vec())
    }
}

/// A [`Outcome::Response`] from an already-built buffer. The buffer is
/// dropped in summary mode — use this for responses whose bytes had to be
/// assembled anyway (e.g. a confirmation the decoder patches in place).
#[inline]
#[must_use]
pub fn response_vec(bytes: Vec<u8>) -> Outcome {
    if summary() {
        Outcome::Response(Vec::new())
    } else {
        Outcome::Response(bytes)
    }
}

/// Debug-build cross-check of the sink seam: runs `packet` on two fresh
/// clones of `target`, one per sink, and asserts the recorded
/// [`OutcomeSummary`](crate::OutcomeSummary) and trace are identical.
///
/// The sink tests run it over every target's traffic; campaign equivalence
/// suites prove the same identity end to end.
#[cfg(debug_assertions)]
pub fn debug_cross_check_sinks(target: &dyn crate::Target, packet: &[u8]) {
    use peachstar_coverage::TraceContext;
    let run = |sink: DecodeSink| {
        let mut fresh = target.clone_fresh();
        let mut ctx = TraceContext::new();
        let _armed = sink.arm();
        let outcome = fresh.process(packet, &mut ctx);
        (crate::OutcomeSummary::from(&outcome), ctx.trace().to_sparse())
    };
    let full = run(DecodeSink::Full);
    let summary = run(DecodeSink::Summary);
    assert_eq!(
        full.0, summary.0,
        "{}: summary sink changed the outcome of {packet:02x?}",
        target.name()
    );
    assert_eq!(
        full.1, summary.1,
        "{}: summary sink changed the trace of {packet:02x?}",
        target.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_the_default_and_builds_everything() {
        assert_eq!(DecodeSink::current(), DecodeSink::Full);
        assert_eq!(reject_str("bad frame"), "bad frame");
        assert_eq!(reject_fmt(format_args!("len {}", 7)), "len 7");
        assert_eq!(
            bytes_with(2, |out| out.extend_from_slice(&[1, 2])),
            vec![1, 2]
        );
        assert_eq!(response_array([3, 4]).response(), Some(&[3u8, 4][..]));
        assert_eq!(response_vec(vec![5]).response(), Some(&[5u8][..]));
    }

    #[test]
    fn summary_guard_empties_payloads_and_restores_on_drop() {
        {
            let _armed = DecodeSink::Summary.arm();
            assert_eq!(DecodeSink::current(), DecodeSink::Summary);
            assert_eq!(reject_str("bad frame"), "");
            assert_eq!(reject_fmt(format_args!("len {}", 7)), "");
            assert_eq!(bytes_with(8, |_| panic!("fill must not run")), Vec::new());
            assert_eq!(response_array([3, 4]).response(), Some(&[][..]));
            assert_eq!(response_vec(vec![5]).response(), Some(&[][..]));
            // Nested arming restores the *enclosing* mode, not Full.
            {
                let _inner = DecodeSink::Full.arm();
                assert_eq!(DecodeSink::current(), DecodeSink::Full);
            }
            assert_eq!(DecodeSink::current(), DecodeSink::Summary);
        }
        assert_eq!(DecodeSink::current(), DecodeSink::Full);
    }

    #[test]
    fn guard_restores_across_a_contained_panic() {
        let result = std::panic::catch_unwind(|| {
            let _armed = DecodeSink::Summary.arm();
            panic!("contained");
        });
        assert!(result.is_err());
        assert_eq!(
            DecodeSink::current(),
            DecodeSink::Full,
            "unwinding through the guard must disarm summary mode"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn cross_check_accepts_every_target_on_mixed_traffic() {
        use peachstar_datamodel::emit::emit_default;
        for id in crate::TargetId::ALL {
            let target = id.create();
            let mut packets: Vec<Vec<u8>> = target
                .data_models()
                .models()
                .iter()
                .map(|model| emit_default(model).expect("default emission"))
                .collect();
            packets.push(Vec::new());
            packets.push(vec![0xFF; 3]);
            for packet in &packets {
                debug_cross_check_sinks(target.as_ref(), packet);
            }
        }
    }
}
