//! Panic containment: run target code, catch its panics, and turn them into
//! deduplicatable [`FaultKind::Panic`] faults.
//!
//! This is the substrate under every fault-tolerant execution path: the
//! `TargetExecutor` of the `peachstar` core crate (which every worker of the
//! worker topology owns one of), its hang watchdog's supervised thread, and
//! the per-connection handlers of the framed-TCP [`server`](crate::server)
//! in this crate. It lives here (rather than in the engine) because the
//! socket server must contain panics *server-side*: a panic unwinding out of
//! a connection handler would kill the handler thread and surface to the
//! fuzzer as a dead socket instead of as the `Panic` bug the in-process
//! path records. Keeping one module also keeps one process-global panic
//! hook, so contained and uncontained threads never fight over it.
//!
//! Four primitives:
//!
//! * [`contained`] wraps a closure in `catch_unwind` with a process-global
//!   panic hook that (only while a contained call is on the stack of the
//!   panicking thread) swallows the default stderr backtrace and captures
//!   the panic message. A caught panic becomes an `Err(message)`.
//! * [`panic_fault`] converts a captured message into the synthetic fault
//!   the campaign records: kind [`FaultKind::Panic`],
//!   site = the interned message, so identical panics dedup into one unique
//!   bug exactly like planted faults do.
//! * [`contained_step`] is the one single-packet execution step: a
//!   contained [`Target::process`], a rebuild after a panic, and a restart
//!   after any fault. The watchdog's thread runs it per packet.
//! * [`contained_window`] is the one window step, which the executor and
//!   the socket server share: a contained [`Target::process_batch`], and
//!   after a panic the rest of the window packet by packet. A
//!   [`RefTable`] lends it the window's packets as one table of slices.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use peachstar_coverage::TraceContext;

use crate::{intern_site, DecodeSink, Fault, FaultKind, Outcome, Target, WindowResults};

std::thread_local! {
    static CONTAINING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CAPTURED: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

fn install_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CONTAINING.with(std::cell::Cell::get) {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| {
                        info.location()
                            .map(|l| format!("panic at {}:{}", l.file(), l.line()))
                            .unwrap_or_else(|| "panic with non-string payload".to_owned())
                    });
                CAPTURED.with(|c| *c.borrow_mut() = Some(message));
            } else {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, containing any panic it raises: `Err(message)` instead of an
/// unwound stack, with nothing written to stderr. Panics raised outside a
/// contained call (other threads, test assertions) are untouched.
///
/// # Errors
///
/// Returns the panic message when `f` panicked.
pub fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_hook();
    // Restore the enclosing state on exit, so a contained call nested in
    // another leaves the outer one still containing.
    let outer = CONTAINING.with(|c| c.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAINING.with(|c| c.set(outer));
    result.map_err(|payload| {
        CAPTURED
            .with(|c| c.borrow_mut().take())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_owned())
    })
}

/// The synthetic fault a contained panic turns into: kind
/// [`FaultKind::Panic`], site = the interned panic message, so identical
/// panics dedup into one unique bug exactly like planted faults do.
#[must_use]
pub fn panic_fault(message: &str) -> Fault {
    Fault::new(FaultKind::Panic, intern_site(message))
}

/// Runs one packet the way the paper's harness does, with the trace
/// recorded on `ctx`: clear the trace, run a contained
/// [`Target::process`], rebuild `target` from `spare` when it panicked (the
/// panic may have left it in any state) and record the panic as a
/// [`panic_fault`], then restart the target after any fault, as the harness
/// restarts a crashed server. The trace keeps the edges a panicking packet
/// recorded before the panic: they are real coverage.
///
/// `spare` must be a pristine instance that is never executed. A reset the
/// caller's policy schedules before the packet is the caller's to apply.
pub fn contained_step(
    target: &mut Box<dyn Target>,
    spare: &dyn Target,
    ctx: &mut TraceContext,
    packet: &[u8],
) -> Outcome {
    ctx.reset();
    let outcome = match contained(|| target.process(packet, ctx)) {
        Ok(outcome) => outcome,
        Err(message) => {
            *target = spare.clone_fresh();
            Outcome::Fault(panic_fault(&message))
        }
    };
    if outcome.is_fault() {
        target.reset();
    }
    outcome
}

/// Runs one reset-aligned window of packets, replacing `out`'s contents
/// with one record per packet. The window crosses into `target` once,
/// through a contained [`Target::process_batch`] that decodes under
/// [`DecodeSink::Summary`] (a record keeps no payload). When that panics
/// while processing packet `out.len()` (every `process_batch` records
/// incrementally), the panicking packet records the [`panic_fault`] with
/// its partial trace, `target` is rebuilt from `spare`, and the rest of the
/// window runs one [`contained_step`] per packet. Either way the records are
/// those of one `contained_step` per packet: what the paper's harness
/// records.
///
/// A reset the caller's policy schedules before the window is the
/// caller's to apply; `spare` must be a pristine instance that is never
/// executed.
pub fn contained_window(
    target: &mut Box<dyn Target>,
    spare: &dyn Target,
    ctx: &mut TraceContext,
    packets: &[&[u8]],
    out: &mut WindowResults,
) {
    let batch = contained(|| target.process_batch(packets, ctx, out, DecodeSink::Summary));
    if let Err(message) = batch {
        out.record(&Outcome::Fault(panic_fault(&message)), ctx.trace());
        *target = spare.clone_fresh();
        for packet in packets.iter().skip(out.len()) {
            let outcome = contained_step(target, spare, ctx, packet);
            out.record(&outcome, ctx.trace());
        }
    }
}

/// The table of packet slices a [`contained_window`] takes, pooled for
/// callers that hold a window's packets in another form (a generated
/// arena, a flat buffer, a received request). It is empty between calls
/// and keeps only its allocation.
#[derive(Debug, Default)]
pub struct RefTable {
    /// Always empty between calls; only its allocation is kept.
    refs: Vec<&'static [u8]>,
}

impl RefTable {
    /// Calls `f` with the slices `packets` yields, in order, as one table.
    pub fn with<'p, R>(
        &mut self,
        packets: impl Iterator<Item = &'p [u8]>,
        f: impl FnOnce(&[&'p [u8]]) -> R,
    ) -> R {
        // Collecting an empty vector through `map` into a vector of the
        // same layout reuses its allocation in place, so the table changes
        // lifetime here and back below without allocating.
        let mut refs: Vec<&[u8]> = std::mem::take(&mut self.refs)
            .into_iter()
            .map(|_| unreachable!("the pooled ref table is empty"))
            .collect();
        refs.extend(packets);
        let result = f(&refs);
        refs.clear();
        self.refs = refs
            .into_iter()
            .map(|_| unreachable!("the ref table was just cleared"))
            .collect();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contained_returns_the_value_or_the_panic_message() {
        assert_eq!(contained(|| 41 + 1), Ok(42));
        assert_eq!(contained(|| panic!("boom")), Err::<(), _>("boom".into()));
        let formatted = contained(|| -> u32 { panic!("chaos: injected panic #{}", 2) });
        assert_eq!(formatted, Err("chaos: injected panic #2".into()));
        // Containment is per-call: a later normal call is unaffected.
        assert_eq!(contained(|| "ok"), Ok("ok"));
        // A nested call leaves the outer one containing: the hook, not the
        // payload fallback, still names a non-string panic.
        let nested = contained(|| {
            assert_eq!(contained(|| 1), Ok(1));
            panic::panic_any(7u8)
        });
        let message: String = nested.expect_err("the outer call contains the panic");
        assert!(message.starts_with("panic at "), "{message}");
    }

    #[test]
    fn panic_fault_dedups_by_message() {
        let a = panic_fault("chaos: injected panic #1");
        let b = panic_fault(&format!("chaos: injected panic #{}", 1));
        assert_eq!(a, b);
        assert_eq!(a.kind, FaultKind::Panic);
        assert!(std::ptr::eq(a.site, b.site));
        assert_ne!(a, panic_fault("chaos: injected panic #2"));
    }
}
