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
//! Three primitives:
//!
//! * [`contained`] wraps a closure in `catch_unwind` with a process-global
//!   panic hook that (only while a contained call is on the stack of the
//!   panicking thread) swallows the default stderr backtrace and captures
//!   the panic message. A caught panic becomes an `Err(message)`.
//! * [`panic_fault`] converts a captured message into the synthetic fault
//!   the campaign records: kind [`FaultKind::Panic`],
//!   site = the interned message, so identical panics dedup into one unique
//!   bug exactly like planted faults do.
//! * [`contained_step`] is the one single-packet execution step all three
//!   paths above share: a contained [`Target::process`], a rebuild after a
//!   panic, and a restart after any fault.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use peachstar_coverage::TraceContext;

use crate::{intern_site, Fault, FaultKind, Outcome, Target};

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
