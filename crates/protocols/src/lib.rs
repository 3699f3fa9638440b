//! Instrumented ICS protocol targets for the `peachstar` fuzzer.
//!
//! The DAC 2020 Peach\* paper evaluates its fuzzer against six open-source
//! ICS protocol implementations: libmodbus, IEC104, libiec61850, lib60870,
//! libiec_iccp_mod and opendnp3. This crate provides the Rust stand-ins for
//! those targets: six from-scratch packet-processing state machines
//! ([`modbus`], [`iec104`], [`iec61850`], [`lib60870`], [`iccp`], [`dnp3`])
//! that
//!
//! * parse realistic multi-packet-type protocol traffic with deep, branchy
//!   decoders (so that coverage feedback has structure to discover),
//! * are instrumented with [`peachstar_coverage`] edge hooks at every
//!   decision point (the stand-in for the paper's LLVM instrumentation pass),
//! * expose the Peach-pit-style data models of their packets via
//!   [`Target::data_models`], and
//! * contain *planted faults* that mirror the nine previously-unknown
//!   vulnerabilities of Table I (segmentation violations, a heap
//!   use-after-free and a heap buffer overflow), reachable only through
//!   deep, mostly well-formed packets.
//!
//! # Example
//!
//! ```
//! use peachstar_coverage::TraceContext;
//! use peachstar_protocols::{modbus::ModbusServer, Outcome, Target};
//!
//! let mut server = ModbusServer::new();
//! let mut ctx = TraceContext::new();
//! // A well-formed "read holding registers" request.
//! let request = [0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02];
//! match server.process(&request, &mut ctx) {
//!     Outcome::Response(bytes) => assert_eq!(bytes[7], 0x03),
//!     other => panic!("expected a response, got {other:?}"),
//! }
//! assert!(ctx.trace().edges_hit() > 0, "processing is instrumented");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod common;
pub mod containment;
pub mod dnp3;
pub mod iccp;
pub mod iec104;
pub mod iec61850;
pub mod lib60870;
pub mod modbus;
pub mod server;
pub mod sink;
pub mod wire;

use std::fmt;
use std::sync::{Mutex, OnceLock};

use peachstar_coverage::{TraceContext, TraceMap};
use peachstar_datamodel::DataModelSet;

pub use server::{serve, serve_with_chaos, ServerHandle, WireChaos};
pub use sink::DecodeSink;
pub use wire::{FrameReassembler, MessageStream, WireFraming};

/// The memory-safety-analogue failure classes reported by targets.
///
/// These mirror the "Vulnerability Type" column of Table I in the paper.
/// Since the targets are safe Rust, the planted bugs do not actually corrupt
/// memory; instead the code path that *would* perform the illegal access in
/// the original C code returns a [`Fault`] describing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// Segmentation violation (wild read/write through a bad pointer or
    /// out-of-bounds index).
    Segv,
    /// Heap use-after-free.
    HeapUseAfterFree,
    /// Heap buffer overflow.
    HeapBufferOverflow,
    /// The target would spin or block indefinitely.
    Hang,
    /// The target code itself panicked. Not a planted fault: the
    /// fault-tolerant executor synthesises this kind when `catch_unwind`
    /// contains a real `panic!` escaping [`Target::process`], with the
    /// panic message as the (interned) dedup site.
    Panic,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            FaultKind::Segv => "SEGV",
            FaultKind::HeapUseAfterFree => "heap-use-after-free",
            FaultKind::HeapBufferOverflow => "heap-buffer-overflow",
            FaultKind::Hang => "hang",
            FaultKind::Panic => "panic",
        };
        f.write_str(label)
    }
}

/// Interns a runtime-constructed fault-site string, returning a `'static`
/// reference that is pointer-stable for the life of the process.
///
/// [`Fault::site`] is `&'static str` so that the planted faults cost nothing
/// to construct on the hot path; sites that only exist at runtime — a panic
/// message captured by the containment layer, or a site decoded from a
/// snapshot/artifact file — go through this table instead. Repeated calls
/// with the same text return the same reference, so interned sites dedup in
/// the campaign monitor exactly like planted ones. The table grows one leaked
/// allocation per *distinct* site, which is bounded by the number of unique
/// bugs — not by the number of executions.
#[must_use]
pub fn intern_site(site: &str) -> &'static str {
    static SITES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let sites = SITES.get_or_init(|| Mutex::new(Vec::new()));
    let mut sites = sites.lock().expect("site intern table poisoned");
    if let Some(existing) = sites.iter().find(|existing| **existing == site) {
        return existing;
    }
    let leaked: &'static str = Box::leak(site.to_owned().into_boxed_str());
    sites.push(leaked);
    leaked
}

/// A triggered fault: what kind of memory error the packet would have caused
/// and at which source site (the dedup key the campaign uses for "unique
/// bugs", mirroring ASAN's top-of-stack dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The failure class.
    pub kind: FaultKind,
    /// Stable identifier of the faulting site, e.g.
    /// `"cs101_asdu.c:CS101_ASDU_getCOT"`.
    pub site: &'static str,
}

impl Fault {
    /// Creates a fault record.
    #[must_use]
    pub const fn new(kind: FaultKind, site: &'static str) -> Self {
        Self { kind, site }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.site)
    }
}

/// Outcome of feeding one packet to a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The packet was processed and produced a response (possibly empty for
    /// unconfirmed services).
    Response(Vec<u8>),
    /// The packet was rejected by the protocol's validation logic (malformed
    /// frame, unknown function code, bad length, …). The string names the
    /// rejection reason.
    ProtocolError(String),
    /// The packet reached a planted vulnerability.
    Fault(Fault),
}

impl Outcome {
    /// `true` when the outcome is a [`Outcome::Fault`].
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self, Outcome::Fault(_))
    }

    /// The fault, if this outcome is one.
    #[must_use]
    pub fn fault(&self) -> Option<Fault> {
        match self {
            Outcome::Fault(fault) => Some(*fault),
            _ => None,
        }
    }

    /// The response bytes, if the packet was processed successfully.
    #[must_use]
    pub fn response(&self) -> Option<&[u8]> {
        match self {
            Outcome::Response(bytes) => Some(bytes),
            _ => None,
        }
    }
}

/// What a campaign needs to know about one execution's outcome — the
/// variant plus the fault record, without the response/rejection payloads,
/// so batched and sharded engines can buffer it compactly per execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeSummary {
    /// The packet was processed and answered.
    Response,
    /// The packet was rejected by protocol validation.
    ProtocolError,
    /// The packet reached a planted vulnerability.
    Fault(Fault),
}

impl From<&Outcome> for OutcomeSummary {
    fn from(outcome: &Outcome) -> Self {
        match outcome {
            Outcome::Response(_) => OutcomeSummary::Response,
            Outcome::ProtocolError(_) => OutcomeSummary::ProtocolError,
            Outcome::Fault(fault) => OutcomeSummary::Fault(*fault),
        }
    }
}

/// The one record of an executed window: per execution, in execution
/// order, its [`OutcomeSummary`] and its trace's hits in snapshot form
/// (slots strictly ascending, no zero count; see
/// [`SparseTrace::hits`](peachstar_coverage::SparseTrace::hits)).
///
/// This is what every path a window's results take carries: the result
/// sink of [`Target::process_batch`], the body of a framed-TCP reply on
/// both ends, and the buffer a worker's window merges from at the barrier.
/// The hits of all executions lie back to back in one flat buffer, so
/// [`begin`](WindowResults::begin) rewinds the record without freeing, and
/// in the steady state a window of any length records without allocating.
#[derive(Debug, Default)]
pub struct WindowResults {
    /// Per execution: its summary and where its hits end in `hits` (they
    /// start where the previous execution's end).
    records: Vec<(OutcomeSummary, usize)>,
    /// Every execution's hits, back to back.
    hits: Vec<(u16, u8)>,
}

impl WindowResults {
    /// Creates an empty record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the record for the next window, keeping every allocation.
    pub fn begin(&mut self) {
        self.records.clear();
        self.hits.clear();
    }

    /// Records one execution's outcome and live trace, in execution order.
    pub fn record(&mut self, outcome: &Outcome, trace: &TraceMap) {
        let start = self.hits.len();
        // A trace map's slots fit in a `u16` (its dirty list stores them so).
        self.hits
            .extend(trace.iter_hits().map(|(slot, count)| (slot as u16, count)));
        self.hits[start..].sort_unstable_by_key(|&(slot, _)| slot);
        self.records
            .push((OutcomeSummary::from(outcome), self.hits.len()));
    }

    /// Records one execution whose trace arrives as `(slot, hit count)`
    /// pairs: a watchdog reply, or a framed-TCP reply record decoded
    /// straight from the wire. The pairs must be in snapshot form; when
    /// they are not, nothing is recorded (the record is left as it was)
    /// and this returns `false`, so a corrupted trace is refused rather
    /// than repaired into a different one.
    #[must_use]
    pub fn record_hits(
        &mut self,
        summary: OutcomeSummary,
        pairs: impl IntoIterator<Item = (u16, u8)>,
    ) -> bool {
        let start = self.hits.len();
        for (slot, count) in pairs {
            let ascending = self.hits[start..]
                .last()
                .is_none_or(|&(last, _)| last < slot);
            if !ascending || count == 0 {
                self.hits.truncate(start);
                return false;
            }
            self.hits.push((slot, count));
        }
        self.records.push((summary, self.hits.len()));
        true
    }

    /// Number of executions recorded since the last
    /// [`begin`](WindowResults::begin).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded since the last
    /// [`begin`](WindowResults::begin).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded `(summary, hits)` pairs, in execution order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (OutcomeSummary, &[(u16, u8)])> + ExactSizeIterator {
        (0..self.records.len()).map(|index| {
            let start = index.checked_sub(1).map_or(0, |last| self.records[last].1);
            let (summary, end) = self.records[index];
            (summary, &self.hits[start..end])
        })
    }
}

/// One fixed packet of a [`SessionTemplate`]: known-good wire bytes plus a
/// display label naming the protocol step they perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPacket {
    /// The wire bytes of the packet, exactly as the target accepts them.
    pub bytes: Vec<u8>,
    /// Human-readable name of the step, e.g. `"STARTDT act"`.
    pub label: &'static str,
}

impl SessionPacket {
    /// Creates a template packet.
    #[must_use]
    pub fn new(bytes: Vec<u8>, label: &'static str) -> Self {
        Self { bytes, label }
    }
}

/// The session lifecycle of a session-capable target: the handshake packets
/// that unlock deep protocol state on a freshly reset target, and the
/// teardown packets that close the session cleanly.
///
/// Stateful ICS endpoints gate most of their decoder behind a link/
/// association handshake (IEC 104 STARTDT, MMS initiate, TASE.2 associate),
/// so a fuzzer that sends one packet at a time against a fresh target never
/// reaches the post-activation code. Session-aware campaigns
/// (`SessionSchedule` in the `peachstar` core crate) replay these packets
/// verbatim at the start and end of every fuzzing *session*, with the
/// mutated payload packets in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTemplate {
    /// Packets that open the session, in send order. Every packet must be
    /// accepted by a freshly reset target (each elicits a `Response`).
    pub handshake: Vec<SessionPacket>,
    /// Packets that close the session, in send order.
    pub teardown: Vec<SessionPacket>,
}

impl SessionTemplate {
    /// Creates a template from handshake and teardown packet lists.
    #[must_use]
    pub fn new(handshake: Vec<SessionPacket>, teardown: Vec<SessionPacket>) -> Self {
        Self {
            handshake,
            teardown,
        }
    }

    /// Total number of fixed packets (handshake plus teardown).
    #[must_use]
    pub fn fixed_packets(&self) -> u64 {
        (self.handshake.len() + self.teardown.len()) as u64
    }
}

/// A fuzzing target: an instrumented protocol server the fuzzer feeds
/// packets to.
///
/// Targets are stateful (sessions, register banks, sequence numbers); the
/// campaign decides when to [`reset`](Target::reset) them. They are `Send`,
/// so any campaign topology can move a target, with the executor that owns
/// it, onto a worker thread.
pub trait Target: Send {
    /// Short name of the target, matching the project names used in the
    /// paper (e.g. `"libmodbus"`, `"lib60870"`).
    fn name(&self) -> &'static str;

    /// The format specification (set of per-packet-type data models) the
    /// generation-based fuzzer uses for this target.
    fn data_models(&self) -> DataModelSet;

    /// Processes one packet, recording coverage on `ctx`.
    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome;

    /// Processes one reset-aligned *window* of packets in a single call,
    /// replacing `out`'s previous contents with one record per packet, in
    /// execution order: its outcome summary and its trace's hits.
    ///
    /// The default implementation loops [`process`](Target::process) —
    /// resetting `ctx` before each packet and restarting the target after a
    /// fault, exactly as the per-execution executor does — so every target
    /// supports batching out of the box. A provided method is compiled once
    /// per implementing type, so the loop's `process` call is statically
    /// dispatched: one virtual call per window instead of one per packet.
    /// Only targets whose packets leave the process (a framed-TCP client)
    /// need an override.
    ///
    /// `sink` selects the output fidelity for the whole window (see
    /// [`DecodeSink`]): [`DecodeSink::Summary`] skips response assembly and
    /// error-string formatting, which `out` never records anyway. An
    /// override that decodes the packets in this process must arm the sink
    /// around its packet loop like the default implementation does. A
    /// framed-TCP client ignores it: its server decodes every window under
    /// the summary sink, because a wire record carries no payload.
    ///
    /// # Contract
    ///
    /// For every packet the recorded outcome and trace must be **identical**
    /// to what a [`process`](Target::process) loop over the same packets
    /// would record — batched campaigns are required to be bit-identical to
    /// sequential ones, so an override must not skip or reorder any
    /// instrumented work whose edges land in the trace, and the sink may
    /// only elide payload bytes, never an outcome variant or a state
    /// mutation. After a [`Outcome::Fault`] the target must restart itself
    /// (via [`reset`](Target::reset)) before the next packet.
    fn process_batch(
        &mut self,
        packets: &[&[u8]],
        ctx: &mut TraceContext,
        out: &mut WindowResults,
        sink: DecodeSink,
    ) {
        let _armed = sink.arm();
        out.begin();
        for packet in packets {
            ctx.reset();
            let outcome = self.process(packet, ctx);
            if outcome.is_fault() {
                self.reset();
            }
            out.record(&outcome, ctx.trace());
        }
    }

    /// Resets all session state to the just-started condition.
    fn reset(&mut self);

    /// Creates a fresh, just-started instance of the same target.
    ///
    /// This is the factory seam sharded campaigns use to give every worker
    /// thread its own target copy. The returned instance must be
    /// indistinguishable from the state
    /// [`reset`](Target::reset) restores, so that executing a reset-aligned
    /// slice of a campaign on a fresh copy produces exactly the outcomes the
    /// sequential campaign would.
    fn clone_fresh(&self) -> Box<dyn Target + Send>;

    /// The session lifecycle of this target, when it has one.
    ///
    /// Session-capable targets (protocols whose deep state hides behind a
    /// handshake) advertise known-good handshake and teardown packets here;
    /// session-aware campaigns replay them around every burst of mutated
    /// payload packets. Sessionless targets (Modbus, DNP3 in this crate —
    /// every request is self-contained) keep the default `None`.
    fn session_template(&self) -> Option<SessionTemplate> {
        None
    }
}

/// Identifier of one of the six built-in targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetId {
    /// The Modbus/TCP server (libmodbus stand-in).
    Modbus,
    /// The IEC 60870-5-104 server (IEC104 project stand-in).
    Iec104,
    /// The IEC 61850 MMS server (libiec61850 stand-in).
    Iec61850,
    /// The IEC 60870-5-101/104 server (lib60870 stand-in).
    Lib60870,
    /// The ICCP / TASE.2 server (libiec_iccp_mod stand-in).
    Iccp,
    /// The DNP3 outstation (opendnp3 stand-in).
    Dnp3,
}

impl TargetId {
    /// All built-in targets, in the order the paper's Figure 4 lists its
    /// sub-plots.
    pub const ALL: [TargetId; 6] = [
        TargetId::Modbus,
        TargetId::Iec104,
        TargetId::Iec61850,
        TargetId::Lib60870,
        TargetId::Iccp,
        TargetId::Dnp3,
    ];

    /// The project name used in the paper.
    #[must_use]
    pub const fn project_name(self) -> &'static str {
        match self {
            TargetId::Modbus => "libmodbus",
            TargetId::Iec104 => "IEC104",
            TargetId::Iec61850 => "libiec61850",
            TargetId::Lib60870 => "lib60870",
            TargetId::Iccp => "libiec_iccp_mod",
            TargetId::Dnp3 => "opendnp3",
        }
    }

    /// Instantiates the target.
    #[must_use]
    pub fn create(self) -> Box<dyn Target> {
        match self {
            TargetId::Modbus => Box::new(modbus::ModbusServer::new()),
            TargetId::Iec104 => Box::new(iec104::Iec104Server::new()),
            TargetId::Iec61850 => Box::new(iec61850::MmsServer::new()),
            TargetId::Lib60870 => Box::new(lib60870::Lib60870Server::new()),
            TargetId::Iccp => Box::new(iccp::IccpServer::new()),
            TargetId::Dnp3 => Box::new(dnp3::Dnp3Outstation::new()),
        }
    }

    /// [`create`](TargetId::create) typed as a `Box<dyn Target + Send>`, the
    /// type wrappers such as [`ChaosTarget`](chaos::ChaosTarget) hold.
    #[must_use]
    pub fn create_send(self) -> Box<dyn Target + Send> {
        self.create()
    }

    /// Parses a project name (as printed by [`TargetId::project_name`]) or a
    /// short alias (`modbus`, `iec104`, `iec61850`, `lib60870`, `iccp`,
    /// `dnp3`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "libmodbus" | "modbus" => Some(TargetId::Modbus),
            "iec104" => Some(TargetId::Iec104),
            "libiec61850" | "iec61850" | "mms" => Some(TargetId::Iec61850),
            "lib60870" | "cs104" | "cs101" => Some(TargetId::Lib60870),
            "libiec_iccp_mod" | "iccp" | "tase2" => Some(TargetId::Iccp),
            "opendnp3" | "dnp3" => Some(TargetId::Dnp3),
            _ => None,
        }
    }
}

impl fmt::Display for TargetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.project_name())
    }
}

/// Instantiates every built-in target.
#[must_use]
pub fn all_targets() -> Vec<Box<dyn Target>> {
    TargetId::ALL.iter().map(|id| id.create()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_ids_roundtrip_through_parse() {
        for id in TargetId::ALL {
            assert_eq!(TargetId::parse(id.project_name()), Some(id));
        }
        assert_eq!(TargetId::parse("modbus"), Some(TargetId::Modbus));
        assert_eq!(TargetId::parse("unknown"), None);
    }

    #[test]
    fn all_targets_have_models_and_names() {
        for mut target in all_targets() {
            assert!(!target.name().is_empty());
            let models = target.data_models();
            assert!(
                !models.is_empty(),
                "{} must expose at least one data model",
                target.name()
            );
            // Every target must at least reject an empty packet without
            // panicking and without faulting.
            let mut ctx = TraceContext::new();
            let outcome = target.process(&[], &mut ctx);
            assert!(!outcome.is_fault(), "{}: empty packet must not fault", target.name());
        }
    }

    #[test]
    fn clone_fresh_matches_reset_state() {
        // Sharded campaigns execute reset-aligned slices on clone_fresh
        // copies; that is only sound if a fresh instance, a reset instance
        // and a clone_fresh copy all behave identically. Drive each with the
        // same packet sequence (every model's default emission) and compare
        // outcomes and traces.
        use peachstar_datamodel::emit::emit_default;
        for id in TargetId::ALL {
            let mut original = id.create();
            let packets: Vec<Vec<u8>> = original
                .data_models()
                .models()
                .iter()
                .map(|model| emit_default(model).expect("default emission"))
                .collect();
            let drive = |target: &mut dyn Target| -> Vec<(Outcome, Vec<u8>)> {
                packets
                    .iter()
                    .map(|packet| {
                        let mut ctx = TraceContext::new();
                        let outcome = target.process(packet, &mut ctx);
                        (outcome, ctx.trace().as_bytes().to_vec())
                    })
                    .collect()
            };
            let fresh_run = drive(original.as_mut());
            // Dirty the original, then reset: must match the fresh run.
            original.reset();
            let reset_run = drive(original.as_mut());
            assert_eq!(fresh_run, reset_run, "{id}: reset != fresh behaviour");
            // A clone taken from the dirty original must also start fresh.
            let mut clone = original.clone_fresh();
            assert_eq!(clone.name(), original.name());
            let clone_run = drive(clone.as_mut());
            assert_eq!(fresh_run, clone_run, "{id}: clone_fresh != fresh");
        }
    }

    #[test]
    fn session_templates_open_deep_state_on_a_fresh_target() {
        // The contract session campaigns rely on: every handshake packet of
        // a session template is accepted (elicits a response) by a freshly
        // reset target, in order, and so is every teardown packet afterwards.
        let mut capable = 0;
        for id in TargetId::ALL {
            let mut target = id.create();
            let Some(template) = target.session_template() else {
                continue;
            };
            capable += 1;
            assert!(
                !template.handshake.is_empty(),
                "{id}: a session template needs at least one handshake packet"
            );
            let mut ctx = TraceContext::new();
            for packet in template.handshake.iter().chain(&template.teardown) {
                let outcome = target.process(&packet.bytes, &mut ctx);
                assert!(
                    outcome.response().is_some(),
                    "{id}: template packet `{}` rejected: {outcome:?}",
                    packet.label
                );
            }
            // The template must be stable: a reset target accepts it again.
            target.reset();
            let mut ctx = TraceContext::new();
            for packet in &template.handshake {
                assert!(
                    target.process(&packet.bytes, &mut ctx).response().is_some(),
                    "{id}: handshake `{}` rejected after reset",
                    packet.label
                );
            }
        }
        assert_eq!(
            capable, 4,
            "iec104, lib60870, iec61850 and iccp advertise session templates"
        );
    }

    #[test]
    fn process_batch_matches_a_sequential_process_loop() {
        // The batched entry point's contract: per-packet outcomes and trace
        // snapshots are identical to looping `process`. Drive each target
        // with a window mixing well-formed packets, malformed frames and
        // repeats, comparing against an independent per-packet loop.
        use peachstar_datamodel::emit::emit_default;
        for id in TargetId::ALL {
            let mut sequential = id.create();
            let mut batched = id.create();
            let mut window: Vec<Vec<u8>> = sequential
                .data_models()
                .models()
                .iter()
                .map(|model| emit_default(model).expect("default emission"))
                .collect();
            window.push(Vec::new()); // empty frame
            window.push(vec![0xFF; 3]); // short garbage
            window.push(vec![0x68, 0x04, 0x07, 0x00, 0x00, 0x00]); // 104 STARTDT bytes
            let mut corrupted = window[0].clone();
            if let Some(byte) = corrupted.get_mut(1) {
                *byte ^= 0xA5;
            }
            window.push(corrupted);
            let repeat = window[0].clone();
            window.push(repeat); // state-dependent repeat at the window end

            // Reference: the per-execution loop, exactly as the default impl
            // documents it.
            let mut ctx = TraceContext::new();
            let mut expected: Vec<(OutcomeSummary, peachstar_coverage::SparseTrace)> = Vec::new();
            for packet in &window {
                ctx.reset();
                let outcome = sequential.process(packet, &mut ctx);
                if outcome.is_fault() {
                    sequential.reset();
                }
                expected.push((OutcomeSummary::from(&outcome), ctx.trace().to_sparse()));
            }

            let refs: Vec<&[u8]> = window.iter().map(Vec::as_slice).collect();
            let mut ctx = TraceContext::new();
            let mut results = WindowResults::new();
            // Two rounds through the same pooled buffer: the second proves
            // `begin` leaves no stale record behind.
            batched.process_batch(&refs, &mut ctx, &mut results, DecodeSink::Full);
            batched.reset();
            batched.process_batch(&refs, &mut ctx, &mut results, DecodeSink::Full);
            assert_eq!(results.len(), window.len(), "{id}");
            for (index, (summary, hits)) in results.iter().enumerate() {
                assert_eq!(summary, expected[index].0, "{id}: packet {index} outcome");
                assert_eq!(hits, expected[index].1.hits(), "{id}: packet {index} trace");
            }

            // The summary sink must record the same summaries and traces —
            // it only skips payload construction, which `WindowResults`
            // never stores. Third round through the pooled buffer.
            let mut summary_target = id.create();
            summary_target.process_batch(&refs, &mut ctx, &mut results, DecodeSink::Summary);
            assert_eq!(results.len(), window.len(), "{id} (summary)");
            for (index, (summary, hits)) in results.iter().enumerate() {
                assert_eq!(summary, expected[index].0, "{id}: packet {index} summary-sink outcome");
                assert_eq!(hits, expected[index].1.hits(), "{id}: packet {index} summary-sink trace");
            }
        }
    }

    #[test]
    fn window_results_pool_and_rewind() {
        let mut results = WindowResults::new();
        assert!(results.is_empty());
        let mut ctx = TraceContext::new();
        ctx.edge(peachstar_coverage::EdgeId::new(7));
        results.record(&Outcome::Response(vec![1]), ctx.trace());
        results.record(
            &Outcome::Fault(Fault::new(FaultKind::Segv, "x")),
            ctx.trace(),
        );
        assert_eq!(results.len(), 2);
        let summaries: Vec<OutcomeSummary> = results.iter().map(|(s, _)| s).collect();
        assert_eq!(
            summaries,
            vec![
                OutcomeSummary::Response,
                OutcomeSummary::Fault(Fault::new(FaultKind::Segv, "x"))
            ]
        );
        results.begin();
        assert!(results.is_empty());
        assert_eq!(results.iter().count(), 0, "rewound results are invisible");
        results.record(&Outcome::ProtocolError("bad".into()), ctx.trace());
        assert_eq!(results.len(), 1);
        assert_eq!(
            results.iter().next().map(|(s, _)| s),
            Some(OutcomeSummary::ProtocolError)
        );
    }

    #[test]
    fn outcome_accessors() {
        let ok = Outcome::Response(vec![1, 2, 3]);
        assert_eq!(ok.response(), Some(&[1u8, 2, 3][..]));
        assert!(!ok.is_fault());
        let fault = Outcome::Fault(Fault::new(FaultKind::Segv, "here"));
        assert!(fault.is_fault());
        assert_eq!(fault.fault().unwrap().kind, FaultKind::Segv);
        assert_eq!(fault.response(), None);
    }

    #[test]
    fn fault_display_mentions_kind_and_site() {
        let fault = Fault::new(FaultKind::HeapUseAfterFree, "modbus.c:write_reg");
        let text = fault.to_string();
        assert!(text.contains("heap-use-after-free"));
        assert!(text.contains("modbus.c:write_reg"));
        let panic = Fault::new(FaultKind::Panic, intern_site("panic: boom"));
        assert_eq!(panic.to_string(), "panic at panic: boom");
    }

    #[test]
    fn intern_site_dedups_to_pointer_identical_statics() {
        let a = intern_site("chaos: injected panic #1");
        let b = intern_site(&format!("chaos: injected panic #{}", 1));
        // Pointer equality, not just content equality — faults dedup by site
        // pointer-compatible `&'static str` semantics in hash sets.
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "chaos: injected panic #1");
        let c = intern_site("chaos: injected panic #2");
        assert!(!std::ptr::eq(a, c));
    }

    #[test]
    fn record_hits_matches_record() {
        let mut ctx = TraceContext::new();
        ctx.edge(peachstar_coverage::EdgeId::new(42));
        ctx.edge(peachstar_coverage::EdgeId::new(7));
        let outcome = Outcome::Response(vec![1, 2]);
        let mut dense = WindowResults::new();
        dense.record(&outcome, ctx.trace());
        let mut sparse = WindowResults::new();
        let snapshot = ctx.trace().to_sparse();
        assert!(sparse.record_hits(
            OutcomeSummary::from(&outcome),
            snapshot.hits().iter().copied()
        ));
        assert!(dense.iter().eq(sparse.iter()));
        assert_eq!(
            dense.iter().next(),
            Some((OutcomeSummary::Response, snapshot.hits()))
        );
    }

    #[test]
    fn record_hits_round_trips_hits_and_refuses_any_other_form() {
        let mut ctx = TraceContext::new();
        for id in [900u32, 3, 77, 3, 12, 65_535] {
            ctx.edge(peachstar_coverage::EdgeId::new(id));
        }
        let original = ctx.trace().to_sparse();
        let mut results = WindowResults::new();
        assert!(results.record_hits(OutcomeSummary::Response, original.hits().iter().copied()));
        assert_eq!(
            results.iter().next_back().map(|(_, hits)| hits),
            Some(original.hits())
        );
        // Unsorted slots, a repeated slot and a zero count are refused.
        for messy in [
            vec![(9u16, 2u8), (4, 1)],
            vec![(4, 1), (4, 7)],
            vec![(1, 1), (2, 0)],
        ] {
            let summary = OutcomeSummary::ProtocolError;
            assert!(
                !results.record_hits(summary, messy.iter().copied()),
                "{messy:?}"
            );
        }
        assert!(results.record_hits(OutcomeSummary::ProtocolError, []));
        let records: Vec<_> = results.iter().collect();
        assert_eq!(
            records,
            vec![
                (OutcomeSummary::Response, original.hits()),
                (OutcomeSummary::ProtocolError, &[][..]),
            ]
        );
    }

    #[test]
    fn a_refused_record_leaves_the_record_as_it_was() {
        let mut results = WindowResults::new();
        assert!(results.record_hits(OutcomeSummary::Response, [(3, 1), (9, 2)]));
        // The refusal comes after some pairs were accepted: they go too.
        for messy in [
            [(10u16, 1u8), (11, 1), (11, 1)],
            [(12, 4), (13, 0), (14, 1)],
        ] {
            assert!(!results.record_hits(OutcomeSummary::ProtocolError, messy));
            assert_eq!(results.len(), 1, "{messy:?}");
            assert_eq!(results.hits, [(3, 1), (9, 2)], "{messy:?}");
        }
    }
}
