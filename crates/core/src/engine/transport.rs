//! The transport seam between [`TargetExecutor`](super::TargetExecutor) and
//! [`Target`]: *how* the executor's packets reach the target's decoder.
//!
//! Two transports exist:
//!
//! * [`TransportMode::InProcess`] — today's direct call, the default,
//!   bit-for-bit unchanged: the executor owns the target and invokes
//!   [`Target::process`] directly. `deploy` is the identity.
//! * [`TransportMode::FramedTcp`] — the target runs behind a real TCP
//!   listener (the [`peachstar_protocols::server`] socket-server mode, one
//!   fresh target instance per connection) and the executor holds a
//!   [`FramedTcpTarget`]: a `Target` implementation whose `process_batch`
//!   and `reset` are the wire's two length-framed request/response
//!   exchanges over a loopback socket (`process` is a window of one) —
//!   TPKT/COTP-framed (RFC 1006) for the ISO-stack targets (iec61850,
//!   iccp), raw `u32`-length-framed for the rest
//!   ([`WireFraming::for_target`]).
//!
//! The seam is deliberately *below* the executor: every reset-policy
//! decision, panic rebuild, watchdog deadline and window walk runs
//! client-side exactly as in-process, and the wire relays `(outcome summary,
//! sparse trace)` pairs verbatim (fault sites re-interned on receipt, so
//! dedup is pointer-compatible). That is what makes a loopback-TCP campaign
//! bit-identical to an in-process one — `tests/transport_equivalence.rs`
//! holds the proof across all six targets and both strategies.
//!
//! # Connection recovery
//!
//! A lost connection is *recovered*, not reported: every exchange failure
//! classifies the OS error ([`error_class`]), reconnects under the
//! deterministic bounded-exponential [`ReconnectPolicy`], and replays the
//! packet journal — every packet sent since the last `Reset` — on the fresh
//! connection so the brand-new server-side target instance deterministically
//! re-derives the lost one's state. Only then is the failed request retried.
//! Because the executor's reset cadence clears the journal at every window
//! boundary, a mid-window reconnect reproduces exactly the state a healthy
//! connection would hold, and the campaign report is bit-identical to an
//! undisturbed run (`tests/service_robustness.rs` pins this under the
//! deterministic server-side chaos injector, which drops connections before
//! processing the dropped frame).
//!
//! Only when the retry budget is exhausted does the target panic — with a
//! stable, attempt-count-free message that carries the error class
//! ("connection-refused" dedups apart from "connection-reset"), so the
//! executor's containment records one bug per failure class and the
//! [worker topology](super::shard) can recognise the prefix
//! (`is_connection_loss`), retire the dead connection and requeue its
//! window instead of failing the campaign.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use peachstar_coverage::TraceContext;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::server::{serve_with_chaos, ServerHandle, WireChaos};
use peachstar_protocols::wire::{MessageStream, Request, Response, WireFraming};
use peachstar_protocols::{DecodeSink, Outcome, OutcomeSummary, Target, WindowResults};

/// Which transport carries packets from the executor to the target.
///
/// Operational knob, not campaign semantics: reports are bit-identical
/// across transports, so the field is deliberately excluded from the
/// snapshot fingerprint (like `--exec-timeout-ms`) — a checkpoint recorded
/// under TCP resumes in-process and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Direct in-process calls (the default).
    #[default]
    InProcess,
    /// Length-framed request/response over a loopback TCP socket, against a
    /// spawned socket server.
    FramedTcp,
}

impl TransportMode {
    /// The `--transport` flag spelling of this mode.
    #[must_use]
    pub fn as_flag(self) -> &'static str {
        match self {
            TransportMode::InProcess => "inprocess",
            TransportMode::FramedTcp => "tcp",
        }
    }
}

/// A live socket server backing a framed-TCP campaign. Dropping it shuts
/// the listener down; the campaign drops its client connections first (they
/// die with the engine), so the per-connection handler threads have already
/// drained by then.
pub type TransportGuard = ServerHandle;

/// The deterministic reconnect schedule of a [`FramedTcpTarget`]: how many
/// times a lost connection is re-dialled, and the bounded exponential
/// backoff between attempts (`base_delay_ms << attempt`, capped at
/// `max_delay_ms`).
///
/// Operational knob, not campaign semantics: a recovered connection replays
/// its journal and produces the exact records a healthy one would, so the
/// policy is deliberately excluded from the snapshot fingerprint (like
/// `--exec-timeout-ms` and the transport itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Reconnect attempts per incident before the connection is declared
    /// lost (0 = fail on the first socket error, the pre-recovery
    /// behaviour).
    pub retries: u32,
    /// Backoff before the first reconnect attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_delay_ms: u64,
}

impl ReconnectPolicy {
    /// The default schedule: 4 attempts at 10 → 20 → 40 → 80 ms.
    pub const DEFAULT: Self = Self {
        retries: 4,
        base_delay_ms: 10,
        max_delay_ms: 250,
    };

    /// No recovery: the first socket error exhausts the budget immediately.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            retries: 0,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// A schedule with `retries` attempts and no backoff — deterministic
    /// tests and drills that should not sleep.
    #[must_use]
    pub const fn immediate(retries: u32) -> Self {
        Self {
            retries,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Sets the number of reconnect attempts per incident.
    #[must_use]
    pub const fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The backoff before attempt `attempt` (0-based): bounded exponential.
    #[must_use]
    pub fn delay_before(&self, attempt: u32) -> Duration {
        let shift = attempt.min(20);
        let millis = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms);
        Duration::from_millis(millis)
    }
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The dedup class of a transport-level socket error: coarse enough to be
/// stable across runs, fine enough that a refused connection (server gone)
/// files apart from a reset one (server dropped us mid-stream).
#[must_use]
pub fn error_class(kind: io::ErrorKind) -> &'static str {
    match kind {
        io::ErrorKind::ConnectionRefused => "connection-refused",
        io::ErrorKind::ConnectionReset => "connection-reset",
        io::ErrorKind::ConnectionAborted => "connection-aborted",
        io::ErrorKind::BrokenPipe => "broken-pipe",
        io::ErrorKind::UnexpectedEof => "eof",
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => "timed-out",
        _ => "io-error",
    }
}

/// The stable prefix of every budget-exhaustion panic message — the marker
/// the sharded engine uses to tell a dead connection from a target bug.
pub(crate) const CONNECTION_LOSS_PREFIX: &str = "framed-tcp transport: connection lost";

/// Whether a contained panic message reports an exhausted reconnect budget
/// (as opposed to a genuine target fault relayed over a healthy wire).
#[must_use]
pub(crate) fn is_connection_loss(message: &str) -> bool {
    message.starts_with(CONNECTION_LOSS_PREFIX)
}

/// The budget-exhaustion panic message for one error class. Deliberately
/// free of addresses and attempt counts: the message text *is* the interned
/// dedup site, so it must be identical across runs, ports and retry
/// schedules.
fn connection_loss_message(class: &'static str) -> String {
    format!("{CONNECTION_LOSS_PREFIX} ({class}): reconnect budget exhausted")
}

/// Wraps `target` in the requested transport.
///
/// For [`TransportMode::InProcess`] this is the identity. For
/// [`TransportMode::FramedTcp`] it spawns a socket server on an ephemeral
/// loopback port serving fresh clones of `target` (one per connection) and
/// returns a connected [`FramedTcpTarget`] plus the server guard, which the
/// caller must keep alive for the campaign's duration.
///
/// # Panics
///
/// Panics when the loopback listener cannot be bound or the first
/// connection cannot be established — a campaign without a reachable target
/// cannot run.
pub fn deploy(
    target: Box<dyn Target>,
    mode: TransportMode,
    policy: ReconnectPolicy,
    chaos: WireChaos,
) -> (Box<dyn Target>, Option<TransportGuard>) {
    match mode {
        TransportMode::InProcess => (target, None),
        TransportMode::FramedTcp => {
            let (client, guard) = deploy_tcp(target.as_ref(), policy, chaos);
            (Box::new(client), Some(guard))
        }
    }
}

/// [`deploy`] typed for callers that hold `Box<dyn Target + Send>`.
pub fn deploy_send(
    target: Box<dyn Target + Send>,
    mode: TransportMode,
    policy: ReconnectPolicy,
    chaos: WireChaos,
) -> (Box<dyn Target + Send>, Option<TransportGuard>) {
    let (target, guard) = deploy(target, mode, policy, chaos);
    (target, guard)
}

fn deploy_tcp(
    target: &dyn Target,
    policy: ReconnectPolicy,
    chaos: WireChaos,
) -> (FramedTcpTarget, TransportGuard) {
    let listener = TcpListener::bind("127.0.0.1:0")
        .expect("framed-tcp transport: binding a loopback listener");
    let guard = serve_with_chaos(listener, target.clone_fresh(), chaos)
        .expect("framed-tcp transport: spawning the socket server");
    let client = FramedTcpTarget::connect_with(target.clone_fresh(), guard.addr(), policy);
    (client, guard)
}

/// A [`Target`] whose calls cross a real TCP connection to a socket server
/// (see the module docs). One instance owns one connection;
/// [`Target::clone_fresh`] returns a target that opens a new connection to
/// the same server at its first exchange, which on the server side means a
/// brand-new target instance — exactly the semantics `clone_fresh` promises
/// in-process. A spare that is never executed (the executor's rebuild
/// source, the watchdog's factory) therefore never dials.
///
/// A window's exchange allocates nothing once the buffers have grown: the
/// request is encoded straight from the caller's packet slices into one
/// reused buffer, the journal appends the packets to one flat buffer, and
/// the reply is decoded straight into the caller's pooled
/// [`WindowResults`]. The buffers grow on first use, not at connect time.
pub struct FramedTcpTarget {
    /// Never executed: answers `name`/`data_models`/`session_template`
    /// locally (they are static per target) and seeds reconnect clones.
    blueprint: Box<dyn Target + Send>,
    addr: SocketAddr,
    policy: ReconnectPolicy,
    /// `None` until the first exchange of a [`Target::clone_fresh`] copy.
    stream: Option<TcpStream>,
    messages: MessageStream,
    /// The encoded request of the exchange in flight.
    request: Vec<u8>,
    /// The one record of a [`Target::process`] call.
    window: WindowResults,
    journal: Journal,
}

/// Every packet sent since the last successful `Reset`, in order — replayed
/// onto a fresh connection so the replacement server-side target re-derives
/// the lost one's state. Cleared on reset, so the executor's window cadence
/// bounds its size.
///
/// The packets lie back to back in one buffer; `ends[i]` is where packet `i`
/// ends.
#[derive(Debug, Default)]
struct Journal {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Journal {
    fn extend<'p>(&mut self, packets: impl IntoIterator<Item = &'p [u8]>) {
        for packet in packets {
            self.bytes.extend_from_slice(packet);
            self.ends.push(self.bytes.len());
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn packets(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.bytes[start..self.ends[i]]
        })
    }
}

impl std::fmt::Debug for FramedTcpTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedTcpTarget")
            .field("target", &self.blueprint.name())
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .finish()
    }
}

impl FramedTcpTarget {
    /// Connects to the socket server at `addr` serving `blueprint`'s
    /// target, under the default reconnect policy.
    ///
    /// # Panics
    ///
    /// Panics when the connection cannot be established within the policy's
    /// retry budget (a stable, errno-classed message — see the module
    /// docs).
    #[must_use]
    pub fn connect(blueprint: Box<dyn Target + Send>, addr: SocketAddr) -> Self {
        Self::connect_with(blueprint, addr, ReconnectPolicy::default())
    }

    /// [`connect`](Self::connect) with an explicit reconnect policy. The
    /// initial dial runs under the same backoff schedule as mid-campaign
    /// recovery, so a server that is still coming up does not kill the
    /// deploy.
    #[must_use]
    pub fn connect_with(
        blueprint: Box<dyn Target + Send>,
        addr: SocketAddr,
        policy: ReconnectPolicy,
    ) -> Self {
        let stream = match open_stream(addr, policy) {
            Ok(stream) => stream,
            Err(class) => panic!("{}", connection_loss_message(class)),
        };
        Self {
            stream: Some(stream),
            ..Self::unconnected(blueprint, addr, policy)
        }
    }

    /// A target for the server at `addr` that dials at its first exchange,
    /// under `policy` like any reconnect.
    fn unconnected(
        blueprint: Box<dyn Target + Send>,
        addr: SocketAddr,
        policy: ReconnectPolicy,
    ) -> Self {
        let framing = WireFraming::for_target(blueprint.name());
        Self {
            blueprint,
            addr,
            policy,
            stream: None,
            messages: MessageStream::new(framing),
            request: Vec::new(),
            window: WindowResults::new(),
            journal: Journal::default(),
        }
    }

    /// Opens a connection and replays the journal so the fresh server-side
    /// target re-derives the lost connection's state. Decode output of the
    /// replayed window is discarded: only the state transitions matter.
    fn reopen_and_replay(&mut self) -> Result<(), &'static str> {
        let stream = TcpStream::connect(self.addr).map_err(|e| error_class(e.kind()))?;
        stream.set_nodelay(true).map_err(|e| error_class(e.kind()))?;
        let stream = self.stream.insert(stream);
        self.messages = MessageStream::new(WireFraming::for_target(self.blueprint.name()));
        if self.journal.ends.is_empty() {
            return Ok(());
        }
        let mut replay = Vec::new();
        Request::encode_batch(self.journal.packets(), &mut replay);
        match Response::decode(round_trip(stream, &mut self.messages, &replay)?) {
            Ok(Response::Batch(records)) if records.len() == self.journal.ends.len() => Ok(()),
            other => panic!("framed-tcp transport: unexpected replay reply {other:?}"),
        }
    }

    /// Sends the encoded request and hands the reply to `decode`, with
    /// recovery: a lost connection is re-dialled under the backoff
    /// schedule, the journal replayed, and the request retried; a target
    /// that never connected dials the same way. Only an exhausted retry
    /// budget panics — with the stable errno-classed message the
    /// containment layer records and the sharded engine recognises
    /// ([`is_connection_loss`]). A *decodable but malformed* reply is
    /// `decode`'s to reject: that is a protocol bug, not a flapping wire.
    fn exchange<R>(&mut self, decode: impl FnOnce(&[u8]) -> R) -> R {
        let mut attempt = 0u32;
        loop {
            let reply = match (&mut self.stream, attempt) {
                (Some(stream), 0) => round_trip(stream, &mut self.messages, &self.request),
                _ => {
                    if attempt > 0 {
                        std::thread::sleep(self.policy.delay_before(attempt - 1));
                    }
                    match self.reopen_and_replay() {
                        Ok(()) => round_trip(
                            self.stream.as_mut().expect("reopened"),
                            &mut self.messages,
                            &self.request,
                        ),
                        Err(class) => Err(class),
                    }
                }
            };
            match reply {
                Ok(reply) => return decode(reply),
                Err(class) if attempt >= self.policy.retries => {
                    panic!("{}", connection_loss_message(class))
                }
                Err(_) => attempt += 1,
            }
        }
    }
}

/// One send/recv round on the current connection, lending the reply. A
/// socket or framing-stream error comes back as its dedup class for the
/// recovery loop.
fn round_trip<'m>(
    stream: &mut TcpStream,
    messages: &'m mut MessageStream,
    request: &[u8],
) -> Result<&'m [u8], &'static str> {
    messages
        .send(stream, request)
        .map_err(|error| error_class(error.kind()))?;
    match messages.recv(stream) {
        Ok(Some(reply)) => Ok(reply),
        // A clean server-side close mid-campaign is still a lost
        // connection; class it with the EOF family.
        Ok(None) => Err("eof"),
        Err(error) => Err(error_class(error.kind())),
    }
}

/// Dials `addr` under `policy`: the initial attempt plus `policy.retries`
/// backed-off re-dials, returning the last error class when all fail.
fn open_stream(addr: SocketAddr, policy: ReconnectPolicy) -> Result<TcpStream, &'static str> {
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(|e| error_class(e.kind()))?;
                return Ok(stream);
            }
            Err(error) => {
                let class = error_class(error.kind());
                if attempt >= policy.retries {
                    return Err(class);
                }
                std::thread::sleep(policy.delay_before(attempt));
                attempt += 1;
            }
        }
    }
}

impl Target for FramedTcpTarget {
    fn name(&self) -> &'static str {
        self.blueprint.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.blueprint.data_models()
    }

    fn session_template(&self) -> Option<peachstar_protocols::SessionTemplate> {
        self.blueprint.session_template()
    }

    /// A window of one. Its record carries the outcome's summary, so the
    /// returned outcome's payloads are empty.
    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        let mut window = std::mem::take(&mut self.window);
        self.process_batch(&[packet], ctx, &mut window, DecodeSink::Summary);
        let (summary, _) = window.iter().next().expect("one record per packet");
        self.window = window;
        match summary {
            OutcomeSummary::Response => Outcome::Response(Vec::new()),
            OutcomeSummary::ProtocolError => Outcome::ProtocolError(String::new()),
            OutcomeSummary::Fault(fault) => Outcome::Fault(fault),
        }
    }

    /// The server decodes every window under [`DecodeSink::Summary`],
    /// whatever `_sink` says: a record carries no payload either way.
    fn process_batch(
        &mut self,
        packets: &[&[u8]],
        ctx: &mut TraceContext,
        out: &mut WindowResults,
        _sink: DecodeSink,
    ) {
        // Rewound before the exchange, so a window whose connection is lost
        // holds no records, and `ctx` no trace, of an earlier one.
        ctx.reset();
        out.begin();
        Request::encode_batch(packets.iter().copied(), &mut self.request);
        self.exchange(|reply| match Response::decode(reply) {
            Ok(Response::Batch(records)) => records
                .decode_into(out)
                .unwrap_or_else(|error| panic!("framed-tcp transport: {error}")),
            other => panic!("framed-tcp transport: unexpected reply {other:?}"),
        });
        assert_eq!(
            out.len(),
            packets.len(),
            "framed-tcp transport: window record count mismatch"
        );
        self.journal.extend(packets.iter().copied());
        // The in-process default leaves the last execution's trace in
        // `ctx`; mirror that from its hits.
        if let Some((_, last)) = out.iter().next_back() {
            ctx.load_sparse(last);
        }
    }

    fn reset(&mut self) {
        Request::Reset.encode_into(&mut self.request);
        self.exchange(|reply| match Response::decode(reply) {
            Ok(Response::ResetDone) => {}
            other => panic!("framed-tcp transport: unexpected reply {other:?}"),
        });
        self.journal.clear();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(FramedTcpTarget::unconnected(
            self.blueprint.clone_fresh(),
            self.addr,
            self.policy,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_protocols::containment::contained;
    use peachstar_protocols::TargetId;

    /// The address of a loopback port that refuses connections.
    fn closed_port() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    }

    #[test]
    fn framed_tcp_target_matches_the_in_process_target() {
        for id in [TargetId::Modbus, TargetId::Iec61850] {
            let (mut tcp, _guard) = deploy_tcp(id.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
            let mut reference = id.create();
            let mut tcp_ctx = TraceContext::new();
            let mut ref_ctx = TraceContext::new();
            for packet in [&[0x01u8, 0x02][..], &[0x03, 0x00, 0x00, 0x10], &[]] {
                tcp_ctx.reset();
                ref_ctx.reset();
                let over_wire = tcp.process(packet, &mut tcp_ctx);
                let direct = reference.process(packet, &mut ref_ctx);
                assert_eq!(
                    OutcomeSummary::from(&over_wire),
                    OutcomeSummary::from(&direct),
                    "{id:?}"
                );
                assert_eq!(
                    tcp_ctx.trace().to_sparse(),
                    ref_ctx.trace().to_sparse(),
                    "{id:?}"
                );
            }
            tcp.reset();
            reference.reset();
        }
    }

    #[test]
    fn framed_tcp_windows_match_the_default_batch_impl() {
        let (mut tcp, _guard) =
            deploy_tcp(TargetId::Lib60870.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
        let mut reference = TargetId::Lib60870.create();
        let window: Vec<&[u8]> = vec![&[0x68, 0x04, 0x07, 0x00, 0x00, 0x00], &[0xFF], &[]];
        let mut tcp_ctx = TraceContext::new();
        let mut ref_ctx = TraceContext::new();
        let mut over_wire = WindowResults::new();
        let mut direct = WindowResults::new();
        tcp.process_batch(&window, &mut tcp_ctx, &mut over_wire, DecodeSink::Full);
        reference.process_batch(&window, &mut ref_ctx, &mut direct, DecodeSink::Full);
        assert_eq!(over_wire.len(), direct.len());
        assert!(over_wire.iter().eq(direct.iter()));
    }

    #[test]
    fn clone_fresh_reconnects_to_the_same_server() {
        let (tcp, _guard) = deploy_tcp(TargetId::Iec104.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
        let mut clone = tcp.clone_fresh();
        assert_eq!(clone.name(), "IEC104");
        let mut ctx = TraceContext::new();
        ctx.reset();
        // A fresh connection serves from a fresh server-side instance.
        let outcome = clone.process(&[0x68, 0x04, 0x43, 0x00, 0x00, 0x00], &mut ctx);
        assert!(!outcome.is_fault());
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential() {
        let policy = ReconnectPolicy::DEFAULT;
        assert_eq!(policy.delay_before(0), Duration::from_millis(10));
        assert_eq!(policy.delay_before(1), Duration::from_millis(20));
        assert_eq!(policy.delay_before(2), Duration::from_millis(40));
        assert_eq!(policy.delay_before(10), Duration::from_millis(250), "capped");
        assert_eq!(
            ReconnectPolicy::immediate(3).delay_before(2),
            Duration::ZERO,
            "immediate schedules never sleep"
        );
        assert_eq!(ReconnectPolicy::none().retries, 0);
        assert_eq!(ReconnectPolicy::default(), ReconnectPolicy::DEFAULT);
    }

    #[test]
    fn error_classes_keep_refused_and_reset_dedup_sites_apart() {
        use peachstar_protocols::intern_site;
        assert_eq!(error_class(io::ErrorKind::ConnectionRefused), "connection-refused");
        assert_eq!(error_class(io::ErrorKind::ConnectionReset), "connection-reset");
        assert_eq!(error_class(io::ErrorKind::BrokenPipe), "broken-pipe");
        assert_eq!(error_class(io::ErrorKind::UnexpectedEof), "eof");
        assert_eq!(error_class(io::ErrorKind::Other), "io-error");
        // The exhaustion messages — the interned dedup sites — differ per
        // class and never mention ports or attempt counts, so the same
        // failure class dedups into one bug across runs while refused and
        // reset file separately.
        let refused = connection_loss_message("connection-refused");
        let reset = connection_loss_message("connection-reset");
        assert_ne!(refused, reset);
        assert!(intern_site(&refused) != intern_site(&reset));
        assert_eq!(intern_site(&refused), intern_site(&connection_loss_message("connection-refused")));
        for message in [&refused, &reset] {
            assert!(is_connection_loss(message), "{message}");
            assert!(!message.contains("attempt"), "{message}");
            assert!(!message.contains(':') || !message.contains("127."), "{message}");
        }
        assert!(!is_connection_loss("chaos: injected panic #7"));
    }

    #[test]
    fn a_dead_server_exhausts_the_budget_with_a_classed_panic() {
        // The port is closed, so every dial is refused and the zero-backoff
        // policy exhausts instantly.
        let addr = closed_port();
        let result = contained(|| {
            FramedTcpTarget::connect_with(
                TargetId::Modbus.create_send(),
                addr,
                ReconnectPolicy::immediate(1),
            )
        });
        let message = result.expect_err("connect must fail against a closed port");
        assert_eq!(message, connection_loss_message("connection-refused"));
    }

    #[test]
    fn a_fresh_clone_dials_at_its_first_exchange() {
        // A clone of a target whose server is gone is built without a dial;
        // its first exchange dials under the policy and is refused.
        let addr = closed_port();
        let spare = FramedTcpTarget::unconnected(
            TargetId::Modbus.create_send(),
            addr,
            ReconnectPolicy::immediate(1),
        );
        let mut clone = spare.clone_fresh();
        assert_eq!(clone.name(), "libmodbus", "answered locally, no dial");
        let message = contained(|| clone.reset()).expect_err("the dial is refused");
        assert_eq!(message, connection_loss_message("connection-refused"));
    }

    #[test]
    fn a_lost_window_leaves_no_trace_in_the_context() {
        // A window whose exchange exhausts the budget must not leave the
        // previous execution's trace in `ctx`: the executor records the
        // connection-loss fault with whatever `ctx` holds.
        let mut tcp = FramedTcpTarget::unconnected(
            TargetId::Modbus.create_send(),
            closed_port(),
            ReconnectPolicy::none(),
        );
        let mut ctx = TraceContext::new();
        ctx.edge(peachstar_coverage::EdgeId::new(7));
        assert!(!ctx.trace().is_empty());
        let mut out = WindowResults::new();
        let lost = contained(|| {
            tcp.process_batch(&[&[0x01]], &mut ctx, &mut out, DecodeSink::Summary);
        });
        assert!(lost.is_err(), "the dial is refused");
        assert!(ctx.trace().is_empty(), "a lost window records no edge");
        assert!(out.is_empty());
    }

    #[test]
    fn a_flapping_server_is_survived_by_journal_replay() {
        // Open a session-stateful connection against a server that drops
        // the connection on the third frame (before processing it), then
        // keep processing: the recovery layer reconnects, replays the
        // journal (which re-opens the session on the fresh server-side
        // instance) and retries the dropped request, so the outcomes match
        // an undisturbed reference run bit for bit.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _server = serve_with_chaos(
            listener,
            TargetId::Iec104.create_send(),
            WireChaos::drop_every(3).limit(1),
        )
        .expect("serve");

        let startdt = [0x68u8, 0x04, 0x07, 0x00, 0x00, 0x00];
        let testfr = [0x68u8, 0x04, 0x43, 0x00, 0x00, 0x00];
        let mut reference = TargetId::Iec104.create();
        let mut tcp = FramedTcpTarget::connect_with(
            TargetId::Iec104.create_send(),
            addr,
            ReconnectPolicy::immediate(5),
        );
        let mut ref_ctx = TraceContext::new();
        let mut tcp_ctx = TraceContext::new();
        // Frames 1–2 are served; frame 3 hits the injector: the connection
        // dies before the request is processed, recovery replays the two
        // journaled session packets and retries the third.
        for packet in [&startdt[..], &testfr[..], &testfr[..], &startdt[..], &[0xFFu8][..]] {
            ref_ctx.reset();
            tcp_ctx.reset();
            let over_wire = tcp.process(packet, &mut tcp_ctx);
            let direct = reference.process(packet, &mut ref_ctx);
            assert_eq!(
                OutcomeSummary::from(&over_wire),
                OutcomeSummary::from(&direct),
                "journal replay restores session state"
            );
            assert_eq!(tcp_ctx.trace().to_sparse(), ref_ctx.trace().to_sparse());
        }
    }
}
