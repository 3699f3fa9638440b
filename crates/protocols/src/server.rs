//! Socket-server mode: run any [`Target`] behind a real TCP listener.
//!
//! [`serve`] spawns an accept loop; every accepted connection gets its own
//! handler thread with its own fresh target instance (built with
//! [`Target::clone_fresh`] from the server's blueprint), its own spare for
//! panic rebuilds, and its own [`TraceContext`] — exactly the ownership
//! model of one in-process executor lane. The handler speaks the
//! [`wire`](crate::wire) protocol: [`Request::Batch`] / [`Request::Reset`]
//! in, [`Response`] with outcome summaries and sparse traces out, framed per
//! [`WireFraming::for_target`].
//!
//! Server-side semantics replicate the in-process executor bit for bit:
//!
//! * **Batch**: the window runs through [`contained_window`], the
//!   in-process executor's own window step: one contained
//!   [`Target::process_batch`] under [`DecodeSink::Summary`](crate::DecodeSink)
//!   (a record carries no payload), and after a panic the rest of the
//!   window packet by packet. The records are those of the in-process
//!   window, so a client-visible window never fails, which is what makes
//!   TCP campaigns reduce to the same records as in-process ones.
//! * **Panic containment is server-side** ([`crate::containment`]): a target
//!   panic must become a `Panic` fault on the wire, not a dead handler
//!   thread and a broken socket.
//!
//! The server never calls `target.reset()` on its own schedule: reset policy
//! (window boundaries, post-fault hygiene beyond the mirrored sequence
//! above) belongs to the client-side executor, which ships explicit
//! [`Request::Reset`] messages. That keeps the reset cadence — and therefore
//! coverage — byte-identical to the in-process path.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use peachstar_coverage::TraceContext;

use crate::containment::{contained_window, RefTable};
use crate::wire::{MessageStream, Request, Response, WireFraming};
use crate::{Target, WindowResults};

/// Deterministic server-side failure injection for [`serve_with_chaos`]:
/// the wire-level counterpart of [`ChaosTarget`](crate::chaos::ChaosTarget).
/// Where the chaos *target* fails inside `process`, wire chaos fails the
/// *connection* — the shapes a flapping production endpoint actually shows
/// a fuzzer.
///
/// Frames are counted globally across all connections; on every
/// `drop_every_frames`-th received frame the handler drops its connection
/// *before processing that frame* (so the client-side journal replay plus
/// request retry reproduces the undisturbed packet sequence exactly — the
/// basis of the bit-identical-report guarantee), then the accept loop
/// rejects the next `reject_accepts_after_drop` connection attempts
/// (accept-and-close), modelling a server that goes away for a window and
/// comes back. `max_drops` bounds the total injected incidents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireChaos {
    /// Drop the handling connection on every Nth received frame (`None`
    /// disables wire chaos entirely).
    pub drop_every_frames: Option<u64>,
    /// After each drop, accept-and-immediately-close this many incoming
    /// connections before serving again.
    pub reject_accepts_after_drop: u64,
    /// Stop injecting after this many drops (`None` = unbounded).
    pub max_drops: Option<u64>,
}

impl WireChaos {
    /// Drops a connection on every `frames`-th received frame.
    #[must_use]
    pub const fn drop_every(frames: u64) -> Self {
        Self {
            drop_every_frames: Some(if frames == 0 { 1 } else { frames }),
            reject_accepts_after_drop: 0,
            max_drops: None,
        }
    }

    /// After each drop, also reject this many reconnect attempts.
    #[must_use]
    pub const fn reject_after_drop(mut self, rejects: u64) -> Self {
        self.reject_accepts_after_drop = rejects;
        self
    }

    /// Bounds the total number of injected drops.
    #[must_use]
    pub const fn limit(mut self, drops: u64) -> Self {
        self.max_drops = Some(drops);
        self
    }
}

/// The shared mutable side of [`WireChaos`]: global frame/drop counters plus
/// the pending accept-rejection budget.
#[derive(Debug, Default)]
struct WireChaosState {
    frames: AtomicU64,
    drops: AtomicU64,
    pending_rejects: AtomicU64,
}

impl WireChaosState {
    /// Counts one received frame and decides whether the handler must drop
    /// its connection before processing it.
    fn should_drop(&self, config: &WireChaos) -> bool {
        let Some(every) = config.drop_every_frames else {
            return false;
        };
        let frame = self.frames.fetch_add(1, Ordering::SeqCst) + 1;
        if !frame.is_multiple_of(every) {
            return false;
        }
        if let Some(max) = config.max_drops {
            // Claim a drop slot; back off once the budget is spent.
            if self.drops.fetch_add(1, Ordering::SeqCst) >= max {
                return false;
            }
        } else {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
        self.pending_rejects
            .store(config.reject_accepts_after_drop, Ordering::SeqCst);
        true
    }

    /// Whether the accept loop should reject (accept-and-close) the next
    /// incoming connection.
    fn should_reject_accept(&self) -> bool {
        self.pending_rejects
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |pending| {
                pending.checked_sub(1)
            })
            .is_ok()
    }
}

/// A running socket server: owns the accept thread and shuts it down on
/// drop. Connection handler threads are detached — each exits when its
/// client disconnects.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (use with a port-0 bind to
    /// discover the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept loop is blocked in `accept()`; a throwaway connect
            // wakes it so it can observe the flag and exit.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs `target` behind `listener`: every accepted connection is served by
/// its own thread with its own [`Target::clone_fresh`] instance. Returns a
/// handle that stops the accept loop on drop.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve(listener: TcpListener, target: Box<dyn Target + Send>) -> io::Result<ServerHandle> {
    serve_with_chaos(listener, target, WireChaos::default())
}

/// [`serve`] with deterministic server-side failure injection: connections
/// are dropped mid-stream and reconnects rejected per `chaos` (see
/// [`WireChaos`]). With the default (no-op) config this is exactly `serve`.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_with_chaos(
    listener: TcpListener,
    target: Box<dyn Target + Send>,
    chaos: WireChaos,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = Arc::clone(&shutdown);
    let state = Arc::new(WireChaosState::default());
    let accept = std::thread::Builder::new()
        .name(format!("peachstar-serve-{}", target.name()))
        .spawn(move || {
            for connection in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = connection else { continue };
                if state.should_reject_accept() {
                    // "Server went away": accept-and-close, so the client
                    // sees an immediate reset and must burn a retry.
                    drop(stream);
                    continue;
                }
                let connection_target = target.clone_fresh();
                let spare = target.clone_fresh();
                let connection_state = Arc::clone(&state);
                let _ = std::thread::Builder::new()
                    .name("peachstar-serve-conn".to_owned())
                    .spawn(move || {
                        // Handler errors mean the client vanished (or the
                        // stream desynchronised); either way the connection
                        // is done and the client rebuilds via clone_fresh.
                        let _ = handle_connection(
                            stream,
                            connection_target,
                            spare,
                            chaos,
                            &connection_state,
                        );
                    });
            }
        })?;
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

/// Serves one connection until EOF: the request/reply loop described in the
/// module docs. A batch's packets are executed as borrowed slices of the
/// received message into one reused [`WindowResults`], whose records are
/// written into one reused reply buffer, so an exchange allocates nothing.
fn handle_connection(
    mut stream: TcpStream,
    mut target: Box<dyn Target>,
    spare: Box<dyn Target>,
    chaos: WireChaos,
    chaos_state: &WireChaosState,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let framing = WireFraming::for_target(target.name());
    let mut messages = MessageStream::new(framing);
    let mut ctx = TraceContext::new();
    let (mut refs, mut results) = (RefTable::default(), WindowResults::new());
    let mut reply = Vec::new();
    while let Some(message) = messages.recv(&mut stream)? {
        if chaos_state.should_drop(&chaos) {
            // Drop BEFORE processing: the request was never executed, so the
            // client's journal replay plus retry reproduces the healthy
            // sequence with no at-least-once ambiguity.
            return Ok(());
        }
        match Request::decode(message)? {
            Request::Batch(packets) => {
                refs.with(packets.iter(), |packets| {
                    contained_window(&mut target, spare.as_ref(), &mut ctx, packets, &mut results);
                });
                Response::encode_batch(&results, &mut reply);
            }
            Request::Reset => {
                target.reset();
                Response::ResetDone.encode_into(&mut reply);
            }
        }
        messages.send(&mut stream, &reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modbus::ModbusServer;
    use crate::wire::FrameReassembler;

    fn exchange<'m>(
        stream: &mut TcpStream,
        messages: &'m mut MessageStream,
        payload: &[u8],
    ) -> Response<'m> {
        messages.send(stream, payload).expect("send");
        let reply = messages.recv(stream).expect("recv").expect("reply");
        Response::decode(reply).expect("valid response")
    }

    /// The payload of a batch request for `packets`.
    fn batch(packets: &[&[u8]]) -> Vec<u8> {
        let mut payload = Vec::new();
        Request::encode_batch(packets.iter().copied(), &mut payload);
        payload
    }

    #[test]
    fn serves_process_batch_and_reset_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut server = serve(listener, Box::new(ModbusServer::new())).expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let framing = WireFraming::for_target("libmodbus");
        assert_eq!(framing, WireFraming::Raw);
        let mut messages = MessageStream::new(framing);

        // Batch: per-packet summaries in order, matching the sequential
        // reference loop. The syntactically hopeless first packet comes back
        // as the protocol error the in-process target records.
        let packets: [&[u8]; 3] = [&[0x01], &[0x02], &[0x01]];
        let Response::Batch(records) = exchange(&mut stream, &mut messages, &batch(&packets))
        else {
            panic!("expected a batch response");
        };
        let mut window = crate::WindowResults::new();
        records.decode_into(&mut window).expect("valid records");
        assert_eq!(window.len(), packets.len());
        let mut reference = ModbusServer::new();
        let mut ctx = TraceContext::new();
        for (packet, (summary, hits)) in packets.iter().zip(window.iter()) {
            ctx.reset();
            let outcome = reference.process(packet, &mut ctx);
            assert_eq!(summary, crate::OutcomeSummary::from(&outcome));
            assert_eq!(hits, ctx.trace().to_sparse().hits());
        }
        assert_eq!(
            window.iter().next().map(|(s, _)| s),
            Some(crate::OutcomeSummary::ProtocolError)
        );

        let mut reset = Vec::new();
        Request::Reset.encode_into(&mut reset);
        assert_eq!(
            exchange(&mut stream, &mut messages, &reset),
            Response::ResetDone
        );

        server.shutdown();
    }

    #[test]
    fn wire_chaos_drops_the_connection_before_processing_the_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = serve_with_chaos(
            listener,
            Box::new(ModbusServer::new()),
            WireChaos::drop_every(3).limit(1),
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut messages = MessageStream::new(WireFraming::Raw);
        let payload = batch(&[&[0x01]]);

        // Frames 1 and 2 are answered; frame 3 hits the injector and the
        // connection dies without a reply.
        for _ in 0..2 {
            let reply = exchange(&mut stream, &mut messages, &payload);
            assert!(matches!(reply, Response::Batch(..)));
        }
        messages.send(&mut stream, &payload).expect("send");
        assert_eq!(
            messages.recv(&mut stream).expect("clean close"),
            None,
            "the chaos frame is dropped before processing, closing the stream"
        );

        // `limit(1)` spent the budget: a fresh connection serves normally.
        let mut retry = TcpStream::connect(server.addr()).expect("reconnect");
        let mut retry_messages = MessageStream::new(WireFraming::Raw);
        let reply = exchange(&mut retry, &mut retry_messages, &payload);
        assert!(matches!(reply, Response::Batch(..)));
    }

    #[test]
    fn wire_chaos_rejects_reconnects_after_a_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = serve_with_chaos(
            listener,
            Box::new(ModbusServer::new()),
            WireChaos::drop_every(1).limit(1).reject_after_drop(2),
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut messages = MessageStream::new(WireFraming::Raw);

        // The very first frame is dropped and arms two accept-rejections.
        let payload = batch(&[&[0x01]]);
        messages.send(&mut stream, &payload).expect("send");
        assert_eq!(messages.recv(&mut stream).expect("clean close"), None);

        // The next two connection attempts are accepted-and-closed: the
        // socket opens but dies before answering a request.
        for _ in 0..2 {
            let mut rejected = TcpStream::connect(server.addr()).expect("connect");
            let mut rejected_messages = MessageStream::new(WireFraming::Raw);
            rejected_messages.send(&mut rejected, &payload).ok();
            match rejected_messages.recv(&mut rejected) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("rejected connection must not be served"),
            }
        }

        // The third attempt is served again (and chaos is out of budget).
        let mut healthy = TcpStream::connect(server.addr()).expect("connect");
        let mut healthy_messages = MessageStream::new(WireFraming::Raw);
        let reply = exchange(&mut healthy, &mut healthy_messages, &payload);
        assert!(matches!(reply, Response::Batch(..)));
    }

    #[test]
    fn each_connection_gets_its_own_target_instance() {
        // Two interleaved connections must not share protocol state: a
        // session opened on one is invisible to the other. We use the raw
        // reassembler here only to prove frames survive byte-split delivery
        // through a real socket.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = serve(listener, Box::new(ModbusServer::new())).expect("serve");
        let mut first = TcpStream::connect(server.addr()).expect("connect");
        let mut second = TcpStream::connect(server.addr()).expect("connect");
        let mut messages_first = MessageStream::new(WireFraming::Raw);
        let mut messages_second = MessageStream::new(WireFraming::Raw);
        let packet = [
            0x00u8, 0x01, 0x00, 0x00, 0x00, 0x06, 0x11, 0x03, 0x00, 0x6B, 0x00, 0x03,
        ];
        let payload = batch(&[&packet]);
        let a = exchange(&mut first, &mut messages_first, &payload);
        let b = exchange(&mut second, &mut messages_second, &payload);
        assert_eq!(a, b, "independent fresh instances answer identically");
        let _ = FrameReassembler::new(WireFraming::Raw);
    }
}
