//! The traced run: per-layer timing taken from outside the library.
//!
//! Every campaign driver accepts two plug-ins, a [`Target`] and a
//! [`GenerationStrategy`]. Wrapping them is enough to time every layer
//! without touching library code:
//!
//! * [`TimedStrategy`] times `next_packet[_into]` (the `strategy` layer) and
//!   `observe` of valuable seeds (the `cracker` layer). Its
//!   `snapshot_state` call marks the start of a checkpoint, which lasts
//!   until the next generated packet (the `snapshot` layer).
//! * [`TimedTarget`] comes in two sides. The *client* side is what the
//!   engine calls; the *server* side wraps the decoder itself. In-process
//!   the client wraps the server directly; over the wire the server side
//!   runs in the socket server's thread. Client time minus server time is
//!   the `transport` layer. Server time is the `protocols` layer.
//! * [`CountingAlloc`] counts allocations per thread and in total while
//!   tracing is switched on.
//!
//! Per-packet calls are only aggregated. Engine-side per-window calls
//! (`process_batch`, `reset`) are also kept as intervals, so that parallel
//! execution can be measured as their union.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use peachstar::strategy::{GeneratedPacket, GenerationStrategy, StrategyState};
use peachstar_coverage::TraceContext;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{DecodeSink, Outcome, SessionTemplate, Target, WindowResults};
use rand::rngs::SmallRng;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(allocations, bytes)` made by this thread while counting was on.
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Whether a client-side target call is running on this thread.
    static IN_CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus allocation counters that only count while
/// tracing is on, so untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        TOTAL_ALLOCS.fetch_add(1, Relaxed);
        // `try_with`: the slot is gone while a thread is being torn down.
        let _ = THREAD_ALLOCS.try_with(|slot| {
            let (count, bytes) = slot.get();
            slot.set((count + 1, bytes + size as u64));
        });
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters neither
// allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Switches allocation counting on or off for every thread.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations made by all threads while counting was on.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Relaxed)
}

/// `(allocations, bytes)` made by the calling thread while counting was on.
pub fn thread_allocs() -> (u64, u64) {
    THREAD_ALLOCS.with(Cell::get)
}

/// Time, call and allocation totals of one layer.
#[derive(Debug, Default)]
pub struct Acc {
    calls: AtomicU64,
    nanos: AtomicU64,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Acc {
    fn add(&self, nanos: u64, allocs: u64, bytes: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(nanos, Relaxed);
        self.allocs.fetch_add(allocs, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }

    pub fn allocs(&self) -> u64 {
        self.allocs.load(Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }
}

/// Everything one traced pass records. Shared by `Arc` between the
/// strategy, the client and server targets, and their clones on worker and
/// server threads.
#[derive(Debug)]
pub struct Layers {
    origin: Instant,
    pub strategy: Acc,
    /// Valuable `observe` calls: cracking plus corpus insertion.
    pub cracker: Acc,
    /// Valuable `observe` calls after which the corpus had grown.
    cracker_useful: AtomicU64,
    /// Engine-side target calls: what the engine waits for.
    pub client: Acc,
    /// `(start, end)` of every engine-side window call, in nanoseconds
    /// since the trace origin.
    windows: Mutex<Vec<(u64, u64)>>,
    /// Client time of per-packet `process` calls, which are not windows.
    client_packets: AtomicU64,
    /// Decoder-side target calls.
    pub server: Acc,
    /// Server allocations made inside a client call on the same thread
    /// (in-process), which the client's own count already includes.
    server_nested_allocs: AtomicU64,
    /// Checkpoints, from the strategy-state capture to the next packet.
    pub snapshot: Acc,
}

impl Layers {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            strategy: Acc::default(),
            cracker: Acc::default(),
            cracker_useful: AtomicU64::new(0),
            client: Acc::default(),
            windows: Mutex::new(Vec::new()),
            client_packets: AtomicU64::new(0),
            server: Acc::default(),
            server_nested_allocs: AtomicU64::new(0),
            snapshot: Acc::default(),
        })
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn cracker_useful(&self) -> u64 {
        self.cracker_useful.load(Relaxed)
    }

    pub fn server_nested_allocs(&self) -> u64 {
        self.server_nested_allocs.load(Relaxed)
    }

    /// Wall time during which at least one client call was running: the
    /// time the engine spent waiting for execution, however many workers
    /// ran it.
    pub fn exec_wall_secs(&self) -> f64 {
        let mut intervals = self.windows.lock().expect("window list poisoned").clone();
        intervals.sort_unstable();
        let mut union = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (start, end) in intervals {
            current = match current {
                Some((open, close)) if start <= close => Some((open, close.max(end))),
                Some((open, close)) => {
                    union += close - open;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        if let Some((open, close)) = current {
            union += close - open;
        }
        (union + self.client_packets.load(Relaxed)) as f64 * 1e-9
    }
}

/// Which side of the transport a [`TimedTarget`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// What the engine calls.
    Client,
    /// The decoder itself.
    Server,
}

/// A [`Target`] that times every execution-carrying call into its layer
/// and hands out equally timed clones, so worker copies, server-side
/// per-connection copies and rebuilt targets all stay measured.
pub struct TimedTarget {
    inner: Box<dyn Target + Send>,
    layers: Arc<Layers>,
    side: Side,
}

impl TimedTarget {
    pub fn new(inner: Box<dyn Target + Send>, layers: &Arc<Layers>, side: Side) -> Self {
        Self {
            inner,
            layers: Arc::clone(layers),
            side,
        }
    }

    /// Both sides around an in-process target.
    pub fn in_process(
        target: Box<dyn Target + Send>,
        layers: &Arc<Layers>,
    ) -> Box<dyn Target + Send> {
        let server = Box::new(Self::new(target, layers, Side::Server));
        Box::new(Self::new(server, layers, Side::Client))
    }

    /// Times one call; `window` marks a per-window call, whose engine-side
    /// interval is kept.
    fn timed<R>(&mut self, window: bool, call: impl FnOnce(&mut dyn Target) -> R) -> R {
        let Self {
            inner,
            layers,
            side,
        } = self;
        let side = *side;
        let (allocs_before, bytes_before) = thread_allocs();
        let start = layers.now();
        let in_client = IN_CLIENT.with(Cell::get);
        if side == Side::Client {
            IN_CLIENT.with(|flag| flag.set(true));
        }
        let result = call(inner.as_mut());
        let end = layers.now();
        let (allocs_after, bytes_after) = thread_allocs();
        let (nanos, allocs, bytes) = (
            end - start,
            allocs_after - allocs_before,
            bytes_after - bytes_before,
        );
        match side {
            Side::Client => {
                IN_CLIENT.with(|flag| flag.set(in_client));
                layers.client.add(nanos, allocs, bytes);
                if window {
                    layers
                        .windows
                        .lock()
                        .expect("window list poisoned")
                        .push((start, end));
                } else {
                    layers.client_packets.fetch_add(nanos, Relaxed);
                }
            }
            Side::Server => {
                layers.server.add(nanos, allocs, bytes);
                if in_client {
                    layers.server_nested_allocs.fetch_add(allocs, Relaxed);
                }
            }
        }
        result
    }
}

impl Target for TimedTarget {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.inner.data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        self.timed(false, |target| target.process(packet, ctx))
    }

    fn process_batch(
        &mut self,
        packets: &[&[u8]],
        ctx: &mut TraceContext,
        out: &mut WindowResults,
        sink: DecodeSink,
    ) {
        self.timed(true, |target| target.process_batch(packets, ctx, out, sink));
    }

    fn reset(&mut self) {
        self.timed(true, |target| target.reset());
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new(self.inner.clone_fresh(), &self.layers, self.side))
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        self.inner.session_template()
    }
}

/// A [`GenerationStrategy`] that times generation, cracking and the
/// checkpoints the engine takes between windows.
pub struct TimedStrategy {
    inner: Box<dyn GenerationStrategy>,
    layers: Arc<Layers>,
    /// `(start, thread allocations, thread bytes)` of the open checkpoint.
    open_snapshot: Cell<Option<(u64, u64, u64)>>,
}

impl TimedStrategy {
    pub fn new(inner: Box<dyn GenerationStrategy>, layers: &Arc<Layers>) -> Self {
        Self {
            inner,
            layers: Arc::clone(layers),
            open_snapshot: Cell::new(None),
        }
    }

    /// Ends the open checkpoint, if any: the engine has moved on.
    fn close_snapshot(&self) {
        if let Some((start, allocs, bytes)) = self.open_snapshot.take() {
            let end = self.layers.now();
            let (allocs_now, bytes_now) = thread_allocs();
            self.layers
                .snapshot
                .add(end - start, allocs_now - allocs, bytes_now - bytes);
        }
    }

    fn generate<R>(&mut self, call: impl FnOnce(&mut dyn GenerationStrategy) -> R) -> R {
        self.close_snapshot();
        let (allocs, bytes) = thread_allocs();
        let start = self.layers.now();
        let result = call(self.inner.as_mut());
        let end = self.layers.now();
        let (allocs_after, bytes_after) = thread_allocs();
        self.layers
            .strategy
            .add(end - start, allocs_after - allocs, bytes_after - bytes);
        result
    }
}

impl Drop for TimedStrategy {
    fn drop(&mut self) {
        // A campaign's final checkpoint has no next packet; it lasts until
        // the driver lets go of its strategy.
        self.close_snapshot();
    }
}

impl GenerationStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_packet(&mut self, models: &DataModelSet, rng: &mut SmallRng) -> GeneratedPacket {
        self.generate(|strategy| strategy.next_packet(models, rng))
    }

    fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        self.generate(|strategy| strategy.next_packet_into(models, rng, slot));
    }

    fn observe(&mut self, packet: &GeneratedPacket, valuable: bool, models: &DataModelSet) {
        if !valuable {
            self.inner.observe(packet, valuable, models);
            return;
        }
        let corpus = self.inner.corpus_size();
        let (allocs, bytes) = thread_allocs();
        let start = self.layers.now();
        self.inner.observe(packet, valuable, models);
        let end = self.layers.now();
        let (allocs_after, bytes_after) = thread_allocs();
        self.layers
            .cracker
            .add(end - start, allocs_after - allocs, bytes_after - bytes);
        if self.inner.corpus_size() > corpus {
            self.layers.cracker_useful.fetch_add(1, Relaxed);
        }
    }

    fn corpus_size(&self) -> usize {
        self.inner.corpus_size()
    }

    fn snapshot_state(&self) -> StrategyState {
        self.close_snapshot();
        let (allocs, bytes) = thread_allocs();
        self.open_snapshot
            .set(Some((self.layers.now(), allocs, bytes)));
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: StrategyState) -> bool {
        self.inner.restore_state(state)
    }
}
