//! The framed-TCP wire format: how a transport request/response crosses a
//! real socket.
//!
//! Two layers live here, both speaking plain `std` byte buffers so they are
//! testable without sockets:
//!
//! 1. **Framing** ([`WireFraming`]): how a message's bytes are delimited on
//!    the stream. The non-ISO targets (modbus, iec104, dnp3, lib60870) use
//!    [`WireFraming::Raw`] — a big-endian `u32` length prefix. The ISO-stack
//!    targets (iec61850, iccp) use [`WireFraming::Tpkt`] — RFC 1006
//!    TPKT packets carrying COTP DT TPDUs, the same ISO-on-TCP framing the
//!    real MMS/TASE.2 servers speak: `03 00 LL LL` (TPKT version, reserved,
//!    big-endian total length) followed by `02 F0 EOT` (COTP length
//!    indicator, DT code, end-of-TSDU flag). Messages larger than one TPKT
//!    packet (65 535 bytes total) are segmented into a chain of DT TPDUs
//!    whose last — and only the last — sets the EOT bit `0x80`. Every frame
//!    this framer emits passes an independent RFC 1006 TPKT/COTP header
//!    check (`crates/protocols/tests/wire_framing.rs` proves it by property
//!    test).
//! 2. **Messages** ([`Request`], [`Response`]): the transport protocol
//!    itself — process a reset-aligned window of packets, reset — with
//!    outcomes, fault records and sparse coverage traces serialised
//!    symmetrically on both sides. Fault sites cross the wire as strings and are re-interned
//!    on decode ([`crate::intern_site`]), so a fault that travelled through
//!    a socket deduplicates against the same fault recorded in process.
//!    Decoding borrows: a batch request's packets are slices of the
//!    received payload, and a batch reply's records are decoded straight
//!    into the caller's [`WindowResults`]. A trace is accepted only in the
//!    form a snapshot has — slots strictly ascending, no zero count — so a
//!    corrupted reply fails instead of decoding into another trace.
//!
//! [`FrameReassembler`] is the streaming decoder: bytes arrive in arbitrary
//! splits (TCP guarantees nothing about read boundaries) and messages pop
//! out whole, lent from its receive buffer, once their final byte lands.

use std::io::{self, Read, Write};
use std::ops::Range;

use crate::{intern_site, Fault, FaultKind, Outcome, WindowResults};

/// TPKT version byte (RFC 1006).
const TPKT_VERSION: u8 = 0x03;
/// COTP length indicator of a DT TPDU: two header bytes follow (code, EOT).
const COTP_DT_LI: u8 = 0x02;
/// COTP TPDU code of a DT (data) TPDU with credit 0.
const COTP_DT_CODE: u8 = 0xF0;
/// End-of-TSDU flag: set on the last DT TPDU of a message.
const COTP_EOT: u8 = 0x80;
/// Bytes of TPKT + COTP DT header per frame.
const TPKT_HEADER: usize = 7;
/// Maximum user-data bytes in one TPKT frame (total length is a `u16`).
const TPKT_MAX_USER: usize = u16::MAX as usize - TPKT_HEADER;

/// How messages are delimited on the TCP stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFraming {
    /// Big-endian `u32` length prefix, one frame per message.
    Raw,
    /// RFC 1006 TPKT packets carrying COTP DT TPDUs; one message is a chain
    /// of DT TPDUs ending with the EOT bit.
    Tpkt,
}

impl WireFraming {
    /// The framing a target speaks on the wire, by target name: the
    /// ISO-stack targets (libiec61850's MMS, libiec_iccp_mod's TASE.2) ride
    /// on ISO-on-TCP (TPKT/COTP); everything else is raw-framed.
    #[must_use]
    pub fn for_target(name: &str) -> Self {
        match name {
            "libiec61850" | "libiec_iccp_mod" => WireFraming::Tpkt,
            _ => WireFraming::Raw,
        }
    }

    /// Appends the framed encoding of one whole message to `out`.
    pub fn frame_into(self, payload: &[u8], out: &mut Vec<u8>) {
        match self {
            WireFraming::Raw => {
                let len = u32::try_from(payload.len())
                    .expect("a wire message never exceeds 4 GiB");
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(payload);
            }
            WireFraming::Tpkt => {
                // Chunk into maximal DT TPDUs; only the last carries EOT. An
                // empty message is one empty DT with EOT set.
                let mut chunks = payload.chunks(TPKT_MAX_USER);
                let mut remaining = chunks.len().max(1);
                loop {
                    let chunk: &[u8] = chunks.next().unwrap_or(&[]);
                    remaining = remaining.saturating_sub(1);
                    let total = (TPKT_HEADER + chunk.len()) as u16;
                    out.push(TPKT_VERSION);
                    out.push(0x00);
                    out.extend_from_slice(&total.to_be_bytes());
                    out.push(COTP_DT_LI);
                    out.push(COTP_DT_CODE);
                    out.push(if remaining == 0 { COTP_EOT } else { 0x00 });
                    out.extend_from_slice(chunk);
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// The framed encoding of one whole message.
    #[must_use]
    pub fn frame(self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + TPKT_HEADER);
        self.frame_into(payload, &mut out);
        out
    }
}

/// A framing violation on the stream. Both endpoints are ours, so this only
/// fires on a desynchronised or corrupted connection; the reader treats it
/// as fatal for the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(&'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire framing error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(error: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, error)
    }
}

/// The receive buffer's first size; it doubles whenever a message outgrows
/// it.
const INITIAL_BUFFER_LEN: usize = 16 * 1024;

/// Streaming frame decoder: feed bytes in arbitrary splits with
/// [`push`](FrameReassembler::push), pop whole messages with
/// [`next_message`](FrameReassembler::next_message).
///
/// A popped message is lent straight out of the receive buffer: a raw frame
/// is its payload in place, and a TPKT chain has its DT user data joined in
/// place (a single-TPDU message moves nothing). The buffer keeps its bytes
/// initialised and is only compacted or grown when the room behind the
/// buffered bytes runs short, so steady-state reassembly neither allocates
/// nor zeroes.
#[derive(Debug)]
pub struct FrameReassembler {
    framing: WireFraming,
    /// Received, unconsumed stream bytes are `buffer[start..end]`;
    /// `buffer[end..]` is room for the next bytes.
    buffer: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReassembler {
    /// Creates a reassembler for the given framing.
    #[must_use]
    pub fn new(framing: WireFraming) -> Self {
        Self {
            framing,
            buffer: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `reader` straight into the buffer's room; returns the
    /// byte count (0 at end of stream).
    fn read_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        let read = reader.read(self.room(1))?;
        self.end += read;
        Ok(read)
    }

    /// At least `needed` bytes of room behind the buffered bytes: moves the
    /// unconsumed bytes to the front, and grows the buffer, only when the
    /// room is short. The buffer doubles, so how often it grows depends on
    /// the sizes of the messages, not on how the stream was split into
    /// reads.
    fn room(&mut self, needed: usize) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buffer.len() - self.end < needed {
            self.buffer.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buffer.len() - self.end < needed {
                let grown = (self.end + needed)
                    .max(2 * self.buffer.len())
                    .max(INITIAL_BUFFER_LEN);
                self.buffer.resize(grown, 0);
            }
        }
        &mut self.buffer[self.end..]
    }

    /// `true` when unconsumed bytes are pending — a clean connection
    /// shutdown must not leave any.
    #[must_use]
    pub fn is_mid_message(&self) -> bool {
        self.start < self.end
    }

    /// Pops the next complete message, if one is fully buffered. The message
    /// is lent from the receive buffer until the next call.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the buffered bytes violate the framing
    /// (bad TPKT version, non-DT TPDU, impossible length).
    pub fn next_message(&mut self) -> Result<Option<&[u8]>, WireError> {
        Ok(self.pop()?.map(|message| &self.buffer[message]))
    }

    /// [`next_message`](Self::next_message) as a range of the buffer.
    fn pop(&mut self) -> Result<Option<Range<usize>>, WireError> {
        let pending = &self.buffer[self.start..self.end];
        match self.framing {
            WireFraming::Raw => {
                let Some(header) = pending.get(..4) else {
                    return Ok(None);
                };
                let len = u32::from_be_bytes(header.try_into().expect("4 bytes")) as usize;
                if pending.get(4..4 + len).is_none() {
                    return Ok(None);
                }
                let message = self.start + 4..self.start + 4 + len;
                self.start = message.end;
                Ok(Some(message))
            }
            WireFraming::Tpkt => {
                // Walk the DT chain up to its EOT TPDU without consuming
                // anything: a message pops only once it is whole.
                let mut chain = 0;
                loop {
                    let Some(header) = pending.get(chain..chain + 4) else {
                        return Ok(None);
                    };
                    if header[0] != TPKT_VERSION || header[1] != 0x00 {
                        return Err(WireError("bad TPKT header"));
                    }
                    let total = u16::from_be_bytes([header[2], header[3]]) as usize;
                    if total < TPKT_HEADER {
                        return Err(WireError("TPKT length below the COTP DT header"));
                    }
                    let Some(frame) = pending.get(chain..chain + total) else {
                        return Ok(None);
                    };
                    if frame[4] != COTP_DT_LI || frame[5] != COTP_DT_CODE {
                        return Err(WireError("expected a COTP DT TPDU"));
                    }
                    let eot = frame[6];
                    if eot != COTP_EOT && eot != 0x00 {
                        return Err(WireError("bad COTP end-of-TSDU flag"));
                    }
                    chain += total;
                    if eot == COTP_EOT {
                        break;
                    }
                }
                // Join the user data in place: each continuation's data
                // moves down over the headers before it.
                let (first, last) = (self.start, self.start + chain);
                let mut joined = first + TPKT_HEADER;
                let mut frame = first;
                while frame < last {
                    let total =
                        u16::from_be_bytes([self.buffer[frame + 2], self.buffer[frame + 3]]);
                    let data = frame + TPKT_HEADER..frame + usize::from(total);
                    if data.start != joined {
                        self.buffer.copy_within(data.clone(), joined);
                    }
                    joined += data.len();
                    frame = data.end;
                }
                self.start = last;
                Ok(Some(first + TPKT_HEADER..joined))
            }
        }
    }
}

/// A message-oriented view of a byte stream: framed sends, reassembled
/// receives. Generic over `Read`/`Write` so the codec is testable on
/// in-memory buffers; in production both are the two halves of a
/// `TcpStream`.
#[derive(Debug)]
pub struct MessageStream {
    framing: WireFraming,
    reassembler: FrameReassembler,
    scratch: Vec<u8>,
}

impl MessageStream {
    /// Creates a message stream speaking the given framing.
    #[must_use]
    pub fn new(framing: WireFraming) -> Self {
        Self {
            framing,
            reassembler: FrameReassembler::new(framing),
            scratch: Vec::new(),
        }
    }

    /// Frames and writes one whole message.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn send(&mut self, writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        self.scratch.clear();
        self.framing.frame_into(payload, &mut self.scratch);
        writer.write_all(&self.scratch)
    }

    /// Reads until one whole message is reassembled and lends it out of the
    /// receive buffer until the next call. Returns `Ok(None)` on a clean
    /// end-of-stream at a message boundary.
    ///
    /// # Errors
    ///
    /// Propagates read errors; end-of-stream mid-message and framing
    /// violations surface as [`io::ErrorKind::InvalidData`] /
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self, reader: &mut impl Read) -> io::Result<Option<&[u8]>> {
        let message = loop {
            if let Some(message) = self.reassembler.pop()? {
                break message;
            }
            if self.reassembler.read_from(reader)? == 0 {
                if self.reassembler.is_mid_message() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-message",
                    ));
                }
                return Ok(None);
            }
        };
        Ok(Some(&self.reassembler.buffer[message]))
    }
}

// === Message payload codec =================================================

const REQ_BATCH: u8 = 0x02;
const REQ_RESET: u8 = 0x03;
const RESP_BATCH: u8 = 0x82;
const RESP_RESET: u8 = 0x83;

/// One transport request, client → server, borrowed from its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Process one reset-aligned window of packets, in execution order
    /// ([`Target::process_batch`](crate::Target::process_batch)). Clients
    /// encode it with [`Request::encode_batch`].
    Batch(Packets<'a>),
    /// Reset the connection's target to the just-started state
    /// ([`Target::reset`](crate::Target::reset)).
    Reset,
}

/// The packets of a decoded [`Request::Batch`]: borrowed slices of the
/// received payload, checked by [`Request::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packets<'a> {
    len: usize,
    /// `len` length-prefixed packets, back to back.
    bytes: &'a [u8],
}

impl<'a> Packets<'a> {
    /// Number of packets in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packets, in execution order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u8]> {
        let mut reader = Reader::new(self.bytes);
        (0..self.len).map(move |_| reader.bytes().expect("checked by Request::decode"))
    }
}

/// One transport reply, server → client, borrowed from its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response<'a> {
    /// Per-packet outcomes and traces of one processed window. Servers
    /// encode it with [`Response::encode_batch`].
    Batch(Records<'a>),
    /// Acknowledges a [`Request::Reset`].
    ResetDone,
}

/// The records of a [`Response::Batch`], undecoded: [`Response::decode`]
/// reads only their count, and [`decode_into`](Records::decode_into)
/// checks each record as it decodes it into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Records<'a> {
    len: usize,
    bytes: &'a [u8],
}

impl Records<'_> {
    /// Number of records the reply announces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the reply to an empty window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes every record into `out` (rewound first), in execution order,
    /// re-interning fault sites.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated or malformed record, on a
    /// trace whose slots are not strictly ascending or that holds a zero
    /// count, and on bytes after the last record; `out` then holds the
    /// records before the bad one.
    pub fn decode_into(&self, out: &mut WindowResults) -> Result<(), WireError> {
        out.begin();
        let mut reader = Reader::new(self.bytes);
        for _ in 0..self.len {
            let outcome = reader.outcome()?;
            if !out.record_hits(outcome, reader.hits()?) {
                return Err(UNSORTED_TRACE);
            }
        }
        reader.finish()
    }
}

/// The error of a trace that is not in snapshot form.
const UNSORTED_TRACE: WireError =
    WireError("trace slots not strictly ascending, or a zero hit count");

fn put_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("wire lengths fit in u32");
    out.extend_from_slice(&len.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn put_hits(out: &mut Vec<u8>, hits: &[(u16, u8)]) {
    put_len(out, hits.len());
    for &(slot, count) in hits {
        out.extend_from_slice(&slot.to_le_bytes());
        out.push(count);
    }
}

fn put_fault(out: &mut Vec<u8>, fault: Fault) {
    out.push(match fault.kind {
        FaultKind::Segv => 0,
        FaultKind::HeapUseAfterFree => 1,
        FaultKind::HeapBufferOverflow => 2,
        FaultKind::Hang => 3,
        FaultKind::Panic => 4,
    });
    put_bytes(out, fault.site.as_bytes());
}

fn put_outcome(out: &mut Vec<u8>, outcome: Outcome) {
    match outcome {
        Outcome::Response => out.push(0),
        Outcome::ProtocolError => out.push(1),
        Outcome::Fault(fault) => {
            out.push(2);
            put_fault(out, fault);
        }
    }
}

/// A cursor over a received message payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .bytes
            .get(self.at)
            .ok_or(WireError("truncated message"))?;
        self.at += 1;
        Ok(byte)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let raw = self
            .bytes
            .get(self.at..)
            .and_then(|rest| rest.get(..len))
            .ok_or(WireError("truncated message"))?;
        self.at += len;
        Ok(raw)
    }

    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.at..];
        self.at = self.bytes.len();
        rest
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError("non-UTF-8 string"))
    }

    /// A trace's `(slot, hit count)` pairs, as they lie in the payload.
    fn hits(&mut self) -> Result<impl Iterator<Item = (u16, u8)> + 'a, WireError> {
        let hits = self.u32()? as usize;
        let raw = self.take(hits.checked_mul(3).ok_or(WireError("truncated message"))?)?;
        Ok(raw
            .chunks_exact(3)
            .map(|hit| (u16::from_le_bytes([hit[0], hit[1]]), hit[2])))
    }

    fn fault(&mut self) -> Result<Fault, WireError> {
        let kind = match self.u8()? {
            0 => FaultKind::Segv,
            1 => FaultKind::HeapUseAfterFree,
            2 => FaultKind::HeapBufferOverflow,
            3 => FaultKind::Hang,
            4 => FaultKind::Panic,
            _ => return Err(WireError("unknown fault kind")),
        };
        // Re-interning restores pointer-stable dedup across the wire.
        Ok(Fault::new(kind, intern_site(self.string()?)))
    }

    fn outcome(&mut self) -> Result<Outcome, WireError> {
        match self.u8()? {
            0 => Ok(Outcome::Response),
            1 => Ok(Outcome::ProtocolError),
            2 => Ok(Outcome::Fault(self.fault()?)),
            _ => Err(WireError("unknown outcome variant")),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError("trailing bytes after message"))
        }
    }
}

impl<'a> Request<'a> {
    /// Serialises the request into a message payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Batch(packets) => Self::encode_batch(packets.iter(), out),
            Request::Reset => {
                out.clear();
                out.push(REQ_RESET);
            }
        }
    }

    /// Serialises a [`Request::Batch`] of `packets` into a message payload,
    /// copying each packet once, straight from the caller's slices.
    pub fn encode_batch<'p>(packets: impl ExactSizeIterator<Item = &'p [u8]>, out: &mut Vec<u8>) {
        out.clear();
        out.push(REQ_BATCH);
        put_len(out, packets.len());
        for packet in packets {
            put_bytes(out, packet);
        }
    }

    /// Deserialises a request from a message payload, borrowing its packets.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed payloads.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(payload);
        let request = match reader.u8()? {
            REQ_BATCH => {
                let len = reader.u32()? as usize;
                let first = reader.at;
                for _ in 0..len {
                    reader.bytes()?;
                }
                let bytes = &payload[first..reader.at];
                Request::Batch(Packets { len, bytes })
            }
            REQ_RESET => Request::Reset,
            _ => return Err(WireError("unknown request tag")),
        };
        reader.finish()?;
        Ok(request)
    }
}

impl<'a> Response<'a> {
    /// Serialises the response into a message payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::Batch(records) => {
                out.push(RESP_BATCH);
                put_len(out, records.len);
                out.extend_from_slice(records.bytes);
            }
            Response::ResetDone => out.push(RESP_RESET),
        }
    }

    /// Serialises a [`Response::Batch`] of a window's `records` into a
    /// message payload, straight from their flat buffers.
    pub fn encode_batch(records: &WindowResults, out: &mut Vec<u8>) {
        out.clear();
        out.push(RESP_BATCH);
        put_len(out, records.len());
        for (outcome, hits) in records.iter() {
            put_outcome(out, outcome);
            put_hits(out, hits);
        }
    }

    /// Deserialises a response from a message payload. A batch reply's
    /// records stay undecoded until [`Records::decode_into`], which checks
    /// them.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed payloads.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(payload);
        let response = match reader.u8()? {
            RESP_BATCH => {
                let len = reader.u32()? as usize;
                return Ok(Response::Batch(Records {
                    len,
                    bytes: reader.rest(),
                }));
            }
            RESP_RESET => Response::ResetDone,
            _ => return Err(WireError("unknown response tag")),
        };
        reader.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(framing: WireFraming, payload: &[u8]) {
        let framed = framing.frame(payload);
        let mut reassembler = FrameReassembler::new(framing);
        reassembler.push(&framed);
        let message = reassembler
            .next_message()
            .expect("valid framing")
            .expect("complete message");
        assert_eq!(message, payload);
        assert!(!reassembler.is_mid_message());
    }

    #[test]
    fn raw_and_tpkt_round_trip_basic_payloads() {
        for framing in [WireFraming::Raw, WireFraming::Tpkt] {
            round_trip(framing, b"");
            round_trip(framing, b"x");
            round_trip(framing, &[0xA5; 1_000]);
        }
    }

    #[test]
    fn tpkt_segments_large_messages_and_reassembles_them() {
        let big = vec![0x42u8; TPKT_MAX_USER * 2 + 17];
        let framed = WireFraming::Tpkt.frame(&big);
        // Three DT TPDUs: two full continuations plus the EOT tail.
        assert_eq!(framed.len(), big.len() + 3 * TPKT_HEADER);
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&framed);
        assert_eq!(reassembler.next_message().unwrap(), Some(&big[..]));
    }

    /// The stateless RFC 1006 header oracle, written independently of the
    /// reassembler: TPKT version 3, reserved 0, a length covering the whole
    /// frame, and a COTP header that fits and is a DT TPDU.
    fn prescan_oracle(frame: &[u8]) -> bool {
        let len = frame.len();
        len >= 7
            && frame[0] == 0x03
            && frame[1] == 0x00
            && usize::from(u16::from_be_bytes([frame[2], frame[3]])) == len
            && frame[4] >= 2
            && usize::from(frame[4]) + 5 <= len
            && frame[5] == 0xF0
    }

    #[test]
    fn tpkt_frames_satisfy_the_prescan_oracle() {
        for payload in [&b""[..], b"abc", &[0u8; 512]] {
            let framed = WireFraming::Tpkt.frame(payload);
            assert!(
                prescan_oracle(&framed),
                "single-frame TPKT messages are oracle-valid"
            );
        }
    }

    #[test]
    fn reassembler_rejects_desynchronised_streams() {
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&[0x04, 0x00, 0x00, 0x07, 0x02, 0xF0, 0x80]);
        assert!(reassembler.next_message().is_err(), "bad TPKT version");
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&[0x03, 0x00, 0x00, 0x07, 0x02, 0xE0, 0x80]);
        assert!(reassembler.next_message().is_err(), "not a DT TPDU");
    }

    #[test]
    fn framing_assignment_matches_the_iso_stack_split() {
        assert_eq!(WireFraming::for_target("libiec61850"), WireFraming::Tpkt);
        assert_eq!(WireFraming::for_target("libiec_iccp_mod"), WireFraming::Tpkt);
        for raw in ["libmodbus", "IEC104", "lib60870", "opendnp3"] {
            assert_eq!(WireFraming::for_target(raw), WireFraming::Raw, "{raw}");
        }
    }

    #[test]
    fn request_codec_round_trips() {
        let mut buffer = Vec::new();
        Request::Reset.encode_into(&mut buffer);
        assert_eq!(Request::decode(&buffer), Ok(Request::Reset));
        let packets: [&[u8]; 3] = [&[0xFF; 9], &[], &[7]];
        Request::encode_batch(packets.iter().copied(), &mut buffer);
        let request = Request::decode(&buffer).expect("valid payload");
        let Request::Batch(decoded) = request else {
            panic!("expected a batch request, got {request:?}");
        };
        assert!(decoded.iter().eq(packets), "packets lent in order");
        let mut again = Vec::new();
        request.encode_into(&mut again);
        assert_eq!(again, buffer);
    }

    #[test]
    fn response_codec_round_trips_and_reinterns_fault_sites() {
        let fault = Fault::new(FaultKind::HeapUseAfterFree, intern_site("mms.c:parse"));
        let hits = [(3, 1), (9, 200), (65_000, 2)];
        let mut buffer = Vec::new();
        Response::ResetDone.encode_into(&mut buffer);
        assert_eq!(Response::decode(&buffer), Ok(Response::ResetDone));
        let records = [
            (Outcome::Response, &hits[..]),
            (Outcome::ProtocolError, &[][..]),
            (Outcome::Fault(fault), &hits[..]),
        ];
        let mut sent = WindowResults::new();
        for (outcome, hits) in records {
            assert!(sent.record_hits(outcome, hits.iter().copied()));
        }
        Response::encode_batch(&sent, &mut buffer);
        let reply = Response::decode(&buffer);
        let Ok(Response::Batch(batch)) = reply else {
            panic!("expected a batch reply");
        };
        let mut window = WindowResults::new();
        batch.decode_into(&mut window).expect("valid records");
        assert!(window.iter().eq(records));
        let mut again = Vec::new();
        reply.expect("decoded").encode_into(&mut again);
        assert_eq!(again, buffer);
        // Decoded fault sites are pointer-identical to the interned
        // originals, so wire faults dedup against in-process ones.
        let Some((Outcome::Fault(decoded_fault), _)) = window.iter().next_back() else {
            panic!("the last record is the fault");
        };
        assert!(std::ptr::eq(decoded_fault.site, fault.site));
    }

    #[test]
    fn reply_decoding_refuses_traces_it_would_have_to_repair() {
        // A trace crosses the wire in snapshot form; anything else is a
        // corrupted reply, not a trace to sort or filter.
        for hits in [&[(9u16, 1u8), (3, 1)][..], &[(3, 1), (3, 2)], &[(3, 0)]] {
            let mut batch = vec![RESP_BATCH];
            put_len(&mut batch, 1);
            put_outcome(&mut batch, Outcome::Response);
            put_hits(&mut batch, hits);
            let Ok(Response::Batch(records)) = Response::decode(&batch) else {
                panic!("a batch header decodes on its own");
            };
            let mut window = WindowResults::new();
            assert_eq!(
                records.decode_into(&mut window),
                Err(UNSORTED_TRACE),
                "{hits:?}"
            );
            assert!(window.is_empty());
        }
    }

    #[test]
    fn message_stream_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        let mut sender = MessageStream::new(WireFraming::Tpkt);
        sender.send(&mut wire, b"first").unwrap();
        sender.send(&mut wire, b"second message").unwrap();
        let mut receiver = MessageStream::new(WireFraming::Tpkt);
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(receiver.recv(&mut cursor).unwrap(), Some(&b"first"[..]));
        assert_eq!(
            receiver.recv(&mut cursor).unwrap(),
            Some(&b"second message"[..])
        );
        assert_eq!(receiver.recv(&mut cursor).unwrap(), None, "clean EOF");
    }
}
