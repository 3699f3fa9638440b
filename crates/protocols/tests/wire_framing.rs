//! Property suite for the framed-TCP wire: header round-trips, partial-read
//! reassembly, and agreement between the TPKT framer and the independent
//! RFC 1006 header check `FrameSpec::TpktCotp` (in `support`).
//!
//! The transport seam's equivalence story (`tests/transport_equivalence.rs`
//! at the workspace root) rests on this layer never corrupting, splitting,
//! or reordering a message — these properties pin that foundation over
//! arbitrary payloads and arbitrary stream chunkings.

use std::io::Cursor;

use proptest::prelude::*;

use peachstar_coverage::{EdgeId, SparseTrace, TraceContext};
use peachstar_protocols::wire::{FrameReassembler, MessageStream, Request, Response, WireFraming};
use peachstar_protocols::{intern_site, Fault, FaultKind, Outcome, TargetId, WindowResults};

// Shared with `decoder_framing.rs`; only the TPKT/COTP check is used here.
#[allow(dead_code)]
mod support;

use support::FrameSpec;

const FRAMINGS: [WireFraming; 2] = [WireFraming::Raw, WireFraming::Tpkt];

/// Feeds `stream` to a fresh reassembler in the given chunks and returns
/// every completed message.
fn reassemble(framing: WireFraming, chunks: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut reassembler = FrameReassembler::new(framing);
    let mut messages = Vec::new();
    for chunk in chunks {
        reassembler.push(chunk);
        while let Some(message) = reassembler.next_message().expect("well-formed stream") {
            messages.push(message.to_vec());
        }
    }
    assert!(
        !reassembler.is_mid_message(),
        "whole frames must leave nothing buffered"
    );
    messages
}

#[test]
fn framing_table_matches_the_six_targets() {
    // The ISO-stack targets ride ISO-on-TCP; everything else is raw-framed.
    for target in TargetId::ALL {
        let expected = match target {
            TargetId::Iec61850 | TargetId::Iccp => WireFraming::Tpkt,
            _ => WireFraming::Raw,
        };
        assert_eq!(
            WireFraming::for_target(target.project_name()),
            expected,
            "{target:?} speaks the wrong framing"
        );
    }
}

#[test]
fn tpkt_segmentation_chains_dt_tpdus_for_oversized_messages() {
    // A message past one TPKT's u16 capacity crosses as a DT chain where
    // only the last TPDU carries the end-of-TSDU bit — and reassembles
    // whole. 150_000 bytes forces three frames.
    let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    let frame = WireFraming::Tpkt.frame(&payload);
    assert!(frame.len() > payload.len() + 14, "at least three headers");
    let messages = reassemble(WireFraming::Tpkt, &[&frame]);
    assert_eq!(messages, vec![payload]);
}

#[test]
fn reassembler_rejects_corrupted_tpkt_headers() {
    let frame = WireFraming::Tpkt.frame(b"hello");
    for (index, name) in [(0, "version"), (4, "COTP length"), (5, "TPDU code")] {
        let mut bad = frame.clone();
        bad[index] ^= 0xFF;
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&bad);
        assert!(
            reassembler.next_message().is_err(),
            "corrupted {name} byte must fail loudly, not desynchronise"
        );
    }
}

/// The trace of an execution that walked `edges`.
fn trace_of(edges: &[u16]) -> SparseTrace {
    let mut ctx = TraceContext::new();
    for &edge in edges {
        ctx.edge(EdgeId::new(u32::from(edge)));
    }
    ctx.trace().to_sparse()
}

/// The number of message kinds: two requests, then two replies.
const KINDS: u8 = 4;

/// A well-formed message of one of the four kinds (two requests, two
/// replies), built from the drawn packets and edges by the encoders.
fn well_formed(kind: u8, packets: &[Vec<u8>], edges: &[u16]) -> Vec<u8> {
    let fault = Fault::new(
        FaultKind::HeapBufferOverflow,
        intern_site("wire_framing.rs:hostile"),
    );
    let mut out = Vec::new();
    match kind % KINDS {
        0 => Request::encode_batch(packets.iter().map(Vec::as_slice), &mut out),
        1 => Request::Reset.encode_into(&mut out),
        2 => {
            let mut records = WindowResults::new();
            for (i, packet) in packets.iter().enumerate() {
                let outcome = match packet.len() % 3 {
                    0 => Outcome::Response,
                    1 => Outcome::ProtocolError,
                    _ => Outcome::Fault(fault),
                };
                let trace = trace_of(&edges[i.min(edges.len())..]);
                assert!(records.record_hits(outcome, trace.hits().iter().copied()));
            }
            Response::encode_batch(&records, &mut out);
        }
        _ => Response::ResetDone.encode_into(&mut out),
    }
    out
}

/// Decodes `message` as a request; when it is accepted, it must re-encode
/// to its own bytes.
fn request_accepts(message: &[u8]) -> bool {
    let Ok(request) = Request::decode(message) else {
        return false;
    };
    let mut again = Vec::new();
    request.encode_into(&mut again);
    assert_eq!(again, message, "{request:?} re-encodes to other bytes");
    true
}

/// Decodes `message` as a reply, a batch reply's records included; when it
/// is accepted, it must re-encode to its own bytes.
fn reply_accepts(message: &[u8]) -> bool {
    let mut again = Vec::new();
    match Response::decode(message) {
        Err(_) => return false,
        Ok(Response::Batch(records)) => {
            let mut window = WindowResults::new();
            if records.decode_into(&mut window).is_err() {
                return false;
            }
            Response::encode_batch(&window, &mut again);
        }
        Ok(reply) => reply.encode_into(&mut again),
    }
    assert_eq!(
        again, message,
        "an accepted reply re-encodes to other bytes"
    );
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hostile bytes never make the request or the reply decoder panic, and
    /// every message either accepts re-encodes to its own bytes. A reply's
    /// trace is accepted only in snapshot form, so a corrupted one cannot
    /// decode into a different trace. The inputs are well-formed messages
    /// of every kind — accepted untouched — then flipped, cut, extended or
    /// replaced by drawn bytes behind a valid tag, so both the accepting and
    /// the refusing paths run.
    #[test]
    fn decoders_survive_hostile_bytes_and_accepted_messages_re_encode(
        kind in any::<u8>(),
        edit in any::<u8>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        packets in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..12),
            0..5,
        ),
        edges in proptest::collection::vec(any::<u16>(), 0..12),
        raw in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut message = well_formed(kind, &packets, &edges);
        let is_request = kind % KINDS < 2;
        match edit % 5 {
            0 => {
                prop_assert!(
                    if is_request { request_accepts(&message) } else { reply_accepts(&message) },
                    "a well-formed message of kind {} is refused", kind % KINDS
                );
            }
            1 => {
                let at = at % message.len();
                message[at] ^= byte.max(1);
            }
            2 => message.truncate(at % (message.len() + 1)),
            3 => message.push(byte),
            _ => message.splice(1.., raw).for_each(drop),
        }
        request_accepts(&message);
        reply_accepts(&message);
    }

    /// Frame → reassemble is the identity for arbitrary payloads under both
    /// framings, including the empty message.
    #[test]
    fn framed_messages_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        for framing in FRAMINGS {
            let frame = framing.frame(&payload);
            prop_assert_eq!(
                reassemble(framing, &[&frame]),
                vec![payload.clone()],
                "{:?}: frame/reassemble is not the identity", framing
            );
        }
    }

    /// Reassembly is split-invariant: cutting the stream at *every* byte
    /// boundary recovers the same single message.
    #[test]
    fn reassembly_survives_a_split_at_every_byte_boundary(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        for framing in FRAMINGS {
            let frame = framing.frame(&payload);
            for split in 0..=frame.len() {
                let (head, tail) = frame.split_at(split);
                prop_assert_eq!(
                    reassemble(framing, &[head, tail]),
                    vec![payload.clone()],
                    "{:?}: split at byte {} corrupted the message", framing, split
                );
            }
        }
    }

    /// Back-to-back messages survive arbitrary re-chunking of the byte
    /// stream: no boundary bleed, no reordering, no loss.
    #[test]
    fn message_sequences_survive_arbitrary_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..6,
        ),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        for framing in FRAMINGS {
            let mut stream = Vec::new();
            for payload in &payloads {
                framing.frame_into(payload, &mut stream);
            }
            let mut boundaries: Vec<usize> =
                cuts.iter().map(|&cut| cut % (stream.len() + 1)).collect();
            boundaries.extend([0, stream.len()]);
            boundaries.sort_unstable();
            let chunks: Vec<&[u8]> = boundaries
                .windows(2)
                .map(|pair| &stream[pair[0]..pair[1]])
                .collect();
            prop_assert_eq!(
                reassemble(framing, &chunks),
                payloads.clone(),
                "{:?}: re-chunking corrupted the message sequence", framing
            );
        }
    }

    /// The TPKT framer obeys RFC 1006: every frame the transport emits for
    /// a one-TPKT message passes the prescan oracle, the stateless
    /// `FrameSpec::TpktCotp` header check.
    #[test]
    fn tpkt_frames_satisfy_the_prescan_oracle(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256),
            1..24,
        ),
    ) {
        for payload in &payloads {
            let frame = WireFraming::Tpkt.frame(payload);
            prop_assert!(
                FrameSpec::TpktCotp.check(&frame),
                "a framer-built TPKT frame fails the RFC 1006 header check: {frame:02x?}"
            );
        }
    }

    /// `MessageStream` (the production send/recv pair) round-trips message
    /// sequences over an in-memory stream, then reports a clean EOF.
    #[test]
    fn message_stream_round_trips_and_detects_clean_eof(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128),
            0..5,
        ),
    ) {
        for framing in FRAMINGS {
            let mut wire = Vec::new();
            let mut sender = MessageStream::new(framing);
            for payload in &payloads {
                sender.send(&mut wire, payload).expect("in-memory send");
            }
            let mut reader = Cursor::new(wire);
            let mut receiver = MessageStream::new(framing);
            for payload in &payloads {
                let received = receiver.recv(&mut reader).expect("in-memory recv");
                prop_assert_eq!(received, Some(&payload[..]));
            }
            prop_assert_eq!(
                receiver.recv(&mut reader).expect("clean EOF"),
                None,
                "{:?}: EOF after the last frame must read as a clean shutdown", framing
            );
        }
    }
}
